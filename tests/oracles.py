"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately written as plain Python loops over counts
and values: ranks are counted directly, candidate scans enumerate every
pair, the clustering index evaluates its double sums literally, and the
spectral index uses dense eigendecomposition instead of power iteration.
These functions never call the library's vectorized paths. The last three
(``walk_level_tables``, ``best_split_per_node``, ``fit_tree_per_node``)
are the straightforward numpy forms that sort every column again where it
is read: the bit-for-bit references for the library's cached level codes
and its presorted tree fit. The writers' references
(``outcomes_json``, ``feature_shift_report``, ``write_table``,
``write_csv``) take one row, feature or cell at a time through the
general encoders: the byte-for-byte references for the column writers.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from effortsim.dataset import DataError, format_number


def rank_leq(values, x) -> float:
    return sum(1 for v in values if v <= x) / len(values)


def rank_geq(values, x) -> float:
    return sum(1 for v in values if v >= x) / len(values)


def group_values(pop, group, k) -> list[float]:
    return [float(pop.X[i, k]) for i in range(pop.size) if pop.groups[i] == group]


def feature_effort(feature, values, a, b, default_categorical_cost) -> float:
    kind = feature.kind.kind
    if a == b:
        return 0.0
    if kind == "categorical":
        if feature.categorical_cost is not None:
            return feature.categorical_cost
        return default_categorical_cost
    if kind == "immutable":
        return math.inf
    if kind in ("numerical_monotone", "ordinal_monotone"):
        if feature.kind.direction == "increasing":
            return max(0.0, rank_leq(values, b) - rank_leq(values, a))
        return max(0.0, rank_geq(values, b) - rank_geq(values, a))
    if kind in ("numerical_nonmonotone", "ordinal_nonmonotone"):
        return abs(rank_leq(values, b) - rank_leq(values, a))
    if kind == "conditionally_immutable":
        if feature.kind.direction == "increasing":
            return rank_leq(values, b) - rank_leq(values, a) if b > a else math.inf
        return rank_geq(values, b) - rank_geq(values, a) if b < a else math.inf
    raise AssertionError(f"unhandled kind {kind}")


def total_effort(reference, params, group, xa, xb) -> float:
    """Base cost plus weighted per-feature efforts, quantiles from ``reference``."""
    schema = reference.schema
    acc = 0.0
    for k, feature in enumerate(schema.features):
        w = params.weight_for(group, feature)
        if w == 0.0:
            continue
        values = group_values(reference, group, k)
        acc = acc + w * feature_effort(
            feature, values, float(xa[k]), float(xb[k]), params.categorical_cost
        )
    return params.base_cost_for(group) + acc / schema.size


def benefit(name, y, y_hat) -> float:
    if name == "predicted":
        return y_hat
    if name == "shifted_gain":
        return y_hat - y + 1.0
    raise AssertionError(name)


def benefit_vector(h, pop, params, name) -> list[float]:
    preds = h.predict(pop)
    out = []
    for i in range(pop.size):
        b = benefit(name, float(pop.y[i]), float(preds[i]))
        out.append(b if params.alpha == 1.0 else b ** params.alpha)
    return out


def group_mean(pop, values_by_index) -> dict:
    sums: dict = {}
    counts: dict = {}
    for i, v in values_by_index.items():
        g = pop.groups[i]
        sums[g] = sums.get(g, 0.0) + v
        counts[g] = counts.get(g, 0) + 1
    return {g: sums[g] / counts[g] for g in sums}


def effort_matrix(pop, params) -> list[list[float]]:
    return [
        [total_effort(pop, params, pop.groups[i], pop.X[i], pop.X[j]) for j in range(pop.size)]
        for i in range(pop.size)
    ]


def bounded_effort(h, pop, params, name, delta, E=None) -> dict:
    bene = benefit_vector(h, pop, params, name)
    if E is None:
        E = effort_matrix(pop, params)
    per_individual = {}
    for i in range(pop.size):
        best = None
        for j in range(pop.size):
            e = E[i][j]
            if math.isfinite(e) and e <= delta:
                r = bene[j] - bene[i]
                if best is None or r > best:
                    best = r
        per_individual[i] = best if best is not None else 0.0
    return group_mean(pop, per_individual)


def threshold_reward(h, pop, params, name, delta, E=None) -> tuple[dict, dict]:
    bene = benefit_vector(h, pop, params, name)
    if E is None:
        E = effort_matrix(pop, params)
    per_individual = {}
    feasible_count: dict = {}
    group_size: dict = {}
    for i in range(pop.size):
        g = pop.groups[i]
        group_size[g] = group_size.get(g, 0) + 1
        best = None
        for j in range(pop.size):
            if bene[j] - bene[i] >= delta:
                e = E[i][j]
                if math.isfinite(e) and (best is None or e < best):
                    best = e
        if best is not None:
            per_individual[i] = best
            feasible_count[g] = feasible_count.get(g, 0) + 1
    values = group_mean(pop, per_individual) if per_individual else {}
    groups = sorted(group_size)
    return (
        {g: values.get(g) for g in groups},
        {g: feasible_count.get(g, 0) / group_size[g] for g in groups},
    )


def effort_reward(h, pop, params, name, E=None) -> dict:
    bene = benefit_vector(h, pop, params, name)
    if E is None:
        E = effort_matrix(pop, params)
    per_individual = {}
    for i in range(pop.size):
        best = 0.0  # staying put
        for j in range(pop.size):
            e = E[i][j]
            u = -math.inf if math.isinf(e) else (bene[j] - bene[i]) - e
            if u > best:
                best = u
        per_individual[i] = best
    return group_mean(pop, per_individual)


def role_model(h, pop, params, name, i) -> tuple[int | None, float]:
    """(best index or None, best utility) for the imitation rule.

    The individual's own benefit is predicted through the same single-row
    route as the imitation targets, so a no-op target scores an exact zero
    reward and the strict-positivity rule has no float fuzz at zero.
    """
    mutable = [k for k, f in enumerate(pop.schema.features) if f.mutable]
    own_pred = float(h.predict_rows(pop.schema, np.array([pop.X[i].tolist()]))[0])
    own_benefit = benefit(name, float(pop.y[i]), own_pred)
    if params.alpha != 1.0:
        own_benefit = own_benefit ** params.alpha
    best_j, best_u = None, -math.inf
    for j in range(pop.size):
        target = [float(v) for v in pop.X[i]]
        for k in mutable:
            target[k] = float(pop.X[j, k])
        pred = float(h.predict_rows(pop.schema, np.array([target]))[0])
        b = benefit(name, float(pop.y[j]), pred)
        if params.alpha != 1.0:
            b = b ** params.alpha
        e = total_effort(pop, params, pop.groups[i], pop.X[i], target)
        u = (b - own_benefit) - e
        if u > best_u:
            best_j, best_u = j, u
    return (best_j if best_u > 0.0 else None), best_u


def best_moves(rewards, E) -> list:
    """The imitation round written densely, for bit-for-bit comparisons.

    ``rewards[i, j]`` is row i's reward for imitating row j (``rewards[i, i]``
    its own), ``E`` the mutable-only effort matrix. Each row takes the first
    maximum over every column of ``gain - effort``, where gain is the reward
    minus the row's own, with the same float operations as the library.
    Returns per row ``(j, gain, effort, utility)``, or None where the
    utility is not > 0.
    """
    rewards, E = np.asarray(rewards, dtype=np.float64), np.asarray(E, dtype=np.float64)
    gains = rewards - np.diagonal(rewards)[:, None]
    utils = gains - E
    moves = []
    for i in range(utils.shape[0]):
        j = int(np.argmax(utils[i]))
        moves.append((j, gains[i, j], E[i, j], utils[i, j]) if utils[i, j] > 0.0 else None)
    return moves


def directed_view(reference, params, group, xi, yi, xj, yj) -> float:
    labels = [float(reference.y[r]) for r in range(reference.size) if reference.groups[r] == group]
    total = max(0.0, rank_leq(labels, yj) - rank_leq(labels, yi))
    for k, feature in enumerate(reference.schema.features):
        if not feature.mutable:
            continue
        values = group_values(reference, group, k)
        total += feature_effort(
            feature, values, float(xi[k]), float(xj[k]), params.categorical_cost
        )
    return total


def distance(reference, params, pop, i, j) -> float:
    return max(
        directed_view(reference, params, pop.groups[i], pop.X[i], pop.y[i], pop.X[j], pop.y[j]),
        directed_view(reference, params, pop.groups[j], pop.X[i], pop.y[i], pop.X[j], pop.y[j]),
    )


def distance_matrix(reference, params, pop) -> list[list[float]]:
    return [[distance(reference, params, pop, i, j) for j in range(pop.size)] for i in range(pop.size)]


def aci(dist, minority_flags) -> float | None:
    """Literal evaluation of the clustering formula with c_ij = exp(-d_ij)."""
    n = len(dist)
    m = sum(minority_flags)
    num1 = num2 = den1 = 0.0
    for i in range(n):
        for j in range(n):
            c = math.exp(-dist[i][j])
            num1 += c * (minority_flags[i] / m) * minority_flags[j]
            num2 += c * (1.0 / n) * (m / n)
            den1 += c * (minority_flags[i] / m) * 1.0
    if den1 - num2 == 0.0:
        return None
    return (num1 - num2) / (den1 - num2)


def focal_assignment(reference, params, pop, focal_vectors) -> list[int]:
    """Nearest focal point per individual; mutable-subspace effort distance."""
    mutable = [k for k, f in enumerate(reference.schema.features) if f.mutable]
    out = []
    for i in range(pop.size):
        best_f, best_d = None, None
        for fi, vec in enumerate(focal_vectors):
            d = 0.0
            for pos, k in enumerate(mutable):
                feature = reference.schema.features[k]
                values = group_values(reference, pop.groups[i], k)
                d += feature_effort(
                    feature, values, float(pop.X[i, k]), float(vec[pos]), params.categorical_cost
                )
            if best_d is None or d < best_d:
                best_f, best_d = fi, d
        out.append(best_f)
    return out


def atkinson(minority_counts, totals, beta) -> float:
    T = sum(totals)
    M = sum(minority_counts)
    P = M / T
    inner = 0.0
    for m_i, t_i in zip(minority_counts, totals):
        if t_i == 0:
            continue
        p = m_i / t_i
        if 0.0 < p < 1.0:
            inner += (1.0 - p) ** (1.0 - beta) * p**beta * t_i
    inner /= T * P
    return 1.0 - (P / (1.0 - P)) * inner ** (1.0 / (1.0 - beta))


def components(adj) -> list[list[int]]:
    """Connected components by depth-first search; a nonzero entry either way is an edge.

    Each component is sorted; components come in the order of their
    smallest member.
    """
    n = len(adj)
    unseen = set(range(n))
    out = []
    while unseen:
        start = min(unseen)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in range(n):
                if (adj[v][w] != 0.0 or adj[w][v] != 0.0) and w not in comp:
                    comp.add(w)
                    frontier.append(w)
        unseen -= comp
        out.append(sorted(comp))
    return out


def ssi(similarity) -> float:
    """Spectral segregation via dense eigendecomposition (no power iteration).

    The similarity matrix may be asymmetric; components use undirected
    connectivity and the dominant (Perron) eigenpair comes from the general
    eigensolver.
    """
    B = np.array(similarity, dtype=float)
    scores = np.zeros(B.shape[0])
    for members in components(B):
        sub = B[np.ix_(members, members)]
        eigvals, eigvecs = np.linalg.eig(sub)
        top = int(np.argmax(eigvals.real))
        lam = float(eigvals[top].real)
        vec = eigvecs[:, top].real
        if vec.sum() < 0:
            vec = -vec
        total = float(vec.sum())
        if total != 0.0:
            vec = vec / total
            for pos, idx in enumerate(members):
                scores[idx] = lam * float(vec[pos]) * len(members)
    return float(np.mean(scores))


def tree_split(D, y):
    """The CART split scan as one scalar loop: ``(feature, threshold, child SSE)`` or None.

    Every position between distinct sorted values of every feature, below a
    value that is not NaN (NaN sorts last), is scored in turn, and a split replaces the best only with a strictly lower SSE,
    so ties go to the lowest feature, then the lowest threshold.
    """
    n = y.shape[0]
    best = None  # (sse, feature, threshold)
    for k in range(D.shape[1]):
        order = np.argsort(D[:, k], kind="stable")
        xs = D[order, k]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        total_sum = csum[-1]
        total_sq = csq[-1]
        for i in np.flatnonzero((xs[1:] != xs[:-1]) & ~np.isnan(xs[1:])):  # split after position i
            nl = int(i) + 1
            nr = n - nl
            left = csq[i] - csum[i] * csum[i] / nl
            rs, rq = total_sum - csum[i], total_sq - csq[i]
            sse = left + (rq - rs * rs / nr)
            thr = (xs[i] + xs[i + 1]) / 2.0
            if best is None or sse < best[0]:
                best = (sse, k, thr)
    if best is None:
        return None
    return best[1], best[2], best[0]


def constrained_objective(pop, tau, name, minority, w) -> float:
    """Mean squared error plus ``tau * max(0, gap)`` of the linear weights ``w`` (intercept last).

    The gap is the non-minority rows' mean benefit minus the minority's.
    """
    pred = np.column_stack([pop.X, np.ones(pop.size)]) @ w
    bene = [benefit(name, float(pop.y[i]), float(pred[i])) for i in range(pop.size)]
    majority = [v for v, g in zip(bene, pop.groups) if g != minority]
    minority_values = [v for v, g in zip(bene, pop.groups) if g == minority]
    gap = sum(majority) / len(majority) - sum(minority_values) / len(minority_values)
    return float(np.mean((pred - pop.y) ** 2)) + tau * max(0.0, gap)


def constrained_optimum(pop, tau, name, minority, jitter=0.0) -> float:
    """Least ``constrained_objective`` over the three points one of which minimises it.

    With ``G = A'A`` (plus ``jitter`` on the diagonal) and the gap written
    as ``c . w + g0``, the minimiser either leaves the hinge inactive (the
    least-squares solution), keeps it active (the minimiser of the
    quadratic plus ``tau * c . w``), or sits on the kink (least squares
    subject to a zero gap, from the bordered KKT system). Each is one
    ``np.linalg.solve``.
    """
    n = pop.size
    A = np.column_stack([pop.X, np.ones(n)])
    G = A.T @ A + jitter * np.eye(A.shape[1])
    b = A.T @ pop.y
    in_majority = np.array([g != minority for g in pop.groups])
    c = A[in_majority].mean(axis=0) - A[~in_majority].mean(axis=0)
    bene0 = np.array([benefit(name, float(y), 0.0) for y in pop.y])
    g0 = bene0[in_majority].mean() - bene0[~in_majority].mean()
    bordered = np.block([[2.0 * G / n, c[:, None]], [c[None, :], np.zeros((1, 1))]])
    candidates = [
        np.linalg.solve(G, b),
        np.linalg.solve(G, b - tau * n / 2.0 * c),
        np.linalg.solve(bordered, np.append(2.0 * b / n, -g0))[:-1],
    ]
    return min(constrained_objective(pop, tau, name, minority, w) for w in candidates)


def walk_level_tables(reference, params, group, Xa, Xb, feature_indices, weighted, gates) -> dict:
    """Each column's level tables as a walk built them from its own rows, with no codes kept
    anywhere: ``{(k, "term" or "mask"): (table, codes)}``.

    Column k's distinct ``Xa`` values are sorted, each NaN its own value;
    each ``Xa`` row's code is its value's binary-search position among
    them, which sends every NaN to the first NaN. A term's table runs the
    weighted rule from each distinct value to every row of ``Xb`` (the rank
    gap on the reference group's column, sorted here, clamped at 0 or taken
    absolute, or the flat categorical cost), a mask's table the gate's
    compare. ``gates`` maps a gated column to its direction; column
    ``schema.size`` is the label. So ``table[codes]`` is each ``Xa`` row's
    row of efforts or of allowed moves.
    """
    schema = reference.schema
    out = {}
    for k in feature_indices:
        feature = schema.features[k] if k < schema.size else None
        w = params.weight_for(group, feature) if weighted else 1.0
        if w == 0.0:
            continue
        values = np.sort(Xa[:, k])
        values = values[np.concatenate(([True], values[1:] != values[:-1]))]
        codes = np.searchsorted(values, Xa[:, k])
        a, b = values[:, None], Xb[:, k][None, :]
        if k in gates:
            compare = (np.less_equal, np.equal, np.greater_equal)[gates[k] + 1]
            out[k, "mask"] = (compare(b, a), codes)
        kind = "numerical_monotone" if feature is None else feature.kind.kind
        if kind == "immutable":
            continue
        if kind == "categorical":
            cost = params.categorical_cost_for(feature)
            eps = np.multiply(np.not_equal(b, a).astype(np.float64), cost)
        else:
            column = reference.y if feature is None else reference.X[:, k]
            table = np.sort(column[reference.group_rows(group)])
            n = table.shape[0]
            absolute = kind in ("numerical_nonmonotone", "ordinal_nonmonotone")
            if absolute or feature is None or feature.kind.direction == "increasing":
                qa, qb = (np.searchsorted(table, x, side="right") / n for x in (a, b))
            else:
                qa, qb = ((n - np.searchsorted(table, x, side="left")) / n for x in (a, b))
            eps = np.abs(qb - qa) if absolute else np.maximum(0.0, qb - qa)
        out[k, "term"] = (eps if w == 1.0 else np.multiply(w, eps), codes)
    return out


def best_split_per_node(D, y):
    """The CART split scan of one node from its own rows: ``(feature, threshold, child SSE)``.

    Each feature's rows are sorted stably here, every split position
    between distinct sorted values below a value that is not NaN is scored
    at once, ``argmin`` keeps the
    first least score and a later feature wins only with a strictly lower
    one.
    """
    n = y.shape[0]
    best = None  # (sse, feature, threshold)
    for k in range(D.shape[1]):
        order = np.argsort(D[:, k], kind="stable")
        xs = D[order, k]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        distinct = np.flatnonzero((xs[1:] != xs[:-1]) & ~np.isnan(xs[1:]))
        if distinct.size == 0:
            continue
        nl = distinct + 1
        ls, lq = csum[distinct], csq[distinct]
        rs, rq = csum[-1] - ls, csq[-1] - lq
        sse = (lq - ls * ls / nl) + (rq - rs * rs / (n - nl))
        p = int(np.argmin(sse))
        if best is None or sse[p] < best[0]:
            i = distinct[p]
            best = (sse[p], k, (xs[i] + xs[i + 1]) / 2.0)
    if best is None:
        return None
    return best[1], best[2], best[0]


def fit_tree_per_node(pop, max_depth, best_split=best_split_per_node):
    """CART as a recursion that scans each node's own rows with ``best_split(D[rows], y[rows])``.

    Returns the preorder node list of ``TreePredictor`` and each scanned
    node's ``best_split`` result, in preorder.
    """
    D, y = pop.X, pop.y
    nodes, splits = [], []

    def build(rows, depth):
        node_id = len(nodes)
        ys = y[rows]
        node = {"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": float(np.mean(ys))}
        nodes.append(node)
        if depth < max_depth and rows.size >= 2 and not np.all(ys == ys[0]):
            found = best_split(D[rows], ys)
            splits.append(found)
            node_sse = float(np.sum(ys * ys)) - float(np.sum(ys)) * float(np.sum(ys)) / rows.size
            if found is not None and found[2] < node_sse:
                k, thr, _ = found
                mask = D[rows, k] <= thr
                left, right = build(rows[mask], depth + 1), build(rows[~mask], depth + 1)
                node.update(feature=int(k), threshold=float(thr), left=left, right=right)
        return node_id

    build(np.arange(pop.size), 0)
    return nodes, splits


def outcomes_json(impact) -> str:
    """``outcomes_<model>.json``'s text: every row's ``ImitationOutcome.to_dict()``, indented
    by the general JSON encoder."""
    return json.dumps([o.to_dict() for o in impact.outcomes], sort_keys=True, indent=2, allow_nan=False) + "\n"


def moments(x):
    """``np.mean(x)`` and ``np.var(x)``; where finite values give a plain sum that overflows, the
    mean as s * mean(x / s) with s the largest |x|, the variance as s² * mean(((x - mean) / s)²)
    with s the largest |x - mean|."""
    with np.errstate(over="ignore"):
        mean, var = float(np.mean(x)), float(np.var(x))
    if math.isfinite(mean) and math.isfinite(var) or not np.isfinite(x).all():
        return mean, var
    if not math.isfinite(mean):
        s = float(np.abs(x).max())
        mean = s * float(np.mean(x / s))
    if not math.isfinite(var):
        d = x - mean
        s = float(np.abs(d).max())
        var = s * s * float(np.mean(np.square(d / s)))
    return mean, var


def feature_shift_report(original, impacted, bins=10) -> dict:
    """The shift report one feature and one group at a time: ``moments`` of each group's column
    and ``np.histogram`` on ``bins`` bins over the feature's range in both populations (halved
    terms where the span overflows)."""
    report = {}
    for k, feature in enumerate(original.schema.features):
        lo = float(min(original.X[:, k].min(), impacted.X[:, k].min()))
        hi = float(max(original.X[:, k].max(), impacted.X[:, k].max()))
        if hi == lo:
            hi = lo + 1.0
        h = 1.0 if hi - lo <= np.finfo(float).max else 0.5
        edges = np.linspace(h * lo, h * hi, bins + 1) / h
        per_group = {}
        for g in original.group_names:
            before = original.X[original.group_rows(g), k]
            after = impacted.X[impacted.group_rows(g), k]
            (mean_before, var_before), (mean_after, var_after) = moments(before), moments(after)
            per_group[g] = {
                "mean_before": mean_before,
                "mean_after": mean_after,
                "var_before": var_before,
                "var_after": var_after,
                "hist_before": np.histogram(before, bins=edges)[0].tolist(),
                "hist_after": np.histogram(after, bins=edges)[0].tolist(),
            }
        report[feature.name] = {"bin_edges": edges.tolist(), "groups": per_group}
    return report


def write_table(path, header, rows) -> None:
    """The CSV table writer cell by cell: a string as it is, ``None`` empty, any other cell
    through ``format_number``; a NaN or infinite number is a ``DataError`` after the rows
    before it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        try:
            for row in rows:
                writer.writerow([c if isinstance(c, str) else "" if c is None else format_number(c) for c in row])
        except ValueError:
            raise DataError(f"{path}: a value to write is NaN or infinite") from None


def write_csv(pop, path) -> None:
    """A population in the input CSV format, cell by cell: a level column's name of
    ``levels[int(v)]``, any other cell through ``format_number``."""
    levels = [f.kind.levels for f in pop.schema.features]
    rows = (
        [format_number(v) if lv is None else lv[int(v)] for lv, v in zip(levels, x)] + [format_number(y)]
        for x, y in zip(pop.X.tolist(), pop.y.tolist())
    )
    write_table(path, [*pop.schema.names, pop.schema.label], rows)
