"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately written as plain Python loops over counts
and values: ranks are counted directly, candidate scans enumerate every
pair, the clustering index evaluates its double sums literally, and the
spectral index uses dense eigendecomposition instead of power iteration.
These functions never call the library's vectorized paths.
"""

from __future__ import annotations

import math

import numpy as np


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

    Every position between distinct sorted values of every feature is scored
    in turn, and a split replaces the best only with a strictly lower SSE,
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
        for i in np.flatnonzero(xs[1:] != xs[:-1]):  # split after position i
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
