"""Segregation measures over the mutable feature subspace.

Distances, neighborhood assignment and similarity weights are all
evaluated against a frozen reference population (normally the initial
training data), so before/after comparisons use one fixed ruler. The
measures: Atkinson evenness over focal-point neighborhoods, minority
share above a prediction threshold (centralization), proximity-weighted
clustering (ACI) with closeness exp(-d), and a spectral index (SSI) over
the within-group similarity network.

ACI and SSI are read off one walk of the closeness exp(-d) in row tiles,
one (row group, column group) block at a time. A distance reads only the
mutable features and the label, so the members of a group that agree on
them (a profile class) have equal distances to everyone. The walk goes
over each group's classes, which one imitation round makes few: ACI's
sums weight each class pair by its member counts, and SSI is read off the
classes' quotient network. A population of distinct rows is its own
classes, so its indices are the member-level ones bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Population, SchemaError
from .effort import EffortEngine, EffortParams, _distinct_rows, row_tiles

# Power iteration stops once the residual is within POWER_TOL * max(1, |lambda|).
POWER_TOL = 1e-10
POWER_MAX_ITER = 10000


def check_settings(
    beta: float, connectivity_threshold: float, centralization_threshold: float | None
) -> None:
    """Raise ``SchemaError`` unless the segregation settings can be measured with.

    Atkinson's ``beta`` lies in (0, 1), SSI's ``connectivity_threshold`` is
    finite and >= 0, and ``centralization_threshold`` is None or finite.
    """
    if not 0.0 < beta < 1.0:
        raise SchemaError(f"beta must lie in (0,1), got {beta}")
    if not (connectivity_threshold >= 0 and math.isfinite(connectivity_threshold)):
        raise SchemaError(
            f"connectivity_threshold must be finite and >= 0, got {connectivity_threshold}"
        )
    if not (centralization_threshold is None or math.isfinite(centralization_threshold)):
        raise SchemaError(
            f"centralization_threshold must be a finite number or null, got {centralization_threshold}"
        )


@dataclass(frozen=True)
class MetricContext:
    """Every setting of the segregation measures, frozen for before/after comparisons.

    The quantile tables of ``reference``, the cost model, the protected group,
    Atkinson's ``beta``, the least closeness SSI keeps as an edge, and the
    centralization threshold (``None``: each model's mean prediction on ``reference``).
    """

    reference: Population
    params: EffortParams
    minority: str
    beta: float = 0.5
    connectivity_threshold: float = 1e-6
    centralization_threshold: float | None = None

    def __post_init__(self) -> None:
        check_settings(self.beta, self.connectivity_threshold, self.centralization_threshold)
        if self.minority not in self.reference.group_names:
            raise ValueError(f"minority group {self.minority!r} not present in reference")

    @functools.cached_property
    def engine(self) -> EffortEngine:
        return EffortEngine(self.reference, self.params)

    @property
    def mutable_indices(self) -> list[int]:
        return [k for k, f in enumerate(self.reference.schema.features) if f.mutable]


def _view(ctx: MetricContext, pop: Population) -> tuple[list[int], np.ndarray]:
    """The distance view's columns, the mutable features and then the label, and the rows they index."""
    return ctx.mutable_indices + [pop.schema.size], np.column_stack([pop.X, pop.y])


def _block_tiles(ctx: MetricContext, idx: list[int], row_group: str, col_group: str, A, B):
    """Yield ``(lo, hi, tile)``: the distances from rows ``A[lo:hi]`` to every row of ``B``.

    ``A`` holds members of ``row_group``, ``B`` of ``col_group``. A view of
    group g is one ``eps_reads`` walk on g's tables over the unweighted
    columns ``idx``: the mutable-feature efforts plus the positive
    label-rank gap. Entry (i, j) is the larger of i's group view and j's
    group view, so a same-group block needs one view and a cross-group
    block two. The tile is scratch that the next step overwrites.
    """

    def view(g):
        return ((lo, hi, read()) for lo, hi, read, _, _ in ctx.engine.eps_reads(g, A, B, idx, weighted=False))

    if row_group == col_group:
        yield from view(row_group)
        return
    for (lo, hi, own), (_, _, other) in zip(view(row_group), view(col_group)):
        yield lo, hi, np.maximum(own, other, out=own)


def _classes(XY: np.ndarray, rows: np.ndarray, idx: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The profile classes of ``XY[rows]`` on the columns ``idx``: one row of each, and their member counts.

    The classes come in the order of their first member, so rows that are
    all distinct are their own classes in the order of ``rows``.
    """
    first, of_row = _distinct_rows(XY[np.ix_(rows, idx)])
    order = np.argsort(first)
    return XY[rows[first[order]]], np.bincount(of_row, minlength=first.size)[order].astype(np.float64)


def pairwise_distances(ctx: MetricContext, pop: Population) -> np.ndarray:
    """(n, n) distance matrix of a population under the frozen context.

    Entry (i, j) is the larger of two directed views of the move i -> j,
    one through each endpoint's group tables: the unweighted mutable-feature
    efforts plus the positive label-rank gap. This dense form is the
    definition, built one (row group, column group) block and row tile at
    a time; ``distance_indices`` reads ACI and SSI off the same tiles
    without building it.
    """
    idx, XY = _view(ctx, pop)
    out = np.empty((pop.size, pop.size))
    for row_group, col_group in itertools.product(pop.group_names, repeat=2):
        rows, cols = pop.group_rows(row_group), pop.group_rows(col_group)
        for lo, hi, tile in _block_tiles(ctx, idx, row_group, col_group, XY[rows], XY[cols]):
            out[np.ix_(rows[lo:hi], cols)] = tile
    return out


def build_focal_neighborhoods(
    ctx: MetricContext, vectors: Sequence[np.ndarray], pop: Population
) -> np.ndarray:
    """The index of each individual's nearest focal vector.

    Focal vectors live in the mutable subspace; the distance is the sum of
    the individual's own-group feature efforts toward the focal values
    (no label term). Ties go to the lowest-index focal vector. A row's
    distances depend on its mutable values alone, so each group's distinct
    mutable profiles are measured once and their nearest vectors handed to
    their rows: the same bits as measuring every row.
    """
    idx = ctx.mutable_indices
    if len(vectors) == 0:
        raise ValueError("focal point list is empty")
    V = np.asarray(vectors, dtype=np.float64)
    if V.shape != (len(vectors), len(idx)):
        raise ValueError("focal vectors must live in the mutable subspace")
    F = np.zeros((len(V), ctx.reference.schema.size))
    F[:, idx] = V
    nearest = np.empty(pop.size, np.intp)
    for g in pop.group_names:
        rows = pop.group_rows(g)
        first, of_row = _distinct_rows(pop.X[rows][:, idx])
        dist = ctx.engine.eps_sum(g, pop.X[rows[first]], F, idx, weighted=False)
        nearest[rows] = np.argmin(dist, axis=1)[of_row]  # first minimum wins
    return nearest


def atkinson_index(minority_counts, totals, beta: float) -> float:
    """Atkinson evenness over unit counts: 0 even, 1 fully separated."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0,1), got {beta}")
    m = np.asarray(minority_counts, dtype=np.float64)
    t = np.asarray(totals, dtype=np.float64)
    if np.any(m > t) or np.any(m < 0):
        raise ValueError("minority counts must lie in [0, total]")
    keep = t > 0
    m, t = m[keep], t[keep]
    T = float(t.sum())
    M = float(m.sum())
    if T == 0:
        raise ValueError("empty neighborhood configuration")
    P = M / T
    if P in (0.0, 1.0):
        raise ValueError("population must contain both minority and majority members")
    p = m / t
    terms = np.zeros_like(p)
    interior = (p > 0.0) & (p < 1.0)
    terms[interior] = (1.0 - p[interior]) ** (1.0 - beta) * p[interior] ** beta
    inner = float(np.sum(terms * t) / (T * P))
    return 1.0 - (P / (1.0 - P)) * inner ** (1.0 / (1.0 - beta))


def centralization(h, pop: Population, minority: str, threshold: float) -> float:
    """Fraction of minority members predicted strictly above the threshold."""
    rows = pop.group_rows(minority)
    preds = h.predict_rows(pop.schema, pop.X[rows])
    return float(np.mean(preds > threshold))


def absolute_clustering(
    n: int, m: int, total: float, minority_rows: float, minority_pairs: float
) -> float | None:
    """Individual-level clustering index with closeness exp(-distance).

    Every individual is its own areal unit (t_j = 1, m_i in {0,1}); the
    diagonal weight is exp(0) = 1. The index needs three sums of exp(-d):
    over all n x n pairs (``total``), over the m minority rows
    (``minority_rows``) and over the minority x minority pairs
    (``minority_pairs``). Returns None when the normalization denominator
    vanishes.
    """
    if n < 2:
        raise ValueError("clustering needs at least 2 individuals")
    if m == 0 or m == n:
        raise ValueError("minority and majority must both be nonempty")
    uniform = total * (1.0 / n) * (m / n)
    denom = minority_rows / m - uniform
    if denom == 0.0:
        return None
    return (minority_pairs / m - uniform) / denom


def _spectral_radius(M: np.ndarray) -> float | None:
    """Perron root of a nonnegative, possibly asymmetric matrix, by power iteration.

    The within-group similarity exp(-d) comes from a directed distance, so M
    need not be symmetric. Iterates on M shifted by its largest row sum;
    without the shift, near-bipartite components oscillate between +/- the
    spectral radius. The start vector and the shift are positive, so every
    iterate is. Each step takes one product with the shifted matrix: the
    product that checks a step's residual is the next step's iterate.
    Returns None when it does not converge within ``POWER_MAX_ITER`` steps.
    The shift is added to M's diagonal in place, so M is consumed when the
    iteration converges: callers pass an array they own and drop afterwards.
    When it does not, M's diagonal is written back, for ``_perron_root``.
    """
    n = M.shape[0]
    shift = float(M.sum(axis=1).max())
    if shift == 0.0:
        return 0.0
    diagonal = M.diagonal().copy()
    M.flat[:: n + 1] += shift  # M + shift * I, without a copy or an n x n temporary
    x = np.full(n, 1.0 / math.sqrt(n))
    y = M @ x
    for _ in range(POWER_MAX_ITER):
        x = y / float(np.linalg.norm(y))
        y = M @ x
        lam_shifted = float(x @ y)
        if float(np.abs(y - lam_shifted * x).max()) <= POWER_TOL * max(1.0, abs(lam_shifted)):
            return lam_shifted - shift
    M.flat[:: n + 1] = diagonal
    return None  # did not converge


def _strong_components(adj: np.ndarray) -> list[np.ndarray]:
    """Strongly connected parts of the directed graph of ``adj``'s nonzero entries (Tarjan).

    Each part is sorted. The depth-first search keeps its own stack of
    (node, successor iterator), so a long one-way chain does not meet
    Python's recursion limit.
    """
    succ = [np.flatnonzero(row).tolist() for row in adj != 0.0]
    index, low, on_stack = [-1] * len(succ), [0] * len(succ), [False] * len(succ)
    stack: list[int] = []
    parts = []
    visited = 0

    def visit(v):
        nonlocal visited
        index[v] = low[v] = visited
        visited += 1
        stack.append(v)
        on_stack[v] = True
        return v, iter(succ[v])

    for root in range(len(succ)):
        if index[root] >= 0:
            continue
        path = [visit(root)]
        while path:
            v, todo = path[-1]
            for w in todo:
                if index[w] < 0:
                    path.append(visit(w))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    part = []
                    while not part or part[-1] != v:
                        part.append(stack.pop())
                        on_stack[part[-1]] = False
                    parts.append(np.sort(part))
    return parts


def _perron_root(M: np.ndarray) -> float | None:
    """Perron root of a nonnegative matrix: by power iteration, else over its strongly connected parts.

    Power iteration does not converge on a reducible matrix whose top root
    is repeated, as on a chain of ties that runs one way only. A reducible
    matrix's roots are those of the diagonal blocks of its strongly
    connected parts, so its Perron root is the largest of theirs, and each
    part is irreducible. M is consumed (see ``_spectral_radius``).
    """
    lam = _spectral_radius(M)
    if lam is not None:
        return lam
    roots = [_spectral_radius(M[np.ix_(part, part)]) for part in _strong_components(M)]
    return None if None in roots else max(roots)


def _components(adj: np.ndarray) -> list[np.ndarray]:
    """Connected components, treating any nonzero entry as an undirected edge.

    The similarity matrix need not be symmetric (the underlying distance is
    directed), so both in- and out-edges connect. Each component is sorted,
    and components come in the order of their smallest member. Labels spread
    a whole frontier at a time. The undirected adjacency is built, and each
    step's frontier rows reduced, one row tile at a time, so beside the
    adjacency the search holds only one tile's temporaries.
    """
    n = adj.shape[0]
    sym = np.empty((n, n), bool)
    for lo, hi in row_tiles(n, n):
        np.not_equal(adj[lo:hi], 0.0, out=sym[lo:hi])
        sym[lo:hi] |= adj[:, lo:hi].T != 0.0
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        members = np.zeros(n, dtype=bool)
        members[start] = True
        frontier = members.copy()
        while frontier.any():
            rows, reach = np.flatnonzero(frontier), np.zeros(n, dtype=bool)
            for lo, hi in row_tiles(rows.size, n):
                reach |= sym[rows[lo:hi]].any(axis=0)
            frontier = reach & ~members
            members |= frontier
        seen |= members
        comps.append(np.flatnonzero(members))
    return comps


def spectral_segregation(
    similarity: np.ndarray, sizes: np.ndarray, connectivity_threshold: float = 1e-6
) -> float | None:
    """Spectral segregation index of a group's similarity network, read off its profile classes.

    ``similarity`` is the closeness C of the group's profile classes and
    ``sizes`` their member counts n (ones for a member-level block). The
    member network ties members of classes a and b by C[a, b], with a zero
    diagonal and entries below the connectivity threshold dropped. The
    classes are an equitable partition of it (Godsil & Royle 2001), so the
    quotient Q[a, b] = n_b * C[a, b] - [a = b] * C[a, a] has each
    component's spectral radius lambda_c, and Q's components are the
    members' ones, but for a class with no tie at all: its members are
    isolated, and both score zero. Each member of component c scores
    lambda_c * v_i * |c|, with v the Perron vector normalized to sum one
    and |c| the members of c, so the mean over the m members is
    sum_c |c| * lambda_c / m and needs no eigenvector. Q is built in place
    and a component spanning every class is iterated on in place, so
    ``similarity`` is consumed. A component on which power iteration does
    not converge takes the largest radius of its strongly connected parts
    (``_perron_root``); returns None if that fails too.
    """
    n = np.asarray(sizes, dtype=np.float64)
    Q = similarity
    Q[Q < connectivity_threshold] = 0.0
    within = Q.diagonal().copy()
    np.multiply(Q, n, out=Q)
    Q.flat[:: n.size + 1] -= within  # no member has a tie to itself
    total = 0.0
    for comp in _components(Q):
        sub = Q if comp.size == Q.shape[0] else Q[np.ix_(comp, comp)]
        lam = _perron_root(sub)
        if lam is None:
            return None
        total += float(n[comp].sum()) * lam
    return total / float(n.sum())


def distance_indices(
    ctx: MetricContext, pop: Population, walk: dict | None = None
) -> tuple[float | None, float | None]:
    """ACI and SSI of a population, read off its closeness tiles over profile classes.

    The walk never holds the n x n distance matrix. It goes over each
    group's profile classes (``_classes``), with their member counts n,
    and takes the closeness C = exp(-d) of each ``_block_tiles`` tile of a
    (row group, column group) block in place. ACI's three sums are
    sum_ab n_a * n_b * C[a, b] over the class pairs of a block: each tile
    is weighted by its classes' sizes in place and then summed; a side whose
    sizes are all one is not weighted, since x * 1.0 == x. Only the
    minority's class x class closeness is kept, copied before it is
    weighted, for SSI on its quotient (see
    ``spectral_segregation``). Both measures depend on the population alone,
    not on the model, so a population shared by several runs is measured
    once. ``walk``, if given, receives the pairs, each group's rows and
    classes, and the cells computed.
    """
    idx, XY = _view(ctx, pop)
    classes = {g: _classes(XY, pop.group_rows(g), idx) for g in pop.group_names}
    if walk is not None:
        walk.update(
            pairs=pop.size**2,
            rows={g: pop.group_size(g) for g in pop.group_names},
            classes={g: sizes.size for g, (_, sizes) in classes.items()},
            cells=sum(sizes.size for _, sizes in classes.values()) ** 2,
        )
    minority = ctx.minority
    total = minority_rows = minority_pairs = 0.0
    for row_group, col_group in itertools.product(pop.group_names, repeat=2):
        (A, row_sizes), (B, col_sizes) = classes[row_group], classes[col_group]
        kept = row_group == col_group == minority
        if kept:
            closeness = np.empty((row_sizes.size, col_sizes.size))
        weigh_rows, weigh_cols = (bool((w != 1.0).any()) for w in (row_sizes, col_sizes))
        for lo, hi, tile in _block_tiles(ctx, idx, row_group, col_group, A, B):
            np.exp(np.negative(tile, out=tile), out=tile)
            if kept:
                closeness[lo:hi] = tile
            if weigh_rows:
                np.multiply(tile, row_sizes[lo:hi, None], out=tile)
            if weigh_cols:
                np.multiply(tile, col_sizes, out=tile)
            s = float(tile.sum())
            total += s
            if row_group == minority:
                minority_rows += s
                if col_group == minority:
                    minority_pairs += s
    return (
        absolute_clustering(pop.size, pop.group_size(minority), total, minority_rows, minority_pairs),
        spectral_segregation(closeness, classes[minority][1], ctx.connectivity_threshold),
    )


@dataclass(frozen=True)
class SegregationReport:
    atkinson: float | None
    centralization: float
    aci: float | None
    ssi: float | None
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**self.values(), "metadata": self.metadata}

    def values(self) -> dict:
        return {
            "atkinson": self.atkinson,
            "centralization": self.centralization,
            "aci": self.aci,
            "ssi": self.ssi,
        }


def measure_population(
    ctx: MetricContext,
    h,
    pop: Population,
    focal_points: Sequence,
    indices: tuple[float | None, float | None],
) -> SegregationReport:
    """All four measures of one population under one frozen context.

    ``indices`` is the population's ``(aci, ssi)`` from ``distance_indices``
    under ``ctx``; Atkinson and centralization are computed here.
    """
    threshold = ctx.centralization_threshold
    if threshold is None:
        threshold = float(np.mean(h.predict(ctx.reference)))
    meta: dict = {
        "beta": ctx.beta,
        "threshold": threshold,
        "connectivity_threshold": ctx.connectivity_threshold,
        "minority": ctx.minority,
        "atkinson_form": "normalized (no 1/N factor; even configurations score 0)",
        "ssi_form": "sum over components of size * spectral radius / m (unnormalized)",
        "quantile_tables": "frozen_reference",
    }
    if focal_points:
        nearest = build_focal_neighborhoods(ctx, [fp.vector for fp in focal_points], pop)
        units = len(focal_points)
        minority = np.bincount(nearest[pop.group_rows(ctx.minority)], minlength=units)
        atk = atkinson_index(minority, np.bincount(nearest, minlength=units), ctx.beta)
    else:
        atk = None
        meta["atkinson_absent"] = "no focal points (nobody imitated)"
    aci, ssi = indices
    if aci is None:
        meta["aci_absent"] = "zero denominator in clustering normalization"
    if ssi is None:
        meta["ssi_absent"] = "power iteration did not converge"
    cent = centralization(h, pop, ctx.minority, threshold)
    return SegregationReport(
        atkinson=atk, centralization=cent, aci=aci, ssi=ssi, metadata=meta
    )
