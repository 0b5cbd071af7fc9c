"""Segregation measures over the mutable feature subspace.

Distances, neighborhood assignment and similarity weights are all
evaluated against a frozen reference population (normally the initial
training data), so before/after comparisons use one fixed ruler. The
measures: Atkinson evenness over focal-point neighborhoods, minority
share above a prediction threshold (centralization), proximity-weighted
clustering (ACI) with closeness exp(-d), and a spectral index (SSI) over
the within-group similarity network.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Population
from .effort import EffortEngine, EffortParams

# Power iteration stops once the residual is within POWER_TOL * max(1, |lambda|).
POWER_TOL = 1e-10
POWER_MAX_ITER = 10000


@dataclass(frozen=True)
class MetricContext:
    """Frozen quantile tables + cost model + protected-group choice."""

    reference: Population
    params: EffortParams
    minority: str

    def __post_init__(self) -> None:
        if self.minority not in self.reference.group_names:
            raise ValueError(f"minority group {self.minority!r} not present in reference")

    @functools.cached_property
    def engine(self) -> EffortEngine:
        return EffortEngine(self.reference, self.params)

    @property
    def mutable_indices(self) -> list[int]:
        return [k for k, f in enumerate(self.reference.schema.features) if f.mutable]


def _distance_tiles(ctx: MetricContext, pop: Population):
    """Yield ``(row_group, col_group, lo, hi, tile)`` covering the distance matrix.

    The walk goes one (row group, column group) block at a time, in row
    tiles: ``tile`` holds the distances from the row group's members
    ``lo:hi`` to every member of the column group, in ``group_rows`` order.
    A view of group g is one ``eps_tiles`` walk on g's tables over the
    unweighted mutable features and, last, the label column: the efforts
    plus the positive label-rank gap. Entry (i, j) is the larger of i's
    group view and j's group view, so a same-group block needs one view and
    a cross-group block two. The tile is scratch that the next step
    overwrites.
    """
    idx = ctx.mutable_indices + [pop.schema.size]  # the label column last
    XY = np.column_stack([pop.X, pop.y])

    def view_tiles(g, rows, cols):
        return ctx.engine.eps_tiles(g, XY[rows], XY[cols], idx, weighted=False)

    for row_group in pop.group_names:
        rows = pop.group_rows(row_group)
        for col_group in pop.group_names:
            cols = pop.group_rows(col_group)
            if row_group == col_group:
                for lo, hi, tile in view_tiles(row_group, rows, cols):
                    yield row_group, col_group, lo, hi, tile
                continue
            pairs = zip(view_tiles(row_group, rows, cols), view_tiles(col_group, rows, cols))
            for (lo, hi, own), (_, _, other) in pairs:
                yield row_group, col_group, lo, hi, np.maximum(own, other, out=own)


def pairwise_distances(ctx: MetricContext, pop: Population) -> np.ndarray:
    """(n, n) distance matrix of a population under the frozen context.

    Entry (i, j) is the larger of two directed views of the move i -> j,
    one through each endpoint's group tables: the unweighted mutable-feature
    efforts plus the positive label-rank gap. This dense form is the
    definition; ``distance_indices`` reads ACI and SSI off the same tiles
    without building it.
    """
    out = np.empty((pop.size, pop.size))
    for row_group, col_group, lo, hi, tile in _distance_tiles(ctx, pop):
        out[np.ix_(pop.group_rows(row_group)[lo:hi], pop.group_rows(col_group))] = tile
    return out


def build_focal_neighborhoods(
    ctx: MetricContext, vectors: Sequence[np.ndarray], pop: Population
) -> np.ndarray:
    """The index of each individual's nearest focal vector.

    Focal vectors live in the mutable subspace; the distance is the sum of
    the individual's own-group feature efforts toward the focal values
    (no label term). Ties go to the lowest-index focal vector.
    """
    idx = ctx.mutable_indices
    if len(vectors) == 0:
        raise ValueError("focal point list is empty")
    V = np.asarray(vectors, dtype=np.float64)
    if V.shape != (len(vectors), len(idx)):
        raise ValueError("focal vectors must live in the mutable subspace")
    F = np.zeros((len(V), ctx.reference.schema.size))
    F[:, idx] = V
    dist = np.empty((pop.size, len(V)))
    for g in pop.group_names:
        rows = pop.group_rows(g)
        dist[rows] = ctx.engine.eps_sum(g, pop.X[rows], F, idx, weighted=False)
    return np.argmin(dist, axis=1)  # first minimum wins


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
    The shift is added to M's diagonal in place, so M is consumed: callers
    pass an array they own and drop afterwards.
    """
    n = M.shape[0]
    shift = float(M.sum(axis=1).max())
    if shift == 0.0:
        return 0.0
    M.flat[:: n + 1] += shift  # M + shift * I, without a copy or an n x n temporary
    x = np.full(n, 1.0 / math.sqrt(n))
    y = M @ x
    for _ in range(POWER_MAX_ITER):
        x = y / float(np.linalg.norm(y))
        y = M @ x
        lam_shifted = float(x @ y)
        if float(np.abs(y - lam_shifted * x).max()) <= POWER_TOL * max(1.0, abs(lam_shifted)):
            return lam_shifted - shift
    return None  # did not converge


def _components(adj: np.ndarray) -> list[np.ndarray]:
    """Connected components, treating any nonzero entry as an undirected edge.

    The similarity matrix need not be symmetric (the underlying distance is
    directed), so both in- and out-edges connect. Each component is sorted,
    and components come in the order of their smallest member. Labels spread
    a whole frontier at a time, one row-block reduction per step.
    """
    sym = (adj != 0.0) | (adj.T != 0.0)
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        members = np.zeros(n, dtype=bool)
        members[start] = True
        frontier = members.copy()
        while frontier.any():
            frontier = sym[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        comps.append(np.flatnonzero(members))
    return comps


def spectral_segregation(
    similarity: np.ndarray, connectivity_threshold: float = 1e-6
) -> float | None:
    """Spectral segregation index of a group's similarity network.

    ``similarity`` is the closeness exp(-d) of the group's within-group
    distance block; it gets a zeroed diagonal and entries below the
    connectivity threshold removed, in place. Each member of component c
    scores lambda_c * v_i * |c|, with v the Perron vector normalized to sum
    one, so the mean score over the m members is sum_c |c| * lambda_c / m and
    needs no eigenvector. A component spanning the whole group is iterated on
    in place, so ``similarity`` is consumed. Returns None if power iteration
    fails to converge.
    """
    B = similarity
    np.fill_diagonal(B, 0.0)
    B[B < connectivity_threshold] = 0.0
    total = 0.0
    for comp in _components(B):
        sub = B if comp.size == B.shape[0] else B[np.ix_(comp, comp)]
        lam = _spectral_radius(sub)
        if lam is None:
            return None
        total += comp.size * lam
    return total / B.shape[0]


def distance_indices(
    ctx: MetricContext, pop: Population, connectivity_threshold: float
) -> tuple[float | None, float | None]:
    """ACI and SSI of a population, read off its distance tiles.

    The walk never holds the n x n distance matrix: each tile's closeness
    exp(-d) goes into ACI's three running sums, and only the closeness of
    the minority x minority block is kept, for SSI. Both measures depend on the
    population alone, not on the model, so a population shared by several
    runs is measured once.
    """
    minority = ctx.minority
    m = pop.group_size(minority)
    closeness = np.empty((m, m))
    total = minority_rows = minority_pairs = 0.0
    for row_group, col_group, lo, hi, tile in _distance_tiles(ctx, pop):
        np.negative(tile, out=tile)
        s = float(np.exp(tile, out=tile).sum())
        if row_group == col_group == minority:
            closeness[lo:hi] = tile
        total += s
        if row_group == minority:
            minority_rows += s
            if col_group == minority:
                minority_pairs += s
    return (
        absolute_clustering(pop.size, m, total, minority_rows, minority_pairs),
        spectral_segregation(closeness, connectivity_threshold),
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
    beta: float = 0.5,
    threshold: float = 0.0,
    connectivity_threshold: float = 1e-6,
) -> SegregationReport:
    """All four measures of one population under one frozen context.

    ``indices`` is the population's ``(aci, ssi)`` from ``distance_indices``
    at the same connectivity threshold; Atkinson and centralization are
    computed here.
    """
    meta: dict = {
        "beta": beta,
        "threshold": threshold,
        "connectivity_threshold": connectivity_threshold,
        "minority": ctx.minority,
        "atkinson_form": "normalized (no 1/N factor; even configurations score 0)",
        "ssi_form": "sum over components of size * spectral radius / m (unnormalized)",
        "quantile_tables": "frozen_reference",
    }
    if focal_points:
        nearest = build_focal_neighborhoods(ctx, [fp.vector for fp in focal_points], pop)
        units = len(focal_points)
        minority = np.bincount(nearest[pop.group_rows(ctx.minority)], minlength=units)
        atk = atkinson_index(minority, np.bincount(nearest, minlength=units), beta)
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
