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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Population
from .effort import EffortEngine, EffortParams


@dataclass(frozen=True)
class MetricContext:
    """Frozen quantile tables + cost model + protected-group choice."""

    reference: Population
    params: EffortParams
    minority: str

    def __post_init__(self) -> None:
        if self.minority not in self.reference.group_names:
            raise ValueError(f"minority group {self.minority!r} not present in reference")
        object.__setattr__(self, "_engine", EffortEngine(self.reference, self.params))

    @property
    def engine(self) -> EffortEngine:
        return self._engine  # type: ignore[attr-defined]

    @property
    def mutable_indices(self) -> list[int]:
        return [k for k, f in enumerate(self.reference.schema.features) if f.mutable]


def pairwise_distances(ctx: MetricContext, pop: Population) -> np.ndarray:
    """(n, n) distance matrix of a population under the frozen context.

    Entry (i, j) is the larger of two directed views of the move i -> j,
    one through each endpoint's group tables: the positive label-rank gap
    plus the unweighted mutable-feature efforts.
    """
    eng = ctx.engine
    n = pop.size
    idx = ctx.mutable_indices
    views: dict[str, np.ndarray] = {}
    for g in ctx.reference.group_names:
        ly = eng.label_rank(g, pop.y)
        label_term = np.maximum(0.0, ly[None, :] - ly[:, None])
        views[g] = label_term + eng.eps_sum(g, pop.X, pop.X, idx, weighted=False)
    row_view = np.empty((n, n))
    col_view = np.empty((n, n))
    for g in pop.group_names:
        rows = pop.group_rows(g)
        row_view[rows, :] = views[g][rows, :]
        col_view[:, rows] = views[g][:, rows]
    return np.maximum(row_view, col_view)


@dataclass(frozen=True)
class Unit:
    members: tuple
    minority_count: int
    total: int


@dataclass(frozen=True)
class Neighborhoods:
    units: tuple

    def counts(self) -> tuple[np.ndarray, np.ndarray]:
        m = np.array([u.minority_count for u in self.units], dtype=np.float64)
        t = np.array([u.total for u in self.units], dtype=np.float64)
        return m, t


def build_focal_neighborhoods(
    ctx: MetricContext, focal_points: Sequence, pop: Population
) -> Neighborhoods:
    """Assign each individual to its nearest focal point.

    Focal vectors live in the mutable subspace; the distance is the sum of
    the individual's own-group feature efforts toward the focal values
    (no label term). Ties go to the lowest-index focal point.
    """
    if not focal_points:
        raise ValueError("focal point list is empty")
    idx = ctx.mutable_indices
    F = np.zeros((len(focal_points), ctx.reference.schema.size))
    for fi, fp in enumerate(focal_points):
        vec = np.asarray(getattr(fp, "vector", fp), dtype=np.float64)
        if vec.shape != (len(idx),):
            raise ValueError("focal vectors must live in the mutable subspace")
        F[fi, idx] = vec
    dist = np.empty((pop.size, len(focal_points)))
    for g in pop.group_names:
        rows = pop.group_rows(g)
        dist[rows, :] = ctx.engine.eps_sum(g, pop.X[rows], F, idx, weighted=False)
    nearest = np.argmin(dist, axis=1)  # first minimum wins
    units = []
    for fi in range(len(focal_points)):
        members = tuple(int(i) for i in np.flatnonzero(nearest == fi))
        minority_count = sum(1 for i in members if pop.groups[i] == ctx.minority)
        units.append(Unit(members=members, minority_count=minority_count, total=len(members)))
    return Neighborhoods(units=tuple(units))


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


def atkinson(neigh: Neighborhoods, beta: float = 0.5) -> float:
    m, t = neigh.counts()
    return atkinson_index(m, t, beta)


def centralization(h, pop: Population, minority: str, threshold: float) -> float:
    """Fraction of minority members predicted strictly above the threshold."""
    rows = pop.group_rows(minority)
    preds = h.predict_rows(pop.schema, pop.X[rows])
    return float(np.mean(preds > threshold))


def absolute_clustering(ctx: MetricContext, pop: Population, dist: np.ndarray) -> float | None:
    """Individual-level clustering index with closeness exp(-distance).

    Every individual is its own areal unit (t_j = 1, m_i in {0,1});
    the diagonal weight is exp(0) = 1. Returns None when the
    normalization denominator vanishes.
    """
    if pop.size < 2:
        raise ValueError("clustering needs at least 2 individuals")
    minority_rows = pop.group_rows(ctx.minority)
    n = pop.size
    m = minority_rows.size
    if m == 0 or m == n:
        raise ValueError("minority and majority must both be nonempty")
    C = np.exp(-dist)
    m_ind = np.zeros(n)
    m_ind[minority_rows] = 1.0
    weighted_rows = (m_ind / m) @ C  # sum_i c_ij m_i / m, for each j
    first = float(weighted_rows @ m_ind)
    uniform = float(C.sum()) * (1.0 / n) * (m / n)
    denom = float(weighted_rows.sum()) - uniform
    if denom == 0.0:
        return None
    return (first - uniform) / denom


def _power_iteration(M: np.ndarray, tol: float = 1e-10, max_iter: int = 10000):
    """Dominant (Perron) eigenpair of a nonnegative, possibly asymmetric matrix.

    The within-group similarity exp(-d) comes from a directed distance, so M
    need not be symmetric. Iterates on M shifted by its largest row sum;
    without the shift, near-bipartite components oscillate between +/- the
    spectral radius. Returns None when it does not converge.
    """
    n = M.shape[0]
    if n == 1:
        return float(M[0, 0]), np.array([1.0])
    shift = float(M.sum(axis=1).max())
    if shift == 0.0:
        return 0.0, np.full(n, 1.0 / n)
    S = M + shift * np.eye(n)
    x = np.full(n, 1.0 / math.sqrt(n))
    lam_shifted = 0.0
    for _ in range(max_iter):
        y = S @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0, np.full(n, 1.0 / n)
        x_new = y / norm
        lam_shifted = float(x_new @ (S @ x_new))
        if float(np.abs(S @ x_new - lam_shifted * x_new).max()) <= tol * max(1.0, abs(lam_shifted)):
            x = x_new
            break
        x = x_new
    else:
        return None  # did not converge
    lam = lam_shifted - shift
    if x.sum() < 0:
        x = -x
    return lam, x


def _components(adj: np.ndarray) -> list[np.ndarray]:
    """Connected components, treating any nonzero entry as an undirected edge.

    The similarity matrix need not be symmetric (the underlying distance is
    directed), so both in- and out-edges connect.
    """
    sym = (adj != 0.0) | (adj.T != 0.0)
    n = adj.shape[0]
    seen = np.zeros(n, dtype=bool)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            v = stack.pop()
            members.append(v)
            for w in np.flatnonzero(sym[v]):
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        comps.append(np.array(sorted(members)))
    return comps


def spectral_segregation(
    pop: Population, group: str, dist: np.ndarray, connectivity_threshold: float = 1e-6
) -> float | None:
    """Mean spectral score of a group's similarity network.

    The within-group similarity matrix exp(-d) gets a zeroed diagonal and
    entries below the connectivity threshold removed; each connected
    component contributes lambda * eigvec_i * |component| per member, with
    the dominant eigenvector normalized to sum one. Returns None if power
    iteration fails to converge.
    """
    rows = pop.group_rows(group)
    B = np.exp(-dist[np.ix_(rows, rows)])
    np.fill_diagonal(B, 0.0)
    B[B < connectivity_threshold] = 0.0
    scores = np.zeros(rows.size)
    for comp in _components(B):
        sub = B[np.ix_(comp, comp)]
        result = _power_iteration(sub)
        if result is None:
            return None
        lam, vec = result
        total = float(vec.sum())
        if total == 0.0:
            continue
        vec = vec / total
        scores[comp] = lam * vec * comp.size
    return float(np.mean(scores))


def distance_indices(
    ctx: MetricContext, pop: Population, connectivity_threshold: float
) -> tuple[float | None, float | None]:
    """ACI and SSI of a population: the two measures read off its distance matrix.

    They depend on the population alone, not on the model, so a population
    shared by several runs is measured once.
    """
    dist = pairwise_distances(ctx, pop)
    return (
        absolute_clustering(ctx, pop, dist),
        spectral_segregation(pop, ctx.minority, dist, connectivity_threshold),
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
        "quantile_tables": "frozen_reference",
    }
    if focal_points:
        neigh = build_focal_neighborhoods(ctx, focal_points, pop)
        atk = atkinson(neigh, beta)
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
