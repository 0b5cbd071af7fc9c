"""Effort-based unfairness measures and residual-difference baselines.

All three effort measures scan, for every individual, the candidate
profiles present in the supplied population (the same data whose quantile
tables define effort). Effort does not depend on the decision policy, so an
audit walks the population's finite-effort pairs once and serves every model
it audits from that walk; no n x n array is held. Per row and model it keeps
only the row's Pareto staircase (least effort for at least a given benefit),
and every measure reads its answers off the staircases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .dataset import Population
from .effort import EVERY, EffortEngine, EffortParams

BOUNDED_EFFORT = "bounded_effort"
THRESHOLD_REWARD = "threshold_reward"
EFFORT_REWARD = "effort_reward"
POSITIVE_RESIDUAL = "positive_residual"
NEGATIVE_RESIDUAL = "negative_residual"


@dataclass(frozen=True)
class UnfairnessReport:
    measure: str
    per_group_value: dict
    disparity: float | None
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "measure": self.measure,
            "per_group_value": self.per_group_value,
            "disparity": self.disparity,
        }
        if self.metadata:
            out["metadata"] = self.metadata
        return out


@dataclass(frozen=True)
class DeltaCurve:
    measure: str
    deltas: tuple
    per_group_values: dict
    per_group_feasibility: dict | None = None


def _disparity(values: dict) -> float | None:
    present = [v for v in values.values() if v is not None]
    if len(present) < len(values) or not present:
        return None
    if len(present) == 1:
        return 0.0
    return float(max(present) - min(present))


@dataclass(frozen=True)
class _Staircases:
    """One model's per-row Pareto staircases, flat and in row order.

    With the candidates in stable ascending-benefit order ``b_asc``, the
    suffix minimum ``sufmin[p]`` of row i's efforts is the least effort of
    the candidates at position p or later, and ``inf`` past the last one. It
    is nondecreasing, and it only steps up right after a position p whose
    own effort is ``sufmin[p]``. Those positions of finite effort are row
    i's staircase: row i's points are ``pos[starts[i]:starts[i + 1]]`` and
    their efforts ``val[...]``, both strictly increasing. ``sufmin`` is
    constant from one point back to the point before it, and ``inf`` after
    the last point, so the staircase answers every measure with comparisons
    and the same subtractions as a scan of the whole row, and keeps its
    bits.
    """

    b: np.ndarray
    b_asc: np.ndarray
    pos: np.ndarray
    val: np.ndarray
    starts: np.ndarray

    @classmethod
    def assemble(cls, b: np.ndarray, asc: np.ndarray, tiles: list) -> "_Staircases":
        """Join the walk's per-tile ``(rows, counts, pos, val)`` pieces in row order.

        The tiles and their rows may come in any order. Each row sits in one
        tile, whose piece holds the row's points together and in order, one
        row after another as its ``rows`` lists them, so each row's run of
        points moves whole to the row's place.
        """
        rows, counts, pos, val = (np.concatenate(parts) for parts in zip(*tiles))
        starts = np.zeros(b.shape[0] + 1, dtype=np.intp)
        starts[rows + 1] = counts
        starts = np.cumsum(starts)
        at = np.repeat(starts[rows] - (np.cumsum(counts) - counts), counts)
        at += np.arange(at.shape[0])
        points, efforts = np.empty_like(pos), np.empty_like(val)
        points[at], efforts[at] = pos, val
        return cls(b, b[asc], points, efforts, starts)

    def _per_row(self, ufunc, values: np.ndarray, empty, dtype) -> np.ndarray:
        """Per row, ``ufunc`` reduced over its points' ``values``; ``empty`` for a row with no point.

        A row reaches itself unless a NaN in a gated column rules out all of
        its moves, staying put included.
        """
        has = self.starts[:-1] < self.starts[1:]
        out = np.full((has.shape[0],) + values.shape[1:], empty, dtype)
        out[has] = ufunc.reduceat(values, self.starts[:-1][has], axis=0, dtype=dtype)
        return out

    def _count(self, hits: np.ndarray) -> np.ndarray:
        """Per row, the number of its points with ``hits`` set, for each column of ``hits``."""
        return self._per_row(np.add, hits, 0, np.intp)

    def rewards(self) -> np.ndarray:
        """``b[j] - b[i]`` at every point j of every row i."""
        return self.b_asc[self.pos] - np.repeat(self.b, np.diff(self.starts))

    def table(self, measure: str, grid: Sequence[float]) -> np.ndarray:
        """(n, len(grid)) per-individual answers of one measure.

        * Bounded effort: the points within the budget form a prefix, and
          its last point is the reachable candidate with the highest
          benefit. The answer is its benefit minus ``b[i]``, or 0 when no
          point fits.
        * Threshold reward: the first point whose reward reaches delta has
          the least effort of all candidates that do (``inf`` when no
          point does).
        """
        deltas = np.asarray(grid, dtype=np.float64)
        if measure == BOUNDED_EFFORT:
            if not np.all(deltas >= 0):
                raise ValueError(f"effort budget must be >= 0, got {list(grid)}")
            fits = self._count(self.val[:, None] <= deltas)
            # read only where fits > 0; with no point at all, fits is all 0 and stands in for it
            last = self.pos[self.starts[:-1, None] + fits - 1] if self.pos.size else fits
            return np.where(fits > 0, self.b_asc[last] - self.b[:, None], 0.0)
        if measure == THRESHOLD_REWARD:
            first = self.starts[:-1, None] + self._count(self.rewards()[:, None] < deltas)
            inside = first < self.starts[1:, None]  # all False when no row has a point
            return np.where(inside, self.val[np.where(inside, first, 0)] if self.val.size else np.inf, np.inf)
        raise ValueError(f"cannot sweep measure {measure!r}")

    def best_utility(self) -> np.ndarray:
        """Each row's best ``(b[j] - b[i]) - e[i, j]`` over all candidates j.

        Any candidate is matched by the staircase point at or after its
        position, which has no less benefit and no more effort. Rounded
        subtraction is monotone in both operands, so that point's utility
        is no lower, and the maximum over the points is the row's maximum;
        ``-inf`` for a row with no point.
        """
        return self._per_row(np.maximum, self.rewards() - self.val, -np.inf, np.float64)


def audit_benefits(pop: Population, params: EffortParams, models: Iterable) -> list[np.ndarray]:
    """Each model's ``params.reward`` for every row of ``pop``, as ``FairnessAudit`` takes it.

    A negative benefit under a non-integer risk aversion is a
    ``SchemaError``, so a caller can check the cost model before it writes
    anything.
    """
    return [np.asarray(params.reward(pop.y, h.predict(pop)), dtype=np.float64) for h in models]


class FairnessAudit:
    """Every audited model's effort staircases over one population, from one effort walk.

    The constructor takes the models to audit and each one's benefits ``b``
    (``audit_benefits``, computed here unless given). The reward of moving
    from row i to candidate j is ``b[j] - b[i]``, monotone in ``b[j]``, so
    one ordering of the benefits orders every row. The walk over
    ``EffortEngine.effort_reads`` takes its rows in gate order, folds each
    tile's gates on the tile's candidate columns alone (no move to another
    column is allowed), and reads the efforts of the feasible pairs alone,
    so it sees only the pairs of finite effort, and an unreachable candidate
    is never a staircase point. ``walk`` counts the walk's ``tiles``,
    ``pairs``, ``feasible_pairs``, ``gate_cells``, the cells the gate folds
    read, between ``feasible_pairs`` and ``pairs``, and the engine's
    ``columns``. Which tile a row
    sits in and in what order its pairs come changes no bit: each pair's
    effort is the same fold, and ties are settled by the highest position
    over their run. Per tile, one sort of the pairs by (row, effort) serves
    every model, which keeps each row's staircase points from its pairs'
    ascending-benefit positions. The walk also keeps the largest finite
    effort, the top of the bounded-effort grid. Every measure is then
    answered from the staircases, with the same bits as a scan of every
    pair. Asking about a model the audit was not built with is a
    ``ValueError``.
    """

    def __init__(
        self,
        pop: Population,
        params: EffortParams,
        models: Iterable,
        benefits: Sequence[np.ndarray] | None = None,
    ):
        self.pop = pop
        self.params = params
        self.models = tuple(models)
        n = pop.size
        if benefits is None:
            benefits = audit_benefits(pop, params, self.models)
        orders = [np.argsort(b, kind="stable") for b in benefits]
        positions = [np.empty_like(asc) for asc in orders]
        for asc, position in zip(orders, positions):
            position[asc] = np.arange(n)
        pieces: list[list] = [[] for _ in self.models]
        top = 0.0  # efforts are never negative
        self.walk = {"tiles": 0, "pairs": n * n, "gate_cells": 0, "feasible_pairs": 0}
        engine = EffortEngine(pop, params)
        for rows, read, allowed, cols in engine.effort_reads(pop):
            self.walk["tiles"] += 1
            width = n if cols is EVERY else cols.shape[0]
            self.walk["gate_cells"] += rows.shape[0] * width
            r, j = np.divmod(np.flatnonzero(allowed(cols)), width)
            if cols is not EVERY:
                j = cols[j]
            e = read(pairs=(r, j))
            finite = np.isfinite(e)  # a sum that overflowed is as unreachable as a gated move
            if not finite.all():
                r, j, e = r[finite], j[finite], e[finite]
            self.walk["feasible_pairs"] += e.shape[0]
            top = max(top, float(e.max(initial=0.0)))
            # One sort by (row, effort) serves every model: by effort, then a
            # stable radix sort by row (several times faster than lexsort). A
            # pair is a staircase point iff no pair of its row with no more
            # effort has a later position, so it holds the highest position
            # of all the row's pairs up to the end of its equal-effort run.
            order = np.argsort(e)
            row_type = np.min_scalar_type(rows.shape[0])
            order = order[np.argsort(r[order].astype(row_type), kind="stable")]
            r, j, e = r[order], j[order], e[order]
            ends = np.ones(e.shape, bool)
            np.not_equal(e[1:], e[:-1], out=ends[:-1])
            ends[:-1] |= r[1:] != r[:-1]
            ends = np.flatnonzero(ends)
            run_end = np.repeat(ends, np.diff(ends, prepend=-1))
            base = r * n  # rows take disjoint key ranges, in row order
            for position, parts in zip(positions, pieces):
                key = base + position[j]
                keep = np.flatnonzero(key == np.maximum.accumulate(key)[run_end])
                counts = np.bincount(r[keep], minlength=rows.shape[0])
                parts.append((rows, counts, position[j[keep]], e[keep]))
            del read, allowed  # see EffortEngine.effort_reads
        self.walk.update(engine.columns)
        self.max_finite_effort = top
        self._staircases = {
            id(h): _Staircases.assemble(b, asc, parts)
            for h, b, asc, parts in zip(self.models, benefits, orders, pieces)
        }

    def _of(self, h) -> _Staircases:
        # self.models keeps every audited model alive, so no other object shares its id.
        try:
            return self._staircases[id(h)]
        except KeyError:
            raise ValueError("the audit was not built with this model") from None

    def benefits(self, h) -> np.ndarray:
        """The risk-adjusted benefit of each row under model ``h``."""
        return self._of(h).b

    def staircase_size(self, h) -> dict:
        """Model ``h``'s staircase points in total and in the longest row."""
        counts = np.diff(self._of(h).starts)
        return {"points": int(counts.sum()), "max_row_points": int(counts.max(initial=0))}

    def effort_reward(self, h) -> UnfairnessReport:
        """Best achievable utility per individual, floored at staying put."""
        best = np.maximum(self._of(h).best_utility(), 0.0)
        values = {g: float(np.mean(best[self.pop.group_rows(g)])) for g in self.pop.group_names}
        return UnfairnessReport(
            measure=EFFORT_REWARD,
            per_group_value=values,
            disparity=_disparity(values),
            metadata={
                "candidate_set": "population",
                "benefit": self.params.benefit,
                "alpha": self.params.alpha,
                "floor": "stay_put_zero_utility",
            },
        )

    def default_grid(self, h, measure: str, points: int = 20) -> tuple:
        """Evenly spaced budgets/thresholds spanning the observed pairwise range."""
        if points < 2:
            raise ValueError("grid needs at least 2 points")
        b = self.benefits(h)
        if measure == BOUNDED_EFFORT:
            hi = self.max_finite_effort
        elif measure == THRESHOLD_REWARD:
            hi = float(max(b.max() - b.min(), 0.0))
        else:
            raise ValueError(f"no delta grid for measure {measure!r}")
        return tuple(np.linspace(0.0, hi, points).tolist())

    def sweep(self, h, measure: str, grid: Sequence[float]) -> DeltaCurve:
        """Per-group means of one measure at every delta of an ascending grid.

        * Bounded effort (delta is an effort budget): the best reachable
          reward. An individual with no candidate inside the budget stays
          put and scores zero reward.
        * Threshold reward (delta is a reward level): the least effort that
          reaches it. An individual with no finite-effort candidate at that
          level is excluded from the group mean; the group's feasible share
          is its feasibility, and its value is ``None`` when nobody is
          feasible.
        """
        grid = tuple(float(d) for d in grid)
        if list(grid) != sorted(grid):
            raise ValueError("delta grid must be sorted ascending")
        table = self._of(h).table(measure, grid)
        values: dict = {}
        feas: dict = {}
        for g in self.pop.group_names:
            # One contiguous row per delta, so each mean adds in row order.
            cols = np.ascontiguousarray(table[self.pop.group_rows(g)].T)
            if measure == BOUNDED_EFFORT:
                values[g] = [float(np.mean(col)) for col in cols]
            else:
                finite = np.isfinite(cols)
                values[g] = [
                    float(np.mean(col[ok])) if ok.any() else None for col, ok in zip(cols, finite)
                ]
                feas[g] = [float(np.mean(ok)) for ok in finite]
        return DeltaCurve(measure, grid, values, feas if measure == THRESHOLD_REWARD else None)


def residual_differences(h, pop: Population) -> tuple[UnfairnessReport, UnfairnessReport]:
    """Mean positive residual and mean negative residual gaps across groups.

    A group's value is absent when it has no member on the relevant side
    of the residual; the disparity is then absent too.
    """
    resid = h.predict(pop) - pop.y
    pos_values: dict = {}
    neg_values: dict = {}
    for g in pop.group_names:
        r = resid[pop.group_rows(g)]
        n_pos = int(np.sum(r > 0))
        n_neg = int(np.sum(r < 0))
        pos_values[g] = float(np.sum(np.maximum(r, 0.0)) / n_pos) if n_pos else None
        neg_values[g] = float(np.sum(np.maximum(-r, 0.0)) / n_neg) if n_neg else None
    pos = UnfairnessReport(
        measure=POSITIVE_RESIDUAL, per_group_value=pos_values, disparity=_disparity(pos_values)
    )
    neg = UnfairnessReport(
        measure=NEGATIVE_RESIDUAL, per_group_value=neg_values, disparity=_disparity(neg_values)
    )
    return pos, neg
