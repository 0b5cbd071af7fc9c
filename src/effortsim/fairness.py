"""Effort-based unfairness measures and residual-difference baselines.

All three effort measures scan, for every individual, the candidate
profiles present in the supplied population (the same data whose quantile
tables define effort). Effort does not depend on the decision policy, so
an audit builds the pairwise effort matrix once per population and audits
each model through its benefit vector. Rewards ``b[j] - b[i]`` are not
stored: each measure reads them from the benefit vector, one row tile at a
time, and a whole delta sweep is one pass over the effort rows.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .dataset import Population
from .effort import EffortEngine, EffortParams, benefit_value, risk_adjusted, row_tiles

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


class FairnessAudit:
    """The pairwise effort matrix of one population, audited one model at a time.

    Each measure audits a model ``h`` through its benefits ``b``. The reward
    of moving from row i to candidate j is ``b[j] - b[i]``, monotone in
    ``b[j]``, so one ordering of the benefits orders every row and each
    measure is one pass over the effort rows, tile by tile. The maxima and
    minima add no rounding, so the answers equal a scan of every pair.
    """

    def __init__(self, pop: Population, params: EffortParams, benefit: str):
        self.pop = pop
        self.params = params
        self.benefit = benefit
        self.efforts = EffortEngine(pop, params).pairwise_effort(pop)  # row i -> candidate j

    def benefits(self, h) -> np.ndarray:
        """The risk-adjusted benefit of each row under model ``h``."""
        preds = h.predict(self.pop)
        return np.asarray(
            risk_adjusted(benefit_value(self.benefit, self.pop.y, preds), self.params.alpha),
            dtype=np.float64,
        )

    @functools.cached_property
    def max_finite_effort(self) -> float:
        """Top of the bounded-effort grid: the largest finite effort, 0.0 if none is finite."""
        top = 0.0  # efforts are never negative
        for lo, hi in row_tiles(self.pop.size, self.pop.size):
            tile = self.efforts[lo:hi]
            top = max(top, float(np.max(tile, where=np.isfinite(tile), initial=0.0)))
        return top

    def _table(self, b: np.ndarray, measure: str, grid: Sequence[float]) -> np.ndarray:
        """(n, len(grid)) per-individual answers of one measure under benefits ``b``.

        Each tile of effort rows is permuted into ascending-benefit order and
        turned into suffix minima: ``sufmin[i, p]`` is the least effort of
        the candidates at position p or later.

        * Bounded effort: the positions whose suffix minimum fits the budget
          form a prefix, and its last position is the reachable candidate
          with the highest benefit. The answer is its benefit minus ``b[i]``,
          or 0 when nothing fits.
        * Threshold reward: the candidates reaching reward delta are the
          positions from ``searchsorted(b_asc - b[i], delta)`` on, so the
          answer is the suffix minimum there (``inf`` when infeasible).
        """
        deltas = np.asarray(grid, dtype=np.float64)
        if measure == BOUNDED_EFFORT:
            if not np.all(deltas >= 0):
                raise ValueError(f"effort budget must be >= 0, got {list(grid)}")
            # Infinite efforts mark unreachable candidates; no budget covers them.
            budgets = np.minimum(deltas, np.finfo(np.float64).max)
        elif measure != THRESHOLD_REWARD:
            raise ValueError(f"cannot sweep measure {measure!r}")
        n = b.shape[0]
        asc = np.argsort(b, kind="stable")
        b_asc = b[asc]
        out = np.empty((n, deltas.shape[0]))
        for lo, hi in row_tiles(n, n):
            sufmin = self.efforts[lo:hi, asc]
            backwards = sufmin[:, ::-1]
            np.minimum.accumulate(backwards, axis=1, out=backwards)
            if measure == BOUNDED_EFFORT:
                fits = np.array([np.searchsorted(row, budgets, side="right") for row in sufmin])
                out[lo:hi] = np.where(fits > 0, b_asc[fits - 1] - b[lo:hi, None], 0.0)
            else:
                rewards = b_asc[None, :] - b[lo:hi, None]
                first = np.array([np.searchsorted(row, deltas, side="left") for row in rewards])
                least = np.take_along_axis(sufmin, np.minimum(first, n - 1), axis=1)
                out[lo:hi] = np.where(first < n, least, np.inf)
        return out

    def effort_reward(self, h) -> UnfairnessReport:
        """Best achievable utility per individual, floored at staying put."""
        b = self.benefits(h)
        best = np.empty(b.shape[0])
        for lo, hi in row_tiles(b.shape[0], b.shape[0]):
            utility = b[None, :] - b[lo:hi, None]
            np.subtract(utility, self.efforts[lo:hi], out=utility)
            utility.max(axis=1, out=best[lo:hi])
        best = np.maximum(best, 0.0)
        values = {g: float(np.mean(best[self.pop.group_rows(g)])) for g in self.pop.group_names}
        return UnfairnessReport(
            measure=EFFORT_REWARD,
            per_group_value=values,
            disparity=_disparity(values),
            metadata={
                "candidate_set": "population",
                "benefit": self.benefit,
                "alpha": self.params.alpha,
                "floor": "stay_put_zero_utility",
            },
        )

    def default_grid(self, h, measure: str, points: int = 20) -> tuple:
        """Evenly spaced budgets/thresholds spanning the observed pairwise range."""
        if points < 2:
            raise ValueError("grid needs at least 2 points")
        if measure == BOUNDED_EFFORT:
            hi = self.max_finite_effort
        elif measure == THRESHOLD_REWARD:
            b = self.benefits(h)
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
        table = self._table(self.benefits(h), measure, grid)
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
