"""One simultaneous round of role-model imitation.

Each individual scans the frozen population for the profile whose
imitation maximizes utility, where the imitation target takes the
candidate's mutable feature values and label while keeping the
individual's own non-mutable entries. Moves happen only on strictly
positive utility; everyone else stays put. Responses do not cascade:
every selection reads the original population.

Effort does not depend on the model, so one walk over the effort row tiles
scores every model of a command; no n x n array is held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import effort
from .dataset import Population
from .effort import EffortEngine, EffortParams, benefit_value, risk_adjusted

SHIFT_BINS = 10  # histogram bins per feature in feature_shift_report


@dataclass(frozen=True)
class ImitationOutcome:
    """One row's imitation: its reward, the effort exerted and utility = reward - effort.

    A row that stays put has no role model and zeros for all three.
    """

    individual_index: int
    role_model_index: int | None
    reward: float
    effort: float
    utility: float
    changed: bool

    def to_dict(self) -> dict:
        return {
            "individual": self.individual_index,
            "role_model": self.role_model_index,
            "reward": self.reward,
            "effort": self.effort,
            "utility": self.utility,
            "changed": self.changed,
        }


@dataclass(frozen=True)
class FocalPoint:
    vector: np.ndarray  # values in the mutable feature subspace
    count: int


@dataclass(frozen=True)
class ImpactResult:
    outcomes: list
    impacted: Population
    focal_points: list
    metadata: dict = field(default_factory=dict)


class RoundResults(list):
    """The ``ImpactResult`` of each model of one round, in model order.

    ``outcomes`` and ``focal_points`` chain every model's, so the round's
    totals read like one result's (``perfbench --trace 1`` counts
    imitators and focal points this way).
    """

    @property
    def outcomes(self) -> list:
        return [o for result in self for o in result.outcomes]

    @property
    def focal_points(self) -> list:
        return [fp for result in self for fp in result.focal_points]


def _best_moves(models: Sequence, pop: Population, params: EffortParams, benefit: str):
    """Each model's utility-maximising candidate per row, with its reward, effort and utility.

    One walk over the mutable-only effort row tiles serves every model. Per
    tile, each model predicts its block of imitation targets, takes
    whole-tile benefits and utilities, and a row-wise argmax whose ties go
    to the lowest index, then gathers the chosen entry's effort. A row's
    own benefit is the block's entry at its own column, so imitating
    oneself scores exactly zero reward. The two prediction/utility buffers
    hold the tallest tile and are shared by the models.
    """
    n = pop.size
    blocks = [h.imitation_block(pop.schema, pop.X) for h in models]
    best = np.empty((len(models), n), dtype=np.intp)
    reward, exerted, utility = (np.empty((len(models), n)) for _ in range(3))
    height = min(effort.tile_rows(n), n)  # effort_tiles' tiles hold at most this many rows
    preds_buf, utils_buf = np.empty((height, n)), np.empty((height, n))
    for rows, tile in EffortEngine(pop, params).effort_tiles(pop, mutable_only=True):
        r = np.arange(rows.shape[0])
        for m, block in enumerate(blocks):
            preds = block(rows, out=preds_buf[: r.shape[0]])
            rewards = risk_adjusted(benefit_value(benefit, pop.y, preds), params.alpha)
            own_benefit = rewards[r, rows]  # a copy, taken before the subtraction
            np.subtract(rewards, own_benefit[:, None], out=rewards)
            utils = np.subtract(rewards, tile, out=utils_buf[: r.shape[0]])
            j = utils.argmax(axis=1)
            best[m, rows] = j
            reward[m, rows] = rewards[r, j]
            exerted[m, rows] = tile[r, j]
            utility[m, rows] = utils[r, j]
        del tile  # see EffortEngine.effort_tiles
    return best, reward, exerted, utility


def _impact(pop: Population, best, reward, exerted, utility, metadata: dict) -> ImpactResult:
    """One model's impacted population, outcomes and focal points from its best moves."""
    mutable = pop.schema.mutable_mask
    new_X = pop.X.copy()
    new_y = pop.y.copy()
    outcomes: list[ImitationOutcome] = []
    # role model's mutable values -> number of imitators, in first-seen order
    focal_counts: dict[bytes, int] = {}
    for i in range(pop.size):
        j = int(best[i])
        if not utility[i] > 0.0:
            outcomes.append(ImitationOutcome(i, None, 0.0, 0.0, 0.0, changed=False))
            continue
        new_X[i, mutable] = pop.X[j, mutable]
        new_y[i] = pop.y[j]
        outcomes.append(
            ImitationOutcome(
                i, j, float(reward[i]), float(exerted[i]), float(utility[i]), changed=True
            )
        )
        key = pop.X[j, mutable].tobytes()
        focal_counts[key] = focal_counts.get(key, 0) + 1
    return ImpactResult(
        outcomes=outcomes,
        impacted=Population(pop.schema, new_X, new_y, pop.groups),
        focal_points=[
            FocalPoint(vector=np.frombuffer(k).copy(), count=c) for k, c in focal_counts.items()
        ],
        metadata=metadata,
    )


def simulate(
    models: Sequence, pop: Population, params: EffortParams, benefit: str
) -> RoundResults:
    """Apply the imitation rule of each model to every individual against the frozen data.

    An imitation target keeps the individual's own non-mutable entries, so
    only mutable features cost; their efforts are measured on ``pop``'s own
    quantile tables and streamed once for all models. Returns one
    ``ImpactResult`` per model, in order; each equals that model's result
    when simulated alone.
    """
    best, reward, exerted, utility = _best_moves(models, pop, params, benefit)
    return RoundResults(
        _impact(
            pop,
            best[m],
            reward[m],
            exerted[m],
            utility[m],
            {
                "benefit": benefit,
                "alpha": params.alpha,
                "label_rule": "adopt_role_model_label",
                "rounds": 1,
            },
        )
        for m in range(len(models))
    )


def feature_shift_report(original: Population, impacted: Population) -> dict:
    """Per-feature, per-group before/after summary: mean, variance, histogram.

    Each feature's histograms share ``SHIFT_BINS`` bins over its range in
    both populations.
    """
    if original.schema.names != impacted.schema.names:
        raise ValueError("populations must share a schema")
    report: dict = {}
    for k, feature in enumerate(original.schema.features):
        lo = float(min(original.X[:, k].min(), impacted.X[:, k].min()))
        hi = float(max(original.X[:, k].max(), impacted.X[:, k].max()))
        if hi == lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, SHIFT_BINS + 1)
        per_group: dict = {}
        for g in original.group_names:
            rows_before = original.group_rows(g)
            rows_after = impacted.group_rows(g)
            before = original.X[rows_before, k]
            after = impacted.X[rows_after, k]
            per_group[g] = {
                "mean_before": float(np.mean(before)),
                "mean_after": float(np.mean(after)),
                "var_before": float(np.var(before)),
                "var_after": float(np.var(after)),
                "hist_before": np.histogram(before, bins=edges)[0].tolist(),
                "hist_after": np.histogram(after, bins=edges)[0].tolist(),
            }
        report[feature.name] = {"bin_edges": edges.tolist(), "groups": per_group}
    return report
