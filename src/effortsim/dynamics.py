"""One simultaneous round of role-model imitation.

Each individual scans the frozen population for the profile whose
imitation maximizes utility, where the imitation target takes the
candidate's mutable feature values and label while keeping the
individual's own non-mutable entries. Moves happen only on strictly
positive utility; everyone else stays put. Responses do not cascade:
every selection reads the original population.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import Population
from .effort import (
    EffortParams,
    UtilityBreakdown,
    ZERO_BREAKDOWN,
    benefit_value,
    risk_adjusted,
    row_tiles,
)


@dataclass(frozen=True)
class ImitationOutcome:
    individual_index: int
    role_model_index: int | None
    exerted: UtilityBreakdown
    changed: bool

    def to_dict(self) -> dict:
        return {
            "individual": self.individual_index,
            "role_model": self.role_model_index,
            "reward": self.exerted.reward,
            "effort": self.exerted.effort,
            "utility": self.exerted.utility,
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


def _best_moves(h, pop: Population, params: EffortParams, benefit: str, efforts: np.ndarray):
    """Each row's utility-maximising candidate, with that candidate's reward and utility.

    Works over row tiles of the reward matrix: one block of imitation
    predictions per tile, whole-tile benefits and utilities, and a row-wise
    argmax whose ties go to the lowest index. A row's own benefit is the
    block's diagonal entry, so imitating oneself scores exactly zero reward.
    The two tile buffers are reused across tiles and freed on return.
    """
    n = pop.size
    block = h.imitation_block(pop.schema, pop.X)
    best = np.empty(n, dtype=np.intp)
    reward = np.empty(n)
    utility = np.empty(n)
    preds_buf = utils_buf = None
    for lo, hi in row_tiles(n, n):
        if preds_buf is None:  # the first tile is the tallest
            preds_buf, utils_buf = np.empty((hi - lo, n)), np.empty((hi - lo, n))
        preds = block(lo, hi, out=preds_buf[: hi - lo])
        rewards = risk_adjusted(benefit_value(benefit, pop.y, preds), params.alpha)
        rows = np.arange(hi - lo)
        own_benefit = rewards[rows, lo + rows]  # a copy, taken before the subtraction
        np.subtract(rewards, own_benefit[:, None], out=rewards)
        utils = np.subtract(rewards, efforts[lo:hi], out=utils_buf[: hi - lo])
        j = utils.argmax(axis=1)
        best[lo:hi] = j
        reward[lo:hi] = rewards[rows, j]
        utility[lo:hi] = utils[rows, j]
    return best, reward, utility


def simulate(
    h, pop: Population, efforts: np.ndarray, params: EffortParams, benefit: str
) -> ImpactResult:
    """Apply the imitation rule to every individual against the frozen data.

    ``efforts`` is ``pairwise_effort(pop, mutable_only=True)``, one matrix for
    every model: an imitation target keeps the individual's own non-mutable
    entries, so only mutable features cost.
    """
    best, reward, utility = _best_moves(h, pop, params, benefit, efforts)
    mutable = pop.schema.mutable_mask
    new_X = pop.X.copy()
    new_y = pop.y.copy()
    outcomes: list[ImitationOutcome] = []
    # role model's mutable values -> number of imitators, in first-seen order
    focal_counts: dict[bytes, int] = {}
    for i in range(pop.size):
        j = int(best[i])
        if not utility[i] > 0.0:
            outcomes.append(ImitationOutcome(i, None, ZERO_BREAKDOWN, changed=False))
            continue
        exerted = UtilityBreakdown(
            reward=float(reward[i]), effort=float(efforts[i, j]), utility=float(utility[i])
        )
        new_X[i, mutable] = pop.X[j, mutable]
        new_y[i] = pop.y[j]
        outcomes.append(ImitationOutcome(i, j, exerted, changed=True))
        key = pop.X[j, mutable].tobytes()
        focal_counts[key] = focal_counts.get(key, 0) + 1
    impacted = Population(pop.schema, new_X, new_y, pop.groups)
    focal_points = [
        FocalPoint(vector=np.frombuffer(k).copy(), count=c) for k, c in focal_counts.items()
    ]
    return ImpactResult(
        outcomes=outcomes,
        impacted=impacted,
        focal_points=focal_points,
        metadata={
            "benefit": benefit,
            "alpha": params.alpha,
            "label_rule": "adopt_role_model_label",
            "rounds": 1,
        },
    )


def feature_shift_report(original: Population, impacted: Population, bins: int = 10) -> dict:
    """Per-feature, per-group before/after summary: mean, variance, histogram."""
    if original.schema.names != impacted.schema.names:
        raise ValueError("populations must share a schema")
    report: dict = {}
    for k, feature in enumerate(original.schema.features):
        lo = float(min(original.X[:, k].min(), impacted.X[:, k].min()))
        hi = float(max(original.X[:, k].max(), impacted.X[:, k].max()))
        if hi == lo:
            hi = lo + 1.0
        edges = np.linspace(lo, hi, bins + 1)
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
