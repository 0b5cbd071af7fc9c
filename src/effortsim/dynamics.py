"""One simultaneous round of role-model imitation.

Each individual scans the frozen population for the profile whose
imitation maximizes utility, where the imitation target takes the
candidate's mutable feature values and label while keeping the
individual's own non-mutable entries. Moves happen only on strictly
positive utility; everyone else stays put. Responses do not cascade:
every selection reads the original population.

Effort does not depend on the model, so one walk over the effort row tiles
scores every model of a command; no n x n array is held. Gains are cheap
and efforts are not, so per tile each model reads efforts only for its own
candidates that can win, with the bits of a whole-tile walk (see
``_best_moves``).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from sys import float_info
from typing import Sequence

import numpy as np

from . import effort
from .dataset import DataError, Population, scaled_mean
from .effort import EffortEngine, EffortParams

SHIFT_BINS = 10  # histogram bins per feature in feature_shift_report
POSITIVE = np.nextafter(0.0, 1.0)  # the smallest positive float: x >= POSITIVE is x > 0


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


# The keys of an outcomes file's row in the order a sorted JSON encoder writes them, and the row as
# json.dumps(rows, sort_keys=True, indent=2) lays out one to_dict() in the list: a %s per key.
OUTCOME_KEYS = sorted(ImitationOutcome(0, None, 0.0, 0.0, 0.0, False).to_dict())
OUTCOME_ROW = "  {\n" + ",\n".join(f"    {json.dumps(k)}: %s" for k in OUTCOME_KEYS) + "\n  }"
OUTCOME_BLOCK = 512  # rows encoded and written at a time by ImpactResult.write_outcomes


@dataclass(frozen=True)
class FocalPoint:
    vector: np.ndarray  # values in the mutable feature subspace
    count: int


@dataclass(frozen=True, eq=False)
class ImpactResult:
    """One model's round: each row's role model (-1 for a row that stays put) and its reward,
    effort and utility (0.0 for a row that stays put), the impacted population and its focal points."""

    role_model: np.ndarray
    reward: np.ndarray
    effort: np.ndarray
    utility: np.ndarray
    impacted: Population
    focal_points: list
    metadata: dict = field(default_factory=dict)

    @property
    def imitators(self) -> int:
        return int(np.count_nonzero(self.role_model >= 0))

    @functools.cached_property
    def outcomes(self) -> list[ImitationOutcome]:
        """Each row's ``ImitationOutcome``, from the columns' Python floats: a -0.0 keeps its sign."""
        columns = (c.tolist() for c in (self.role_model, self.reward, self.effort, self.utility))
        return [
            ImitationOutcome(i, None if j < 0 else j, r, e, u, changed=j >= 0)
            for i, (j, r, e, u) in enumerate(zip(*columns))
        ]

    def write_outcomes(self, path) -> None:
        """Write ``[o.to_dict() for o in self.outcomes]`` to file ``path`` with the bytes of
        ``json.dumps(rows, sort_keys=True, indent=2)`` and a newline, from the columns; builds no
        ``ImitationOutcome``.

        Per block of ``OUTCOME_BLOCK`` rows, each float column is one call of
        the C JSON encoder, which writes a float as ``repr`` does, -0.0
        included, and each row fills ``OUTCOME_ROW``. A NaN or infinite
        number is a ``DataError`` naming the file, and no file is written.
        """
        floats = {"effort": self.effort, "reward": self.reward, "utility": self.utility}
        if not all(np.isfinite(c).all() for c in floats.values()):
            raise DataError(f"{path}: a value to write is NaN or infinite")
        n = self.role_model.shape[0]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[\n" if n else "[]\n")
            for lo in range(0, n, OUTCOME_BLOCK):
                hi = min(lo + OUTCOME_BLOCK, n)
                role_model = self.role_model[lo:hi].tolist()
                text = {k: json.dumps(c[lo:hi].tolist())[1:-1].split(", ") for k, c in floats.items()}
                text["individual"] = range(lo, hi)
                text["role_model"] = ["null" if j < 0 else j for j in role_model]
                text["changed"] = ["false" if j < 0 else "true" for j in role_model]
                rows = [OUTCOME_ROW % row for row in zip(*(text[k] for k in OUTCOME_KEYS))]
                fh.write(",\n".join(rows) + (",\n" if hi < n else "\n]\n"))


class RoundResults(list):
    """The ``ImpactResult`` of each model of one round, in model order.

    ``outcomes`` and ``focal_points`` chain every model's, so the round's
    totals read like one result's (``perfbench --trace 1`` counts
    imitators and focal points this way). ``walk`` holds the counts of the
    round's effort walk (see ``_best_moves``).
    """

    def __init__(self, results=(), walk: dict | None = None):
        super().__init__(results)
        self.walk = {} if walk is None else walk

    @property
    def outcomes(self) -> list:
        return [o for result in self for o in result.outcomes]

    @property
    def focal_points(self) -> list:
        return [fp for result in self for fp in result.focal_points]


def _best_moves(models: Sequence, pop: Population, params: EffortParams, walk: dict):
    """Each model's utility-maximising candidate per row, with its reward, effort and utility.

    One walk over the mutable-only effort row tiles serves every model. Per
    tile, each model predicts its block of imitation targets and takes the
    gain of each candidate: its reward minus the row's own, which is the
    block's entry at the row's own column, so imitating oneself gains
    exactly zero. Utility is gain minus effort, and every effort of this
    walk is finite and >= 0 (no mutable column has a gate). So a candidate
    whose gain is below the row's best utility cannot win, and one whose
    gain is <= 0 cannot make the row move. The utility of each row's
    top-gain candidate, read through the pair form, is a lower bound ``L``
    on the best one, and a model's candidate columns are those where some
    row has a gain >= ``L`` and > 0. Each row's winner and every candidate
    that ties it are among them, so the row's first maximum over the sorted
    columns is the lowest index, as a row-wise argmax over every column
    picks. A row holding a NaN gain has a NaN bound, and a row-wise argmax
    stops at its first NaN, so that row's NaN columns are candidates too.
    Each model reads the efforts of its own candidate columns and settles
    at once; every effort, reward and utility has the bits of a whole-tile
    walk.

    Only the entries of rows with utility > 0 are read; a model with no
    candidate column leaves the tile's rows at zero. ``walk`` receives the
    counts, the engine's ``columns`` among them.
    """
    n = pop.size
    blocks = [h.imitation_block(pop.schema, pop.X) for h in models]
    best = np.zeros((len(models), n), dtype=np.intp)
    reward, exerted, utility = (np.zeros((len(models), n)) for _ in range(3))
    height = min(effort.tile_rows(n), n)  # effort_reads' tiles hold at most this many rows
    gains_buf, keep_buf, scores = np.empty((height, n)), np.empty((height, n), bool), np.empty(height * n)
    walk.update(pairs=n * n, candidate_columns=[0] * len(models), subtile_cells=0)
    engine = EffortEngine(pop, params)
    for rows, efforts, _, _ in engine.effort_reads(pop, mutable_only=True):
        h = rows.shape[0]
        r = np.arange(h)
        for m, block in enumerate(blocks):
            gains = params.reward(pop.y, block(rows, out=gains_buf[:h]))
            own = gains[r, rows]  # a copy, taken before the subtraction
            np.subtract(gains, own[:, None], out=gains)
            top = gains.argmax(axis=1)  # a row holding a NaN gain gets a NaN bound
            bound = np.subtract(gains[r, top], efforts(pairs=(r, top)))
            np.maximum(bound, POSITIVE, out=bound)
            keep = np.greater_equal(gains, bound[:, None], out=keep_buf[:h])
            if np.isnan(bound).any():
                np.logical_or(keep, np.isnan(gains), out=keep)
            cols = np.flatnonzero(keep.any(axis=0))
            walk["candidate_columns"][m] += cols.shape[0]
            if not cols.shape[0]:
                continue
            E = efforts(cols=cols)
            walk["subtile_cells"] += E.size
            utils = scores[: E.size].reshape(E.shape)
            # mode="clip": the default "raise" buffers the output through a temporary
            np.subtract(np.take(gains, cols, axis=1, out=utils, mode="clip"), E, out=utils)
            win = utils.argmax(axis=1)
            j = cols[win]
            best[m, rows] = j
            reward[m, rows] = gains[r, j]
            exerted[m, rows] = E[r, win]
            utility[m, rows] = utils[r, win]
            del E  # see EffortEngine.effort_reads
        del efforts
    walk.update(engine.columns)
    return best, reward, exerted, utility


def _impact(pop: Population, best, reward, exerted, utility, metadata: dict) -> ImpactResult:
    """One model's ``ImpactResult`` from its best moves: each row's move, the impacted population, focal points.

    A row moves on utility > 0: it takes its role model's mutable values and
    label in one assignment over the movers. A focal point is one value of
    the role models' mutable bytes (-0.0 and 0.0 differ), found by one
    stable sort of those bytes and listed in the order of its first
    imitator, with its number of imitators.
    """
    moved = utility > 0.0
    movers = np.flatnonzero(moved)
    cols = np.flatnonzero(pop.schema.mutable_mask)
    taken = pop.X[best[movers, None], cols]  # each mover's role model's mutable values
    new_X = pop.X.copy()
    new_X[movers[:, None], cols] = taken
    new_y = pop.y.copy()
    new_y[movers] = pop.y[best[movers]]
    focal_points = []
    if movers.size:
        keys = taken.view(np.dtype((np.void, taken.itemsize * cols.size)))[:, 0]
        order = np.argsort(keys, kind="stable")
        ranked = keys[order]
        starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
        counts = np.diff(starts, append=movers.size)
        firsts = order[starts]  # each key's first imitator: the sort is stable
        seen = np.argsort(firsts)
        focal_points = [
            FocalPoint(vector=v, count=c) for v, c in zip(taken[firsts[seen]], counts[seen].tolist())
        ]
    return ImpactResult(
        np.where(moved, best, -1),
        *(np.where(moved, a, 0.0) for a in (reward, exerted, utility)),
        impacted=Population(pop.schema, new_X, new_y, pop.groups),
        focal_points=focal_points,
        metadata=metadata,
    )


def simulate(models: Sequence, pop: Population, params: EffortParams) -> RoundResults:
    """Apply the imitation rule of each model to every individual against the frozen data.

    An imitation target keeps the individual's own non-mutable entries, so
    only mutable features cost; their efforts are measured on ``pop``'s own
    quantile tables and streamed once for all models. Returns one
    ``ImpactResult`` per model, in order; each equals that model's result
    when simulated alone.
    """
    walk: dict = {}
    best, reward, exerted, utility = _best_moves(models, pop, params, walk)
    metadata = {
        "benefit": params.benefit,
        "alpha": params.alpha,
        "label_rule": "adopt_role_model_label",
        "rounds": 1,
    }
    return RoundResults(
        (_impact(pop, best[m], reward[m], exerted[m], utility[m], dict(metadata)) for m in range(len(models))),
        walk,
    )


def _moments(x: np.ndarray) -> tuple[float, float]:
    """The mean and the variance of ``x``, as ``np.mean`` and ``np.var`` give them.

    Where finite values give a plain sum that overflows, the result comes
    through scaled terms: the mean as ``scaled_mean`` takes it, the variance
    as s² * mean(((x - mean) / s)²) with s the largest |x - mean|. A true
    value past the float range stays infinite.
    """
    mean = scaled_mean(x)
    with np.errstate(over="ignore"):  # an overflowing sum is taken again below
        var = float(np.var(x))
    if math.isfinite(var) or not np.isfinite(x).all():
        return mean, var
    d = x - mean
    s = float(np.abs(d).max())
    return mean, s * s * float(np.mean(np.square(d / s)))


def _summaries(X: np.ndarray, rows: np.ndarray, edges: list) -> tuple[list, list, list]:
    """Each column's mean, variance and histogram on ``edges[k]`` over the rows ``rows`` of ``X``.

    The columns are one contiguous (K, rows) block, so ``np.mean`` and
    ``np.var`` along its rows sum each column pairwise as they do the column
    alone, and give its bits; only a column whose plain moments are not
    finite goes through ``_moments``. The block is then sorted in place, row
    by row, and each histogram is a binary search of its edges, the last
    edge inclusive: ``np.histogram``'s own algorithm for explicit edges.
    """
    block = np.ascontiguousarray(X.T[:, rows])
    with np.errstate(over="ignore"):  # an overflowing sum is taken again by _moments
        means, variances = np.mean(block, axis=1), np.var(block, axis=1)
    plain = np.isfinite(means) & np.isfinite(variances)
    means, variances = means.tolist(), variances.tolist()
    for k in np.flatnonzero(~plain).tolist():
        means[k], variances[k] = _moments(block[k])
    block.sort(axis=1)
    below = np.empty((len(edges), SHIFT_BINS + 1), np.intp)  # per edge, the values below it
    for k, (x, e) in enumerate(zip(block, edges)):
        below[k, :-1] = x.searchsorted(e[:-1], "left")
        below[k, -1] = x.searchsorted(e[-1], "right")
    return means, variances, np.diff(below, axis=1).tolist()


def feature_shift_report(original: Population, impacted: Population) -> dict:
    """Per-feature, per-group before/after summary: mean, variance, histogram.

    Each feature's histograms share ``SHIFT_BINS`` bins over its range in
    both populations. Means and variances whose plain sums overflow come
    through scaled terms (``_moments``), as the bin edges do. One group's
    rows are summarised at a time, every feature at once (``_summaries``).
    """
    if original.schema.names != impacted.schema.names:
        raise ValueError("populations must share a schema")
    los = zip(original.X.min(axis=0), impacted.X.min(axis=0))
    his = zip(original.X.max(axis=0), impacted.X.max(axis=0))
    edges = []
    for (lo_o, lo_i), (hi_o, hi_i) in zip(los, his):
        lo, hi = float(min(lo_o, lo_i)), float(max(hi_o, hi_i))
        if hi == lo:
            hi = lo + 1.0
        h = 1.0 if hi - lo <= float_info.max else 0.5  # halved terms keep an overflowing span finite
        edges.append(np.linspace(h * lo, h * hi, SHIFT_BINS + 1) / h)
    report: dict = {f.name: {"bin_edges": e.tolist(), "groups": {}} for f, e in zip(original.schema.features, edges)}
    for g in original.group_names:
        before = _summaries(original.X, original.group_rows(g), edges)
        after = _summaries(impacted.X, impacted.group_rows(g), edges)
        for k, feature in enumerate(original.schema.features):
            report[feature.name]["groups"][g] = {
                "mean_before": before[0][k],
                "mean_after": after[0][k],
                "var_before": before[1][k],
                "var_after": after[1][k],
                "hist_before": before[2][k],
                "hist_after": after[2][k],
            }
    return report
