"""Group-conditional quantile effort, benefit and the pairwise effort engine.

Effort to change feature k from value a to value b is measured on the
quantile scale of the actor's own group: moving into territory that few
group members occupy is expensive, moving where most of the group already
is comes cheap. Per-kind rules, written once in ``EffortEngine._eps_rule``:

* monotone numerical/ordinal: positive rank gap in the desirable
  direction, free in the other direction;
* non-monotone: absolute rank gap (either direction costs);
* categorical: a flat constant for any change;
* immutable: infinite for any change;
* conditionally immutable: monotone rule in the allowed direction,
  infinite otherwise.

Column K, one past the schema's features, is the label: the segregation
distance takes its positive rank gap on the group's label table, through
the increasing monotone rule.

Total effort is ``base_cost + (1/K) * sum_k weight_k * eps_k`` over the
schema's K features, accumulated in ascending schema order. The brute-force
reference for every rule lives in the test suite's oracles.

Feature k's effort from row i depends only on i's value of k, and most
features take a handful of values. So the pairwise kernel works in row
tiles: in each tile it computes feature k's weighted effort row once per
distinct value of k among the tile's rows, then gathers those level rows to
the tile's rows. Every entry still gets exactly ``acc + w * eps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import (
    CATEGORICAL,
    CONDITIONALLY_IMMUTABLE,
    IMMUTABLE,
    INCREASING,
    NUMERICAL_MONOTONE,
    NUMERICAL_NONMONOTONE,
    ORDINAL_MONOTONE,
    ORDINAL_NONMONOTONE,
    Feature,
    Population,
    SchemaError,
)

BENEFIT_PREDICTED = "predicted"
BENEFIT_SHIFTED_GAIN = "shifted_gain"
BENEFITS = (BENEFIT_PREDICTED, BENEFIT_SHIFTED_GAIN)


@dataclass(frozen=True)
class EffortParams:
    """Cost model knobs: risk aversion, base costs, weights.

    ``base_cost`` is a single float applied to every group or a mapping
    group -> cost. ``feature_weights`` may be flat ``{feature: w}`` or
    nested ``{group: {feature: w}}``; unspecified weights fall back to the
    schema feature's own weight (default 1). ``categorical_cost`` is the
    default flat cost of changing a categorical feature, overridable per
    feature in the schema.
    """

    alpha: float = 1.0
    base_cost: float | Mapping[str, float] = 0.0
    categorical_cost: float = 0.5
    feature_weights: Mapping | None = None

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise SchemaError(f"alpha must be a positive finite real, got {self.alpha}")
        if not (self.categorical_cost >= 0 and math.isfinite(self.categorical_cost)):
            raise SchemaError("categorical_cost must be finite and >= 0")
        costs = (
            self.base_cost.values() if isinstance(self.base_cost, Mapping) else [self.base_cost]
        )
        for c in costs:
            if not (c >= 0 and math.isfinite(c)):
                raise SchemaError("base costs must be finite and >= 0")
        if not (self.feature_weights is None or isinstance(self.feature_weights, Mapping)):
            raise SchemaError("feature_weights must map features or groups to weights")

    def base_cost_for(self, group: str) -> float:
        if isinstance(self.base_cost, Mapping):
            return float(self.base_cost.get(group, 0.0))
        return float(self.base_cost)

    def weight_for(self, group: str, feature: Feature) -> float:
        w = None
        fw = self.feature_weights
        if fw is not None:
            if group in fw and isinstance(fw[group], Mapping):
                w = fw[group].get(feature.name)
            elif feature.name in fw and not isinstance(fw.get(feature.name), Mapping):
                w = fw[feature.name]
        if w is None:
            w = feature.weight
        w = float(w)
        if not (w >= 0 and math.isfinite(w)):
            raise SchemaError(f"weight for {feature.name!r} must be finite and >= 0")
        return w

    def categorical_cost_for(self, feature: Feature) -> float:
        if feature.categorical_cost is not None:
            return float(feature.categorical_cost)
        return float(self.categorical_cost)


@dataclass(frozen=True)
class UtilityBreakdown:
    reward: float
    effort: float
    utility: float


ZERO_BREAKDOWN = UtilityBreakdown(0.0, 0.0, 0.0)


def _rank_desc(table: np.ndarray, x) -> np.ndarray | float:
    """Fraction of values >= x (the mirrored CDF for decreasing features)."""
    n = table.shape[0]
    idx = np.searchsorted(table, x, side="left")
    return (n - idx) / n


def _rank_asc(table: np.ndarray, x) -> np.ndarray | float:
    n = table.shape[0]
    return np.searchsorted(table, x, side="right") / n


def benefit_value(benefit: str, y, y_hat):
    """Scalar (or vectorized) benefit of receiving prediction ``y_hat``."""
    if benefit == BENEFIT_PREDICTED:
        return y_hat
    if benefit == BENEFIT_SHIFTED_GAIN:
        return y_hat - y + 1.0
    raise SchemaError(f"unknown benefit function {benefit!r}")


def risk_adjusted(value, alpha: float):
    """``value ** alpha`` guarding against fractional powers of negatives."""
    if alpha == 1.0:
        return value
    arr = np.asarray(value, dtype=np.float64)
    if not float(alpha).is_integer() and np.any(arr < 0):
        raise SchemaError(f"negative benefit with non-integer risk aversion {alpha}")
    out = arr ** alpha
    return float(out) if np.isscalar(value) or arr.ndim == 0 else out


# Pairwise kernels work on row tiles of about this many bytes, so their
# temporaries stay cache-sized instead of growing as n-by-n.
TILE_BYTES = 1 << 20


def tile_rows(n_cols: int) -> int:
    """Rows per tile so that one float64 tile of ``n_cols`` columns fills TILE_BYTES."""
    return max(1, TILE_BYTES // (8 * max(n_cols, 1)))


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct entries of ``a``, sorted (each NaN counts as its own entry)."""
    a = np.sort(a)
    keep = np.ones(a.shape, bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _tile_levels(col: np.ndarray, step: int):
    """The distinct values of ``col``, and which of them each row tile of ``step`` rows holds.

    Returns ``(values, present, starts, inverse)``. ``values`` lists the
    distinct values in ascending order; tile t holds the values
    ``values[present[starts[t]:starts[t + 1]]]``, and row i holds entry
    ``inverse[i]`` of its tile's list. Rows are matched to values by binary
    search, so values that compare equal (``-0.0`` and ``0.0``) and all NaNs
    share one entry; every effort rule gives them equal rows. ``inverse`` is
    held in the smallest integer type that fits a tile, as one such array
    lives per feature for the whole call.
    """
    n = col.shape[0]
    values = _distinct(col)
    m = values.shape[0]
    tile = np.arange(n) // step
    keys = tile * m + np.searchsorted(values, col)
    held = _distinct(keys)
    starts = np.searchsorted(held, np.arange(-(-n // step) + 1) * m)
    inverse = np.searchsorted(held, keys) - starts[tile]
    return values, held % max(m, 1), starts, inverse.astype(np.min_scalar_type(step))


def row_tiles(n_rows: int, n_cols: int):
    """``(lo, hi)`` bounds of consecutive row tiles covering ``n_rows`` rows."""
    step = tile_rows(n_cols)
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)


class EffortEngine:
    """Vectorized effort computations over a frozen reference population.

    Quantile tables come from ``reference`` and stay fixed; query rows may
    belong to any population with the same schema. Every effort goes
    through ``eps_tiles``, which applies the per-kind rule of ``_eps_rule``
    once per distinct value in a row tile, gathers the level rows to the
    tile, and accumulates features in the order given (ascending schema
    order).
    """

    def __init__(self, reference: Population, params: EffortParams):
        self.reference = reference
        self.params = params
        self.schema = reference.schema

    def _eps_rule(self, group: str, k: int, col_a: np.ndarray, col_b: np.ndarray):
        """Feature k's per-kind effort rule from values a to values b.

        Column ``k = schema.size`` is the label: the increasing monotone rule
        on the group's label table. Quantile ranks are taken once here. The
        returned ``fill(rows, out, mask)`` writes the efforts from the values
        ``col_a[rows]`` (``rows`` is an index array) to every value of
        ``col_b`` into ``out`` (shape ``(len(rows), len(col_b))``), using
        ``mask`` (bool, same shape) as scratch.
        """
        if k == self.schema.size:
            feature, kind, increasing = None, NUMERICAL_MONOTONE, True
            table = self.reference.label_table(group)
        else:
            feature = self.schema.features[k]
            kind, increasing = feature.kind.kind, feature.kind.direction == INCREASING
            table = self.reference.feature_table(group)[:, k]
        b = col_b[None, :]
        if kind == CATEGORICAL:
            cost = self.params.categorical_cost_for(feature)

            def fill(rows, out, mask):
                np.not_equal(b, col_a[rows, None], out=out)  # 1.0 or 0.0
                np.multiply(out, cost, out=out)  # exact: cost is finite and >= 0

            return fill
        if kind == IMMUTABLE:

            def fill(rows, out, mask):
                np.not_equal(b, col_a[rows, None], out=mask)
                out.fill(0.0)
                np.putmask(out, mask, np.inf)

            return fill
        if kind in (NUMERICAL_NONMONOTONE, ORDINAL_NONMONOTONE) or increasing:
            qa, qb = _rank_asc(table, col_a), _rank_asc(table, col_b)
        else:
            qa, qb = _rank_desc(table, col_a), _rank_desc(table, col_b)
        qb = qb[None, :]
        if kind in (NUMERICAL_MONOTONE, ORDINAL_MONOTONE):

            def fill(rows, out, mask):
                np.subtract(qb, qa[rows, None], out=out)
                np.maximum(0.0, out, out=out)

        elif kind in (NUMERICAL_NONMONOTONE, ORDINAL_NONMONOTONE):

            def fill(rows, out, mask):
                np.subtract(qb, qa[rows, None], out=out)
                np.abs(out, out=out)

        elif kind == CONDITIONALLY_IMMUTABLE:
            # Equal values have equal ranks, so the gap is already +0.0 there;
            # everything else outside the allowed direction (NaN too) is inf.
            allowed_or_equal = np.greater_equal if increasing else np.less_equal

            def fill(rows, out, mask):
                np.subtract(qb, qa[rows, None], out=out)
                allowed_or_equal(b, col_a[rows, None], out=mask)
                np.logical_not(mask, out=mask)
                np.putmask(out, mask, np.inf)

        else:
            raise SchemaError(f"unhandled feature kind {kind!r}")
        return fill

    def eps_tiles(
        self,
        group: str,
        Xa: np.ndarray,
        Xb: np.ndarray,
        feature_indices: Sequence[int],
        weighted: bool,
    ):
        """Yield ``(lo, hi, tile)``: the effort sums of rows ``Xa[lo:hi]`` to every row of ``Xb``.

        Quantile ranks and each column's distinct values are taken once per
        call, not once per tile. In a tile, feature k's rule fills one level
        row per distinct value of ``Xa[lo:hi, k]``, the weight multiplies the
        level rows, and ``np.take`` gathers them to the tile's rows. Each
        tile then accumulates ``acc + w * eps`` feature by feature in the
        given order, so every entry gets the same arithmetic as when the
        rule runs on every row. Column ``schema.size`` of ``Xa`` and ``Xb``,
        if present, is the label; only unweighted calls may name it, as the
        label has no weight. The tile is scratch that the next step
        overwrites, so a caller may change it in place but must copy what it
        keeps.
        """
        step = tile_rows(Xb.shape[0])
        terms = []
        height = 0  # level rows: the most distinct values one tile holds
        for k in feature_indices:
            w = self.params.weight_for(group, self.schema.features[k]) if weighted else 1.0
            if w == 0.0:
                continue
            values, present, starts, inverse = _tile_levels(Xa[:, k], step)
            fill = self._eps_rule(group, k, values, Xb[:, k])
            terms.append((w, fill, present, starts, inverse))
            height = max(height, np.diff(starts).max(initial=0))
        shape = (min(step, Xa.shape[0]), Xb.shape[0])
        acc, eps = np.empty(shape), np.empty(shape)
        level, mask = np.empty((height, shape[1])), np.empty((height, shape[1]), bool)
        for t, (lo, hi) in enumerate(row_tiles(Xa.shape[0], Xb.shape[0])):
            acc_t, eps_t = acc[: hi - lo], eps[: hi - lo]
            acc_t.fill(0.0)
            for w, fill, present, starts, inverse in terms:
                rows = present[starts[t] : starts[t + 1]]
                level_t = level[: rows.shape[0]]
                fill(rows, level_t, mask[: rows.shape[0]])
                if w != 1.0:  # 1.0 * x == x exactly
                    np.multiply(w, level_t, out=level_t)
                # mode="clip": with the default "raise", take buffers its output
                # through a tile-sized temporary; every index is in range anyway.
                np.take(level_t, inverse[lo:hi], axis=0, out=eps_t, mode="clip")
                np.add(acc_t, eps_t, out=acc_t)
            yield lo, hi, acc_t

    def eps_sum(
        self,
        group: str,
        Xa: np.ndarray,
        Xb: np.ndarray,
        feature_indices: Sequence[int],
        weighted: bool,
    ) -> np.ndarray:
        """Sum of per-feature efforts over the given features, as one matrix."""
        out = np.empty((Xa.shape[0], Xb.shape[0]))
        for lo, hi, tile in self.eps_tiles(group, Xa, Xb, feature_indices, weighted):
            out[lo:hi] = tile
        return out

    def effort_tiles(self, pop: Population, mutable_only: bool = False):
        """Yield ``(rows, tile)``: the total efforts from rows ``rows`` of ``pop`` to every row.

        Row i's own group supplies the quantile tables and base cost. With
        ``mutable_only`` the non-mutable features are skipped, which is the
        cost of an imitation target that keeps i's non-mutable entries. The
        walk goes group by group in row tiles, so ``rows`` is a slice of
        ``pop.group_rows(g)``. The tile is scratch that the next step
        overwrites, and a consumer drops it before asking for the next one:
        a finished group's buffers are then freed before the next group's
        are allocated.
        """
        K = self.schema.size
        idx = [k for k in range(K) if self.schema.features[k].mutable or not mutable_only]
        for g in pop.group_names:
            rows = pop.group_rows(g)
            base = self.params.base_cost_for(g)
            for lo, hi, tile in self.eps_tiles(g, pop.X[rows], pop.X, idx, weighted=True):
                np.divide(tile, K, out=tile)
                yield rows[lo:hi], np.add(base, tile, out=tile)
            del tile  # a view of the finished group's buffers

    def pairwise_effort(self, pop: Population, mutable_only: bool = False) -> np.ndarray:
        """(n, n) matrix of total efforts from row i to row j's values: ``effort_tiles`` assembled."""
        out = np.empty((pop.size, pop.size))
        for rows, tile in self.effort_tiles(pop, mutable_only):
            out[rows] = tile
            del tile  # see effort_tiles
        return out
