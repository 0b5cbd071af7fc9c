"""Group-conditional quantile ranks, per-feature effort, reward and utility.

Effort to change feature k from value a to value b is measured on the
quantile scale of the actor's own group: moving into territory that few
group members occupy is expensive, moving where most of the group already
is comes cheap. Per-kind rules:

* monotone numerical/ordinal: positive rank gap in the desirable
  direction, free in the other direction;
* non-monotone: absolute rank gap (either direction costs);
* categorical: a flat constant for any change;
* immutable: infinite for any change;
* conditionally immutable: monotone rule in the allowed direction,
  infinite otherwise.

Total effort is ``base_cost + (1/K) * sum_k weight_k * eps_k`` over the
schema's K features. The vectorized pairwise paths accumulate features in
the same order as the scalar ones so both produce identical floats.
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
    FeatureSchema,
    Individual,
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

    @classmethod
    def from_parts(cls, reward: float, effort: float) -> "UtilityBreakdown":
        return cls(reward=reward, effort=effort, utility=reward - effort)


ZERO_BREAKDOWN = UtilityBreakdown(0.0, 0.0, 0.0)


def quantile_rank(pop: Population, group: str, k: int, x: float) -> float:
    """Fraction of group members whose feature-k value is <= x.

    Right-continuous empirical CDF: below the group minimum gives 0, at or
    above the maximum gives 1.
    """
    table = pop.feature_table(group)[:, k]
    return float(np.searchsorted(table, x, side="right")) / table.shape[0]


def _rank_desc(table: np.ndarray, x) -> np.ndarray | float:
    """Fraction of values >= x (the mirrored CDF for decreasing features)."""
    n = table.shape[0]
    idx = np.searchsorted(table, x, side="left")
    return (n - idx) / n


def _rank_asc(table: np.ndarray, x) -> np.ndarray | float:
    n = table.shape[0]
    return np.searchsorted(table, x, side="right") / n


def feature_effort(
    pop: Population, params: EffortParams, group: str, k: int, x_k: float, xp_k: float
) -> float:
    """Effort for a group member to move feature k from ``x_k`` to ``xp_k``."""
    feature = pop.schema.features[k]
    kind = feature.kind.kind
    if x_k == xp_k:
        return 0.0
    table = pop.feature_table(group)[:, k]
    if kind == CATEGORICAL:
        levels = feature.kind.levels or ()
        if not (0 <= int(x_k) < len(levels) and 0 <= int(xp_k) < len(levels)):
            raise SchemaError(f"feature {feature.name!r}: invalid level index")
        return params.categorical_cost_for(feature)
    if kind == IMMUTABLE:
        return math.inf
    if kind in (NUMERICAL_MONOTONE, ORDINAL_MONOTONE):
        if feature.kind.direction == INCREASING:
            return max(0.0, float(_rank_asc(table, xp_k)) - float(_rank_asc(table, x_k)))
        return max(0.0, float(_rank_desc(table, xp_k)) - float(_rank_desc(table, x_k)))
    if kind in (NUMERICAL_NONMONOTONE, ORDINAL_NONMONOTONE):
        return abs(float(_rank_asc(table, xp_k)) - float(_rank_asc(table, x_k)))
    if kind == CONDITIONALLY_IMMUTABLE:
        if feature.kind.direction == INCREASING:
            if xp_k > x_k:
                return float(_rank_asc(table, xp_k)) - float(_rank_asc(table, x_k))
            return math.inf
        if xp_k < x_k:
            return float(_rank_desc(table, xp_k)) - float(_rank_desc(table, x_k))
        return math.inf
    raise SchemaError(f"unhandled feature kind {kind!r}")


def total_effort(
    pop: Population,
    params: EffortParams,
    group: str,
    x: Sequence[float] | np.ndarray,
    xp: Sequence[float] | np.ndarray,
) -> float:
    """Base cost plus the weighted per-feature efforts, averaged over K."""
    schema = pop.schema
    x = np.asarray(x, dtype=np.float64)
    xp = np.asarray(xp, dtype=np.float64)
    if x.shape != (schema.size,) or xp.shape != (schema.size,):
        raise SchemaError(f"vectors must have length {schema.size}")
    acc = 0.0
    for k, feature in enumerate(schema.features):
        w = params.weight_for(group, feature)
        if w == 0.0:
            continue
        acc = acc + w * feature_effort(pop, params, group, k, float(x[k]), float(xp[k]))
    return params.base_cost_for(group) + acc / schema.size


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
        raise ValueError(f"negative benefit with non-integer risk aversion {alpha}")
    out = arr ** alpha
    return float(out) if np.isscalar(value) or arr.ndim == 0 else out


def reward(
    h,
    schema: FeatureSchema,
    benefit: str,
    alpha: float,
    z: Individual,
    zp: Individual,
) -> float:
    """Risk-adjusted benefit gain from replacing profile z with z'."""
    b_now = benefit_value(benefit, z.y, h.predict_rows(schema, z.x[None, :])[0])
    b_then = benefit_value(benefit, zp.y, h.predict_rows(schema, zp.x[None, :])[0])
    return float(risk_adjusted(b_then, alpha) - risk_adjusted(b_now, alpha))


def utility(
    h,
    benefit: str,
    params: EffortParams,
    pop: Population,
    z: Individual,
    zp: Individual,
) -> UtilityBreakdown:
    """Reward minus effort, using z's own group for the effort side."""
    r = reward(h, pop.schema, benefit, params.alpha, z, zp)
    e = total_effort(pop, params, z.s, z.x, zp.x)
    return UtilityBreakdown.from_parts(r, e)


# Pairwise kernels work on row tiles of about this many bytes, so their
# temporaries stay cache-sized instead of growing as n-by-n.
TILE_BYTES = 1 << 20


def tile_rows(n_cols: int) -> int:
    """Rows per tile so that one float64 tile of ``n_cols`` columns fills TILE_BYTES."""
    return max(1, TILE_BYTES // (8 * max(n_cols, 1)))


def row_tiles(n_rows: int, n_cols: int):
    """``(lo, hi)`` bounds of consecutive row tiles covering ``n_rows`` rows."""
    step = tile_rows(n_cols)
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)


class EffortEngine:
    """Vectorized effort computations over a frozen reference population.

    Quantile tables come from ``reference`` and stay fixed; query rows may
    belong to any population with the same schema. All pairwise methods
    accumulate features in ascending schema order, matching the scalar
    ``total_effort`` term by term.
    """

    def __init__(self, reference: Population, params: EffortParams):
        self.reference = reference
        self.params = params
        self.schema = reference.schema

    def _tables(self, group: str) -> np.ndarray:
        return self.reference.feature_table(group)

    def _eps_rule(self, group: str, k: int, col_a: np.ndarray, col_b: np.ndarray):
        """Feature k's per-kind effort rule from values a to values b.

        Quantile ranks are taken once here. The returned ``fill(lo, hi, out,
        mask)`` writes the efforts of rows ``a[lo:hi]`` into ``out`` (shape
        ``(hi - lo, len(b))``), using ``mask`` (bool, same shape) as scratch.
        """
        feature = self.schema.features[k]
        kind = feature.kind.kind
        b = col_b[None, :]
        if kind == CATEGORICAL:
            cost = self.params.categorical_cost_for(feature)

            def fill(lo, hi, out, mask):
                np.not_equal(b, col_a[lo:hi, None], out=out)  # 1.0 or 0.0
                np.multiply(out, cost, out=out)  # exact: cost is finite and >= 0

            return fill
        if kind == IMMUTABLE:

            def fill(lo, hi, out, mask):
                np.not_equal(b, col_a[lo:hi, None], out=mask)
                out.fill(0.0)
                np.putmask(out, mask, np.inf)

            return fill
        table = self._tables(group)[:, k]
        increasing = feature.kind.direction == INCREASING
        if kind in (NUMERICAL_NONMONOTONE, ORDINAL_NONMONOTONE) or increasing:
            qa, qb = _rank_asc(table, col_a), _rank_asc(table, col_b)
        else:
            qa, qb = _rank_desc(table, col_a), _rank_desc(table, col_b)
        qb = qb[None, :]
        if kind in (NUMERICAL_MONOTONE, ORDINAL_MONOTONE):

            def fill(lo, hi, out, mask):
                np.subtract(qb, qa[lo:hi, None], out=out)
                np.maximum(0.0, out, out=out)

        elif kind in (NUMERICAL_NONMONOTONE, ORDINAL_NONMONOTONE):

            def fill(lo, hi, out, mask):
                np.subtract(qb, qa[lo:hi, None], out=out)
                np.abs(out, out=out)

        elif kind == CONDITIONALLY_IMMUTABLE:
            # Equal values have equal ranks, so the gap is already +0.0 there;
            # everything else outside the allowed direction (NaN too) is inf.
            allowed_or_equal = np.greater_equal if increasing else np.less_equal

            def fill(lo, hi, out, mask):
                np.subtract(qb, qa[lo:hi, None], out=out)
                allowed_or_equal(b, col_a[lo:hi, None], out=mask)
                np.logical_not(mask, out=mask)
                np.putmask(out, mask, np.inf)

        else:
            raise SchemaError(f"unhandled feature kind {kind!r}")
        return fill

    def eps_matrix(self, group: str, k: int, col_a: np.ndarray, col_b: np.ndarray) -> np.ndarray:
        """(len(a), len(b)) per-feature efforts from values a to values b."""
        out = np.empty((col_a.shape[0], col_b.shape[0]))
        self._eps_rule(group, k, col_a, col_b)(0, col_a.shape[0], out, np.empty(out.shape, bool))
        return out

    def eps_sum(
        self,
        group: str,
        Xa: np.ndarray,
        Xb: np.ndarray,
        feature_indices: Sequence[int],
        weighted: bool,
    ) -> np.ndarray:
        """Sum of per-feature efforts over the given features.

        Accumulates ``acc + w * eps`` feature by feature in the given order,
        one row tile at a time, so the temporaries stay tile-sized.
        """
        terms = []
        for k in feature_indices:
            w = self.params.weight_for(group, self.schema.features[k]) if weighted else 1.0
            if w == 0.0:
                continue
            terms.append((w, self._eps_rule(group, k, Xa[:, k], Xb[:, k])))
        acc = np.zeros((Xa.shape[0], Xb.shape[0]))
        tile = np.empty((min(tile_rows(Xb.shape[0]), Xa.shape[0]), Xb.shape[0]))
        mask = np.empty(tile.shape, bool)
        for lo, hi in row_tiles(Xa.shape[0], Xb.shape[0]):
            acc_t, eps_t, mask_t = acc[lo:hi], tile[: hi - lo], mask[: hi - lo]
            for w, fill in terms:
                fill(lo, hi, eps_t, mask_t)
                if w != 1.0:  # 1.0 * x == x exactly
                    np.multiply(w, eps_t, out=eps_t)
                np.add(acc_t, eps_t, out=acc_t)
        return acc

    def pairwise_effort(self, pop: Population, mutable_only: bool = False) -> np.ndarray:
        """(n, n) matrix of total efforts from row i to row j's values.

        Row i's own group supplies the quantile tables and base cost. With
        ``mutable_only`` the non-mutable features are skipped, which is the
        cost of an imitation target that keeps i's non-mutable entries.
        """
        n = pop.size
        K = self.schema.size
        if mutable_only:
            idx = [k for k in range(K) if self.schema.features[k].mutable]
        else:
            idx = list(range(K))
        out = np.empty((n, n))
        for g in pop.group_names:
            rows = pop.group_rows(g)
            block = self.eps_sum(g, pop.X[rows], pop.X, idx, weighted=True)
            np.divide(block, K, out=block)
            out[rows, :] = np.add(self.params.base_cost_for(g), block, out=block)
        return out

    def label_rank(self, group: str, values: np.ndarray) -> np.ndarray:
        """Ranks of label values in the reference group's label table."""
        table = self.reference.label_table(group)
        return np.asarray(_rank_asc(table, values), dtype=np.float64)
