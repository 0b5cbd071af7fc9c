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
features take a handful of values. The pairwise kernel works in row tiles
and chooses, once per call, how each column gets there. A column with few
distinct values gets one level table: its weighted effort row for each
distinct value, which every tile gathers to its rows. The tables share a
budget of one tile's rows, so they never outgrow a tile. Every other column
runs its rule on the tile's own rows. Both paths give every entry exactly
``acc + w * eps``, so the choice never changes a bit.

Only immutable and conditionally immutable features (the gates) give
``inf``, and they rule out most pairs. The pair form of the kernel finds a
tile's feasible pairs from its gates first and runs every term on those
pairs alone, with the same operations, so each finite effort keeps its bits.
"""

from __future__ import annotations

import math
import numbers
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


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


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
            if not (_is_number(c) and c >= 0 and math.isfinite(c)):
                raise SchemaError("base costs must be finite and >= 0")
        fw = self.feature_weights
        if not (fw is None or isinstance(fw, Mapping)):
            raise SchemaError("feature_weights must map features or groups to weights")
        for key, value in (fw or {}).items():
            for name, w in value.items() if isinstance(value, Mapping) else [(key, value)]:
                if not (_is_number(w) and w >= 0 and math.isfinite(w)):
                    raise SchemaError(f"weight for {name!r} must be finite and >= 0, got {w!r}")

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
        return float(feature.weight if w is None else w)

    def categorical_cost_for(self, feature: Feature) -> float:
        if feature.categorical_cost is not None:
            return float(feature.categorical_cost)
        return float(self.categorical_cost)


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


# Selections that make ``_eps_rule``'s fills work on a whole tile: each
# value of the tile's column against every value of ``col_b``.
COLUMN = (slice(None), None)
EVERY = slice(None)


def row_tiles(n_rows: int, n_cols: int):
    """``(lo, hi)`` bounds of consecutive row tiles covering ``n_rows`` rows."""
    step = tile_rows(n_cols)
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)


class EffortEngine:
    """Vectorized effort computations over a frozen reference population.

    Quantile tables come from ``reference`` and stay fixed; query rows may
    belong to any population with the same schema. Every effort goes
    through ``eps_tiles`` (every pair of each row tile) or ``eps_pairs``
    (only the pairs of finite effort), which apply the per-kind rules of
    ``_eps_rule`` through a level table for few-valued columns or on each
    tile's own values for the rest, and accumulate features in the order
    given (ascending schema order).
    """

    def __init__(self, reference: Population, params: EffortParams):
        self.reference = reference
        self.params = params
        self.schema = reference.schema

    def _eps_rule(self, group: str, k: int, col_b: np.ndarray):
        """Feature k's per-kind effort rule from values a to the values ``col_b``, and its gate.

        Column ``k = schema.size`` is the label: the increasing monotone rule
        on the group's label table. ``col_b`` is ranked once here. The
        returned ``fill(a, rows, cols, out, mask)`` writes the efforts from
        ``a[rows]`` to ``col_b[cols]`` into ``out``, with ``mask`` (bool, the
        shape of ``out``) as scratch; ``a`` is a 1-D array, ranked once per
        call. Any two broadcastable selections work: ``COLUMN`` and ``EVERY``
        give a tile, every value of ``a`` against every value of ``col_b``;
        two equal-length index arrays give one effort per pair. The gate is
        ``allowed(a, rows, cols, out)``, which writes where the effort is
        finite, for the kinds that can give ``inf`` (immutable and
        conditionally immutable); it is ``None`` for the rest.
        """
        if k == self.schema.size:
            feature, kind, increasing = None, NUMERICAL_MONOTONE, True
            table = self.reference.label_table(group)
        else:
            feature = self.schema.features[k]
            kind, increasing = feature.kind.kind, feature.kind.direction == INCREASING
            table = self.reference.feature_table(group)[:, k]
        if kind == CATEGORICAL:
            cost = self.params.categorical_cost_for(feature)

            def fill(a, rows, cols, out, mask):
                np.not_equal(col_b[cols], a[rows], out=out)  # 1.0 or 0.0
                np.multiply(out, cost, out=out)  # exact: cost is finite and >= 0

            return fill, None
        if kind == IMMUTABLE:

            def allowed(a, rows, cols, out):
                np.equal(col_b[cols], a[rows], out=out)

            def fill(a, rows, cols, out, mask):
                allowed(a, rows, cols, mask)
                np.logical_not(mask, out=mask)
                out.fill(0.0)
                np.putmask(out, mask, np.inf)

            return fill, allowed
        if kind in (NUMERICAL_NONMONOTONE, ORDINAL_NONMONOTONE) or increasing:
            rank = _rank_asc
        else:
            rank = _rank_desc
        qb = rank(table, col_b)
        if kind in (NUMERICAL_MONOTONE, ORDINAL_MONOTONE):

            def fill(a, rows, cols, out, mask):
                np.subtract(qb[cols], rank(table, a)[rows], out=out)
                np.maximum(0.0, out, out=out)

            return fill, None
        if kind in (NUMERICAL_NONMONOTONE, ORDINAL_NONMONOTONE):

            def fill(a, rows, cols, out, mask):
                np.subtract(qb[cols], rank(table, a)[rows], out=out)
                np.abs(out, out=out)

            return fill, None
        if kind == CONDITIONALLY_IMMUTABLE:
            # Equal values have equal ranks, so the gap is already +0.0 there;
            # everything else outside the allowed direction (NaN too) is inf.
            allowed_or_equal = np.greater_equal if increasing else np.less_equal

            def allowed(a, rows, cols, out):
                allowed_or_equal(col_b[cols], a[rows], out=out)

            def fill(a, rows, cols, out, mask):
                np.subtract(qb[cols], rank(table, a)[rows], out=out)
                allowed(a, rows, cols, mask)
                np.logical_not(mask, out=mask)
                np.putmask(out, mask, np.inf)

            return fill, allowed
        raise SchemaError(f"unhandled feature kind {kind!r}")

    def _terms(self, group, Xa, Xb, feature_indices, weighted, mask):
        """``(k, w, fill, allowed, table, codes)`` of each weighted column, in the given order.

        A column whose distinct ``Xa`` values fit what is left of the level
        budget (``mask``'s rows, spent in the given order) gets a level
        table: its rule fills one row per distinct value, the weight
        multiplies the table once, and ``codes`` holds each ``Xa`` row's
        table row. Any other column gets ``table = codes = None`` and runs
        its rule on each tile's own values, then applies the weight.
        """
        budget = mask.shape[0]
        terms = []
        for k in feature_indices:
            w = self.params.weight_for(group, self.schema.features[k]) if weighted else 1.0
            if w == 0.0:
                continue
            fill, allowed = self._eps_rule(group, k, Xb[:, k])
            values = _distinct(Xa[:, k])
            if values.shape[0] > budget:
                terms.append((k, w, fill, allowed, None, None))
                continue
            budget -= values.shape[0]
            table = np.empty((values.shape[0], Xb.shape[0]))
            fill(values, COLUMN, EVERY, table, mask[: values.shape[0]])
            if w != 1.0:  # 1.0 * x == x exactly
                np.multiply(w, table, out=table)
            # Binary search matches values that compare equal (-0.0 and 0.0)
            # and all NaNs to one row; every rule gives them equal rows.
            codes = np.searchsorted(values, Xa[:, k]).astype(np.min_scalar_type(values.shape[0]))
            terms.append((k, w, fill, allowed, table, codes))
        return terms

    def eps_tiles(
        self,
        group: str,
        Xa: np.ndarray,
        Xb: np.ndarray,
        feature_indices: Sequence[int],
        weighted: bool,
    ):
        """Yield ``(lo, hi, tile)``: the effort sums of rows ``Xa[lo:hi]`` to every row of ``Xb``.

        Each column's ``Xb`` values are ranked, and its path chosen, once per
        call (see ``_terms``): a few-valued column's tiles gather rows of its
        level table, and any other column runs its rule on the tile's own
        values. The level tables share a budget of one tile's rows, so
        together they never outgrow one tile. Either way every entry gets
        ``acc + w * rule(a_i)``, feature by feature in the given order, so
        both paths give the same bits. Column ``schema.size`` of ``Xa`` and
        ``Xb``, if present, is the label; only unweighted calls may name it,
        as the label has no weight. The tile is scratch that the next step
        overwrites, so a caller may change it in place but must copy what it
        keeps.
        """
        shape = (min(tile_rows(Xb.shape[0]), Xa.shape[0]), Xb.shape[0])
        acc, eps, mask = np.empty(shape), np.empty(shape), np.empty(shape, bool)
        terms = self._terms(group, Xa, Xb, feature_indices, weighted, mask)
        for lo, hi in row_tiles(Xa.shape[0], Xb.shape[0]):
            acc_t, eps_t = acc[: hi - lo], eps[: hi - lo]
            acc_t.fill(0.0)
            for k, w, fill, _, table, codes in terms:
                if table is None:
                    fill(Xa[lo:hi, k], COLUMN, EVERY, eps_t, mask[: hi - lo])
                    if w != 1.0:
                        np.multiply(w, eps_t, out=eps_t)
                else:
                    # mode="clip": with the default "raise", take buffers its output
                    # through a tile-sized temporary; every index is in range anyway.
                    np.take(table, codes[lo:hi], axis=0, out=eps_t, mode="clip")
                np.add(acc_t, eps_t, out=acc_t)
            yield lo, hi, acc_t

    def eps_pairs(
        self,
        group: str,
        Xa: np.ndarray,
        Xb: np.ndarray,
        feature_indices: Sequence[int],
        weighted: bool,
    ):
        """Yield ``(lo, hi, r, j, sums)``: the finite effort sums among rows ``Xa[lo:hi]`` and ``Xb``.

        Pair t goes from row ``Xa[lo + r[t]]`` to row ``Xb[j[t]]``, and the
        pairs come in row-major order. Every pair whose effort is ``inf`` is
        left out, and with it all the work on it. Only the gates of
        ``_eps_rule`` (immutable and conditionally immutable columns with a
        nonzero weight) give ``inf``, so each tile's feasible pairs are where
        all its gates allow the move; the rule's ``mask`` buffer holds them.
        Every term then runs on those pairs only, in the given order and
        with the same operations as ``eps_tiles``: a level-table column
        gathers ``table[code_i, j]`` and any other column runs its rule on
        the pair's two values. So each sum has the bits of the matching
        ``eps_tiles`` entry. A walk with no gate has no ``inf`` and gives
        every pair. The arrays are scratch that the next step may overwrite.
        """
        shape = (min(tile_rows(Xb.shape[0]), Xa.shape[0]), Xb.shape[0])
        mask = np.empty(shape, bool)
        terms = self._terms(group, Xa, Xb, feature_indices, weighted, mask)
        # A gate's level table is inf exactly where the gate rules a move out
        # (its finite efforts lie in [0, w]), so its finite entries are the
        # allowed moves of each distinct value.
        gates = [
            (k, allowed, None if table is None else np.isfinite(table), codes)
            for k, _, _, allowed, table, codes in terms
            if allowed is not None
        ]
        gate = np.empty(shape, bool)
        for lo, hi in row_tiles(Xa.shape[0], Xb.shape[0]):
            ok, allow = mask[: hi - lo], gate[: hi - lo]
            ok.fill(True)
            for k, allowed, levels, codes in gates:
                if levels is None:
                    allowed(Xa[lo:hi, k], COLUMN, EVERY, allow)
                else:
                    np.take(levels, codes[lo:hi], axis=0, out=allow, mode="clip")
                np.logical_and(ok, allow, out=ok)
            r, j = np.divmod(np.flatnonzero(ok), Xb.shape[0])
            scratch = ok.reshape(-1)[: r.shape[0]]  # the tile mask is spent
            acc, eps = np.zeros(r.shape), np.empty(r.shape)
            for k, w, fill, _, table, codes in terms:
                if table is None:
                    fill(Xa[lo:hi, k], r, j, eps, scratch)
                    if w != 1.0:
                        np.multiply(w, eps, out=eps)
                else:
                    flat = (codes[lo:hi].astype(np.intp) * Xb.shape[0])[r] + j
                    np.take(table, flat, out=eps, mode="clip")  # see eps_tiles
                np.add(acc, eps, out=acc)
            yield lo, hi, r, j, acc

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

    def effort_pairs(self, pop: Population):
        """Yield ``(rows, r, j, e)``: the finite total efforts from rows ``rows[r]`` of ``pop`` to rows ``j``.

        The pair form of ``effort_tiles`` over every feature, through
        ``eps_pairs``: each total is ``base + sum / K`` with the bits of the
        matching ``pairwise_effort`` entry, and every pair whose effort is
        ``inf`` is left out. The arrays are scratch that the next step may
        overwrite.
        """
        K = self.schema.size
        for g in pop.group_names:
            rows = pop.group_rows(g)
            base = self.params.base_cost_for(g)
            for lo, hi, r, j, acc in self.eps_pairs(g, pop.X[rows], pop.X, range(K), weighted=True):
                np.divide(acc, K, out=acc)
                yield rows[lo:hi], r, j, np.add(base, acc, out=acc)

    def pairwise_effort(self, pop: Population, mutable_only: bool = False) -> np.ndarray:
        """(n, n) matrix of total efforts from row i to row j's values: ``effort_tiles`` assembled.

        No command calls it; the tests compare against it, and the
        benchmark's traced run wraps it by name.
        """
        out = np.empty((pop.size, pop.size))
        for rows, tile in self.effort_tiles(pop, mutable_only):
            out[rows] = tile
            del tile  # see effort_tiles
        return out
