"""Group-conditional quantile effort, benefit and the pairwise effort engine.

Effort to change feature k from value a to value b is measured on the
quantile scale of the actor's own group: moving into territory that few
group members occupy is expensive, moving where most of the group already
is comes cheap. Rules give finite efforts and gates decide feasibility.
Per kind, written once in ``EffortEngine._eps_rule``:

* monotone numerical/ordinal: positive rank gap in the desirable
  direction, free in the other direction;
* non-monotone: absolute rank gap (either direction costs);
* categorical: a flat constant for any change;
* immutable: no rule, and a gate that allows no change;
* conditionally immutable: the monotone rule, and a gate that allows the
  desirable direction only.

Column K, one past the schema's features, is the label: the segregation
distance takes its positive rank gap on the group's label table, through
the increasing monotone rule.

Total effort is ``base_cost + (1/K) * sum_k weight_k * eps_k`` over the
schema's K features, accumulated in ascending schema order, and ``inf``
where a gate of nonzero weight rules the move out. The brute-force
reference lives in the test suite's oracles.

Feature k's effort from row i depends only on i's value of k, and most
features take a handful of values. The pairwise kernel works in row tiles,
over every pair of a tile or over chosen pairs of it. ``_tile`` is its one
read of a column: a column with few distinct values gets level tables, its
weighted rule's row and its gate's row for each distinct value, which the
read gathers from; every other column runs its rule or gate on the rows
read. Both paths give the same bits. ``_fold`` is its one loop that
combines columns, in the order given: ``np.add`` for terms, ``np.logical_and``
for gates.
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
    """The utility model: the benefit of a prediction, risk aversion and the cost model.

    ``benefit`` (one of ``BENEFITS``) and the risk aversion ``alpha`` make
    ``reward``. ``base_cost`` is a single float applied to every group or a
    mapping group -> cost. ``feature_weights`` may be flat ``{feature: w}``
    or nested ``{group: {feature: w}}``; a group's nested map replaces the
    flat entries, and unspecified weights fall back to the schema feature's
    own weight (default 1). ``categorical_cost`` is the default flat cost of
    changing a categorical feature, overridable per feature in the schema.
    """

    alpha: float = 1.0
    base_cost: float | Mapping[str, float] = 0.0
    categorical_cost: float = 0.5
    feature_weights: Mapping | None = None
    benefit: str = BENEFIT_PREDICTED

    def __post_init__(self) -> None:
        if self.benefit not in BENEFITS:
            raise SchemaError(f"unknown benefit {self.benefit!r}")
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise SchemaError(f"alpha must be a positive finite real, got {self.alpha}")
        if not (self.categorical_cost >= 0 and math.isfinite(self.categorical_cost)):
            raise SchemaError("categorical_cost must be finite and >= 0")
        costs = self.base_cost.values() if isinstance(self.base_cost, Mapping) else [self.base_cost]
        for c in costs:
            if not (_is_number(c) and c >= 0 and math.isfinite(c)):
                raise SchemaError("base costs must be finite and >= 0")
        if not (self.feature_weights is None or isinstance(self.feature_weights, Mapping)):
            raise SchemaError("feature_weights must map features or groups to weights")
        # feature_weights decoded once: {group: {feature: w}}, with the flat entries under None
        weights: dict = {}
        for key, value in (self.feature_weights or {}).items():
            group, entries = (key, value) if isinstance(value, Mapping) else (None, {key: value})
            for name, w in entries.items():
                if not (_is_number(w) and w >= 0 and math.isfinite(w)):
                    raise SchemaError(f"weight for {name!r} must be finite and >= 0, got {w!r}")
            weights.setdefault(group, {}).update(entries)
        object.__setattr__(self, "_weights", weights)

    def check_names(self, pop: Population) -> None:
        """Every group and feature that the cost model names exists in ``pop``."""
        groups, features = set(pop.group_names), set(pop.schema.names)

        def check(name, known: set, what: str) -> None:
            if name not in known:
                raise SchemaError(f"{what} {name!r} is not one of {sorted(known)}")

        for g in self.base_cost if isinstance(self.base_cost, Mapping) else ():
            check(g, groups, "base_costs group")
        for group, weights in self._weights.items():
            if group is not None:
                check(group, groups, "feature_weights group")
            what = "feature_weights feature" if group is None else f"feature_weights[{group!r}] feature"
            for f in weights:
                check(f, features, what)

    def reward(self, y, y_hat):
        """The risk-adjusted benefit of receiving prediction ``y_hat`` (scalar or vectorized)."""
        return risk_adjusted(benefit_value(self.benefit, y, y_hat), self.alpha)

    def base_cost_for(self, group: str) -> float:
        if isinstance(self.base_cost, Mapping):
            return float(self.base_cost.get(group, 0.0))
        return float(self.base_cost)

    def weight_for(self, group: str, feature: Feature) -> float:
        w = self._weights.get(group, self._weights.get(None, {})).get(feature.name)
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
    """The distinct entries of ``a``, sorted (each NaN counts as its own entry).

    This is ``np.unique(a, equal_nan=False)`` bit for bit, but the first
    ``np.unique`` call of a process imports ``numpy.ma``, which adds about
    1.6 MB to the peak resident set of a run.
    """
    a = np.sort(a)
    keep = np.ones(a.shape, bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


# Selections that make ``_eps_rule``'s fills and gates work on a whole tile:
# each value of the tile's column against every value of ``col_b``.
COLUMN = (slice(None), None)
EVERY = slice(None)


def row_tiles(n_rows: int, n_cols: int):
    """``(lo, hi)`` bounds of consecutive row tiles covering ``n_rows`` rows."""
    step = tile_rows(n_cols)
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)


def _weighted(fill, w: float):
    """``fill`` times ``w``; ``fill`` itself for 1.0 (``1.0 * x == x`` exactly) and for no rule."""
    if fill is None or w == 1.0:
        return fill

    def weighted_fill(a, rows, cols, out):
        fill(a, rows, cols, out)
        np.multiply(w, out, out=out)

    return weighted_fill


def _tile(column, Xa: np.ndarray, lo: int, hi: int, out: np.ndarray, pairs=None) -> None:
    """Write a term's or a gate's entries into ``out``: rows ``Xa[lo:hi]`` to every column, or
    with ``pairs=(r, j)`` each pair t, row ``Xa[lo + r[t]]`` to column ``j[t]``."""
    k, rule, table, codes = column
    if table is None:
        rule(Xa[lo:hi, k], *((COLUMN, EVERY) if pairs is None else pairs), out)
    elif pairs is None:
        # mode="clip": with the default "raise", take buffers its output
        # through a temporary; every index is in range anyway.
        np.take(table, codes[lo:hi], axis=0, out=out, mode="clip")
    else:
        flat = (codes[lo:hi].astype(np.intp) * table.shape[1])[pairs[0]] + pairs[1]
        np.take(table, flat, out=out, mode="clip")


def _fold(columns, Xa: np.ndarray, lo: int, hi: int, acc, buf, start, op, pairs=None) -> np.ndarray:
    """``acc`` set to ``start``, then ``op``-ed in place with each column's ``_tile`` (read into ``buf``)."""
    acc.fill(start)
    for column in columns:
        _tile(column, Xa, lo, hi, buf, pairs)
        op(acc, buf, out=acc)
    return acc


class EffortEngine:
    """Vectorized effort computations over a frozen reference population.

    Quantile tables come from ``reference`` and stay fixed; query rows may
    belong to any population with the same schema. Every effort goes
    through ``eps_tiles`` (every pair of each row tile) or ``eps_pairs``
    (the feasible pairs only). Both ``_fold`` the finite rules of
    ``_eps_rule`` in the order given and take feasibility from a ``_fold``
    of its gates, so a pair's sum has the same bits in either walk.
    """

    def __init__(self, reference: Population, params: EffortParams):
        self.reference = reference
        self.params = params
        self.schema = reference.schema

    def _eps_rule(self, group: str, k: int, col_b: np.ndarray):
        """Feature k's effort rule and gate from values a to the values ``col_b``: ``(fill, allowed)``.

        Column ``k = schema.size`` is the label: the increasing monotone rule
        on the group's label table. ``col_b`` is ranked once here.
        ``fill(a, rows, cols, out)`` writes the finite efforts from
        ``a[rows]`` to ``col_b[cols]``, ranking the 1-D ``a`` once, and
        ``allowed(a, rows, cols, out)`` whether those moves can be made at
        all. ``COLUMN`` and ``EVERY`` select a tile, every value of ``a``
        against every value of ``col_b``; two equal-length index arrays
        select pairs. An immutable column has no rule (``fill is None``), and
        only the immutable kinds have a gate (else ``allowed is None``).
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

            def fill(a, rows, cols, out):
                np.not_equal(col_b[cols], a[rows], out=out)  # 1.0 or 0.0
                np.multiply(out, cost, out=out)  # exact: cost is finite and >= 0

            return fill, None
        if kind == IMMUTABLE:

            def allowed(a, rows, cols, out):
                np.equal(col_b[cols], a[rows], out=out)

            return None, allowed
        if kind in (NUMERICAL_NONMONOTONE, ORDINAL_NONMONOTONE) or increasing:
            rank = _rank_asc
        else:
            rank = _rank_desc
        qb = rank(table, col_b)
        if kind in (NUMERICAL_NONMONOTONE, ORDINAL_NONMONOTONE):

            def fill(a, rows, cols, out):
                np.subtract(qb[cols], rank(table, a)[rows], out=out)
                np.abs(out, out=out)

            return fill, None

        def fill(a, rows, cols, out):
            np.subtract(qb[cols], rank(table, a)[rows], out=out)
            np.maximum(0.0, out, out=out)

        if kind in (NUMERICAL_MONOTONE, ORDINAL_MONOTONE):
            return fill, None
        if kind == CONDITIONALLY_IMMUTABLE:
            # An allowed move never lowers the rank, so its gap is already
            # >= +0.0; the gate rules out the other direction and NaN.
            allowed_or_equal = np.greater_equal if increasing else np.less_equal

            def allowed(a, rows, cols, out):
                allowed_or_equal(col_b[cols], a[rows], out=out)

            return fill, allowed
        raise SchemaError(f"unhandled feature kind {kind!r}")

    def _terms(self, group, Xa, Xb, feature_indices, weighted, budget: int):
        """The effort terms and the gates of the weighted columns, each ``[(k, rule, table, codes)]``.

        A term's rule is its column's ``fill`` times the weight, a gate's its
        ``allowed``. A column whose distinct ``Xa`` values fit what is left of
        the level budget (``budget`` rows, spent in the given order) gets a
        level table per rule, one row for each distinct value (bool for a
        gate), and ``codes`` holds each ``Xa`` row's table row. Any other
        column gets ``table = codes = None``.
        """
        terms, gates = [], []
        for k in feature_indices:
            w = self.params.weight_for(group, self.schema.features[k]) if weighted else 1.0
            if w == 0.0:
                continue
            fill, allowed = self._eps_rule(group, k, Xb[:, k])
            values, codes = _distinct(Xa[:, k]), None
            if values.shape[0] <= budget:
                budget -= values.shape[0]
                # Binary search matches values that compare equal (-0.0 and 0.0)
                # and all NaNs to one row; every rule gives them equal rows.
                codes = np.searchsorted(values, Xa[:, k]).astype(np.min_scalar_type(values.shape[0]))
            for rule, dtype, out in ((_weighted(fill, w), float, terms), (allowed, bool, gates)):
                if rule is None:
                    continue
                table = None
                if codes is not None:
                    table = np.empty((values.shape[0], Xb.shape[0]), dtype)
                    rule(values, COLUMN, EVERY, table)
                out.append((k, rule, table, codes))
        return terms, gates

    def eps_tiles(
        self,
        group: str,
        Xa: np.ndarray,
        Xb: np.ndarray,
        feature_indices: Sequence[int],
        weighted: bool,
    ):
        """Yield ``(lo, hi, tile)``: the effort sums of rows ``Xa[lo:hi]`` to every row of ``Xb``.

        Each column's path is chosen once per call (see ``_terms``), and the
        level tables share a budget of one tile's rows. Either path gives
        every entry ``acc + w * rule(a_i)``, feature by feature in the given
        order; then one ``putmask`` writes ``inf`` where the gates' fold rules
        the move out. Column ``schema.size``, if present, is the label, for
        unweighted calls only. The tile is scratch that the next step
        overwrites, so a caller may change it in place but must copy what it
        keeps.
        """
        shape = (min(tile_rows(Xb.shape[0]), Xa.shape[0]), Xb.shape[0])
        acc, eps = np.empty(shape), np.empty(shape)
        ok, allow = np.empty(shape, bool), np.empty(shape, bool)
        terms, gates = self._terms(group, Xa, Xb, feature_indices, weighted, shape[0])
        for lo, hi in row_tiles(Xa.shape[0], Xb.shape[0]):
            acc_t = _fold(terms, Xa, lo, hi, acc[: hi - lo], eps[: hi - lo], 0.0, np.add)
            if gates:
                feasible = _fold(gates, Xa, lo, hi, ok[: hi - lo], allow[: hi - lo], True, np.logical_and)
                np.putmask(acc_t, np.logical_not(feasible, out=feasible), np.inf)
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

        Pair t goes from row ``Xa[lo + r[t]]`` to row ``Xb[j[t]]``, in
        row-major order. The gate fold of ``eps_tiles`` picks each tile's
        feasible pairs, and the terms' fold reads those alone, in the given
        order and with the same operations, so each sum has the bits of the
        matching ``eps_tiles`` entry. A walk with no gate gives every pair.
        The arrays are scratch that the next step may overwrite.
        """
        shape = (min(tile_rows(Xb.shape[0]), Xa.shape[0]), Xb.shape[0])
        ok, allow = np.empty(shape, bool), np.empty(shape, bool)
        terms, gates = self._terms(group, Xa, Xb, feature_indices, weighted, shape[0])
        for lo, hi in row_tiles(Xa.shape[0], Xb.shape[0]):
            feasible = _fold(gates, Xa, lo, hi, ok[: hi - lo], allow[: hi - lo], True, np.logical_and)
            r, j = np.divmod(np.flatnonzero(feasible), Xb.shape[0])
            acc = _fold(terms, Xa, lo, hi, np.empty(r.shape), np.empty(r.shape), 0.0, np.add, (r, j))
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
