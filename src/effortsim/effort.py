"""Group-conditional quantile effort, benefit and the pairwise effort engine.

Effort to change feature k from value a to value b is measured on the
quantile scale of the actor's own group: moving into territory that few
group members occupy is expensive, moving where most of the group already
is comes cheap. Rules give finite efforts and gates decide feasibility.
The rule per kind is written once in ``EffortEngine._eps_rule``:

* monotone numerical/ordinal and conditionally immutable: positive rank
  gap in the desirable direction, free in the other direction;
* non-monotone: absolute rank gap (either direction costs);
* categorical: a flat constant for any change;
* immutable: no rule.

A walk's gates are decided once, in ``EffortEngine._gates``, as a list of
``(column, direction)``: an immutable column allows no change (direction
0), a conditionally immutable one the desirable direction only (+1 or -1).
The mask, the candidate columns and the row order read that list alone.

Column K, one past the schema's features, is the label: the segregation
distance takes its positive rank gap on the group's label table, through
the increasing monotone rule.

Total effort is ``base_cost + (1/K) * sum_k weight_k * eps_k`` over the
schema's K features, accumulated in ascending schema order, and ``inf``
where a gate of nonzero weight rules the move out. The brute-force
reference lives in the test suite's oracles.

Feature k's effort from row i depends only on i's value of k, and most
features take a handful of values. The pairwise kernel has one walk,
``EffortEngine.eps_reads``, in row tiles: each tile's terms are read over
every pair of the tile, over the pairs of chosen columns, or over chosen
pairs, and its gates over every column or over chosen ones. A tile's
candidate columns (``_candidates``) bound where its gates can allow a
move, and ``effort_reads`` sorts each group's rows by their gate values
(``_gate_order``) so that a tile's candidates are few. ``_tile`` is its one
read of a column: a column with few distinct values gets level tables, its
weighted rule's row and its gate's row for each distinct value, which the
read gathers from; every other column runs its rule or gate on the rows
read. Both paths give the same bits. ``_fold`` is its one loop that combines
columns, in the order given: ``np.add`` for terms, ``np.logical_and`` for
gates. So an entry has the same bits whatever else is read with it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import (
    CATEGORICAL,
    IMMUTABLE,
    INCREASING,
    NUMERICAL_MONOTONE,
    NUMERICAL_NONMONOTONE,
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
    """Scalar (or vectorized) benefit of receiving prediction ``y_hat``.

    ``benefit`` is one of ``BENEFITS``; ``EffortParams`` checks it.
    """
    if benefit == BENEFIT_SHIFTED_GAIN:
        return y_hat - y + 1.0
    return y_hat


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


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` for the rows of the 2-D ``a``: one row index per distinct row,
    and the position in ``first`` of each row's own distinct row.

    Sort-based like ``_distinct``, and for the same reason. Rows that compare
    equal column by column are one row (-0.0 and 0.0 are one value), and a
    row holding NaN is a row of its own, so ``a[first][inverse]`` holds the
    values of ``a`` up to the sign of a zero. The sort orders whole rows by
    their bytes once every zero is +0.0 (one key, where a lexicographic sort
    takes a pass per column), so rows that compare equal lie next to each
    other; ``first`` follows that order.
    """
    if not a.shape[1]:  # no columns: every row is the empty row
        return np.zeros(min(a.shape[0], 1), np.intp), np.zeros(a.shape[0], np.intp)
    rows = np.add(a, 0.0, order="C")  # -0.0 + 0.0 is 0.0; every other value keeps its bits
    order = np.argsort(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(), kind="stable")
    s = a[order]
    new = np.ones(a.shape[0], bool)
    np.any(s[1:] != s[:-1], axis=1, out=new[1:])
    inverse = np.empty(a.shape[0], np.intp)
    inverse[order] = np.cumsum(new) - 1
    return order[new], inverse


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


def _tile(column, Xa: np.ndarray, lo: int, hi: int, out: np.ndarray, pairs=None, cols=EVERY) -> None:
    """Write a term's or a gate's entries into ``out``: rows ``Xa[lo:hi]`` to the columns ``cols``
    (every column, or a sorted index array), or with ``pairs=(r, j)`` each pair t, row
    ``Xa[lo + r[t]]`` to column ``j[t]``."""
    k, rule, table, codes = column
    if table is None:
        rule(Xa[lo:hi, k], *((COLUMN, cols) if pairs is None else pairs), out)
    elif pairs is None:
        # mode="clip": with the default "raise", take buffers its output
        # through a temporary; every index is in range anyway.
        np.take(table[:, cols], codes[lo:hi], axis=0, out=out, mode="clip")
    else:
        flat = (codes[lo:hi].astype(np.intp) * table.shape[1])[pairs[0]] + pairs[1]
        np.take(table, flat, out=out, mode="clip")


def _fold(columns, Xa: np.ndarray, lo: int, hi: int, acc, buf, start, op, pairs=None, cols=EVERY) -> np.ndarray:
    """``acc`` set to ``start``, then ``op``-ed in place with each column's ``_tile`` (read into ``buf``)."""
    acc.fill(start)
    for column in columns:
        _tile(column, Xa, lo, hi, buf, pairs, cols)
        op(acc, buf, out=acc)
    return acc


def _gate(d: int, col_b: np.ndarray):
    """The mask rule of a gate of direction ``d`` to the values ``col_b``: ``allowed(a, rows, cols,
    out)`` writes whether each move from a in ``a[rows]`` to b in ``col_b[cols]`` is allowed, that
    is b <= a, b == a or b >= a for ``d`` = -1, 0 or +1 (false where either is NaN)."""
    compare = (np.less_equal, np.equal, np.greater_equal)[d + 1]
    return lambda a, rows, cols, out: compare(col_b[cols], a[rows], out=out)


def _candidates(gates, A: np.ndarray, B: np.ndarray):
    """The rows of ``B`` that the gates ``(k, d)`` may allow from some row of ``A``, as a sorted
    index array; ``EVERY`` when there is no gate.

    The bound is necessary, gate by gate: a gate allows a move only to a value
    at or past the row's own in its direction (both ways for ``d = 0``), so
    at or past the least (``d >= 0``) or the greatest (``d <= 0``) such value
    of ``A``'s rows. NaN is ignored: a NaN row allows nothing.
    """
    if not gates:
        return EVERY
    keep = np.ones(B.shape[0], bool)
    for k, d in gates:
        a, b = A[:, k], B[:, k]
        if d >= 0:
            keep &= b >= np.fmin.reduce(a)  # NaN when every row is NaN: nothing passes
        if d <= 0:
            keep &= b <= np.fmax.reduce(a)
    return np.flatnonzero(keep)


def _gate_order(gates, Xa: np.ndarray):
    """The order of ``Xa``'s rows by the gates ``(k, d)``; ``None`` when there is none.

    Lexicographic by the gate columns in the listed order, each negated for
    ``d = -1``: neighbouring rows share or nearly share their gate values, so
    a row tile's ``_candidates`` are few. NaN sorts last.
    """
    keys = [-Xa[:, k] if d < 0 else Xa[:, k] for k, d in gates]
    return np.lexsort(keys[::-1]) if keys else None  # lexsort's last key is the first


class EffortEngine:
    """Vectorized effort computations over a frozen reference population.

    Quantile tables come from ``reference`` and stay fixed; query rows may
    belong to any population with the same schema. Every effort goes
    through ``eps_reads``. A caller that needs ``inf`` for a ruled-out move
    (``eps_sum``, ``pairwise_effort``) writes it from the gates' mask; the
    audit folds the mask on each tile's candidate columns and reads the
    feasible pairs alone. A pair's sum has the same bits in every read.
    """

    def __init__(self, reference: Population, params: EffortParams):
        self.reference = reference
        self.params = params
        self.schema = reference.schema

    def _eps_rule(self, group: str, k: int, col_b: np.ndarray):
        """Feature k's finite effort rule from values a to the values ``col_b``: ``fill``, or ``None``
        for an immutable column, which has no rule.

        Column ``k = schema.size`` is the label: the increasing monotone rule
        on the group's label table. ``col_b`` is ranked once here.
        ``fill(a, rows, cols, out)`` writes the finite efforts from
        ``a[rows]`` to ``col_b[cols]``, ranking the 1-D ``a`` once. ``COLUMN``
        and ``EVERY`` select a tile, every value of ``a`` against every value
        of ``col_b``; two equal-length index arrays select pairs. The
        monotone kinds (conditionally immutable included) and the
        non-monotone ones share one fill: the rank gap, clamped at 0 or taken
        absolute.
        """
        if k == self.schema.size:
            feature, kind, increasing = None, NUMERICAL_MONOTONE, True
            table = self.reference.label_table(group)
        else:
            feature = self.schema.features[k]
            kind, increasing = feature.kind.kind, feature.kind.direction == INCREASING
            table = self.reference.feature_table(group)[:, k]
        if kind == IMMUTABLE:
            return None
        if kind == CATEGORICAL:
            cost = self.params.categorical_cost_for(feature)

            def fill(a, rows, cols, out):
                np.not_equal(col_b[cols], a[rows], out=out)  # 1.0 or 0.0
                np.multiply(out, cost, out=out)  # exact: cost is finite and >= 0

            return fill
        absolute = kind in (NUMERICAL_NONMONOTONE, ORDINAL_NONMONOTONE)
        rank = _rank_asc if absolute or increasing else _rank_desc
        qb = rank(table, col_b)

        def fill(a, rows, cols, out):
            np.subtract(qb[cols], rank(table, a)[rows], out=out)
            if absolute:
                np.abs(out, out=out)
            else:  # a gated move never lowers the rank, so its gap is already >= +0.0
                np.maximum(0.0, out, out=out)

        return fill

    def _gates(self, group: str, feature_indices: Sequence[int], weighted: bool) -> list[tuple[int, int]]:
        """The walk's gates as ``(k, d)`` (see ``_gate``), in the order of ``_gate_order``'s keys.

        The conditionally immutable columns come first, in the given order,
        each with its desirable direction (``d = +1`` or -1), then the
        immutable ones (``d = 0``). A column of weight 0 in a weighted walk has
        no gate, nor has a mutable column or the label.
        """
        gates = []
        for k in feature_indices:
            feature = self.schema.features[k] if k < self.schema.size else None  # None: the label
            if feature is None or feature.mutable or (weighted and self.params.weight_for(group, feature) == 0.0):
                continue
            kind = feature.kind
            gates.append((k, 0 if kind.kind == IMMUTABLE else 1 if kind.direction == INCREASING else -1))
        return sorted(gates, key=lambda gate: gate[1] == 0)  # stable: the immutable columns last

    def _terms(self, group, Xa, Xb, feature_indices, weighted, gates, budget: int):
        """The effort terms and the gates' masks, each ``[(k, rule, table, codes)]``.

        A term's rule is its column's ``fill`` times the weight, a mask's the
        compare of its gate in ``gates``. A column whose distinct ``Xa``
        values fit what is left of the level budget (``budget`` rows, spent
        in the given order) gets a level table per rule, one row for each
        distinct value (bool for a mask), and ``codes`` holds each ``Xa``
        row's table row. Any other column gets ``table = codes = None``.
        """
        directions = dict(gates)
        terms, masks = [], []
        for k in feature_indices:
            w = self.params.weight_for(group, self.schema.features[k]) if weighted else 1.0
            if w == 0.0:
                continue
            fill = _weighted(self._eps_rule(group, k, Xb[:, k]), w)
            allowed = _gate(directions[k], Xb[:, k]) if k in directions else None
            values, codes = _distinct(Xa[:, k]), None
            if values.shape[0] <= budget:
                budget -= values.shape[0]
                # Binary search matches values that compare equal (-0.0 and 0.0)
                # and all NaNs to one row; every rule gives them equal rows.
                codes = np.searchsorted(values, Xa[:, k]).astype(np.min_scalar_type(values.shape[0]))
            for rule, dtype, out in ((fill, float, terms), (allowed, bool, masks)):
                if rule is None:
                    continue
                table = None
                if codes is not None:
                    table = np.empty((values.shape[0], Xb.shape[0]), dtype)
                    rule(values, COLUMN, EVERY, table)
                out.append((k, rule, table, codes))
        return terms, masks

    def eps_reads(
        self,
        group: str,
        Xa: np.ndarray,
        Xb: np.ndarray,
        feature_indices: Sequence[int],
        weighted: bool,
    ):
        """Yield ``(lo, hi, read, allowed, cols)``, one per row tile of ``Xa``.

        ``read(cols=EVERY, pairs=None)`` gives the effort sums of rows
        ``Xa[lo:hi]`` to the rows ``cols`` of ``Xb`` (every row, or a sorted
        index array), or with ``pairs=(r, j)`` of row ``Xa[lo + r[t]]`` to row
        ``Xb[j[t]]``. It folds the finite terms only: each entry is
        ``acc + w * rule(a_i)``, feature by feature in the given order, so it
        has the same bits whatever else is read with it. ``allowed(cols=EVERY)``
        folds the masks of the walk's gates (``_gates``, listed once per call)
        over the same columns: whether each move of rows ``Xa[lo:hi]`` to
        those rows of ``Xb`` can be made at all, all ``True`` for a walk with
        no gate, such as one over mutable columns and the label (column
        ``schema.size``, for unweighted calls only).

        ``cols`` holds the tile's candidate columns: a sorted index array of
        the rows of ``Xb`` that pass a necessary bound of every gate over the
        tile's rows (see ``_candidates``), so no move to another row is
        allowed; ``EVERY`` for a walk with no gate. The fewer values the
        tile's rows take in the gate columns, the fewer candidates it has,
        which is why ``effort_reads`` sorts each group's rows by them.

        Each column's path is chosen once per call (see ``_terms``), and the
        level tables share a budget of one tile's rows. A read of every
        column or of chosen columns is a contiguous array in the walk's two
        float tile buffers, a mask one in its two bool tile buffers; each pair
        is allocated by its first use and overwritten by the next. A read of
        pairs is a new array sized to the pairs. So a walk that reads pairs
        alone holds no float tile, and one that asks for no mask no bool tile.
        A caller may change a read or a mask in place but must copy what it
        keeps.
        """
        shape = (min(tile_rows(Xb.shape[0]), Xa.shape[0]), Xb.shape[0])
        buffers: dict = {float: [], bool: []}
        gates = self._gates(group, feature_indices, weighted)
        terms, masks = self._terms(group, Xa, Xb, feature_indices, weighted, gates, shape[0])

        def front(dtype, lo, hi, cols):
            """Contiguous ``(hi - lo, len(cols))`` views of the front of the two ``dtype`` buffers."""
            pair = buffers[dtype]
            if not pair:
                pair.extend((np.empty(shape, dtype), np.empty(shape, dtype)))
            dims = (hi - lo, Xb.shape[0] if cols is EVERY else cols.shape[0])
            return (b.reshape(-1)[: math.prod(dims)].reshape(dims) for b in pair)

        for lo, hi in row_tiles(Xa.shape[0], Xb.shape[0]):

            def read(cols=EVERY, pairs=None, lo=lo, hi=hi):
                if pairs is not None:
                    acc, eps = np.empty(pairs[0].shape), np.empty(pairs[0].shape)
                else:
                    acc, eps = front(float, lo, hi, cols)
                return _fold(terms, Xa, lo, hi, acc, eps, 0.0, np.add, pairs, cols)

            def allowed(cols=EVERY, lo=lo, hi=hi):
                return _fold(masks, Xa, lo, hi, *front(bool, lo, hi, cols), True, np.logical_and, cols=cols)

            yield lo, hi, read, allowed, _candidates(gates, Xa[lo:hi], Xb)

    def eps_sum(
        self,
        group: str,
        Xa: np.ndarray,
        Xb: np.ndarray,
        feature_indices: Sequence[int],
        weighted: bool,
    ) -> np.ndarray:
        """Sum of per-feature efforts over the given features, as one matrix: ``inf`` where a gate
        rules the move out."""
        out = np.empty((Xa.shape[0], Xb.shape[0]))
        for lo, hi, read, allowed, _ in self.eps_reads(group, Xa, Xb, feature_indices, weighted):
            tile, feasible = read(), allowed()
            np.putmask(tile, np.logical_not(feasible, out=feasible), np.inf)
            out[lo:hi] = tile
        return out

    def effort_reads(self, pop: Population, mutable_only: bool = False):
        """Yield ``(rows, read, allowed, cols)``: ``read(cols=EVERY, pairs=None)`` gives the total
        efforts from rows ``rows`` of ``pop`` to the rows ``cols`` of ``pop``, or of the pairs
        ``(r, j)``; ``allowed(cols=EVERY)`` whether each move of the rows to those rows of ``pop``
        can be made at all; and ``cols`` the tile's candidate columns, outside which no move is
        allowed (``EVERY`` for a walk with no gate).

        Row i's own group supplies the quantile tables and base cost, and each
        total is ``base + sum / K`` over ``eps_reads``' sum, in place. With
        ``mutable_only`` the non-mutable features are skipped, which is the
        cost of an imitation target that keeps i's non-mutable entries; that
        walk has no gate. The walk goes group by group in row tiles, with
        each group's rows in gate order (``_gate_order``), so ``rows`` is an
        index array of members of one group; a walk with no gate takes them
        in ``pop.group_rows(g)`` order. Reads and masks are scratch as
        ``eps_reads`` says, and a consumer drops its reader and reads before
        asking for the next row tile: a finished group's buffers are then
        freed before the next group's are allocated.
        """
        K = self.schema.size
        idx = [k for k in range(K) if self.schema.features[k].mutable or not mutable_only]
        for g in pop.group_names:
            rows = pop.group_rows(g)
            order = _gate_order(self._gates(g, idx, weighted=True), pop.X[rows])
            if order is not None:
                rows = rows[order]
            base = self.params.base_cost_for(g)
            for lo, hi, read, allowed, cols in self.eps_reads(g, pop.X[rows], pop.X, idx, weighted=True):

                def total(cols=EVERY, pairs=None, read=read):
                    acc = read(cols, pairs)
                    np.divide(acc, K, out=acc)
                    return np.add(base, acc, out=acc)

                yield rows[lo:hi], total, allowed, cols
            del read, allowed, total  # they hold the finished group's buffers

    def pairwise_effort(self, pop: Population, mutable_only: bool = False) -> np.ndarray:
        """(n, n) matrix of total efforts from row i to row j's values: ``effort_reads`` assembled,
        with ``inf`` where a gate rules the move out.

        No command calls it; the tests compare against it, and the
        benchmark's traced run wraps it by name.
        """
        out = np.empty((pop.size, pop.size))
        for rows, read, allowed, _ in self.effort_reads(pop, mutable_only):
            tile, feasible = read(), allowed()
            np.putmask(tile, np.logical_not(feasible, out=feasible), np.inf)
            out[rows] = tile
            del read, allowed, tile, feasible  # see effort_reads
        return out
