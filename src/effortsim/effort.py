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
distance takes its positive rank gap among the group's labels, through the
increasing monotone rule.

Total effort is ``base_cost + (1/K) * sum_k weight_k * eps_k`` over the
schema's K features, accumulated in ascending schema order, and ``inf``
where a gate of nonzero weight rules the move out. The brute-force
reference lives in the test suite's oracles.

Feature k's effort from row i depends only on i's value of k, and most
features take a handful of values. A walk reads each side's columns as
level codes (``dataset.level_codes``): a population codes each (group,
column) once (``Population.levels``, read through ``pop_levels``), and rows
that are no population's are coded per walk (``own_levels``). A rule reads
keys, one per value: its quantile rank, read off the reference group's
level codes of the column (``_rank``), or the value itself. The pairwise
kernel has one walk, ``EffortEngine.eps_reads``, in row tiles: each tile's
terms are read over every pair of the tile, over the pairs of chosen
columns, or over chosen pairs, and its gates over every column or over
chosen ones. A tile's candidate columns (``_candidates``) bound where its
gates can allow a move, and ``effort_reads`` sorts each group's rows by
their gate values (``_gate_order``) so that a tile's candidates are few.
``_tile`` is its one read of a column: a column with few distinct values
gets level tables, its weighted rule's row and its gate's row for each
distinct value, filled on (distinct a x distinct b) keys and expanded to
every row of b, which the read gathers from; every other column runs its
rule or gate on the keys of the rows read. Both paths give the same bits.
``_fold`` is its one loop that combines columns, in the order given:
``np.add`` for terms, ``np.logical_and`` for gates. So an entry has the
same bits whatever else is read with it.
"""

from __future__ import annotations

import functools
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
    level_codes,
)

BENEFIT_PREDICTED = "predicted"
BENEFIT_SHIFTED_GAIN = "shifted_gain"
BENEFITS = (BENEFIT_PREDICTED, BENEFIT_SHIFTED_GAIN)


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _finite(x) -> bool:
    """``math.isfinite(x)``, false for an int beyond the float range instead of an ``OverflowError``."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


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
        if not (self.alpha > 0 and _finite(self.alpha)):
            raise SchemaError(f"alpha must be a positive finite real, got {self.alpha}")
        if not (self.categorical_cost >= 0 and _finite(self.categorical_cost)):
            raise SchemaError("categorical_cost must be finite and >= 0")
        costs = self.base_cost.values() if isinstance(self.base_cost, Mapping) else [self.base_cost]
        for c in costs:
            if not (_is_number(c) and c >= 0 and _finite(c)):
                raise SchemaError("base costs must be finite and >= 0")
        if not (self.feature_weights is None or isinstance(self.feature_weights, Mapping)):
            raise SchemaError("feature_weights must map features or groups to weights")
        # feature_weights decoded once: {group: {feature: w}}, with the flat entries under None
        weights: dict = {}
        for key, value in (self.feature_weights or {}).items():
            group, entries = (key, value) if isinstance(value, Mapping) else (None, {key: value})
            for name, w in entries.items():
                if not (_is_number(w) and w >= 0 and _finite(w)):
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


def _rank(levels: tuple[np.ndarray, np.ndarray], increasing: bool):
    """The quantile rank on a column from its ``level_codes`` ``(values, codes)``: ``x ->`` the
    fraction of the column's entries <= x, or >= x when not ``increasing`` (the mirrored CDF of a
    decreasing feature), elementwise over the array ``x``.

    ``below[i]`` counts the entries of the first i distinct values, which is
    where a binary search of the sorted column puts every x that the same
    search of ``values`` puts at i. So each rank has the bits of
    ``np.searchsorted(np.sort(column), x, side) / n``, NaN (one value, the
    last) and -0.0/0.0 included.
    """
    values, codes = levels
    n = codes.shape[0]
    below = np.concatenate(([0], np.cumsum(np.bincount(codes))))
    if increasing:
        return lambda x: below[np.searchsorted(values, x, side="right")] / n
    return lambda x: (n - below[np.searchsorted(values, x, side="left")]) / n


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


def own_levels(X: np.ndarray):
    """``k -> level_codes`` of column k of ``X``, each column coded on its first call: the levels
    of rows that are no population's, such as focal vectors."""
    return functools.cache(lambda k: level_codes(X[:, k]))


def pop_levels(pop: Population, group: str | None, positions: np.ndarray | None = None):
    """``k -> (values, codes)`` of column k over the rows ``positions`` of ``pop.group_rows(group)``
    (all of them for ``None``; every row of ``pop`` for group ``None``), off ``pop.levels``; each
    column's codes are taken on its first call."""

    def levels(k):
        values, codes = pop.levels(group, k)
        return values, codes if positions is None else codes[positions]

    return functools.cache(levels)


# Every column of a walk's other side: a tile's read of every column.
EVERY = slice(None)


def row_tiles(n_rows: int, n_cols: int):
    """``(lo, hi)`` bounds of consecutive row tiles covering ``n_rows`` rows."""
    step = tile_rows(n_cols)
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)


def _weighted(op, w: float):
    """``op`` times ``w``; ``op`` itself for 1.0 (``1.0 * x == x`` exactly)."""
    if w == 1.0:
        return op

    def weighted_op(ka, kb, out):
        op(ka, kb, out)
        np.multiply(w, out, out=out)

    return weighted_op


def _tile(column, lo: int, hi: int, out: np.ndarray, pairs=None, cols=EVERY) -> None:
    """Write a term's or a gate's entries into ``out``: rows ``lo:hi`` of the walk's A side to the
    columns ``cols`` (every column, or a sorted index array), or with ``pairs=(r, j)`` each pair
    t, row ``lo + r[t]`` to column ``j[t]``."""
    _, rule, table, codes = column
    if table is None:
        op, key, a, kb = rule
        ka = key(a[lo:hi])
        if pairs is None:
            op(ka[:, None], kb[cols], out)
        else:
            op(ka[pairs[0]], kb[pairs[1]], out)
    elif pairs is None:
        # mode="clip": with the default "raise", take buffers its output
        # through a temporary; every index is in range anyway.
        np.take(table[:, cols], codes[lo:hi], axis=0, out=out, mode="clip")
    else:
        flat = (codes[lo:hi].astype(np.intp) * table.shape[1])[pairs[0]] + pairs[1]
        np.take(table, flat, out=out, mode="clip")


def _fold(columns, lo: int, hi: int, acc, buf, start, op, pairs=None, cols=EVERY) -> np.ndarray:
    """``acc`` set to ``start``, then ``op``-ed in place with each column's ``_tile`` (read into ``buf``)."""
    acc.fill(start)
    for column in columns:
        _tile(column, lo, hi, buf, pairs, cols)
        op(acc, buf, out=acc)
    return acc


def _values(values: np.ndarray) -> np.ndarray:
    """A rule's keys that are the values themselves."""
    return values


def _gate(d: int):
    """The mask rule of a gate of direction ``d``, as ``(key, op)`` (see ``EffortEngine._eps_rule``):
    ``op(a, b, out)`` writes whether each move from a value in ``a`` to one in ``b`` is allowed,
    that is b <= a, b == a or b >= a for ``d`` = -1, 0 or +1 (false where either is NaN)."""
    compare = (np.less_equal, np.equal, np.greater_equal)[d + 1]
    return _values, lambda a, b, out: compare(b, a, out=out)


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

    Quantile ranks are read off ``reference``'s level codes
    (``Population.levels``), which stay fixed; query rows may belong to any
    population with the same schema. Every effort goes through
    ``eps_reads``. A caller that needs ``inf`` for a ruled-out move
    (``eps_sum``, ``pairwise_effort``) writes it from the gates' mask; the
    audit folds the mask on each tile's candidate columns and reads the
    feasible pairs alone. A pair's sum has the same bits in every read. An
    engine makes each column's rule once per group; ``columns`` counts its
    walks' column paths.
    """

    def __init__(self, reference: Population, params: EffortParams):
        self.reference = reference
        self.params = params
        self.schema = reference.schema
        # The term columns of every walk this engine made: read through a level table, or by rule.
        self.columns = {"table_columns": 0, "rule_columns": 0}
        self._rules: dict = {}

    def _eps_rule(self, group: str, k: int):
        """Feature k's finite effort rule as ``(key, op)``, or ``None`` for an immutable column,
        which has no rule; made once per (group, column) (``_rule``).

        ``key(values)`` gives what the rule reads of each of the 1-D
        ``values``: its quantile rank among the reference group's values of
        the column (``_rank``), or the value itself (``_values``) for a
        categorical column. ``op(ka, kb, out)`` writes the finite efforts from
        keys ``ka`` to keys ``kb``, elementwise and broadcast. Column
        ``k = schema.size`` is the label: the increasing monotone rule on the
        group's labels. The monotone kinds (conditionally immutable included)
        and the non-monotone ones share one op: the rank gap, clamped at 0 or
        taken absolute.
        """
        if (group, k) not in self._rules:
            self._rules[group, k] = self._rule(group, k)
        return self._rules[group, k]

    def _rule(self, group: str, k: int):
        if k == self.schema.size:
            feature, kind, increasing = None, NUMERICAL_MONOTONE, True
        else:
            feature = self.schema.features[k]
            kind, increasing = feature.kind.kind, feature.kind.direction == INCREASING
        if kind == IMMUTABLE:
            return None
        if kind == CATEGORICAL:
            cost = self.params.categorical_cost_for(feature)

            def op(a, b, out):
                np.not_equal(b, a, out=out)  # 1.0 or 0.0
                np.multiply(out, cost, out=out)  # exact: cost is finite and >= 0

            return _values, op
        absolute = kind in (NUMERICAL_NONMONOTONE, ORDINAL_NONMONOTONE)

        def op(qa, qb, out):
            np.subtract(qb, qa, out=out)
            if absolute:
                np.abs(out, out=out)
            else:  # a gated move never lowers the rank, so its gap is already >= +0.0
                np.maximum(0.0, out, out=out)

        return _rank(self.reference.levels(group, k), absolute or increasing), op

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

    def _terms(self, group, Xa, Xb, levels, feature_indices, weighted, gates, budget: int):
        """The effort terms and the gates' masks, each ``[(k, rule, table, codes)]``.

        A term's rule is its column's ``_eps_rule`` times the weight, a mask's
        its gate in ``gates``; ``levels`` holds ``(levels_a, levels_b)``, which
        code the columns of ``Xa`` and ``Xb`` (see ``eps_reads``). A column
        whose distinct A values fit what is left of the level budget
        (``budget`` rows, spent in the given order) gets a level table per
        rule: filled once on the keys of (distinct a x distinct b) values and
        expanded by B's codes to one row for each distinct a value and one
        column for each row of B (bool for a mask); ``codes`` holds each A
        row's table row. Values that compare equal have equal keys, so each
        entry has the bits of the rule run on the two rows' values. Any other
        column keeps ``rule = (op, key, a, kb)``: ``Xa``'s column, whose rows
        a tile keys, and the keys of ``Xb``'s column; ``table = codes = None``.
        """
        directions = dict(gates)
        terms, masks = [], []
        for k in feature_indices:
            w = self.params.weight_for(group, self.schema.features[k]) if weighted else 1.0
            if w == 0.0:
                continue
            values_a, codes_a = levels[0](k)
            tabled = values_a.shape[0] <= budget
            if tabled:
                budget -= values_a.shape[0]
                values_b, codes_b = levels[1](k)
            term = self._eps_rule(group, k)
            if term is not None:
                term = term[0], _weighted(term[1], w)
            gate = _gate(directions[k]) if k in directions else None
            for rule, dtype, out in ((term, float, terms), (gate, bool, masks)):
                if rule is None:
                    continue
                key, op = rule
                if not tabled:
                    out.append((k, (op, key, Xa[:, k], key(Xb[:, k])), None, None))
                    continue
                table = np.empty((values_a.shape[0], values_b.shape[0]), dtype)
                op(key(values_a)[:, None], key(values_b), table)
                out.append((k, None, table.take(codes_b, axis=1), codes_a))
        return terms, masks

    def eps_reads(
        self,
        group: str,
        Xa: np.ndarray,
        Xb: np.ndarray,
        feature_indices: Sequence[int],
        weighted: bool,
        levels=None,
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

        ``levels`` is ``(levels_a, levels_b)``, each ``k -> (values, codes)``
        for the rows of ``Xa`` and ``Xb`` (``pop_levels``); without it both
        sides are coded here (``own_levels``). Each column's path is chosen
        once per call (see ``_terms``), the level tables share a budget of
        one tile's rows (``tile_rows``, however few rows ``Xa`` has), and
        ``columns`` counts the paths. A read of every column or of chosen
        columns is a contiguous array in the walk's two float tile buffers,
        a mask one in its two bool tile buffers; each pair
        is allocated by its first use and overwritten by the next. A read of
        pairs is a new array sized to the pairs. So a walk that reads pairs
        alone holds no float tile, and one that asks for no mask no bool tile.
        A caller may change a read or a mask in place but must copy what it
        keeps.
        """
        shape = (min(tile_rows(Xb.shape[0]), Xa.shape[0]), Xb.shape[0])
        buffers: dict = {float: [], bool: []}
        gates = self._gates(group, feature_indices, weighted)
        levels = levels or (own_levels(Xa), own_levels(Xb))
        terms, masks = self._terms(group, Xa, Xb, levels, feature_indices, weighted, gates, tile_rows(Xb.shape[0]))
        tables = sum(table is not None for _, _, table, _ in terms)
        self.columns["table_columns"] += tables
        self.columns["rule_columns"] += len(terms) - tables

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
                return _fold(terms, lo, hi, acc, eps, 0.0, np.add, pairs, cols)

            def allowed(cols=EVERY, lo=lo, hi=hi):
                return _fold(masks, lo, hi, *front(bool, lo, hi, cols), True, np.logical_and, cols=cols)

            yield lo, hi, read, allowed, _candidates(gates, Xa[lo:hi], Xb)

    def eps_sum(
        self,
        group: str,
        Xa: np.ndarray,
        Xb: np.ndarray,
        feature_indices: Sequence[int],
        weighted: bool,
        levels=None,
    ) -> np.ndarray:
        """Sum of per-feature efforts over the given features, as one matrix: ``inf`` where a gate
        rules the move out. ``levels`` as in ``eps_reads``."""
        out = np.empty((Xa.shape[0], Xb.shape[0]))
        for lo, hi, read, allowed, _ in self.eps_reads(group, Xa, Xb, feature_indices, weighted, levels):
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

        Row i's own group supplies the quantile ranks and base cost, and each
        total is ``base + sum / K`` over ``eps_reads``' sum, in place. With
        ``mutable_only`` the non-mutable features are skipped, which is the
        cost of an imitation target that keeps i's non-mutable entries; that
        walk has no gate. The walk goes group by group in row tiles, with
        each group's rows in gate order (``_gate_order``), so ``rows`` is an
        index array of members of one group; a walk with no gate takes them
        in ``pop.group_rows(g)`` order. Both sides read ``pop``'s cached level
        codes (``pop_levels``). Reads and masks are scratch as
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
            levels = (pop_levels(pop, g, order), pop_levels(pop, None))
            for lo, hi, read, allowed, cols in self.eps_reads(g, pop.X[rows], pop.X, idx, True, levels):

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
