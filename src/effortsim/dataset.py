"""Feature schemas, populations, CSV ingestion, splitting and synthetic data.

A population bundles the raw feature matrix with per-group sorted value
tables; those tables are what every downstream quantile-rank computation
reads, so each is sorted on first use, cached and never mutated. The same
holds for each column's level codes and each group's distinct profiles,
which the effort walks read.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

INCREASING = "increasing"
DECREASING = "decreasing"

NUMERICAL_MONOTONE = "numerical_monotone"
NUMERICAL_NONMONOTONE = "numerical_nonmonotone"
ORDINAL_MONOTONE = "ordinal_monotone"
ORDINAL_NONMONOTONE = "ordinal_nonmonotone"
CATEGORICAL = "categorical"
IMMUTABLE = "immutable"
CONDITIONALLY_IMMUTABLE = "conditionally_immutable"

_ALL_KINDS = {
    NUMERICAL_MONOTONE,
    NUMERICAL_NONMONOTONE,
    ORDINAL_MONOTONE,
    ORDINAL_NONMONOTONE,
    CATEGORICAL,
    IMMUTABLE,
    CONDITIONALLY_IMMUTABLE,
}
_DIRECTED_KINDS = {NUMERICAL_MONOTONE, ORDINAL_MONOTONE, CONDITIONALLY_IMMUTABLE}
_NON_MUTABLE_KINDS = {IMMUTABLE, CONDITIONALLY_IMMUTABLE}


class SchemaError(ValueError):
    """A schema file or feature declaration violates the contract."""


class DataError(ValueError):
    """A data file does not conform to its declared schema."""


@dataclass(frozen=True)
class FeatureKind:
    """One feature-type variant plus the attributes that variant needs.

    ``direction`` is required for the monotone kinds (the desirable
    direction of change) and for conditionally immutable features (the
    only direction in which change is possible). ``levels`` is required
    for categorical features and optional for immutable ones whose CSV
    values are strings (e.g. a sensitive attribute coded "F"/"M").
    """

    kind: str
    direction: str | None = None
    levels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _ALL_KINDS:
            raise SchemaError(f"unknown feature kind {self.kind!r}")
        if self.kind in _DIRECTED_KINDS:
            if self.direction not in (INCREASING, DECREASING):
                raise SchemaError(
                    f"kind {self.kind!r} requires direction 'increasing' or 'decreasing'"
                )
        elif self.direction is not None:
            raise SchemaError(f"kind {self.kind!r} does not take a direction")
        if self.kind == CATEGORICAL:
            if self.levels is None or len(self.levels) < 2:
                raise SchemaError("categorical features need at least 2 levels")
        if self.levels is not None:
            if len(set(self.levels)) != len(self.levels):
                raise SchemaError("feature levels must be distinct")
            if self.kind not in (CATEGORICAL, IMMUTABLE):
                raise SchemaError(f"kind {self.kind!r} does not take levels")


@dataclass(frozen=True)
class Feature:
    name: str
    kind: FeatureKind
    mutable: bool
    weight: float = 1.0
    categorical_cost: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.weight) and self.weight >= 0):
            raise SchemaError(f"feature {self.name!r}: weight must be finite and >= 0")
        if self.categorical_cost is not None and not (
            math.isfinite(self.categorical_cost) and self.categorical_cost >= 0
        ):
            raise SchemaError(f"feature {self.name!r}: categorical_cost must be finite and >= 0")
        if self.mutable and self.kind.kind in _NON_MUTABLE_KINDS:
            raise SchemaError(f"feature {self.name!r}: kind {self.kind.kind} cannot be mutable")
        if not self.mutable and self.kind.kind not in _NON_MUTABLE_KINDS:
            raise SchemaError(
                f"feature {self.name!r}: kind {self.kind.kind} must be flagged mutable"
            )


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature list plus the sensitive-attribute and label names."""

    features: tuple[Feature, ...]
    sensitive: str
    label: str

    def __post_init__(self) -> None:
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names")
        if self.sensitive not in names:
            raise SchemaError(f"sensitive feature {self.sensitive!r} not in feature list")
        if self.feature(self.sensitive).kind.kind != IMMUTABLE:
            raise SchemaError("sensitive feature must be immutable")
        if self.label in names:
            raise SchemaError("label column cannot also be a feature")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @cached_property
    def _positions(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.names)}

    @property
    def size(self) -> int:
        return len(self.features)

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise SchemaError(f"unknown feature {name!r}") from None

    def feature(self, name: str) -> Feature:
        return self.features[self.index(name)]

    @property
    def sensitive_index(self) -> int:
        return self.index(self.sensitive)

    @property
    def mutable_mask(self) -> np.ndarray:
        return np.array([f.mutable for f in self.features], dtype=bool)

    def group_of_value(self, value: float) -> str:
        """Group identifier for a raw sensitive-column value."""
        levels = self.feature(self.sensitive).kind.levels
        if levels is not None:
            idx = int(value)
            if not 0 <= idx < len(levels):
                raise DataError(f"sensitive value {value!r} outside declared levels")
            return levels[idx]
        return repr(float(value))


def json_number(value, what: str, integer: bool = False):
    """``value`` as a JSON number, an int if ``integer`` and else a float; never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise SchemaError(f"{what} must be {'an integer' if integer else 'a number'}, got {value!r}")
    return value if integer else float(value)


def json_string(value, what: str, optional: bool = False):
    """``value`` as a JSON string, or None if ``optional``; never a number, a list or a bool."""
    if not (isinstance(value, str) or optional and value is None):
        raise SchemaError(f"{what} must be a string{' or null' if optional else ''}, got {value!r}")
    return value


def json_object(value, what: str, keys: Sequence[str]) -> Mapping:
    """``value`` as a JSON object that holds only the keys ``keys``; any other key is an error."""
    if not isinstance(value, Mapping):
        raise SchemaError(f"{what} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise SchemaError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")
    return value


# The keys a schema and each of its feature entries may hold.
SCHEMA_KEYS = ("features", "sensitive", "label")
FEATURE_KEYS = ("name", "kind", "direction", "levels", "mutable", "weight", "categorical_cost")


def schema_from_dict(d: Mapping) -> FeatureSchema:
    json_object(d, "schema", SCHEMA_KEYS)
    try:
        feats = []
        for k, fd in enumerate(d["features"]):
            json_object(fd, f"schema features[{k}]", FEATURE_KEYS)
            what = f"schema feature {fd.get('name')!r}"
            if not isinstance(fd["mutable"], bool):
                raise SchemaError(f"{what} mutable must be true or false, got {fd['mutable']!r}")
            levels = fd.get("levels")
            if levels is not None and not (isinstance(levels, list) and all(isinstance(v, str) for v in levels)):
                raise SchemaError(f"{what} levels must be a list of strings, got {levels!r}")
            feats.append(
                Feature(
                    name=json_string(fd["name"], "schema feature name"),
                    kind=FeatureKind(fd["kind"], fd.get("direction"), None if levels is None else tuple(levels)),
                    mutable=fd["mutable"],
                    weight=json_number(fd.get("weight", Feature.weight), f"{what} weight"),
                    categorical_cost=(
                        json_number(fd["categorical_cost"], f"{what} categorical_cost")
                        if "categorical_cost" in fd
                        else None
                    ),
                )
            )
        sensitive, label = (json_string(d[key], f"schema {key}") for key in ("sensitive", "label"))
        return FeatureSchema(features=tuple(feats), sensitive=sensitive, label=label)
    except KeyError as exc:
        raise SchemaError(f"schema missing required field: {exc}") from None
    except SchemaError:
        raise
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad schema value: {exc}") from None


def schema_to_dict(schema: FeatureSchema) -> dict:
    feats = []
    for f in schema.features:
        fd: dict = {"name": f.name, "kind": f.kind.kind, "mutable": f.mutable}
        if f.kind.direction is not None:
            fd["direction"] = f.kind.direction
        if f.kind.levels is not None:
            fd["levels"] = list(f.kind.levels)
        if f.weight != 1.0:
            fd["weight"] = f.weight
        if f.categorical_cost is not None:
            fd["categorical_cost"] = f.categorical_cost
        feats.append(fd)
    return {"features": feats, "sensitive": schema.sensitive, "label": schema.label}


@contextlib.contextmanager
def _text_file(path: str | Path, error: type[ValueError], what: str):
    """File ``path`` open as UTF-8 text; failing to read or decode it inside the block raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise error(f"{what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        # A streamed read reports the offset within its chunk; decoding the whole file gives the file's.
        try:
            Path(path).read_bytes().decode("utf-8")
        except UnicodeDecodeError as whole:
            exc = whole
        raise error(f"{what} {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json(path: str | Path, what: str):
    """The JSON document in file ``path``; an unreadable or invalid file is a ``SchemaError``."""
    try:
        with _text_file(path, SchemaError, what) as fh:
            return json.loads(fh.read())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} {path}: not valid JSON ({exc})") from None


def load_schema(path: str | Path) -> FeatureSchema:
    return schema_from_dict(read_json(path, "schema"))


def level_codes(table: np.ndarray, column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, codes)``: the distinct values of the sorted 1-D ``table``, and the index among
    them of each entry of ``column``, as the smallest unsigned type that holds it.

    Values that compare equal are one value (-0.0 and 0.0), and every NaN is
    one value, the last: NaN sorts last, and a binary search sends each NaN
    to the first NaN. So every entry's value compares equal to its code's
    (NaN to NaN). The sort is the caller's, so a population codes a group's
    column off its group table where it has built that table.
    """
    keep = np.ones(table.shape, bool)
    np.not_equal(table[1:], table[:-1], out=keep[1:])
    values = table[keep]
    if values.shape[0] and values[-1] != values[-1]:  # NaN sorts last
        values = values[: np.searchsorted(values, np.nan) + 1]
    return values, np.searchsorted(values, column).astype(np.min_scalar_type(values.shape[0]))


def scaled_mean(x: np.ndarray) -> float:
    """``np.mean(x)``, or s * mean(x / s) with s the largest |x| where finite values give a plain
    sum that overflows, so the mean of finite values is always finite (|mean(x / s)| <= 1). A
    mean over a NaN or an infinity is the plain one."""
    with np.errstate(over="ignore"):  # an overflowing sum is taken again below
        mean = float(np.mean(x))
    if math.isfinite(mean) or not np.isfinite(x).all():
        return mean
    s = float(np.abs(x).max())
    return s * float(np.mean(x / s))


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first, inverse)`` for the rows of the 2-D ``a``: one row index per distinct row,
    and the position in ``first`` of each row's own distinct row.

    Rows that compare equal column by column are one row (-0.0 and 0.0 are
    one value), and a row holding NaN is a row of its own, so
    ``a[first][inverse]`` holds the values of ``a`` up to the sign of a zero.
    The sort orders whole rows by their bytes once every zero is +0.0 (one
    key, where a lexicographic sort takes a pass per column), so rows that
    compare equal lie next to each other; ``first`` follows that order. It
    takes no ``np.unique``: the first call of a process imports
    ``numpy.ma``, which adds about 1.6 MB to the peak resident set of a run.
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


class Population:
    """Immutable collection of individuals plus frozen per-group value tables.

    ``feature_table(s)`` returns an (n_s, K) array whose column k holds the
    sorted feature-k values of group s; ``label_table(s)`` the sorted labels.
    ``levels`` codes a column's values and ``profiles`` finds a group's
    distinct profiles. Each is built on first use and cached, so a
    population whose tables nobody reads never sorts them. Row order of
    ``X``/``y``/``groups`` is the ingestion order.
    """

    def __init__(self, schema: FeatureSchema, X: np.ndarray, y: np.ndarray, groups: Sequence[str]):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != schema.size:
            raise DataError(f"feature matrix must be (n, {schema.size}), got {X.shape}")
        if y.shape != (X.shape[0],) or len(groups) != X.shape[0]:
            raise DataError("X, y and groups must have matching lengths")
        self.schema = schema
        self.X = X
        self.X.setflags(write=False)
        self.y = y
        self.y.setflags(write=False)
        self.groups = tuple(str(g) for g in groups)
        self.group_names: tuple[str, ...] = tuple(sorted(set(self.groups)))
        self._group_rows: dict[str, np.ndarray] = {}
        self._feature_tables: dict[str, np.ndarray] = {}
        self._label_tables: dict[str, np.ndarray] = {}
        self._levels: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._profiles: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        garr = np.array(self.groups, dtype=object)
        for g in self.group_names:
            self._group_rows[g] = np.flatnonzero(garr == g)

    @property
    def size(self) -> int:
        return self.X.shape[0]

    def group_rows(self, group: str) -> np.ndarray:
        if group not in self._group_rows:
            raise DataError(f"unknown group {group!r}")
        return self._group_rows[group]

    def group_size(self, group: str) -> int:
        return int(self.group_rows(group).size)

    def feature_table(self, group: str) -> np.ndarray:
        return self._sorted(self._feature_tables, group, self.X)

    def label_table(self, group: str) -> np.ndarray:
        return self._sorted(self._label_tables, group, self.y)

    def _sorted(self, cache: dict, group: str, values: np.ndarray) -> np.ndarray:
        """``values``' group rows sorted along axis 0, built once per group."""
        if group not in cache:
            table = np.sort(values[self.group_rows(group)], axis=0)
            table.setflags(write=False)
            cache[group] = table
        return cache[group]

    def levels(self, group: str | None, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Column k's ``level_codes`` over the rows of ``group`` (``group_rows`` order), or over
        every row for ``None``: its sorted distinct values and each row's code. Column
        ``schema.size`` is the label.

        Built once per (group, column): a group's values come off its sorted
        table if it is built, else off a sort of the column alone, and every
        row's off the groups' values.
        """
        if (group, k) not in self._levels:
            self._levels[group, k] = self._code(group, k)
        return self._levels[group, k]

    def _code(self, group: str | None, k: int) -> tuple[np.ndarray, np.ndarray]:
        column = self.X[:, k] if k < self.schema.size else self.y
        if group is None:
            table = np.sort(np.concatenate([self.levels(g, k)[0] for g in self.group_names]))
            return level_codes(table, column)
        column = column[self.group_rows(group)]
        if k == self.schema.size:
            table = self.label_table(group)
        elif group in self._feature_tables:
            table = self._feature_tables[group][:, k]
        else:  # the column's own sort: coding a few columns sorts no other
            table = np.sort(column)
        return level_codes(table, column)

    def profiles(self, group: str, label: bool) -> tuple[np.ndarray, np.ndarray]:
        """``_distinct_rows`` of the group's rows over the mutable features, and the label too
        with ``label``: positions among ``group_rows(group)``. Built once per (group, label)."""
        if (group, label) not in self._profiles:
            view = np.flatnonzero(self.schema.mutable_mask)
            rows = self.X[np.ix_(self.group_rows(group), view)]
            if label:
                rows = np.column_stack([rows, self.y[self.group_rows(group)]])
            self._profiles[group, label] = _distinct_rows(rows)
        return self._profiles[group, label]

    def take(self, rows: np.ndarray) -> "Population":
        return Population(self.schema, self.X[rows], self.y[rows], [self.groups[i] for i in rows])

    def smallest_group(self) -> str:
        return min(self.group_names, key=lambda g: (self.group_size(g), g))


def read_table(path: str | Path, what: str) -> tuple[list[str], list[int], list[list[str]]]:
    """The header, each data row's line number and the data rows of delimited text file ``path``.

    The delimiter is ';' if the header line holds more ';' than ',', else ','.
    Header names lose blanks and '"'; blank lines are skipped. An empty file, a
    row of the wrong width or no data rows is a ``DataError`` naming the line.
    """
    with _text_file(path, DataError, what) as fh:
        first = fh.readline()
        if not first:
            raise DataError(f"{path}: empty file")
        delim = ";" if first.count(";") > first.count(",") else ","
        reader = csv.reader(itertools.chain([first], fh), delimiter=delim)
        header = [h.strip().strip('"') for h in next(reader)]
        lines, rows = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{reader.line_num}: expected {len(header)} cells, got {len(row)}")
            lines.append(reader.line_num)
            rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, lines, rows


def parse_column(path: str | Path, lines: Sequence[int], name: str, cells: Sequence[str],
                 levels: Sequence[str] | None = None, blank: bool = False) -> list:
    """Column ``name`` of table ``path``: level codes if ``levels`` is given, else finite floats.

    Each cell is stripped of blanks and '"'; with ``blank`` an empty cell
    gives ``None``. The column converts in one pass; only a failure scans it
    cell by cell, so the ``DataError`` names the line of the first bad cell.
    """
    cells = [c.strip().strip('"') for c in cells]
    if levels is not None:
        codes = {level: float(k) for k, level in enumerate(levels)}
        values = list(map(codes.get, cells))
        if None not in values:
            return values
        bad = values.index(None)
        raise DataError(
            f"{path}:{lines[bad]}: column {name!r}: value {cells[bad]!r} "
            f"not among declared levels {list(levels)}"
        )
    try:
        values = [float(c) if c else None for c in cells] if blank else list(map(float, cells))
        if all(map(math.isfinite, filter(None, values))):  # skips None, and zeros, which are finite
            return values
    except ValueError:
        pass
    for cell, line in zip(cells, lines):
        try:
            finite = math.isfinite(float(cell))
        except ValueError:
            finite = blank and not cell
        if not finite:
            raise DataError(f"{path}:{line}: column {name!r}: {cell!r} is not a finite number")


def load_csv(path: str | Path, schema_path: str | Path) -> Population:
    """Load a delimited text file (see ``read_table``) against a schema file.

    The header must name every schema feature and the label once; other columns are ignored.
    """
    schema = load_schema(schema_path)
    header, lines, rows = read_table(path, "dataset")
    names = [*schema.names, schema.label]
    for name in names:
        if name not in header:
            raise DataError(f"{path}: missing column {name!r}")
        if header.count(name) > 1:
            raise DataError(f"{path}: column {name!r} appears {header.count(name)} times")
    columns = list(zip(*rows))
    del rows  # the columns hold the cells from here on
    X = np.empty((len(lines), schema.size))
    for k, f in enumerate(schema.features):
        X[:, k] = parse_column(path, lines, f.name, columns[header.index(f.name)], f.kind.levels)
    y = np.array(parse_column(path, lines, schema.label, columns[header.index(schema.label)]))
    groups = [schema.group_of_value(v) for v in X[:, schema.sensitive_index]]
    return Population(schema, X, y, groups)


def format_number(value: float) -> str:
    """``value`` as text that parses back to the same float: an integer without a point, ``-0`` for -0.0.

    NaN and ±infinity, which no reader here takes back, are a ``ValueError``.
    """
    value = float(value)
    if not value.is_integer():
        if not math.isfinite(value):
            raise ValueError(f"{value} is not a finite number")
        return repr(value)
    return "-0" if value == 0 and math.copysign(1.0, value) < 0 else str(int(value))


def format_numbers(values) -> list[str]:
    """``format_number`` of each entry of the 1-D float array ``values``, a column at a time.

    Integral entries below 2**53 in magnitude take one int conversion, each
    value of their span formatted once where the span is no longer than
    they are many, and every other entry one ``repr`` pass; -0.0 and
    integral entries of 2**53 and more then take ``format_number``'s text.
    A NaN or an infinity is a ``ValueError``, as there.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("a value to write is not a finite number")
    integral = values == np.trunc(values)
    small = integral & (np.abs(values) < 2.0**53)
    text = np.empty(values.shape[0], dtype=object)
    if small.any():
        ints = values[small].astype(np.int64)
        lo, hi = int(ints.min()), int(ints.max())
        if hi - lo < ints.shape[0]:
            text[small] = np.array(list(map(str, range(lo, hi + 1))), dtype=object)[ints - lo]
        else:
            text[small] = list(map(str, ints.tolist()))
    if not small.all():
        text[~small] = list(map(repr, values[~small].tolist()))
    for i in np.flatnonzero(integral & ~small | (values == 0) & np.signbit(values)).tolist():
        text[i] = format_number(values[i])
    return text.tolist()


@contextlib.contextmanager
def _table_writer(path: str | Path, header: Sequence[str]):
    """A CSV writer on file ``path`` that has written ``header``; a ``ValueError`` inside the
    block (a NaN or infinite number to format) is a ``DataError`` naming the file."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        try:
            yield writer
        except ValueError:
            raise DataError(f"{path}: a value to write is NaN or infinite") from None


def write_table(path: str | Path, header: Sequence[str], rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` as comma-separated text, quoted where needed.

    A string cell is written as it is, ``None`` as an empty cell, any other through ``format_number``;
    a NaN or infinite number is a ``DataError`` naming the file.
    """
    with _table_writer(path, header) as writer:
        for row in rows:
            writer.writerow([c if isinstance(c, str) else "" if c is None else format_number(c) for c in row])


# Rows formatted and written at a time by write_csv.
CSV_BLOCK = 512


def write_csv(pop: Population, path: str | Path) -> None:
    """Serialize a population in the input CSV format, which ``load_csv`` re-ingests bit-exactly.

    Cells are formatted a column at a time (``format_numbers``, or one
    gather of the level names), ``CSV_BLOCK`` rows at a time to hold little
    text at once. A level column's code that indexes no level is a
    ``DataError`` naming the file, and no file is written.
    """
    names = [None if f.kind.levels is None else np.array(f.kind.levels, dtype=object) for f in pop.schema.features]
    for f, lv, col in zip(pop.schema.features, names, pop.X.T):
        if lv is not None and not ((col >= 0) & (col < lv.shape[0])).all():
            raise DataError(f"{path}: column {f.name!r} holds a code that indexes no level")
    with _table_writer(path, [*pop.schema.names, pop.schema.label]) as writer:
        for start in range(0, pop.size, CSV_BLOCK):
            block = pop.X[start:start + CSV_BLOCK]
            columns = [format_numbers(col) if lv is None else lv[col.astype(np.intp)].tolist() for lv, col in zip(names, block.T)]
            columns.append(format_numbers(pop.y[start:start + CSV_BLOCK]))
            writer.writerows(zip(*columns))


def split(pop: Population, train_fraction: float, seed: int) -> tuple[Population, Population]:
    """Deterministic shuffled partition into train/test parts.

    Quantile tables are rebuilt per part. Raises if either part would lose
    a group entirely.
    """
    if not 0.0 < train_fraction < 1.0:
        raise DataError(f"train_fraction must be in (0,1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(pop.size)
    n_train = int(round(pop.size * train_fraction))
    n_train = min(max(n_train, 1), pop.size - 1)
    train_rows = np.sort(order[:n_train])
    test_rows = np.sort(order[n_train:])
    parts = pop.take(train_rows), pop.take(test_rows)
    for g in pop.group_names:
        if any(g not in part.group_names for part in parts):
            raise DataError(f"split leaves group {g!r} empty in one part")
    return parts


MUTABLE_PLUS_SENSITIVE = "mutable_plus_sensitive"
ALL_FEATURES = "all"
FEATURE_SETS = (ALL_FEATURES, "mutable", MUTABLE_PLUS_SENSITIVE)

SYNTH_LABEL_NOISE = 1.0


def restrict_features(pop: Population, keep: str) -> Population:
    """Project a population onto a feature subset.

    ``keep`` is either ``"all"`` (the population itself: it is immutable)
    or ``"mutable_plus_sensitive"``, also called ``"mutable"`` (drop
    immutable and conditionally immutable features, always retaining the
    sensitive one).
    """
    if keep not in FEATURE_SETS:
        raise SchemaError(f"unknown feature filter {keep!r}")
    if keep == ALL_FEATURES:
        return pop
    kept = [f for f in pop.schema.features if f.mutable or f.name == pop.schema.sensitive]
    new_schema = FeatureSchema(
        features=tuple(kept), sensitive=pop.schema.sensitive, label=pop.schema.label
    )
    cols = [pop.schema.index(f.name) for f in kept]
    return Population(new_schema, pop.X[:, cols], pop.y, pop.groups)


def generate_synthetic(
    schema: FeatureSchema,
    group_sizes: Mapping[str, int] | Sequence[int],
    seed: int,
    shift: float = 0.0,
) -> Population:
    """Deterministic synthetic population for tests and offline fixtures.

    Groups are the sensitive feature's levels; ``group_sizes`` gives each
    level an integer size of at least 1, by name or in level order (any
    other key is an error). ``shift`` displaces the mean
    of every numerical/ordinal feature by ``shift * group_index`` so that
    group-conditional effort asymmetries exist when it is nonzero. The
    label is a fixed linear blend of the features plus Gaussian noise of
    standard deviation ``SYNTH_LABEL_NOISE``.
    """
    levels = schema.feature(schema.sensitive).kind.levels
    if levels is None:
        raise SchemaError("synthetic generation needs declared levels on the sensitive feature")
    if not isinstance(group_sizes, Mapping):
        if len(group_sizes) != len(levels):
            raise SchemaError("group_sizes must match the sensitive feature's levels")
        group_sizes = dict(zip(levels, group_sizes))
    if set(group_sizes) != set(levels):
        raise SchemaError(
            f"group_sizes must give one size per level of {schema.sensitive!r}: {list(levels)}"
        )
    for level, n_g in group_sizes.items():
        if isinstance(n_g, bool) or not isinstance(n_g, numbers.Integral):
            raise SchemaError(f"size of group {level!r} must be an integer, got {n_g!r}")
        if n_g < 1:
            raise SchemaError(f"group {level!r} needs at least one individual")
    rng = np.random.default_rng(seed)
    blocks: list[np.ndarray] = []
    groups: list[str] = []
    for gi, level in enumerate(levels):
        n_g = int(group_sizes[level])
        cols = []
        for f in schema.features:
            kind = f.kind.kind
            if f.name == schema.sensitive:
                col = np.full(n_g, float(gi))
            elif kind == CATEGORICAL:
                col = rng.integers(0, len(f.kind.levels or ()), size=n_g).astype(float)
            elif kind in (ORDINAL_MONOTONE, ORDINAL_NONMONOTONE):
                base = rng.integers(1, 6, size=n_g).astype(float)
                col = np.clip(np.round(base + shift * gi), 1, 5)
            elif kind == IMMUTABLE and f.kind.levels is not None:
                col = rng.integers(0, len(f.kind.levels), size=n_g).astype(float)
            else:
                col = rng.normal(loc=shift * gi, scale=1.0, size=n_g)
            cols.append(col)
        blocks.append(np.column_stack(cols))
        groups.extend([level] * n_g)
    X = np.vstack(blocks)
    coefs = np.array(
        [0.0 if f.name == schema.sensitive else ((k % 3) - 1) * 0.5 for k, f in enumerate(schema.features)]
    )
    y = X @ coefs + rng.normal(scale=SYNTH_LABEL_NOISE, size=X.shape[0])
    return Population(schema, X, y, groups)
