"""Feature schemas, populations, CSV ingestion, splitting and synthetic data.

A population bundles the raw feature matrix with per-group sorted value
tables; those tables are what every downstream quantile-rank computation
reads, so each is sorted on first use, cached and never mutated.
"""

from __future__ import annotations

import csv
import io
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

    def binary_count(self) -> int:
        """Number of features with exactly two declared levels."""
        return sum(1 for f in self.features if f.kind.levels is not None and len(f.kind.levels) == 2)

    def group_of_value(self, value: float) -> str:
        """Group identifier for a raw sensitive-column value."""
        levels = self.feature(self.sensitive).kind.levels
        if levels is not None:
            idx = int(value)
            if not 0 <= idx < len(levels):
                raise DataError(f"sensitive value {value!r} outside declared levels")
            return levels[idx]
        return repr(float(value))


def _kind_from_dict(d: Mapping) -> FeatureKind:
    levels = d.get("levels")
    return FeatureKind(
        kind=d["kind"],
        direction=d.get("direction"),
        levels=tuple(levels) if levels is not None else None,
    )


def schema_from_dict(d: Mapping) -> FeatureSchema:
    if not isinstance(d, Mapping):
        raise SchemaError(f"schema must be a JSON object, got {type(d).__name__}")
    try:
        feats = []
        for fd in d["features"]:
            if not isinstance(fd, Mapping):
                raise SchemaError(f"schema features must be JSON objects, got {type(fd).__name__}")
            feats.append(
                Feature(
                    name=fd["name"],
                    kind=_kind_from_dict(fd),
                    mutable=bool(fd["mutable"]),
                    weight=float(fd.get("weight", 1.0)),
                    categorical_cost=(
                        float(fd["categorical_cost"]) if "categorical_cost" in fd else None
                    ),
                )
            )
        return FeatureSchema(features=tuple(feats), sensitive=d["sensitive"], label=d["label"])
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


def _read_text(path: str | Path, error: type[ValueError], what: str) -> str:
    """The UTF-8 text of file ``path``; a file that cannot be read or decoded raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"{what} {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def read_json(path: str | Path, what: str):
    """The JSON document in file ``path``; an unreadable or invalid file is a ``SchemaError``."""
    try:
        return json.loads(_read_text(path, SchemaError, what))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} {path}: not valid JSON ({exc})") from None


def load_schema(path: str | Path) -> FeatureSchema:
    return schema_from_dict(read_json(path, "schema"))


class Population:
    """Immutable collection of individuals plus frozen per-group value tables.

    ``feature_table(s)`` returns an (n_s, K) array whose column k holds the
    sorted feature-k values of group s; ``label_table(s)`` the sorted labels.
    Each table is sorted on first use and cached, so a population whose
    tables nobody reads never sorts them. Row order of ``X``/``y``/``groups``
    is the ingestion order.
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
        garr = np.array(self.groups, dtype=object)
        for g in self.group_names:
            rows = np.flatnonzero(garr == g)
            if rows.size == 0:
                raise DataError(f"group {g!r} is empty")
            self._group_rows[g] = rows

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

    def take(self, rows: np.ndarray) -> "Population":
        return Population(self.schema, self.X[rows], self.y[rows], [self.groups[i] for i in rows])

    def smallest_group(self) -> str:
        return min(self.group_names, key=lambda g: (self.group_size(g), g))


def _parse_cell(feature: Feature, raw: str) -> float:
    levels = feature.kind.levels
    if levels is not None:
        if raw not in levels:
            raise DataError(
                f"column {feature.name!r}: value {raw!r} not among declared levels {list(levels)}"
            )
        return float(levels.index(raw))
    return _parse_number(feature.name, raw)


def _parse_number(column: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise DataError(f"column {column!r}: cannot parse {raw!r} as a number") from None
    if not math.isfinite(value):
        raise DataError(f"column {column!r}: non-finite value {raw!r}")
    return value


def load_csv(path: str | Path, schema_path: str | Path) -> Population:
    """Load a delimited text file against a schema file.

    The header row must contain every schema feature plus the label column;
    extra columns are ignored. Both ',' and ';' delimiters are accepted
    (the UCI student files use ';').
    """
    schema = load_schema(schema_path)
    with io.StringIO(_read_text(path, DataError, "dataset"), newline="") as fh:
        sample = fh.read(4096)
        fh.seek(0)
        delim = ";" if sample.count(";") > sample.count(",") else ","
        reader = csv.reader(fh, delimiter=delim)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip().strip('"') for h in header]
        col_index: dict[str, int] = {}
        for name in list(schema.names) + [schema.label]:
            if name not in header:
                raise DataError(f"{path}: missing column {name!r}")
            col_index[name] = header.index(name)
        rows_x: list[list[float]] = []
        rows_y: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            row = [c.strip().strip('"') for c in row]
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            try:
                rows_x.append([_parse_cell(f, row[col_index[f.name]]) for f in schema.features])
                rows_y.append(_parse_number(schema.label, row[col_index[schema.label]]))
            except (DataError, ValueError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if not rows_x:
        raise DataError(f"{path}: no data rows")
    X = np.array(rows_x, dtype=np.float64)
    y = np.array(rows_y, dtype=np.float64)
    groups = [schema.group_of_value(v) for v in X[:, schema.sensitive_index]]
    return Population(schema, X, y, groups)


def format_value(feature: Feature, value: float) -> str:
    """Render one cell the way ``load_csv`` can re-ingest it, bit-exactly."""
    levels = feature.kind.levels
    if levels is not None:
        return levels[int(value)]
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def write_csv(pop: Population, path: str | Path) -> None:
    """Serialize a population in the input CSV format (comma-separated)."""
    schema = pop.schema
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(schema.names) + [schema.label])
        for i in range(pop.size):
            cells = [format_value(f, pop.X[i, k]) for k, f in enumerate(schema.features)]
            yv = pop.y[i]
            cells.append(str(int(yv)) if float(yv).is_integer() else repr(float(yv)))
            writer.writerow(cells)


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
    for g in pop.group_names:
        grows = set(pop.group_rows(g).tolist())
        if not grows & set(train_rows.tolist()) or not grows & set(test_rows.tolist()):
            raise DataError(f"split leaves group {g!r} empty in one part")
    return pop.take(train_rows), pop.take(test_rows)


MUTABLE_PLUS_SENSITIVE = "mutable_plus_sensitive"
ALL_FEATURES = "all"
FEATURE_SETS = (ALL_FEATURES, "mutable", MUTABLE_PLUS_SENSITIVE)


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
    label_noise: float = 1.0,
) -> Population:
    """Deterministic synthetic population for tests and offline fixtures.

    Groups are the sensitive feature's levels; ``group_sizes`` gives each
    level an integer size of at least 1, by name or in level order (any
    other key is an error). ``shift`` displaces the mean
    of every numerical/ordinal feature by ``shift * group_index`` so that
    group-conditional effort asymmetries exist when it is nonzero. The
    label is a fixed linear blend of the features plus Gaussian noise.
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
    y = X @ coefs + rng.normal(scale=label_noise, size=X.shape[0])
    return Population(schema, X, y, groups)
