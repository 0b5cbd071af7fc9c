"""Randomized small instances shared by the oracle-equivalence tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from effortsim.dataset import Feature, FeatureKind, FeatureSchema, Population
from effortsim.effort import EffortParams
from effortsim.models import LinearPredictor

_KIND_POOL = (
    ("numerical_monotone", "increasing"),
    ("numerical_monotone", "decreasing"),
    ("numerical_nonmonotone", None),
    ("ordinal_monotone", "increasing"),
    ("ordinal_monotone", "decreasing"),
    ("ordinal_nonmonotone", None),
    ("categorical", None),
    ("conditionally_immutable", "increasing"),
    ("conditionally_immutable", "decreasing"),
    ("immutable", None),
)


def random_instance(seed: int, max_individuals: int = 30):
    """(population, params, predictor, benefit) with mixed feature kinds.

    ``params.benefit`` is ``benefit``, which is returned too for the oracles: they take it alone.
    """
    rng = np.random.default_rng(seed)
    n_extra = int(rng.integers(3, 7))
    features = [
        Feature("grp", FeatureKind("immutable", levels=("a", "b")), mutable=False)
    ]
    for fi in range(n_extra):
        kind, direction = _KIND_POOL[int(rng.integers(0, len(_KIND_POOL)))]
        if kind == "categorical":
            n_levels = int(rng.integers(2, 5))
            levels = tuple(f"v{j}" for j in range(n_levels))
            per_feature_cost = [None, 0.3][int(rng.integers(0, 2))]
            features.append(
                Feature(
                    f"f{fi}",
                    FeatureKind("categorical", levels=levels),
                    mutable=True,
                    categorical_cost=per_feature_cost,
                )
            )
        else:
            mutable = kind not in ("immutable", "conditionally_immutable")
            features.append(
                Feature(f"f{fi}", FeatureKind(kind, direction=direction), mutable=mutable)
            )
    schema = FeatureSchema(features=tuple(features), sensitive="grp", label="y")

    n_a = int(rng.integers(2, max_individuals // 2))
    n_b = int(rng.integers(2, max_individuals - n_a - 1))
    n = n_a + n_b
    cols = []
    for f in schema.features:
        if f.name == "grp":
            cols.append(np.concatenate([np.zeros(n_a), np.ones(n_b)]))
        elif f.kind.kind == "categorical":
            cols.append(rng.integers(0, len(f.kind.levels), size=n).astype(float))
        elif "ordinal" in f.kind.kind:
            cols.append(rng.integers(1, 6, size=n).astype(float))
        else:
            shift = float(rng.normal(0.0, 0.5))
            col = rng.normal(0.0, 1.0, size=n)
            col[n_a:] += shift
            cols.append(np.round(col, 3))  # ties happen, on purpose
    X = np.column_stack(cols)
    y = np.round(rng.normal(size=n) + X @ rng.normal(0.0, 0.5, size=X.shape[1]), 3)
    pop = Population(schema, X, y, ["a"] * n_a + ["b"] * n_b)

    base_cost = float(rng.choice([0.0, 0.0, 0.05]))
    categorical_cost = float(rng.choice([0.5, 0.25]))
    weights = rng.normal(0.0, 1.0, size=schema.size)
    h = LinearPredictor(schema.names, weights, float(rng.normal()), kind="linear")
    benefit = "predicted" if rng.random() < 0.7 else "shifted_gain"
    params = EffortParams(
        alpha=1.0, base_cost=base_cost, categorical_cost=categorical_cost, benefit=benefit
    )
    return pop, params, h, benefit


_WEIGHTS = st.sampled_from([0.0, 0.5, 1.0, 2.5])
_VALUES = st.sampled_from([-1.5, 0.0, 0.5, 1.0, 3.25])  # few values, so ties are common


@st.composite
def oracle_cases(draw, max_individuals: int = 12, n_groups: int = 2):
    """(population, params): a random schema over every kind, ``n_groups`` groups, ties.

    The groups are "a", "b", ... in that order, each nonempty. Weights are
    per group (0 included) with the schema weight as fallback; base costs
    are per group.
    """
    names = tuple("abcdefgh"[:n_groups])
    features = [Feature("grp", FeatureKind("immutable", levels=names), mutable=False)]
    for fi in range(draw(st.integers(1, 5))):
        kind, direction = draw(st.sampled_from(_KIND_POOL))
        levels = tuple(f"v{j}" for j in range(draw(st.integers(2, 4))))
        features.append(
            Feature(
                f"f{fi}",
                FeatureKind(kind, direction=direction, levels=levels if kind == "categorical" else None),
                mutable=kind not in ("immutable", "conditionally_immutable"),
                weight=draw(_WEIGHTS),
                categorical_cost=draw(st.sampled_from([None, 0.0, 0.3])) if kind == "categorical" else None,
            )
        )
    schema = FeatureSchema(features=tuple(features), sensitive="grp", label="y")
    sizes = []
    left = max_individuals
    for gi in range(n_groups):
        sizes.append(draw(st.integers(1, left - (n_groups - gi - 1))))
        left -= sizes[-1]
    n = sum(sizes)
    cols = [np.repeat(np.arange(n_groups, dtype=float), sizes)]
    for f in schema.features[1:]:
        values = st.integers(0, len(f.kind.levels) - 1) if f.kind.levels else _VALUES
        cols.append(draw(st.lists(values, min_size=n, max_size=n)))
    y = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n))
    groups = [g for g, size in zip(names, sizes) for _ in range(size)]
    pop = Population(schema, np.column_stack(cols).astype(float), np.array(y), groups)
    params = EffortParams(
        base_cost={g: draw(st.sampled_from([0.0, 0.05])) for g in names},
        categorical_cost=draw(st.sampled_from([0.5, 0.25])),
        feature_weights={
            g: draw(st.dictionaries(st.sampled_from(schema.names), _WEIGHTS)) for g in names
        },
    )
    return pop, params


# Value pools of one shift-report column: a constant, signed zeros, fractions, a span past
# the float range, squared deviations past it and the largest floats.
_SHIFT_POOLS = [
    (3.0,),
    (-0.0, 0.0, 1.0, 2.0),
    (0.1, 0.7, 1.3, 2.9, -4.2),
    (-1e308, 1e308, 0.0, 5.0),
    (-1e154, 1e154, 1.0),
    (np.finfo(float).max, -np.finfo(float).max, 0.5),
]


def shift_pops(X: np.ndarray, moved: np.ndarray, codes) -> tuple[Population, Population]:
    """Two populations on one schema: column 0 is the group (``codes``), the others numbers."""
    levels = ("g1", "g2", "g3")
    schema = FeatureSchema(
        features=(Feature("grp", FeatureKind("immutable", levels=levels), mutable=False),)
        + tuple(
            Feature(f"f{k}", FeatureKind("numerical_monotone", direction="increasing"), mutable=True)
            for k in range(1, X.shape[1])
        ),
        sensitive="grp",
        label="y",
    )
    groups = [levels[c] for c in codes]
    y = np.zeros(X.shape[0])
    return Population(schema, X, y, groups), Population(schema, moved, y, groups)


@st.composite
def shift_cases(draw):
    """``(X, moved, codes)``: 1-3 groups of 1-12 rows in any order, and 1-4 columns before and
    after, each drawn from one of ``_SHIFT_POOLS``."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=3))
    codes = draw(st.permutations(np.repeat(np.arange(len(sizes)), sizes).tolist()))
    n, k = len(codes), draw(st.integers(1, 4))

    def columns():
        return [draw(st.lists(st.sampled_from(draw(st.sampled_from(_SHIFT_POOLS))), min_size=n, max_size=n))
                for _ in range(k)]

    X = np.column_stack([codes, *columns()]).astype(float)
    moved = np.column_stack([codes, *columns()]).astype(float)
    return X, moved, codes
