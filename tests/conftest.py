from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from effortsim import data_path
from effortsim.dataset import (
    Feature,
    FeatureKind,
    FeatureSchema,
    Population,
    generate_synthetic,
    load_csv,
    load_schema,
    split,
)
from effortsim.dynamics import simulate

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def student_pop():
    return load_csv(data_path("student_por_synthetic.csv"), data_path("student_schema.json"))


@pytest.fixture(scope="session")
def student_split(student_pop):
    return split(student_pop, 0.7, seed=28)


def toy_schema(**extra_features) -> FeatureSchema:
    """Single-group-feature schema plus one monotone-increasing feature."""
    features = [
        Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False),
        Feature("skill", FeatureKind("numerical_monotone", direction="increasing"), mutable=True),
    ]
    for name, kind in extra_features.items():
        features.append(Feature(name, kind, mutable=kind.kind not in ("immutable", "conditionally_immutable")))
    return FeatureSchema(features=tuple(features), sensitive="grp", label="y")


def single_group_pop(skill_values, labels=None) -> Population:
    """One group 'g1' with the classic {1..5}-style skill column."""
    schema = FeatureSchema(
        features=(
            Feature("grp", FeatureKind("immutable", levels=("g1",)), mutable=False),
            Feature("skill", FeatureKind("numerical_monotone", direction="increasing"), mutable=True),
        ),
        sensitive="grp",
        label="y",
    )
    skill = np.asarray(skill_values, dtype=float)
    if labels is None:
        labels = np.zeros_like(skill)
    X = np.column_stack([np.zeros_like(skill), skill])
    return Population(schema, X, np.asarray(labels, dtype=float), ["g1"] * len(skill))


def synthetic_student_pop(rows: int, seed: int = 5) -> Population:
    """A synthetic population on the bundled schema, 40% of it in group "F"."""
    minority = round(0.4 * rows)
    schema = load_schema(data_path("student_schema.json"))
    return generate_synthetic(schema, {"F": minority, "M": rows - minority}, seed=seed, shift=0.5)


def run_simulate(h, pop: Population, params, benefit: str):
    """One imitation round of ``h`` alone on ``pop``."""
    [impact] = simulate([h], pop, params, benefit)
    return impact
