from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

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
    schema_to_dict,
    split,
    write_csv,
)
from effortsim.dynamics import simulate
from effortsim.effort import EVERY, EffortEngine

ACCEPTANCE_LINES: list[str] = []

# Every property test replays the same examples and has no per-example time limit.
settings.register_profile("effortsim", derandomize=True, deadline=None)
settings.load_profile("effortsim")


def pytest_report_header(config):
    """The BLAS build, its thread setting and the CPUs: SSI's bits depend on the BLAS thread count."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # an older numpy takes no ``mode``
        library = "unknown"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"BLAS: {library}, OPENBLAS_NUM_THREADS={threads}, nproc={cpus}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if exitstatus and config.option.verbose < 0:  # -q hides the report header; a failure needs it
        terminalreporter.write_line(pytest_report_header(config))
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


def sweep_point(audit, h, measure: str, delta: float) -> tuple[dict, dict | None]:
    """Per-group values and feasibility of ``audit``'s one-point sweep at ``delta``.

    Feasibility is ``None`` for bounded effort, as in ``DeltaCurve``.
    """
    curve = audit.sweep(h, measure, [delta])
    feas = curve.per_group_feasibility
    return (
        {g: vals[0] for g, vals in curve.per_group_values.items()},
        None if feas is None else {g: shares[0] for g, shares in feas.items()},
    )


def count_effort_walks(monkeypatch) -> list:
    """Record every ``EffortEngine.effort_reads`` walk as ``(mutable_only, forms)``: the set of its
    read forms, ``"tiles"`` for a whole tile, ``"columns"`` for chosen columns, ``"pairs"`` for
    chosen pairs."""
    walks = []
    reads = EffortEngine.effort_reads

    def counting(self, pop, mutable_only=False):
        forms: set = set()
        walks.append((mutable_only, forms))
        for rows, read, allowed, candidates in reads(self, pop, mutable_only):

            def counted(cols=EVERY, pairs=None, read=read):
                forms.add("pairs" if pairs is not None else "tiles" if cols is EVERY else "columns")
                return read(cols, pairs)

            yield rows, counted, allowed, candidates

    monkeypatch.setattr(EffortEngine, "effort_reads", counting)
    return walks


def run_simulate(h, pop: Population, params):
    """One imitation round of ``h`` alone on ``pop``."""
    [impact] = simulate([h], pop, params)
    return impact


def harness_toy_schema() -> FeatureSchema:
    """A two-level group, three mutable features and one conditionally immutable feature."""
    return FeatureSchema(
        features=(
            Feature("grp", FeatureKind("immutable", levels=("a", "b")), mutable=False),
            Feature("skill", FeatureKind("numerical_monotone", direction="increasing"), mutable=True),
            Feature("habit", FeatureKind("ordinal_monotone", direction="decreasing"), mutable=True),
            Feature("club", FeatureKind("categorical", levels=("no", "yes")), mutable=True),
            Feature("age", FeatureKind("conditionally_immutable", direction="increasing"), mutable=False),
        ),
        sensitive="grp",
        label="y",
    )


@pytest.fixture
def toy_dir(tmp_path):
    """A toy dataset, its schema and an experiment config naming both, in ``tmp_path``."""
    schema = harness_toy_schema()
    pop = generate_synthetic(schema, {"a": 40, "b": 25}, seed=9, shift=0.6)
    write_csv(pop, tmp_path / "toy.csv")
    (tmp_path / "toy_schema.json").write_text(json.dumps(schema_to_dict(schema)))
    config = {
        "dataset": "toy.csv",
        "schema": "toy_schema.json",
        "seed": 5,
        "split": {"train_fraction": 0.7, "seed": 5},
        "models": [
            {"name": "linear", "kind": "linear", "features": "all"},
            {"name": "ridge", "kind": "ridge", "lambda": 3.0, "features": "mutable"},
            {"name": "stump", "kind": "tree", "max_depth": 2, "features": "all"},
        ],
        "effort": {"alpha": 1.0, "base_costs": 0.0, "categorical_cost": 0.5},
        "benefit": "predicted",
        "delta_grid_points": 6,
        "sweep": {"tau_grid": [0.0, 1.0, 4.0], "features": "all"},
        "beta": 0.5,
        "minority": "b",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path
