"""The names the benchmark wraps and reads exist in the program.

``perfbench/spans.py`` wraps effortsim's functions and methods by name for
the traced run (``perfbench/run.py --trace 1``), and its counters read
fields of the results. A rename or deletion in ``src`` would break that
run, so these tests load the benchmark's own target list and counters,
without changing or importing anything else under ``perfbench/``, and
run the toy commands under its wrappers.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from instances import random_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    spans, workloads = _load("spans"), _load("workloads")
    return spans, workloads.import_effortsim()


def test_every_wrapped_name_is_defined_on_its_owner(bench):
    spans, es = bench
    targets = spans.targets(es)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in vars(owner)
    ]
    assert not missing
    wrapped = {(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in targets}
    for name in ("__init__", "sweep", "effort_reward"):
        assert ("FairnessAudit", name) in wrapped


def test_counters_read_live_results(bench):
    spans, es = bench
    fairness, dynamics = es["fairness"], es["dynamics"]
    pop, params, h, benefit = random_instance(3)
    audit = fairness.FairnessAudit(pop, params, [h])
    curve = audit.sweep(h, fairness.BOUNDED_EFFORT, [0.0, 1.0])
    assert spans._sweep((), {}, curve) == {"passes": 2}
    [impact] = rounds = dynamics.simulate([h], pop, params)
    assert spans._simulate((), {}, rounds) == {
        "imitators": sum(o.role_model_index is not None for o in impact.outcomes),
        "scanned": pop.size,
        "focal_points": len(impact.focal_points),
    }


def test_counters_read_a_round_of_two_models(bench):
    # RoundResults chains its models' outcomes and focal points for the counter
    spans, es = bench
    dynamics, models = es["dynamics"], es["models"]
    pop, params, h, _ = random_instance(3)
    rounds = dynamics.simulate([h, models.fit_tree(pop, max_depth=2)], pop, params)
    assert all(impact.imitators > 0 for impact in rounds)
    assert spans._simulate((), {}, rounds) == {
        "imitators": sum(impact.imitators for impact in rounds),
        "scanned": 2 * pop.size,
        "focal_points": sum(len(impact.focal_points) for impact in rounds),
    }


def test_traced_toy_commands_count_live_calls(bench, toy_dir):
    spans, es = bench
    h = es["harness"]
    config = h.load_config(toy_dir / "config.json")
    targets = spans.targets(es)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer, targets):
        h.cmd_fairness(config, toy_dir / "out")
        h.cmd_simulate(config, toy_dir / "out")
        h.cmd_sweep_tau(config, toy_dir / "out")
        es["figures"].cmd_figures(toy_dir / "out")
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
    metrics = spans.iteration_metrics(tracer.spans)
    assert metrics["harness.cmd_sweep_tau.total_s"] > 0
    assert metrics["figures.cmd_figures.self_s"] > 0
    # each of the three commands fits three models: the config's, or one per tau
    assert len(config.models) == len(config.tau_grid) == 3
    assert metrics["models.fit.calls"] == 9
    for name in (
        "effort.EffortEngine.eps_sum.feature_cells",
        "dataset.load_csv.rows",
        "dataset.write_csv.rows",
        "models.predict_rows.rows",
    ):
        assert metrics[name] > 0, name
    spectral = [s for s in tracer.spans if s.name == "segregation.spectral_segregation"]
    assert spectral and all("absent" in s.counts for s in spectral)
