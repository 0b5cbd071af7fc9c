"""Self-tests of the benchmark's own arithmetic, tracing and checks.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the program's test suite.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def es():
    return workloads.import_effortsim()


@pytest.fixture
def scratch():
    base = workloads.ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=base))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _span(i, name, start, end, parent=None, **counts):
    return spans.Span(id=i, name=name, start=start, end=end, parent=parent, iteration=0,
                      counts=counts)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9].
    tree = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 2.0, 3.0, 1),
        _span(3, "c", 5.0, 9.0, 0),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_time_counts_overlapping_children_once():
    tree = [_span(0, "p", 0.0, 10.0), _span(1, "x", 1.0, 5.0, 0), _span(2, "y", 3.0, 7.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(4.0)


def test_recursive_calls_count_once():
    tree = [
        _span(0, "models.fit", 0.0, 4.0),
        _span(1, "models.fit", 1.0, 3.0, 0),
        _span(2, "models.fit", 5.0, 6.0),
    ]
    m = spans.iteration_metrics(tree)
    assert m["models.fit.calls"] == 2
    assert m["models.fit.self_s"] == pytest.approx(2.0 + 2.0 + 1.0)


def test_layer_metrics_from_counts():
    tree = [
        _span(0, "harness.cmd_simulate", 0.0, 10.0),
        _span(1, "dynamics.simulate", 1.0, 5.0, 0, imitators=3, scanned=4, focal_points=2),
        _span(2, "segregation.pairwise_distances", 6.0, 8.0, 0, cells=16, bytes=128),
        _span(3, "segregation.pairwise_distances", 8.0, 9.0, 0, cells=16, bytes=64),
    ]
    m = spans.iteration_metrics(tree)
    assert m["dynamics.simulate.imitator_ratio"] == 0.75
    assert m["segregation.pairwise_distances.cells"] == 32
    assert m["segregation.pairwise_distances.max_bytes"] == 128
    assert m["harness.cmd_simulate.total_s"] == 10.0
    assert m["trace.layer_share"] == pytest.approx(0.7)
    assert m["effort.pairwise_effort.calls"] == 0


def _bindings(target_list):
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in target_list]


def test_wrappers_record_spans_and_are_removed(es):
    before = _bindings(spans.targets(es))
    tracer = spans.Tracer()
    with spans.Instrumentation(tracer, spans.targets(es)):
        assert all(vars(o)[a] is not f for o, a, f in before)
        pop = es["harness"].load_csv(
            es["package"].data_path("student_por_synthetic.csv"),
            es["package"].data_path("student_schema.json"),
        )
    assert [(s.name, s.counts) for s in tracer.spans] == [("dataset.load_csv", {"rows": pop.size})]
    assert all(vars(o)[a] is f for o, a, f in before)
    es["dataset"].load_csv(
        es["package"].data_path("student_por_synthetic.csv"),
        es["package"].data_path("student_schema.json"),
    )
    assert len(tracer.spans) == 1


def test_traced_run_leaves_no_wrapper(es, scratch, capsys):
    before = _bindings(spans.targets(es))
    args = ["--workload", "synth-impact", "--seed", "5", "--rows", "120", "--seconds", "0",
            "--trace", "1", "--work", str(scratch / "w")]
    assert worker.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert all(vars(o)[a] is f for o, a, f in before)
    assert result["failed"] == 0 and result["traced_iterations"] >= 2
    assert result["per_layer"]["dynamics.simulate.calls"] == 1
    assert set(result["per_layer"]) == set(spans.PER_LAYER)


def test_times_are_scaled_by_the_calibration_kernel(scratch, capsys, monkeypatch):
    monkeypatch.setattr(worker, "calibrate", lambda: 2 * worker.CAL_REF_S)
    args = ["--workload", "synth-audit", "--seed", "5", "--rows", "120", "--iterations", "3",
            "--work", str(scratch / "w")]
    assert worker.main(args) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["wall_s"] == pytest.approx(result["wall_raw_s"] / 2)
    assert result["setup_s"] == pytest.approx(result["setup_raw_s"] / 2)
    assert result["calibration_s"] == 2 * worker.CAL_REF_S


def test_check_flags_a_perturbed_value():
    ref = check.load_reference("student", 0)
    assert ref is not None
    checker = check.Checker(ref)
    summary = json.loads(json.dumps(ref["simulate"]))
    assert checker.check("simulate", summary) == []
    summary["tree"]["impacted.aci"] *= 1 + 1e-9  # below the tolerance
    assert checker.check("simulate", summary) == []
    summary["tree"]["impacted.aci"] *= 1 + 1e-4
    problems = checker.check("simulate", summary)
    assert len(problems) == 1 and "tree.impacted.aci" in problems[0]
    summary = json.loads(json.dumps(ref["simulate"]))
    summary["linear"]["imitators"] += 1
    assert checker.check("simulate", summary)


def test_check_without_reference_requires_repeats():
    checker = check.Checker(None)
    first = {"m": {"effort_reward_disparity": 0.5, "mae": 1.0}}
    assert checker.check("fairness", first) == []
    assert checker.check("fairness", first) == []
    assert checker.check("fairness", {"m": {"effort_reward_disparity": 0.6, "mae": 1.0}})


def test_raising_command_is_counted_and_run_continues(scratch):
    ran = []

    def boom():
        raise RuntimeError("injected")

    def figures():
        ran.append("figures")
        (scratch / "out" / "x.svg").write_text("<svg/>", encoding="utf-8")

    rec = worker.run_iteration(
        [("fairness", boom), ("figures", figures)], scratch / "out", check.Checker(None),
        log=io.StringIO(),
    )
    assert rec["attempted"] == 2 and rec["failed"] == 1
    assert ran == ["figures"]


def test_benchmark_json_matches_emitted_metrics():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in bench["end_to_end"]] == ["wall_s", "peak_rss_mb", "setup_s"]
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == spans.PER_LAYER


def test_fails_without_program_sources(scratch):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(HERE, scratch / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "student", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
