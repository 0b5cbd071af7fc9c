from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from collections import Counter
import itertools
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import count_effort_walks, harness_toy_schema, synthetic_student_pop
import effortsim
from effortsim import cli, data_path, dynamics, harness, segregation
from effortsim.dataset import DataError, Population, format_number, load_csv, schema_to_dict, split, write_csv
from effortsim.effort import EffortEngine, EffortParams
from effortsim.figures import _esc, bar_chart, cmd_figures, line_chart
from effortsim.harness import (
    cmd_fairness,
    cmd_simulate,
    cmd_sweep_tau,
    config_from_dict,
    load_config,
)
from effortsim.models import Predictor


def _bundled_config():
    """The bundled student config with its data paths made absolute."""
    raw = json.loads(data_path("student_config.json").read_text())
    raw["dataset"] = str(data_path(raw["dataset"]))
    raw["schema"] = str(data_path(raw["schema"]))
    return raw


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_same_files(out1, out2, skip=("timings_",)):
    """``out1`` and ``out2`` hold the same files with the same bytes, apart from names starting with ``skip``."""
    names = sorted(f.name for f in out1.iterdir() if not f.name.startswith(skip))
    assert names == sorted(f.name for f in out2.iterdir() if not f.name.startswith(skip))
    for name in names:
        assert (out2 / name).read_bytes() == (out1 / name).read_bytes(), name


class TestConfig:
    def test_load_resolves_paths(self, toy_dir):
        config = load_config(toy_dir / "config.json")
        assert config.dataset.exists() and config.schema.exists()
        assert config.tau_grid == (0.0, 1.0, 4.0)

    def test_negative_zero_tau_is_zero(self, toy_dir):
        # -0.0 == 0.0, so the grid entry names its stage tau_0, and a model's tau is +0.0 too
        raw = json.loads((toy_dir / "config.json").read_text())
        raw["sweep"]["tau_grid"] = [-0.0, 1.0]
        raw["models"].append({"name": "fair", "kind": "constrained", "tau": -0.0, "features": "all"})
        (toy_dir / "config.json").write_text(json.dumps(raw))
        assert "-0.0" in (toy_dir / "config.json").read_text()
        config = load_config(toy_dir / "config.json")
        taus = [*config.tau_grid, config.models[-1].tau]
        assert taus == [0.0, 1.0, 0.0] and not np.signbit(taus).any()
        assert [f"tau_{format_number(t)}" for t in config.tau_grid] == ["tau_0", "tau_1"]

    def test_missing_file_is_config_error(self, tmp_path):
        assert cli.main(["fairness", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)]) == 2

    def test_bad_json_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert cli.main(["fairness", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_unknown_model_kind_is_config_error(self, toy_dir):
        raw = json.loads((toy_dir / "config.json").read_text())
        raw["models"][0]["kind"] = "forest"
        (toy_dir / "config.json").write_text(json.dumps(raw))
        assert cli.main(["fairness", "--config", str(toy_dir / "config.json"), "--out", str(toy_dir / "o")]) == 2

    # A config, schema or synthetic spec field set to an integer no float holds, and the name
    # the error gives it.
    HUGE = {
        "beta": (("config", "beta"), "beta"),
        "alpha": (("config", "effort", "alpha"), "alpha"),
        "base_costs": (("config", "effort", "base_costs"), "base costs"),
        "feature_weights": (("config", "effort", "feature_weights", "skill"), "weight for 'skill'"),
        "lambda": (("config", "models", 1, "lambda"), "lambda"),
        "tau_grid": (("config", "sweep", "tau_grid", 1), "tau_grid entry"),
        "connectivity_threshold": (("config", "connectivity_threshold"), "connectivity_threshold"),
        "weight": (("schema", "features", 1, "weight"), "schema feature 'skill' weight"),
        "shift": (("spec", "shift"), "synthetic spec shift"),
    }

    @pytest.mark.parametrize("field", HUGE)
    def test_integer_beyond_the_float_range_is_config_error(self, toy_dir, capsys, field):
        path, name = self.HUGE[field]
        spec = {**schema_to_dict(harness_toy_schema()), "group_sizes": [12, 8], "seed": 3}
        docs = {"config": json.loads((toy_dir / "config.json").read_text()),
                "schema": json.loads((toy_dir / "toy_schema.json").read_text()), "spec": spec}
        docs["config"]["effort"]["feature_weights"] = {"skill": 1.0}
        node = docs[path[0]]
        for key in path[1:-1]:
            node = node[key]
        node[path[-1]] = 10**400
        for doc, f in (("config", "config.json"), ("schema", "toy_schema.json"), ("spec", "spec.json")):
            (toy_dir / f).write_text(json.dumps(docs[doc]))
        argv = ["synth"] if path[0] == "spec" else ["fairness"]
        config = "spec.json" if path[0] == "spec" else "config.json"
        assert cli.main([*argv, "--config", str(toy_dir / config), "--out", str(toy_dir / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{name} must be " in err, err

    @pytest.mark.parametrize("points", [1, 0, 2.5, True, "20", harness.MAX_DELTA_POINTS + 1, 10_000_000])
    def test_delta_grid_points_must_be_integer_of_at_least_two(self, toy_dir, points):
        raw = json.loads((toy_dir / "config.json").read_text())
        raw["delta_grid_points"] = points
        (toy_dir / "config.json").write_text(json.dumps(raw))
        assert cli.main(["fairness", "--config", str(toy_dir / "config.json"), "--out", str(toy_dir / "o")]) == 2

    def test_delta_grid_points_may_reach_the_cap(self, toy_dir):
        raw = json.loads((toy_dir / "config.json").read_text())
        raw["delta_grid_points"] = harness.MAX_DELTA_POINTS
        (toy_dir / "config.json").write_text(json.dumps(raw))
        assert load_config(toy_dir / "config.json").delta_points == harness.MAX_DELTA_POINTS

    @pytest.mark.parametrize(
        "command, edits",
        [
            ("simulate", [(("beta",), 1.5)]),
            ("fairness", [(("benefit",), "shifted_gain"), (("effort", "alpha"), 0.5)]),
            ("fairness", [(("split", "train_fraction"), 1.5)]),
            ("fairness", [(("models", 2, "max_depth"), -1)]),
            ("sweep-tau", [(("sweep", "tau_grid"), [-1])]),
            ("fairness", [(("split",), [0.7, 28])]),
            ("fairness", [(("effort",), "flat")]),
            ("sweep-tau", [(("sweep",), [0.0, 1.0])]),
            ("fairness", [(("models", 0, "lambda"), -1)]),
            ("fairness", [(("models", 0, "lambda"), float("nan"))]),
            ("fairness", [(("models", 0, "lambda"), float("inf"))]),
            ("simulate", [(("centralization_threshold",), float("nan"))]),
            ("simulate", [(("connectivity_threshold",), float("nan"))]),
            ("simulate", [(("connectivity_threshold",), -1e-6)]),
            ("simulate", [(("connectivity_threshold",), float("inf"))]),
            ("fairness", [(("centralization_threshold",), float("-inf"))]),
            ("fairness", [(("effort", "feature_weights"), [2.0, 0.5])]),
            ("simulate", [(("conectivity_threshold",), 5.0)]),
            ("fairness", [(("models", 0, "lamda"), 50.0)]),
            ("fairness", [(("split", "train_frac"), 0.5)]),
            ("fairness", [(("effort", "base_cost"), 0.1)]),
            ("sweep-tau", [(("sweep", "tau_grd"), [0.0, 1.0])]),
            ("sweep-tau", [(("sweep", "features"), "mutabel")]),
            ("fairness", [(("models", 3, "max_depth"), 3)]),
            ("fairness", [(("models", 3, "tau"), 9.0)]),
            ("fairness", [(("models", 3, "lambda"), 5.0)]),
            ("fairness", [(("models", 2, "lambda"), 1e9)]),
            ("fairness", [(("models", 2, "tau"), 1.0)]),
            ("fairness", [(("models", 0, "max_depth"), 3)]),
            ("fairness", [(("models", 0, "tau"), 1.0)]),
            ("sweep-tau", [(("models", 3, "kind"), "constrained"), (("models", 3, "lambda"), 5.0)]),
            ("fairness", [(("models", 3, "kind"), "mlp"), (("models", 3, "max_depth"), 2)]),
            ("sweep-tau", [(("sweep", "tau_grid"), [0.0, 0.0, 1.0])]),
            ("sweep-tau", [(("sweep", "tau_grid"), [0.0, -0.0, 1.0])]),
            ("sweep-tau", [(("sweep", "tau_grid"), [0.0, float("inf")])]),
            ("sweep-tau", [(("sweep", "tau_grid"), [float("nan")])]),
            ("fairness", [(("models", 3, "kind"), "constrained"), (("models", 3, "tau"), float("inf"))]),
            ("simulate", [(("models", 1, "name"), "ridge/x")]),
            ("fairness", [(("models", 0, "name"), "ridge\0x")]),
            ("fairness", [(("seed",), 28.9)]),
            ("fairness", [(("seed",), True)]),
            ("fairness", [(("split", "seed"), 28.0)]),
            ("fairness", [(("split", "seed"), -5)]),
            ("fairness", [(("models", 2, "max_depth"), 2.7)]),
            ("fairness", [(("models", 0, "lambda"), "200")]),
            ("simulate", [(("beta",), "0.5")]),
            ("simulate", [(("connectivity_threshold",), "1e-6")]),
            ("simulate", [(("centralization_threshold",), False)]),
            ("sweep-tau", [(("sweep", "tau_grid"), "05")]),
            ("fairness", [(("minority",), 5)]),
            ("simulate", [(("minority",), ["F"])]),
            ("sweep-tau", [(("minority",), True)]),
            ("simulate", [(("models", 0, "name"), None)]),
            ("simulate", [(("models", 0, "name"), 5)]),
            ("fairness", [(("models", 0, "kind"), ["ridge"])]),
            ("fairness", [(("models", 0, "features"), ["mutable"])]),
            ("sweep-tau", [(("sweep", "features"), 0)]),
        ],
        ids=[
            "beta",
            "negative_benefit_fractional_alpha",
            "train_fraction",
            "max_depth",
            "tau_grid",
            "split_not_object",
            "effort_not_object",
            "sweep_not_object",
            "negative_lambda",
            "nan_lambda",
            "infinite_lambda",
            "nan_centralization_threshold",
            "nan_connectivity_threshold",
            "negative_connectivity_threshold",
            "infinite_connectivity_threshold",
            "infinite_centralization_threshold",
            "list_feature_weights",
            "unknown_top_level_key",
            "unknown_model_key",
            "unknown_split_key",
            "unknown_effort_key",
            "unknown_sweep_key",
            "unknown_sweep_feature_set",
            "linear_max_depth",
            "linear_tau",
            "linear_lambda",
            "tree_lambda",
            "tree_tau",
            "ridge_max_depth",
            "ridge_tau",
            "constrained_lambda",
            "mlp_max_depth",
            "duplicate_tau",
            "signed_zero_duplicate_tau",
            "infinite_tau_grid",
            "nan_tau_grid",
            "infinite_constrained_tau",
            "slash_model_name",
            "nul_model_name",
            "fractional_seed",
            "bool_seed",
            "float_split_seed",
            "negative_split_seed",
            "fractional_max_depth",
            "string_lambda",
            "string_beta",
            "string_connectivity_threshold",
            "bool_centralization_threshold",
            "string_tau_grid",
            "number_minority",
            "list_minority",
            "bool_minority",
            "null_model_name",
            "number_model_name",
            "list_model_kind",
            "list_model_features",
            "number_sweep_features",
        ],
    )
    def test_bad_bundled_config_value_is_config_error(self, tmp_path, command, edits):
        raw = _bundled_config()
        for path, value in edits:
            node = raw
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        (tmp_path / "config.json").write_text(json.dumps(raw))
        assert cli.main([command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]) == 2
        assert not list((tmp_path / "o").rglob("*"))  # no stage file

    @pytest.mark.parametrize(
        "key, value",
        [
            ("feature_weights", {"studytime": "abc"}),
            ("feature_weights", {"studytime": [2.0]}),
            ("feature_weights", {"studytime": -1}),
            ("feature_weights", {"nosuch": 3.0}),
            ("feature_weights", {"X": {"studytime": 2.0}}),
            ("feature_weights", {"F": {"nosuch": 2.0}}),
            ("base_costs", {"X": 0.3}),
            ("alpha", 0),
            ("alpha", -1),
            ("alpha", float("nan")),
            ("categorical_cost", -0.5),
            ("base_costs", -1),
            ("base_costs", {"a": -1}),
        ],
        ids=[
            "text_weight",
            "list_weight",
            "negative_weight",
            "unknown_feature",
            "unknown_group",
            "unknown_group_feature",
            "unknown_base_cost_group",
            "zero_alpha",
            "negative_alpha",
            "nan_alpha",
            "negative_categorical_cost",
            "negative_base_cost",
            "negative_group_base_cost",
        ],
    )
    def test_bad_cost_model_fails_before_any_stage(self, tmp_path, capsys, key, value):
        raw = _bundled_config()
        raw["effort"][key] = value
        (tmp_path / "config.json").write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert cli.main(["fairness", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "feature, key, value",
        [
            ("sex", "levels", "FM"),
            ("studytime", "mutable", "yes"),
            ("studytime", "weight", "2"),
            ("studytime", "weight", True),
            ("school", "categorical_cost", "0.5"),
            ("studytime", "name", 5),
            (None, "label", 7),
        ],
        ids=["string_levels", "string_mutable", "string_weight", "bool_weight",
             "string_categorical_cost", "number_name", "number_label"],
    )
    def test_bad_schema_value_is_config_error(self, tmp_path, capsys, feature, key, value):
        schema = json.loads(data_path("student_schema.json").read_text())
        node = schema if feature is None else next(f for f in schema["features"] if f["name"] == feature)
        node[key] = value
        (tmp_path / "schema.json").write_text(json.dumps(schema))
        raw = _bundled_config()
        raw["schema"] = str(tmp_path / "schema.json")
        (tmp_path / "config.json").write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert cli.main(["fairness", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["fairness", "simulate", "sweep-tau"])
    def test_bad_risk_model_leaves_no_stage_file(self, tmp_path, capsys, command):
        # shifted gain is negative for rows predicted more than one point
        # below their label, which a fractional power cannot take
        raw = _bundled_config()
        raw["benefit"] = "shifted_gain"
        raw["effort"]["alpha"] = 0.5
        (tmp_path / "config.json").write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert cli.main([command, "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "negative benefit with non-integer risk aversion 0.5" in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_top_level_config_must_be_object(self, tmp_path):
        (tmp_path / "config.json").write_text(json.dumps([_bundled_config()]))
        assert cli.main(["fairness", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    @pytest.mark.parametrize("column", ["skill", "y"])
    def test_non_finite_cell_is_data_error(self, toy_dir, column, cell):
        rows = _read_rows(toy_dir / "toy.csv")
        rows[3][column] = cell
        with open(toy_dir / "toy.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        assert cli.main(["fairness", "--config", str(toy_dir / "config.json"), "--out", str(toy_dir / "o")]) == 3
        assert not (toy_dir / "o" / "fairness_report.json").exists()

    def test_missing_dataset_is_data_error(self, toy_dir):
        (toy_dir / "toy.csv").unlink()
        assert cli.main(["fairness", "--config", str(toy_dir / "config.json"), "--out", str(toy_dir / "o")]) == 3

    @pytest.mark.parametrize(
        "case, code",
        [
            ("dataset_is_directory", 3),
            ("dataset_not_utf8", 3),
            ("dataset_not_utf8_past_64k", 3),
            ("config_is_directory", 2),
            ("config_not_utf8", 2),
            ("schema_is_directory", 2),
            ("schema_is_list", 2),
            ("schema_feature_is_string", 2),
            ("schema_feature_key_misspelt", 2),
            ("schema_unknown_top_level_key", 2),
            ("synth_config_is_directory", 2),
            ("out_is_file", 3),
            ("synth_out_is_file", 3),
            ("one_group_dataset", 3),
            ("one_group_dataset_fairness", 3),
            ("minority_not_in_data", 3),
            ("dataset_repeats_a_column", 3),
        ],
    )
    def test_bad_input_file_exits_without_traceback(self, toy_dir, case, code):
        config = toy_dir / "config.json"
        raw = json.loads(config.read_text())
        (toy_dir / "folder").mkdir()
        argv = ["fairness", "--config", str(config), "--out", str(toy_dir / "o")]
        if case == "dataset_is_directory":
            raw["dataset"] = "folder"
        elif case == "dataset_not_utf8":
            with open(toy_dir / "toy.csv", "ab") as fh:
                fh.write(b"caf\xe9\n")
        elif case == "dataset_not_utf8_past_64k":
            # Far past the first buffer a streamed read decodes.
            header, _, body = (toy_dir / "toy.csv").read_text().partition("\n")
            good = f"{header}\n{body * (65536 // len(body) + 1)}caf".encode()
            (toy_dir / "toy.csv").write_bytes(good + b"\xe9\n")
        elif case == "config_is_directory":
            argv[2] = str(toy_dir / "folder")
        elif case == "config_not_utf8":
            raw["minority"] = "\xe9"  # rewritten as latin-1 below
        elif case == "schema_is_directory":
            raw["schema"] = "folder"
        elif case == "schema_is_list":
            (toy_dir / "toy_schema.json").write_text("[]")
        elif case == "schema_feature_is_string":
            schema = json.loads((toy_dir / "toy_schema.json").read_text())
            schema["features"][1] = "skill"
            (toy_dir / "toy_schema.json").write_text(json.dumps(schema))
        elif case == "schema_feature_key_misspelt":
            schema = json.loads((toy_dir / "toy_schema.json").read_text())
            schema["features"][1]["wieght"] = 3
            (toy_dir / "toy_schema.json").write_text(json.dumps(schema))
        elif case == "schema_unknown_top_level_key":
            schema = json.loads((toy_dir / "toy_schema.json").read_text())
            schema["lable"] = "y"
            (toy_dir / "toy_schema.json").write_text(json.dumps(schema))
        elif case == "synth_config_is_directory":
            argv = ["synth", "--config", str(toy_dir / "folder"), "--out", str(toy_dir / "o")]
        elif case == "out_is_file":
            argv[-1] = str(toy_dir / "toy.csv")
        elif case == "synth_out_is_file":
            spec = json.loads((toy_dir / "toy_schema.json").read_text())
            spec.update(group_sizes={"a": 4, "b": 3}, seed=1)
            (toy_dir / "spec.json").write_text(json.dumps(spec))
            argv = ["synth", "--config", str(toy_dir / "spec.json"), "--out", str(toy_dir / "toy.csv")]
        elif case.startswith("one_group_dataset"):
            rows = _read_rows(toy_dir / "toy.csv")
            with open(toy_dir / "toy.csv", "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows({**row, "grp": "b"} for row in rows)
            if case == "one_group_dataset":
                argv[0] = "simulate"
        elif case == "minority_not_in_data":
            raw["minority"] = "c"
        elif case == "dataset_repeats_a_column":
            # a second "skill" column, with the same cells; the header line gains ",skill"
            lines = (toy_dir / "toy.csv").read_text().splitlines()
            k = lines[0].split(",").index("skill")
            (toy_dir / "toy.csv").write_text("".join(f"{line},{line.split(',')[k]}\n" for line in lines))
        config.write_bytes(json.dumps(raw, ensure_ascii=False).encode("latin-1"))
        src = Path(effortsim.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "effortsim.cli", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if case.startswith(("one_group_dataset", "dataset_not_utf8")) or case in (
            "minority_not_in_data",
            "dataset_repeats_a_column",
        ):
            assert proc.stderr.startswith("data error:"), proc.stderr
            assert not list((toy_dir / "o").rglob("*"))  # no stage file
        if case == "dataset_repeats_a_column":
            assert "toy.csv: column 'skill' appears 2 times" in proc.stderr
        if case == "dataset_not_utf8_past_64k":
            assert f"toy.csv: not UTF-8 text (invalid continuation byte at byte {len(good)})" in proc.stderr


class TestFairnessCommand:
    def test_emits_curves_for_every_model_and_group(self, toy_dir):
        out = toy_dir / "out"
        cmd_fairness(load_config(toy_dir / "config.json"), out)
        for fname in ("bounded_effort_curves.csv", "threshold_reward_curves.csv"):
            rows = _read_rows(out / fname)
            assert {r["model"] for r in rows} == {"linear", "ridge", "stump"}
            assert {r["group"] for r in rows} == {"a", "b"}
            per_curve = {}
            for r in rows:
                per_curve.setdefault((r["model"], r["group"]), []).append(r["delta"])
            assert all(len(v) == 6 for v in per_curve.values())
        report = json.loads((out / "fairness_report.json").read_text())
        assert set(report["models"]) == {"linear", "ridge", "stump"}
        for body in report["models"].values():
            assert "effort_reward" in body and "mae" in body

    def test_rerun_is_byte_identical(self, toy_dir):
        out1, out2 = toy_dir / "o1", toy_dir / "o2"
        config = load_config(toy_dir / "config.json")
        cmd_fairness(config, out1)
        cmd_fairness(config, out2)
        _assert_same_files(out1, out2)  # timings are wall-clock readings, unhashed in the manifest

    def test_cli_seed_reseeds_the_split(self, toy_dir):
        # --seed replaces the master seed and drops the pinned split seed, so
        # the run is the config's with that seed and no split seed, manifest included.
        raw = json.loads((toy_dir / "config.json").read_text())
        raw["seed"] = 7
        del raw["split"]["seed"]
        (toy_dir / "seeded.json").write_text(json.dumps(raw))
        for config, out in (("config.json", "cli"), ("seeded.json", "file")):
            argv = ["fairness", "--config", str(toy_dir / config), "--out", str(toy_dir / out)]
            assert cli.main(argv + (["--seed", "7"] if out == "cli" else [])) == 0
        _assert_same_files(toy_dir / "cli", toy_dir / "file")
        assert (toy_dir / "cli" / "manifest_fairness.json").exists()

    def test_negative_cli_seed_is_config_error(self, toy_dir, capsys):
        argv = ["fairness", "--config", str(toy_dir / "config.json"), "--out", str(toy_dir / "o")]
        assert cli.main(argv + ["--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (toy_dir / "o").exists()

    def test_each_model_predicted_once_by_the_audit(self, toy_dir, monkeypatch):
        audit_calls = []
        original = Predictor.predict

        def counting(self, pop):
            caller = sys._getframe(1).f_code.co_qualname
            if caller.startswith(("FairnessAudit.", "audit_benefits")):
                audit_calls.append(id(self))
            return original(self, pop)

        monkeypatch.setattr(Predictor, "predict", counting)
        config = load_config(toy_dir / "config.json")
        cmd_fairness(config, toy_dir / "out")
        assert len(audit_calls) == len(set(audit_calls)) == len(config.models)

    def test_timings_record_the_audit_walk(self, toy_dir):
        out = toy_dir / "out"
        cmd_fairness(load_config(toy_dir / "config.json"), out)
        timings = json.loads((out / "timings_fairness.json").read_text())
        [entry] = [e["audit"] for e in timings if "audit" in e]
        assert entry["tiles"] >= 2  # one walk, group by group
        # every pair is walked, and only the finite-effort ones computed
        config = load_config(toy_dir / "config.json")
        train = harness._load_and_split(config)[1]
        efforts = EffortEngine(train, config.effort).pairwise_effort(train)
        assert entry["pairs"] == train.size**2
        assert entry["feasible_pairs"] == np.isfinite(efforts).sum() < entry["pairs"]
        # the gates are folded on each tile's candidate columns alone: the
        # other group's rows are never read
        assert entry["feasible_pairs"] <= entry["gate_cells"] < entry["pairs"]
        assert set(entry["staircases"]) == {"linear", "ridge", "stump"}
        assert set(entry) == {
            "tiles", "pairs", "gate_cells", "feasible_pairs", "staircases", "table_columns", "rule_columns"
        }
        for size in entry["staircases"].values():
            assert 1 <= size["max_row_points"] <= size["points"]

    def test_audit_holds_no_quarter_matrix(self, tmp_path):
        # The audit keeps staircases, not an n x n effort matrix: the whole
        # command stays below a quarter of one at this n, while the fixed
        # 1 MiB row tiles of the walk are well below it.
        rows = 2500
        write_csv(synthetic_student_pop(round(rows / 0.7)), tmp_path / "synthetic.csv")
        raw = _bundled_config()  # train_fraction 0.7
        raw["dataset"] = str(tmp_path / "synthetic.csv")
        config = config_from_dict(raw, tmp_path)
        tracemalloc.start()
        try:
            cmd_fairness(config, tmp_path / "out")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * rows**2 / 4, peak


class TestSimulateCommand:
    def test_default_minority_is_the_smaller_training_group(self, toy_dir):
        raw = json.loads((toy_dir / "config.json").read_text())
        config = config_from_dict(raw, toy_dir)
        train, _ = split(load_csv(config.dataset, config.schema), config.train_fraction, config.split_seed)
        counts = Counter(train.groups)
        smaller = min(counts, key=counts.get)
        assert counts[smaller] < max(counts.values())
        for minority in (None, smaller):
            cmd_simulate(config_from_dict({**raw, "minority": minority}, toy_dir), toy_dir / str(minority))
        _assert_same_files(toy_dir / "None", toy_dir / smaller, skip=("timings_", "manifest_"))
        default, named = (json.loads((toy_dir / d / "manifest_simulate.json").read_text()) for d in ("None", smaller))
        assert {**default, "config_sha256": None} == {**named, "config_sha256": None}

    def test_constant_predictor_fixed_point(self, toy_dir):
        raw = json.loads((toy_dir / "config.json").read_text())
        raw["models"] = [{"name": "flat", "kind": "tree", "max_depth": 0, "features": "all"}]
        (toy_dir / "config.json").write_text(json.dumps(raw))
        config = load_config(toy_dir / "config.json")
        out = toy_dir / "out"
        cmd_simulate(config, out)
        from effortsim.dataset import split

        pop = load_csv(config.dataset, config.schema)
        train, _ = split(pop, 0.7, seed=5)
        reference = toy_dir / "train_reference.csv"
        write_csv(train, reference)
        assert (out / "impacted_flat.csv").read_bytes() == reference.read_bytes()

    def test_segregation_csv_shape(self, toy_dir):
        out = toy_dir / "out"
        cmd_simulate(load_config(toy_dir / "config.json"), out)
        rows = _read_rows(out / "segregation.csv")
        for model in ("linear", "ridge", "stump"):
            for measure in ("atkinson", "centralization", "aci", "ssi"):
                got = [r for r in rows if r["model"] == model and r["measure"] == measure]
                assert {r["population"] for r in got} == {"initial", "impacted"}
                assert len(got) == 2

    def test_impacted_rows_match_enumeration_oracle(self, toy_dir):
        config = load_config(toy_dir / "config.json")
        out = toy_dir / "out"
        cmd_simulate(config, out)
        from effortsim.dataset import split
        from effortsim.harness import fit_model

        pop = load_csv(config.dataset, config.schema)
        train, _ = split(pop, 0.7, seed=5)
        h = fit_model(config.models[0], train, config)
        impacted = load_csv(out / "impacted_linear.csv", config.schema)
        mutable = train.schema.mutable_mask
        params = EffortParams()
        for i in range(train.size):
            j, best_u = oracles.role_model(h, train, params, "predicted", i)
            if j is None:
                assert np.array_equal(impacted.X[i], train.X[i])
                assert impacted.y[i] == train.y[i]
            else:
                assert np.array_equal(impacted.X[i][mutable], train.X[j][mutable])
                assert np.array_equal(impacted.X[i][~mutable], train.X[i][~mutable])
                assert impacted.y[i] == train.y[j]

    def test_outcome_json_consistent(self, toy_dir):
        out = toy_dir / "out"
        cmd_simulate(load_config(toy_dir / "config.json"), out)
        outcomes = json.loads((out / "outcomes_linear.json").read_text())
        for o in outcomes:
            assert o["changed"] == (o["role_model"] is not None)
            if o["changed"]:
                assert o["utility"] > 0.0


class TestInitialPopulationMeasuredOnce:
    def test_one_distance_matrix_per_population(self, tmp_path, monkeypatch):
        sizes = []
        original = segregation.distance_indices

        def counting(ctx, pop, walk=None):
            sizes.append(pop.size)
            return original(ctx, pop, walk)

        monkeypatch.setattr(segregation, "distance_indices", counting)
        config = load_config(data_path("student_config.json"))
        cmd_simulate(config, tmp_path / "simulate")
        assert len(sizes) == 1 + len(config.models)
        sizes.clear()
        cmd_sweep_tau(config, tmp_path / "sweep")
        assert len(sizes) == 1 + len(config.tau_grid)
        report = json.loads((tmp_path / "simulate" / "simulate_report.json").read_text())
        initial = {(r["before"]["aci"], r["before"]["ssi"]) for r in report.values()}
        assert len(initial) == 1


    @pytest.mark.parametrize("command", [cmd_simulate, cmd_sweep_tau])
    def test_timings_record_the_distance_walks(self, toy_dir, command):
        config = load_config(toy_dir / "config.json")
        out = toy_dir / "out"
        command(config, out)
        tag = "simulate" if command is cmd_simulate else "sweep_tau"
        timings = json.loads((out / f"timings_{tag}.json").read_text())
        walks = [e["distances"] for e in timings if "distances" in e]
        runs = (
            [m.name for m in config.models]
            if command is cmd_simulate
            else [f"tau_{format_number(t)}" for t in config.tau_grid]
        )
        assert [w["population"] for w in walks] == ["initial"] + runs
        train = harness._load_and_split(config)[1]
        populations = [train] + (
            [load_csv(out / f"impacted_{name}.csv", config.schema) for name in runs]
            if command is cmd_simulate
            else []
        )
        for walk, pop in zip(walks, populations):
            XY = np.column_stack([pop.X, pop.y])
            view = [k for k, f in enumerate(pop.schema.features) if f.mutable] + [pop.schema.size]
            assert walk["rows"] == {g: pop.group_size(g) for g in pop.group_names}
            assert walk["classes"] == {
                g: len({tuple(r) for r in XY[pop.group_rows(g)][:, view].tolist()}) for g in pop.group_names
            }
        for walk in walks:
            assert set(walk) == {"population", "pairs", "rows", "classes", "cells", "table_columns", "rule_columns"}
            # each (row group, column group) block is walked once, over its classes
            assert walk["pairs"] == sum(walk["rows"].values()) ** 2
            classes = walk["classes"]
            assert walk["cells"] == sum(classes[a] * classes[b] for a, b in itertools.product(classes, repeat=2))
        assert walks[0]["cells"] == walks[0]["pairs"]  # the training rows are all distinct
        assert any(w["cells"] < w["pairs"] for w in walks[1:])


class TestOneEffortMatrix:
    """Effort does not depend on the model: each command walks the efforts once for all of them."""

    @pytest.mark.parametrize("command", [cmd_fairness, cmd_simulate, cmd_sweep_tau])
    def test_one_matrix_per_command(self, toy_dir, monkeypatch, command):
        matrices = []
        original_matrix = EffortEngine.pairwise_effort

        def counting_matrix(self, pop, mutable_only=False):
            matrices.append(mutable_only)
            return original_matrix(self, pop, mutable_only)

        monkeypatch.setattr(EffortEngine, "pairwise_effort", counting_matrix)
        walks = count_effort_walks(monkeypatch)
        config = load_config(toy_dir / "config.json")
        assert len(config.models) == 3 and len(config.tau_grid) == 3
        command(config, toy_dir / "out")
        assert matrices == []  # no command assembles an n x n effort matrix
        # the audit walks every feature once and reads its feasible pairs
        # alone; the imitation round walks the row tiles of the mutable ones
        if command is cmd_fairness:
            assert walks == [(False, {"pairs"})]
        else:
            assert [mutable_only for mutable_only, _ in walks] == [True]

    @pytest.mark.parametrize("command", [cmd_simulate, cmd_sweep_tau])
    def test_timings_record_the_imitation_walk(self, toy_dir, monkeypatch, command):
        rounds = []
        original = harness.simulate

        def keeping(models, train, params):
            rounds.append(original(models, train, params))
            return rounds[-1]

        monkeypatch.setattr(harness, "simulate", keeping)
        config = load_config(toy_dir / "config.json")
        out = toy_dir / "out"
        command(config, out)
        tag = "simulate" if command is cmd_simulate else "sweep_tau"
        timings = json.loads((out / f"timings_{tag}.json").read_text())
        [walk] = [e["imitation"] for e in timings if "imitation" in e]
        [round_] = rounds
        runs = (
            [m.name for m in config.models]
            if command is cmd_simulate
            else [f"tau_{format_number(t)}" for t in config.tau_grid]
        )
        assert walk == {**round_.walk, "candidate_columns": dict(zip(runs, round_.walk["candidate_columns"]))}
        assert set(walk) == {"pairs", "candidate_columns", "subtile_cells", "table_columns", "rule_columns"}
        n = harness._load_and_split(config)[1].size
        assert walk["pairs"] == n * n
        # each model reads, per row tile, its tile's rows times its candidate
        # columns there, and a tile holds one row at least and n at most
        columns = sum(walk["candidate_columns"].values())
        assert columns <= walk["subtile_cells"] <= n * columns <= len(runs) * n * n

    @pytest.mark.parametrize("command", [cmd_simulate, cmd_sweep_tau])
    def test_mutable_matrix_freed_before_final_stage(self, tmp_path, monkeypatch, command):
        # No n x n effort array at all: the imitation round of every model
        # (every tau) holds a fixed set of 1 MiB row tiles, whatever n is;
        # at this n a quarter matrix is well above that set.
        rows = 2500
        write_csv(synthetic_student_pop(round(rows / 0.7)), tmp_path / "synthetic.csv")
        raw = _bundled_config()  # train_fraction 0.7
        raw["dataset"] = str(tmp_path / "synthetic.csv")
        peaks = []
        original = harness.simulate

        def tracing(models, train, params):
            assert train.size == rows
            tracemalloc.start()
            try:
                out = original(models, train, params)
                peaks.append((len(models), tracemalloc.get_traced_memory()[1]))
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(harness, "simulate", tracing)
        # the final stage's distance walks are another test's business (and slow here)
        monkeypatch.setattr(segregation, "distance_indices", lambda *args: (None, None))
        config = config_from_dict(raw, tmp_path)
        command(config, tmp_path / "out")
        want_models = len(config.models) if command is cmd_simulate else len(config.tau_grid)
        assert [m for m, _ in peaks] == [want_models]
        assert peaks[0][1] < 8 * rows**2 / 4, peaks


class TestLevelCodes:
    """Each column of a population is coded once, and the bundled walks read every column through
    a level table."""

    def test_each_population_group_and_column_coded_once(self, tmp_path, monkeypatch):
        coded = []  # (population, group, column); each population is kept, so no two share an id
        code = Population._code

        def counting(self, group, k):
            coded.append((self, group, k))
            return code(self, group, k)

        monkeypatch.setattr(Population, "_code", counting)
        config = load_config(data_path("student_config.json"))
        cmd_simulate(config, tmp_path)
        keys = [(id(pop), group, k) for pop, group, k in coded]
        assert len(keys) == len(set(keys))
        assert len({id(pop) for pop, _, _ in coded}) == 1 + len(config.models)  # training and each impact

    def test_simulate_builds_no_impacted_table_and_no_outcome_rows(self, tmp_path, monkeypatch):
        """Impacted populations code only their mutable columns and the label, and the outcomes
        file comes from the round's columns, not from ``ImpactResult.outcomes``; bytes are kept."""
        from test_acceptance import BUNDLED_SHA256

        coded = []  # (population, column) of every (group, column) coded
        code, impact_runs = Population._code, harness._impact_runs
        impacted = []

        def recording(self, group, k):
            coded.append((self, k))
            return code(self, group, k)

        def recording_runs(*args):
            train, ctx, runs = impact_runs(*args)
            impacted.extend(impact.impacted for _, _, impact in runs)
            return train, ctx, runs

        def no_rows(self):
            raise AssertionError("ImpactResult.outcomes built")

        monkeypatch.setattr(Population, "_code", recording)
        monkeypatch.setattr(harness, "_impact_runs", recording_runs)
        monkeypatch.setattr(dynamics.ImpactResult, "outcomes", property(no_rows))
        config = load_config(data_path("student_config.json"))
        cmd_simulate(config, tmp_path)
        assert len(impacted) == len(config.models)
        for pop in impacted:
            view = {k for k, f in enumerate(pop.schema.features) if f.mutable} | {pop.schema.size}
            assert {k for p, k in coded if p is pop} == view
        for name in ("impacted", "outcomes", "shift"):
            for spec in config.models:
                f = f"{name}_{spec.name}.{'csv' if name == 'impacted' else 'json'}"
                assert hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() == BUNDLED_SHA256[f], f
        for f in ("segregation.csv", "simulate_report.json"):
            assert hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() == BUNDLED_SHA256[f], f

    def test_every_bundled_column_reads_through_a_table(self, tmp_path):
        config = load_config(data_path("student_config.json"))
        walks = []
        for command, tag in ((cmd_fairness, "fairness"), (cmd_simulate, "simulate"), (cmd_sweep_tau, "sweep_tau")):
            command(config, tmp_path)
            timings = json.loads((tmp_path / f"timings_{tag}.json").read_text())
            walks += [entry[key] for entry in timings for key in ("audit", "imitation", "distances") if key in entry]
        assert len(walks) == 1 + 2 + (1 + len(config.models)) + (1 + len(config.tau_grid))
        for walk in walks:
            assert walk["table_columns"] > 0 and walk["rule_columns"] == 0, walk


# Floats of one outcome column: signed zeros, the extremes, fractions and any other finite float.
_OUTCOME_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1e16, -2.5]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _impact(role_model, reward, effort, utility) -> dynamics.ImpactResult:
    return dynamics.ImpactResult(*(np.array(c) for c in (role_model, reward, effort, utility)), None, [])


@st.composite
def outcome_columns(draw):
    """An ``ImpactResult``'s four columns over 1-40 rows: a role model or -1 (None) per row."""
    n = draw(st.integers(1, 40))
    role = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    floats = [draw(st.lists(_OUTCOME_FLOATS, min_size=n, max_size=n)) for _ in range(3)]
    return [np.array(role, dtype=np.intp), *floats]


class TestOutcomesWriter:
    """``outcomes_*.json`` comes from its columns with the bytes the general JSON writer gives it,
    and refuses NaN and infinity the same way."""

    @settings(max_examples=100, deadline=None)
    @given(outcome_columns())
    def test_outcomes_equal_the_json_writer(self, tmp_path_factory, columns):
        path = tmp_path_factory.mktemp("outcomes") / "outcomes_m.json"
        impact = _impact(*columns)
        impact.write_outcomes(path)
        assert path.read_bytes() == oracles.outcomes_json(impact).encode()

    @pytest.mark.parametrize("n", [1, 511, 512, 513, 2100])
    def test_outcomes_of_long_rounds(self, tmp_path, n):
        rng = np.random.default_rng(n)
        role = np.where(rng.random(n) < 0.3, -1, rng.integers(0, n, n))
        reward, effort = rng.normal(size=n), rng.random(n)
        reward[::7] = -0.0
        impact = _impact(role, *(np.where(role < 0, 0.0, c) for c in (reward, effort, reward - effort)))
        impact.write_outcomes(tmp_path / "o.json")
        assert (tmp_path / "o.json").read_bytes() == oracles.outcomes_json(impact).encode()

    @pytest.mark.parametrize("column", [1, 2, 3])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_outcomes_refuse_nan_and_infinity(self, tmp_path, column, bad):
        columns = [np.array([1, -1]), np.array([0.5, 0.0]), np.array([0.25, 0.0]), np.array([0.25, 0.0])]
        columns[column][0] = bad
        with pytest.raises(DataError, match="outcomes_m.json: a value to write is NaN or infinite"):
            _impact(*columns).write_outcomes(tmp_path / "outcomes_m.json")
        assert not (tmp_path / "outcomes_m.json").exists()


class TestSweepCommand:
    def test_feature_set_picks_the_fitted_columns(self, toy_dir):
        raw = json.loads((toy_dir / "config.json").read_text())
        raw["sweep"]["features"] = "mutable"
        (toy_dir / "config.json").write_text(json.dumps(raw))
        out = toy_dir / "out"
        cmd_sweep_tau(load_config(toy_dir / "config.json"), out)
        report = json.loads((out / "tau_report.json").read_text())
        for entry in report.values():
            assert entry["weights"]["features"] == ["grp", "skill", "habit", "club"]

    def test_rows_per_measure_and_tau(self, toy_dir):
        out = toy_dir / "out"
        cmd_sweep_tau(load_config(toy_dir / "config.json"), out)
        rows = _read_rows(out / "tau_sweep.csv")
        taus = {r["tau"] for r in rows}
        assert taus == {"0", "1", "4"}
        for measure in ("atkinson", "centralization", "aci", "ssi", "benefit_gap"):
            assert sum(1 for r in rows if r["measure"] == measure) == 3

    def test_tau_zero_matches_unconstrained_linear(self, toy_dir):
        out = toy_dir / "out"
        config = load_config(toy_dir / "config.json")
        cmd_simulate(config, out)
        cmd_sweep_tau(config, out)
        seg = _read_rows(out / "segregation.csv")
        sweep = _read_rows(out / "tau_sweep.csv")
        for measure in ("atkinson", "centralization", "aci", "ssi"):
            linear_row = next(
                r for r in seg
                if r["model"] == "linear" and r["measure"] == measure and r["population"] == "impacted"
            )
            tau_row = next(r for r in sweep if r["tau"] == "0" and r["measure"] == measure)
            assert tau_row["value"] == linear_row["value"]

    def test_gap_nonincreasing_to_largest_tau(self, toy_dir):
        out = toy_dir / "out"
        cmd_sweep_tau(load_config(toy_dir / "config.json"), out)
        rows = [r for r in _read_rows(out / "tau_sweep.csv") if r["measure"] == "benefit_gap"]
        by_tau = {float(r["tau"]): float(r["value"]) for r in rows}
        assert by_tau[4.0] <= by_tau[0.0] + 1e-12

    def test_bundled_sweep_closes_the_gap_of_an_active_hinge(self, tmp_path):
        # With M as the minority the least-squares fit favours F, so every
        # tau above the kink (about 0.33) closes the predicted-benefit gap.
        raw = _bundled_config()
        raw["minority"] = "M"
        out = tmp_path / "out"
        cmd_sweep_tau(config_from_dict(raw, tmp_path), out)
        gaps = {
            float(r["tau"]): float(r["value"])
            for r in _read_rows(out / "tau_sweep.csv")
            if r["measure"] == "benefit_gap"
        }
        weights = {
            float(tau): entry["weights"]
            for tau, entry in json.loads((out / "tau_report.json").read_text()).items()
        }
        assert gaps[0.0] > 0.1 and sorted(gaps) == [0.0, 0.5, 1.0, 2.0, 5.0]
        for tau in (0.5, 1.0, 2.0, 5.0):
            assert abs(gaps[tau]) <= 1e-12
            assert weights[tau]["weights"] != weights[0.0]["weights"]

    def test_empty_grid_rejected(self, toy_dir):
        raw = json.loads((toy_dir / "config.json").read_text())
        raw["sweep"]["tau_grid"] = []
        (toy_dir / "config.json").write_text(json.dumps(raw))
        assert cli.main(["sweep-tau", "--config", str(toy_dir / "config.json"), "--out", str(toy_dir / "o")]) == 2


class TestHugeValues:
    """One finite but huge cell gives exit 3 with a message naming the model or file, or a clean run."""

    NOT_FINITE = re.compile(r"NaN|Infinity|\bnan\b|\binf\b")  # as json.dumps and format_number write them

    @pytest.mark.parametrize("value", ["1e154", "1e308"])
    @pytest.mark.parametrize("column", ["age", "absences"])
    def test_no_traceback_and_no_nan_written(self, tmp_path, capsys, column, value):
        lines = data_path("student_por_synthetic.csv").read_text().splitlines()
        cells = lines[203].split(",")  # data row 203
        cells[lines[0].split(",").index(column)] = value
        lines[203] = ",".join(cells)
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        raw = {**_bundled_config(), "dataset": str(tmp_path / "data.csv")}
        configs = {"bundled": raw, "tree": {**raw, "models": [m for m in raw["models"] if m["kind"] == "tree"]}}
        codes = {}
        for name, config in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
            for command in ("fairness", "simulate", "sweep-tau"):
                out = tmp_path / f"{name}_{command}"
                with np.errstate(all="ignore"):
                    code = cli.main([command, "--config", str(tmp_path / f"{name}.json"), "--out", str(out)])
                err = capsys.readouterr().err
                assert code in (0, 3) and "Traceback" not in err, (name, command, err)
                if code == 3:
                    assert re.match(r"data error: (model '[a-z_0-9.]+': |\S+\.(json|csv): )", err), err
                for f in out.iterdir():
                    assert not self.NOT_FINITE.search(f.read_text()), (name, command, f.name)
                codes[name, command] = code, err
        if column == "age":  # every least-squares fit fails, and the error names the model
            for command in ("fairness", "simulate", "sweep-tau"):
                code, err = codes["bundled", command]
                assert code == 3 and "model '" in err and "least-squares fit failed" in err
        if value == "1e308":  # past the tree's fit, the writers refuse the infinite shift report
            code, err = codes["tree", "simulate"]
            assert code == 3 and "shift_tree.json: a value to write is NaN or infinite" in err

    def test_overflowing_span_in_the_shift_report(self):
        # data rows 1 and 3 both train under the bundled split; absences spans 2e308 there
        lines = _bundled_lines_with({(1, "absences"): "-1e308", (3, "absences"): "1e308"})
        tree = [{"name": "tree", "kind": "tree", "max_depth": 5}]
        _check_mutated_runs(lines, {"tree": {**_bundled_config(), "models": tree}})

    def test_overflowing_variance_in_the_shift_report(self, tmp_path):
        # data rows 1 and 3 train in group F: age's sum of squared deviations there
        # overflows, yet F's variance, about 7.7e305, is a finite number
        lines = _bundled_lines_with({(1, "age"): "-1e154", (3, "age"): "1e154"})
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        tree = [{"name": "tree", "kind": "tree", "max_depth": 5}]
        config = {**_bundled_config(), "dataset": str(tmp_path / "data.csv"), "models": tree}
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
        report = json.loads((out / "shift_tree.json").read_text())
        assert not TestHugeValues.NOT_FINITE.search((out / "shift_tree.json").read_text())
        spread = report["age"]["groups"]["F"]
        assert spread["var_before"] == spread["var_after"] == pytest.approx(1e308 / 259 * 2, rel=1e-12)

    def test_overflowing_mae(self, tmp_path):
        # data rows 1 and 3 train; the tree's absolute errors there sum past the float range,
        # yet their mean, about 4.2e305 over the training rows, is a finite number
        lines = _bundled_lines_with({(1, "G3"): "-9.5e307", (3, "G3"): "9.5e307"})
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
        tree = [{"name": "tree", "kind": "tree", "max_depth": 5}]
        config = {**_bundled_config(), "dataset": str(tmp_path / "data.csv"), "models": tree}
        (tmp_path / "config.json").write_text(json.dumps(config))
        out = tmp_path / "out"
        with np.errstate(all="ignore"):  # the tree scan's sums of squares overflow
            assert cli.main(["fairness", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
        text = (out / "mae_report.json").read_text()
        assert not TestHugeValues.NOT_FINITE.search(text)
        train = json.loads(text)["tree"]["train"]
        assert 1e305 < train["mae_overall"] < 1e306 and 1e305 < train["mae_per_group"]["F"] < 1e307

    def test_json_writer_refuses_nan_and_infinity(self, tmp_path):
        for value in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(DataError, match="report.json: a value to write is NaN or infinite"):
                harness._write_json(tmp_path / "report.json", {"a": [1.0, value]})
            assert not (tmp_path / "report.json").exists()


_BUNDLED_LINES = data_path("student_por_synthetic.csv").read_text().splitlines()
_BUNDLED_SCHEMA = json.loads(data_path("student_schema.json").read_text())
_NUMBER_COLUMNS = [f["name"] for f in _BUNDLED_SCHEMA["features"] if "levels" not in f]
_NUMBER_COLUMNS.append(_BUNDLED_SCHEMA["label"])


@st.composite
def _one_cell(draw):
    """``(line, column, text)``: a data line of the bundled CSV, one of its numeric columns or the
    label, and a value for that cell, a magnitude from 1e-320 to 1e308 of either sign, or -0."""
    mantissa, exponent = draw(st.floats(1.0, 10.0, exclude_max=True)), draw(st.integers(-320, 308))
    magnitude = min(float(f"{mantissa}e{exponent}"), 1e308)
    value = draw(st.sampled_from(["-0", repr(magnitude), repr(-magnitude)]))
    return draw(st.integers(1, len(_BUNDLED_LINES) - 1)), draw(st.sampled_from(_NUMBER_COLUMNS)), value


def _bundled_lines_with(cells: dict) -> list[str]:
    """The bundled CSV's lines with each ``(line, column)`` cell of ``cells`` set to its text."""
    lines = list(_BUNDLED_LINES)
    header = lines[0].split(",")
    for (line, column), text in cells.items():
        row = lines[line].split(",")
        row[header.index(column)] = text
        lines[line] = ",".join(row)
    return lines


def _check_mutated_runs(lines: list[str], configs: dict) -> None:
    """Write ``lines`` as the data file of each config of ``configs`` and run ``fairness``,
    ``simulate`` and ``sweep-tau``: each exits 0 or 3, and a clean run's files and the figures
    drawn from them hold only finite numbers."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "data.csv").write_text("\n".join(lines) + "\n")
        for name, config in configs.items():
            (tmp / f"{name}.json").write_text(json.dumps({**config, "dataset": str(tmp / "data.csv")}))
            for command in ("fairness", "simulate", "sweep-tau"):
                out, err = tmp / f"{name}_{command}", io.StringIO()
                with np.errstate(all="ignore"), contextlib.redirect_stderr(err):
                    code = cli.main([command, "--config", str(tmp / f"{name}.json"), "--out", str(out)])
                    drawn = code == 0 and cli.main(["figures", "--out", str(out)])
                assert code in (0, 3), (name, command, err.getvalue())
                if code == 0:
                    assert drawn == 0, (name, command, err.getvalue())
                    for f in out.iterdir():
                        assert not TestHugeValues.NOT_FINITE.search(f.read_text()), (name, command, f.name)


class TestSingleCellMutations:
    """One numeric cell of the bundled CSV set to any finite value: each experiment command exits 0
    or 3, and a clean run's outputs and the figures drawn from them hold only finite numbers."""

    @settings(max_examples=20)
    @given(_one_cell())
    def test_exit_0_or_3_and_finite_outputs(self, cell):
        line, column, value = cell
        _check_mutated_runs(_bundled_lines_with({(line, column): value}), {"bundled": _bundled_config()})


def _training_lines() -> list[int]:
    """The lines of the bundled CSV whose rows the bundled config's split puts in training."""
    config = _bundled_config()
    pop = load_csv(config["dataset"], config["schema"])
    tagged = Population(pop.schema, pop.X, np.arange(pop.size), pop.groups)  # each label names its row
    train, _ = split(tagged, config["split"]["train_fraction"], config["split"]["seed"])
    return (train.y.astype(int) + 1).tolist()


_TRAINING_LINES = _training_lines()


@st.composite
def _two_cells(draw):
    """``(low, high, column, m)``: two training lines of the bundled CSV, one of its numeric
    columns or the label, and a magnitude m from 1e154 to 1e308; ``low`` gets -m, ``high`` +m."""
    low, high = draw(st.lists(st.sampled_from(_TRAINING_LINES), min_size=2, max_size=2, unique=True))
    return low, high, draw(st.sampled_from(_NUMBER_COLUMNS)), draw(st.floats(1e154, 1e308))


class TestPairedCellMutations:
    """Two training cells of one numeric column set to -m and +m, so that the column's span may
    overflow: each experiment command exits 0 or 3, under the bundled config and a tree-only one,
    and a clean run's outputs and figures hold only finite numbers."""

    @settings(max_examples=10)
    @given(_two_cells())
    @example((5, 4, "studytime", 1e308))  # two training rows, whose span overflows
    def test_exit_0_or_3_and_finite_outputs(self, cells):
        low, high, column, m = cells
        raw = _bundled_config()
        tree = {**raw, "models": [spec for spec in raw["models"] if spec["kind"] == "tree"]}
        lines = _bundled_lines_with({(low, column): repr(-m), (high, column): repr(m)})
        _check_mutated_runs(lines, {"bundled": raw, "tree": tree})


def _svg_numbers(svg: str) -> list[float]:
    """Every coordinate and size in ``svg``'s attributes, each point of a polyline included."""
    values = re.findall(r' (?:x|y|cx|cy|x1|y1|x2|y2|width|height|points)="([^"]*)"', svg)
    return [float(v) for value in values for point in value.split() for v in point.split(",")]


class TestFiguresCommand:
    def test_svg_per_csv_with_polylines(self, toy_dir):
        out = toy_dir / "out"
        config = load_config(toy_dir / "config.json")
        cmd_fairness(config, out)
        cmd_simulate(config, out)
        cmd_sweep_tau(config, out)
        written = cmd_figures(out)
        names = {p.name for p in written}
        assert "bounded_effort_curves.svg" in names
        svg = (out / "bounded_effort_curves.svg").read_text()
        assert svg.count("<polyline") == 6  # 3 models x 2 groups
        assert svg.startswith("<svg")

    def test_empty_csv_is_error_and_writes_nothing(self, tmp_path):
        (tmp_path / "bounded_effort_curves.csv").write_text("model,group,delta,value\n")
        with pytest.raises(Exception):
            cmd_figures(tmp_path)
        assert not (tmp_path / "bounded_effort_curves.svg").exists()

    def test_malformed_csv_is_data_error(self, tmp_path):
        (tmp_path / "tau_sweep.csv").write_text("wrong,columns\n1,2\n")
        assert cli.main(["figures", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "name, body",
        [
            ("bounded_effort_curves", b"model,group,delta,value\nm,a,abc,0.5\n"),
            ("bounded_effort_curves", b"model,group,delta,value\nm,a,1.0\n"),
            ("bounded_effort_curves", b"model,group,delta,value\nm,a,1.0,\xff\n"),
            ("tau_sweep", b"tau,measure,value\n0,aci,0.5\n1,aci,inf\n"),
            ("tau_sweep", b"tau,measure,value\n0,aci,0.5\nnan,aci,0.25\n"),
        ],
        ids=["non_numeric_delta", "short_row", "not_utf8", "inf_value", "nan_tau"],
    )
    def test_bad_report_csv_is_data_error(self, tmp_path, capsys, name, body):
        (tmp_path / f"{name}.csv").write_bytes(body)
        assert cli.main(["figures", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{name}.csv" in err
        assert "Traceback" not in err
        assert not (tmp_path / f"{name}.svg").exists()

    def test_report_tables_survive_awkward_model_names(self, toy_dir):
        raw = json.loads((toy_dir / "config.json").read_text())
        names = ["lin,ear", 'say "hi"']
        for model, name in zip(raw["models"], names):
            model["name"] = name
        (toy_dir / "config.json").write_text(json.dumps(raw))
        out = toy_dir / "out"
        for command in ("fairness", "simulate"):
            assert cli.main([command, "--config", str(toy_dir / "config.json"), "--out", str(out)]) == 0
        assert cli.main(["figures", "--out", str(out)]) == 0
        for svg in ("bounded_effort_curves", "threshold_reward_curves", "fairness_bars", "segregation"):
            text = (out / f"{svg}.svg").read_text()
            for name in names:
                assert f">{_esc(name)}" in text, (svg, name)

    def test_number_cells_are_stripped_like_dataset_cells(self, tmp_path):
        (tmp_path / "tau_sweep.csv").write_text('tau,measure,value\n0,aci, "0.5"\n1,aci,\n')
        assert [p.name for p in cmd_figures(tmp_path)] == ["tau_sweep.svg"]

    def test_lines_follow_x_order(self, tmp_path):
        # Points are sorted on tau alone, so a repeated tau with a blank value draws too.
        (tmp_path / "tau_sweep.csv").write_text("tau,measure,value\n1,aci,0.25\n0,aci,\n0,aci,0.5\n")
        cmd_figures(tmp_path)
        svg = (tmp_path / "tau_sweep.svg").read_text()
        assert 'points="70.00,54.09 480.00,335.91"' in svg and "<circle" not in svg

    def test_regeneration_is_byte_identical(self, toy_dir):
        out = toy_dir / "out"
        config = load_config(toy_dir / "config.json")
        cmd_fairness(config, out)
        cmd_figures(out)
        first = (out / "bounded_effort_curves.svg").read_bytes()
        cmd_figures(out)
        assert (out / "bounded_effort_curves.svg").read_bytes() == first

    def test_no_known_csvs_is_error(self, tmp_path):
        assert cli.main(["figures", "--out", str(tmp_path)]) == 3

    # Paths that no bundled chart takes; each sha256 pins the chart's exact text.
    def test_line_chart_breaks_lines_at_missing_values(self):
        series = [
            ("gaps", [(0.0, None), (1.0, 1.0), (2.0, 2.0), (3.0, None), (4.0, 0.5), (5.0, 1.5), (6.0, None)]),
            ("lone", [(0.0, None), (1.0, None), (2.0, 3.0), (3.0, None)]),
            ("empty", [(0.0, None), (6.0, None)]),
        ]
        svg = line_chart(series, "Gaps", "delta", "value")
        marks = [line for line in svg.splitlines() if line.startswith(("<polyline", "<circle"))]
        assert marks == [
            '<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="138.33,279.55 206.67,166.82"/>',
            '<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="343.33,335.91 411.67,223.18"/>',
            '<circle cx="206.67" cy="54.09" r="2.5" fill="#d62728"/>',
        ]
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "c0d91212e05f890b69e97b1bf927be5d9c5f303c9f6bb9b5f369fe8c95b1b736"
        )

    def test_one_huge_tau_renders(self, tmp_path):
        # 1e20 + 1.0 == 1e20, so the one-point tau axis cannot be widened by
        # 1; it runs from 0 to 1e20 instead.
        raw = {**_bundled_config(), "sweep": {"tau_grid": [1e20], "features": "all"}}
        (tmp_path / "config.json").write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli.main(["sweep-tau", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 0
        assert cli.main(["figures", "--out", str(out)]) == 0
        svg = (out / "tau_sweep.svg").read_text()
        assert all(map(math.isfinite, _svg_numbers(svg)))
        assert svg.count('<circle cx="480.00"') == svg.count("<circle") > 0

    def test_huge_spans_give_finite_coordinates(self):
        # The span from -1.8e308 to 1.8e308 overflows a float, and so would
        # the line chart's padded y axis.
        huge = [-1.7976931348623157e308, -1e308, -0.0, 5e-324, 1e308, 1.7976931348623157e308]
        charts = [
            line_chart([("a", list(zip(huge, huge[::-1]))), ("b", [(1e308, None), (0.0, 1e308)])], "Huge", "x", "y"),
            line_chart([("a", [(-1e308, 1.0), (1e308, 2.0)])], "Huge", "x", "y"),
            bar_chart(["a", "b", "c"], [("s", huge[:3]), ("t", huge[3:])], "Huge", "value"),
        ]
        for svg in charts:
            numbers = _svg_numbers(svg)
            assert len(numbers) > 20 and all(map(math.isfinite, numbers))
            assert not TestHugeValues.NOT_FINITE.search(svg)

    def test_bar_chart_skips_missing_bars(self):
        series = [("s1", [1.0, None, -0.5]), ("s2", [None, None, 2.0]), ("s3", [None, None, None])]
        svg = bar_chart(["a", "b", "c"], series, "Bars", "value")
        assert [line for line in svg.splitlines() if line.startswith("<rect x=\"")][:3] == [
            '<rect x="83.67" y="164.00" width="36.44" height="124.00" fill="#1f77b4"/>',
            '<rect x="357.00" y="288.00" width="36.44" height="62.00" fill="#1f77b4"/>',
            '<rect x="393.44" y="40.00" width="36.44" height="248.00" fill="#d62728"/>',
        ]
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "2bbafbdcf488f89a847d209bdd010b7092c31c14bfdac993aa0460fd5bef3448"
        )


class TestSynthCommand:
    def test_generates_deterministic_csv(self, tmp_path):
        spec = schema_to_dict(harness_toy_schema())
        spec.update({"group_sizes": {"a": 12, "b": 8}, "shift": 0.4, "seed": 3})
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert cli.main(["synth", "--config", str(tmp_path / "spec.json"), "--out", str(tmp_path / "s1")]) == 0
        assert cli.main(["synth", "--config", str(tmp_path / "spec.json"), "--out", str(tmp_path / "s2")]) == 0
        b1 = (tmp_path / "s1" / "synthetic.csv").read_bytes()
        assert b1 == (tmp_path / "s2" / "synthetic.csv").read_bytes()
        pop = load_csv(tmp_path / "s1" / "synthetic.csv", _write_schema(tmp_path))
        assert pop.size == 20

    @pytest.mark.parametrize(
        "edits",
        [
            {"shfit": 0.5},
            {"seed": "abc"},
            {"seed": 2.0},
            {"seed": True},
            {"seed": -3},
            {"shift": "x"},
            {"shift": float("nan")},
            {"shift": float("inf")},
            {"group_sizes": {"a": 12}},
            {"group_sizes": {"a": 12, "b": 8, "c": 3}},
            {"group_sizes": {"a": 2.7, "b": 8}},
            {"group_sizes": {"a": True, "b": 8}},
            {"group_sizes": 20},
        ],
        ids=[
            "misspelled_key",
            "string_seed",
            "float_seed",
            "bool_seed",
            "negative_seed",
            "string_shift",
            "nan_shift",
            "infinite_shift",
            "missing_level",
            "unknown_level",
            "fractional_size",
            "bool_size",
            "scalar_sizes",
        ],
    )
    def test_bad_spec_is_config_error(self, tmp_path, edits):
        spec = schema_to_dict(harness_toy_schema())
        spec.update({"group_sizes": {"a": 12, "b": 8}, "shift": 0.4, "seed": 3})
        spec.update(edits)
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert cli.main(["synth", "--config", str(tmp_path / "spec.json"), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "synthetic.csv").exists()

    def test_missing_sizes_is_config_error(self, tmp_path):
        spec = schema_to_dict(harness_toy_schema())
        spec["seed"] = 1
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        assert cli.main(["synth", "--config", str(tmp_path / "spec.json"), "--out", str(tmp_path)]) == 2


def _write_schema(tmp_path):
    path = tmp_path / "schema_only.json"
    path.write_text(json.dumps(schema_to_dict(harness_toy_schema())))
    return path


class TestManifest:
    @pytest.mark.parametrize(
        "command, tag",
        [(cmd_fairness, "fairness"), (cmd_simulate, "simulate"), (cmd_sweep_tau, "sweep_tau")],
    )
    def test_lists_every_file_once_with_valid_hashes(self, toy_dir, command, tag):
        import hashlib

        out = toy_dir / "out"
        command(load_config(toy_dir / "config.json"), out)
        manifest = json.loads((out / f"manifest_{tag}.json").read_text())
        listed = [f["path"] for stage in manifest["stages"] for f in stage["files"]]
        assert len(listed) == len(set(listed))
        on_disk = {p.name for p in out.iterdir()}
        assert set(listed) == on_disk
        for stage in manifest["stages"]:
            for f in stage["files"]:
                if f["sha256"] is not None:
                    digest = hashlib.sha256((out / f["path"]).read_bytes()).hexdigest()
                    assert digest == f["sha256"]
        timings = json.loads((out / f"timings_{tag}.json").read_text())
        timed = [entry["stage"] for entry in timings if "stage" in entry]
        assert [stage["stage"] for stage in manifest["stages"]] == timed + ["bookkeeping"]

    def test_default_config_is_bundled_student_pipeline(self):
        config = load_config(data_path("student_config.json"))
        assert config.dataset.name == "student_por_synthetic.csv"
        assert config.split_seed == 28
