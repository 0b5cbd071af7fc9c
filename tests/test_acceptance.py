"""Acceptance gate: one test per shipped criterion, summary line each.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion
PASS/FAIL lines appear in the terminal summary section.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from conftest import ACCEPTANCE_LINES, run_simulate, sweep_point
from effortsim import data_path
from effortsim.dataset import (
    Population,
    generate_synthetic,
    load_csv,
    load_schema,
    restrict_features,
    split,
    write_csv,
)
from effortsim.dynamics import simulate
from effortsim.effort import EffortEngine, EffortParams, benefit_value, risk_adjusted
from effortsim.fairness import (
    BOUNDED_EFFORT,
    THRESHOLD_REWARD,
    FairnessAudit,
    residual_differences,
)
from effortsim.figures import cmd_figures
from effortsim.harness import (
    cmd_fairness,
    cmd_simulate,
    cmd_sweep_tau,
    fit_model,
    load_config,
)
from effortsim.models import evaluate, fit_constrained_linear, fit_linear, fit_ridge, fit_tree
from effortsim.segregation import MetricContext, atkinson_index, distance_indices
from instances import random_instance


def _record(criterion: str):
    class _Recorder:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is None:
                ACCEPTANCE_LINES.append(f"[PASS] {criterion}: {self.detail}")
            else:
                ACCEPTANCE_LINES.append(f"[FAIL] {criterion}: {exc}")
            return False

        detail = "ok"

    return _Recorder()


@pytest.fixture(scope="session")
def config():
    return load_config(data_path("student_config.json"))


@pytest.fixture(scope="session")
def pipeline(config, tmp_path_factory):
    """One full pipeline run (fairness, simulate, sweep, figures) plus timing."""
    out = tmp_path_factory.mktemp("pipeline")
    start = time.perf_counter()
    cmd_fairness(config, out)
    cmd_simulate(config, out)
    cmd_sweep_tau(config, out)
    cmd_figures(out)
    elapsed = time.perf_counter() - start
    return out, elapsed


@pytest.fixture(scope="session")
def ridge_models(student_split, student_pop):
    train, _ = student_split
    mutable_pop = restrict_features(train, "mutable_plus_sensitive")
    return fit_ridge(mutable_pop, 200.0), fit_ridge(train, 200.0)


def test_criterion_1_dataset_fidelity():
    with _record("1 dataset fidelity") as rec:
        start = time.perf_counter()
        pop = load_csv(data_path("student_por_synthetic.csv"), data_path("student_schema.json"))
        train, test = split(pop, 0.7, seed=28)
        elapsed = time.perf_counter() - start
        assert pop.size == 649
        assert pop.schema.size == 23
        two_level = [f for f in pop.schema.features if f.kind.levels and len(f.kind.levels) == 2]
        assert len(two_level) == 10
        assert (train.size, test.size) == (454, 195)
        assert elapsed < 1.0, f"load+split took {elapsed:.2f}s"
        rec.detail = (
            f"649 rows, 23 features (10 binary), split 454/195 in {elapsed * 1000:.0f} ms"
        )


def test_criterion_2_model_error_reproduction(student_pop, ridge_models):
    with _record("2 model error bands") as rec:
        start = time.perf_counter()
        h_mut, h_comb = ridge_models
        rep_mut = evaluate(h_mut, student_pop)
        rep_comb = evaluate(h_comb, student_pop)
        elapsed = time.perf_counter() - start
        for rep in (rep_mut, rep_comb):
            assert 1.7 <= rep.mae_overall <= 2.4, rep.mae_overall
            for g, v in rep.mae_per_group.items():
                assert 1.6 <= v <= 2.5, (g, v)
        assert elapsed < 5.0
        rec.detail = (
            f"overall MAE mutable {rep_mut.mae_overall:.3f} / combined "
            f"{rep_comb.mae_overall:.3f}, per-group within [1.6, 2.5]"
        )


def test_criterion_3_effort_reward_contrast(student_pop, student_split, ridge_models):
    with _record("3 effort-reward contrast") as rec:
        start = time.perf_counter()
        train, _ = student_split
        h_mut, h_comb = ridge_models
        params = EffortParams()
        audit = FairnessAudit(train, params, [h_mut, h_comb])
        er_mut = audit.effort_reward(h_mut)
        er_comb = audit.effort_reward(h_comb)
        assert er_comb.disparity > 2.0 * er_mut.disparity, (er_mut.disparity, er_comb.disparity)
        pos_mut, _ = residual_differences(h_mut, student_pop)
        pos_comb, _ = residual_differences(h_comb, student_pop)
        assert abs(pos_mut.disparity - 0.296) <= 0.15, pos_mut.disparity
        assert abs(pos_comb.disparity - 0.228) <= 0.15, pos_comb.disparity
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        rec.detail = (
            f"disparity combined {er_comb.disparity:.3f} vs mutable {er_mut.disparity:.3f} "
            f"(x{er_comb.disparity / er_mut.disparity:.1f}); positive residual diffs "
            f"{pos_mut.disparity:.3f}/{pos_comb.disparity:.3f}"
        )


def test_criterion_4_curve_monotonicity(config, student_split):
    with _record("4 curve monotonicity") as rec:
        train, _ = student_split
        checked = 0
        models = [fit_model(spec, train, config) for spec in config.models]
        audit = FairnessAudit(train, config.effort, models)
        efforts = EffortEngine(train, config.effort).pairwise_effort(train)
        for spec, h in zip(config.models, models):
            grid = audit.default_grid(h, BOUNDED_EFFORT, 20)
            curve = audit.sweep(h, BOUNDED_EFFORT, grid)
            lo, _ = sweep_point(audit, h, BOUNDED_EFFORT, 0.0)
            hi, _ = sweep_point(audit, h, BOUNDED_EFFORT, math.inf)
            for g, vals in curve.per_group_values.items():
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])), (spec.name, g)
                assert vals[0] == lo[g] and vals[-1] == hi[g], (spec.name, g)
                checked += 1
            tgrid = audit.default_grid(h, THRESHOLD_REWARD, 20)
            tcurve = audit.sweep(h, THRESHOLD_REWARD, tgrid)
            t0, _ = sweep_point(audit, h, THRESHOLD_REWARD, tgrid[0])
            t_end, _ = sweep_point(audit, h, THRESHOLD_REWARD, tgrid[-1])
            for g, vals in tcurve.per_group_values.items():
                assert vals[0] == t0[g] and vals[-1] == t_end[g]
                checked += 1
            # Group means may dip when expensive individuals drop out of
            # feasibility, so the guaranteed monotone form is per individual
            # over the deltas where that individual stays feasible.
            prev = None
            b = audit.benefits(h)
            for delta in tgrid:
                rewards = b[None, :] - b[:, None]
                feas = (rewards >= delta) & np.isfinite(efforts)
                mins = np.where(feas, efforts, np.inf).min(axis=1)
                mins = np.where(feas.any(axis=1), mins, np.nan)
                if prev is not None:
                    both = ~np.isnan(prev) & ~np.isnan(mins)
                    assert np.all(mins[both] >= prev[both] - 1e-12), spec.name
                prev = mins
        rec.detail = (
            f"{checked} model/group curves: bounded means nondecreasing, threshold "
            "efforts nondecreasing per individual, endpoints match closed forms"
        )


def test_criterion_5_oracle_equivalence():
    with _record("5 oracle equivalence at desk scale") as rec:
        n_instances = 25
        for seed in range(100, 100 + n_instances):
            pop, params, h, benefit = random_instance(seed, max_individuals=30)
            assert pop.size <= 30
            audit = FairnessAudit(pop, params, [h])
            E = oracles.effort_matrix(pop, params)
            efforts = EffortEngine(pop, params).pairwise_effort(pop)
            finite = efforts[np.isfinite(efforts)]
            deltas = (0.0, float(np.median(finite)), float(finite.max()))
            for delta in deltas:
                got, _ = sweep_point(audit, h, BOUNDED_EFFORT, delta)
                want = oracles.bounded_effort(h, pop, params, benefit, delta, E)
                for g in want:
                    assert abs(got[g] - want[g]) <= 1e-10, ("bounded", seed, delta, g)
            b = audit.benefits(h)
            hi = float(b.max() - b.min())
            for delta in (0.0, hi / 3, hi):
                got_vals, got_feas = sweep_point(audit, h, THRESHOLD_REWARD, delta)
                want_vals, want_feas = oracles.threshold_reward(h, pop, params, benefit, delta, E)
                for g in want_vals:
                    if want_vals[g] is None:
                        assert got_vals[g] is None
                    else:
                        assert abs(got_vals[g] - want_vals[g]) <= 1e-10
                    assert got_feas[g] == want_feas[g]
            got_er = audit.effort_reward(h).per_group_value
            want_er = oracles.effort_reward(h, pop, params, benefit, E)
            for g in want_er:
                assert abs(got_er[g] - want_er[g]) <= 1e-10, ("effort_reward", seed, g)
            outcomes = run_simulate(h, pop, params).outcomes
            for i in range(pop.size):
                got = outcomes[i]
                want_idx, want_u = oracles.role_model(h, pop, params, benefit, i)
                assert got.role_model_index == want_idx, ("role_model", seed, i)
                if want_idx is not None:
                    assert abs(got.utility - want_u) <= 1e-10
            minority = pop.group_names[0]
            ctx = MetricContext(pop, params, minority)
            got_aci, _ = distance_indices(ctx, pop)
            D = oracles.distance_matrix(pop, params, pop)
            flags = [1 if g == minority else 0 for g in pop.groups]
            want_aci = oracles.aci(D, flags)
            assert abs(got_aci - want_aci) <= 1e-10, ("aci", seed)
            mutable = pop.schema.mutable_mask
            rng = np.random.default_rng(seed)
            rows = rng.choice(pop.size, size=min(3, pop.size), replace=False)
            focals = [pop.X[r, mutable] for r in rows]
            from effortsim.segregation import build_focal_neighborhoods

            got_assign = build_focal_neighborhoods(ctx, focals, pop)
            want_assign = oracles.focal_assignment(pop, params, pop, focals)
            assert got_assign.tolist() == want_assign, ("focal", seed)
        rec.detail = f"{n_instances} randomized instances, six measure families, all exact"


def test_criterion_6_segregation_properties():
    with _record("6 segregation index properties") as rec:
        for beta in (0.1, 0.5, 0.9):
            assert atkinson_index([2, 4, 6], [4, 8, 12], beta) == pytest.approx(0.0, abs=1e-9)
            assert atkinson_index([5, 0], [5, 5], beta) == pytest.approx(1.0, abs=1e-12)
        rng = np.random.default_rng(7)
        configs = 0
        for _ in range(1000):
            n_units = int(rng.integers(1, 10))
            totals = rng.integers(1, 40, size=n_units)
            minority = np.array([rng.integers(0, t + 1) for t in totals])
            if minority.sum() in (0, totals.sum()):
                continue
            for beta in (0.1, 0.5, 0.9):
                value = atkinson_index(minority, totals, beta)
                assert -1e-12 <= value <= 1.0 + 1e-12, (minority, totals, beta)
            configs += 1
        # two-member component closed form: off-diagonal weight c
        from effortsim.dataset import Feature, FeatureKind, FeatureSchema, Population

        schema = FeatureSchema(
            features=(
                Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False),
                Feature("club", FeatureKind("categorical", levels=("no", "yes")), mutable=True),
            ),
            sensitive="grp",
            label="y",
        )
        X = np.array([[0, 0], [0, 1], [1, 0]], dtype=float)
        pop2 = Population(schema, X, np.zeros(3), ["g1", "g1", "g2"])
        ctx2 = MetricContext(pop2, EffortParams(categorical_cost=0.5), "g1")
        assert distance_indices(ctx2, pop2)[1] == pytest.approx(
            math.exp(-0.5), abs=1e-8
        )
        pop, params, _, _ = random_instance(200)
        ctx = MetricContext(pop, params, pop.group_names[0])
        base, _ = distance_indices(ctx, pop)
        perm = np.random.default_rng(3).permutation(pop.size)
        shuffled = Population(
            pop.schema, pop.X[perm], pop.y[perm], [pop.groups[i] for i in perm]
        )
        shuffled_aci, _ = distance_indices(ctx, shuffled)
        assert shuffled_aci == pytest.approx(base, abs=1e-10)
        rec.detail = (
            f"Atkinson bounds on {configs} random configurations x 3 betas, "
            "SSI closed form, ACI permutation-invariant"
        )


def test_criterion_7_dynamics_invariants(config, student_split, tmp_path):
    with _record("7 dynamics invariants") as rec:
        train, _ = student_split
        params = config.effort
        audited_changes = 0
        efforts = EffortEngine(train, params).pairwise_effort(train, mutable_only=True)
        models = [fit_model(spec, train, config) for spec in config.models]
        for h, impact in zip(models, simulate(models, train, params)):
            preds_before = h.predict(train)
            preds_after = h.predict(impact.impacted)
            own = risk_adjusted(benefit_value(params.benefit, train.y, preds_before), params.alpha)
            mutable = train.schema.mutable_mask
            for o in impact.outcomes:
                i = o.individual_index
                assert np.array_equal(impact.impacted.X[i, ~mutable], train.X[i, ~mutable])
                assert impact.impacted.groups[i] == train.groups[i]
                if not o.changed:
                    continue
                audited_changes += 1
                assert o.utility > 0.0
                assert preds_after[i] > preds_before[i]
                # exhaustive candidate audit: every imitation target of row i
                targets = train.X.copy()
                targets[:, ~mutable] = train.X[i, ~mutable]
                preds = h.predict_rows(train.schema, targets)
                target_benefit = risk_adjusted(
                    benefit_value(params.benefit, train.y, preds), params.alpha
                )
                utilities = target_benefit - own[i] - efforts[i]
                assert o.utility >= float(np.max(utilities)) - 1e-12
        flat = fit_tree(train, 0)
        [fixed] = simulate([flat], train, params)
        ref_a, ref_b = tmp_path / "dyn_a.csv", tmp_path / "dyn_b.csv"
        write_csv(train, ref_a)
        write_csv(fixed.impacted, ref_b)
        assert ref_a.read_bytes() == ref_b.read_bytes()
        rec.detail = (
            f"{audited_changes} moves audited across {len(config.models)} models; "
            "constant predictor reproduces its population byte-for-byte"
        )


def test_criterion_8_tau_sweep_sanity(config, student_split, pipeline):
    with _record("8 tau-sweep sanity") as rec:
        train, _ = student_split
        minority = config.minority
        h0 = fit_constrained_linear(train, 0.0, config.effort, minority)
        hl = fit_linear(train)
        assert np.array_equal(h0.weights, hl.weights) and h0.intercept == hl.intercept
        out, _ = pipeline
        seg_rows = (out / "segregation.csv").read_text().strip().splitlines()[1:]
        sweep_rows = (out / "tau_sweep.csv").read_text().strip().splitlines()[1:]
        seg = {}
        for line in seg_rows:
            model, measure, population, value = line.split(",")
            if model == "linear" and population == "impacted":
                seg[measure] = value
        gaps = {}
        for line in sweep_rows:
            tau, measure, value = line.split(",")
            if measure == "benefit_gap":
                gaps[float(tau)] = float(value)
            elif float(tau) == 0.0:
                assert value == seg[measure], (measure, value, seg[measure])
        taus = sorted(gaps)
        assert gaps[taus[-1]] <= gaps[taus[0]] + 1e-12
        rec.detail = (
            "tau=0 rows bit-identical to the unconstrained linear run; benefit gap "
            f"{gaps[taus[0]]:.4f} -> {gaps[taus[-1]]:.4f} at tau={taus[-1]}"
        )


def test_criterion_9_determinism_and_runtime(config, pipeline, tmp_path):
    with _record("9 determinism and runtime") as rec:
        out1, elapsed = pipeline
        assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"
        out2 = tmp_path / "rerun"
        cmd_fairness(config, out2)
        cmd_simulate(config, out2)
        cmd_sweep_tau(config, out2)
        cmd_figures(out2)
        manifests = sorted(p.name for p in out1.glob("manifest_*.json"))
        assert manifests == ["manifest_fairness.json", "manifest_simulate.json", "manifest_sweep_tau.json"]
        for name in manifests:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        for p in sorted(out1.iterdir()):
            if p.name.startswith("timings_"):
                continue
            assert (out2 / p.name).read_bytes() == p.read_bytes(), p.name
        rec.detail = (
            f"two full runs byte-identical ({len(manifests)} manifests); "
            f"pipeline wall clock {elapsed:.1f}s < 120s"
        )


# sha256 of every output of the bundled pipeline apart from the timings. A
# change that moves one of them is a declared output change: it says why in
# CHANGES.md and updates the entry here.
BUNDLED_SHA256 = {
    "bounded_effort_curves.csv": "4a9a609f9c680eeb9b33f0826586dd18f2581eb0f3cdbcb34e0e42090547eb8d",
    "bounded_effort_curves.svg": "9054921482be30f1d8121313ebeee3611be1cea139fbb001577be8fe907bb6b3",
    "fairness_bars.csv": "a4488ed920b83d497d9c9ac8b3ee35ab38ab07e8e3ad73a49f118e375a7287d1",
    "fairness_bars.svg": "ffd33b81806228e02e9eea009f9278893849b5e68ea08978df8ce66754d2b1ef",
    "fairness_report.json": "ef41da5fac9fc2d3a82b9279a8bd8790320066f436e6253da041bdbb8d58d969",
    "impacted_linear.csv": "a7e7af22b69a1b2f47aa9c2405c0914994c4d8b7efe82b467390300792bc30cd",
    "impacted_ridge_combined.csv": "2a2d095d4b2921f37958ed07a9c2726c5ccf9c99d06bd57df8c84dc30d81b5b9",
    "impacted_ridge_mutable.csv": "83cff316b54deccc35685c625459ed65fa591c2d418e4f1702a6733ed36388c2",
    "impacted_tree.csv": "83f7487fe9b47c0ab16e85989aece54455209965f73ec246a03c509a5d9c0001",
    "mae_report.json": "18f9677d6e5b103761bfaa9a4a247dea8412d76173d3d998c1188d77cba65a6f",
    "manifest_fairness.json": "5a29a8f16f5b9c365392dde4e5b4c27f1310701568483abb64b48d5cd45c3970",
    "manifest_simulate.json": "a73af5f1785dc74d08dd4199e2cc2a3f0d82529259f8079983a1c4ae7296ad19",
    "manifest_sweep_tau.json": "07c7128d7cd4483df57349ea213d4fb017fa4fca00a76ecb3dce26211b7934ab",
    "models.json": "a72dc4072431b4ac29af91caaae85c8b16f118a41e2bc69dd4e81707842bc2ae",
    "outcomes_linear.json": "a77f9d4e26ae1cdcb58963aae9bd2d0223a678bd72ceadfe1015162623b79917",
    "outcomes_ridge_combined.json": "b5522da57ec4d3cfc8be7164a8956e6b8d44c67782ca11eda0967d02b2307d5c",
    "outcomes_ridge_mutable.json": "604328788099ac3219c4d4060b5243241ecd1aef65ec75367764b2eed0767be8",
    "outcomes_tree.json": "d346245f07c55b63c2bbd11b26a712819f89a19324d849d323038025c9ba5205",
    "segregation.csv": "e93e36f76158dedb7e4c2d8a7ce9f150dea1b2c918fb2cdd54a03757ddaf8a55",
    "segregation.svg": "800e867ea796588fc2e9bf69cc80f02842d61f2390bfa5e8f9537b881d260a0d",
    "shift_linear.json": "92c6f0de955d1bf65d308994180b3cd858d487f6980425252436a682ff683d88",
    "shift_ridge_combined.json": "8fa746841564b0d0759ff719a72d4534da91bd171596b6a73500b5358fcc438b",
    "shift_ridge_mutable.json": "7f0885edca66ca17dc04a3cb8dcece167ee5e0bf2097c95df4f27a304a7e2196",
    "shift_tree.json": "18e1a425ed43cfb33b7dfd0f600f6ad0dc6bc9817f60c736f8e91b76e7c9bbd5",
    "simulate_report.json": "311e56a1a0e2082192b069609d6d58147c4083fab301c54bbf594892eca10d63",
    "tau_report.json": "ea65f5c440adebd10b7d9740ed8deb6b5b7ae1fcffd7a0e164040cf9af840974",
    "tau_sweep.csv": "0da30408b62c3e041c9dcb459d1c22ec48c4a9544ce042ef4293af75331b41c0",
    "tau_sweep.svg": "be7cdb8c0ca48a3e21e9181827a7dd067ffee1b448f5de8b8ac0622e0d9f2ef6",
    "threshold_reward_curves.csv": "57134b1b06add62b5b7b16222fa7852f046551f0f6b9ee5f28bebd0b1752ff07",
    "threshold_reward_curves.svg": "9c800943ce6411f194770f16aa5ba6388f5918bccaca7a999b4dc81e331f39f1",
}


def _differ_from_pins(out, pins: dict) -> list[str]:
    """The outputs in ``out`` (timings aside) and in ``pins`` whose sha256 is not the pinned one."""
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in out.iterdir()
        if not p.name.startswith("timings_")
    }
    return sorted(name for name in got.keys() | pins.keys() if got.get(name) != pins.get(name))


def test_bundled_outputs_keep_their_sha256(pipeline):
    out, _ = pipeline
    differ = _differ_from_pins(out, BUNDLED_SHA256)
    assert not differ, f"outputs that differ from the pinned table: {', '.join(differ)}"


def _run_config(run_dir: Path, raw: dict, commands) -> Path:
    """Write ``raw`` as ``run_dir/config.json``, run ``commands`` on it into ``run_dir/out``; return that."""
    path = run_dir / "config.json"
    path.write_text(json.dumps(raw, indent=2), encoding="utf-8")
    config = load_config(path)
    for command in commands:
        command(config, run_dir / "out")
    return run_dir / "out"


def _bundled_config(**changes) -> dict:
    raw = json.loads(data_path("student_config.json").read_text(encoding="utf-8"))
    raw.update(changes)
    return raw


# The synthetic workloads of the benchmark: a 3000-row population on the
# bundled schema (F:M = 2:3, mean shift 0.5) from the seed, split with the
# seed, audited with one linear model or simulated with one depth-5 tree.
SYNTH_RUNS = {
    "synth-audit": ({"name": "linear", "kind": "linear", "features": "all"}, cmd_fairness),
    "synth-impact": ({"name": "tree", "kind": "tree", "max_depth": 5, "features": "all"}, cmd_simulate),
}

# sha256 of every output of those runs and of their charts apart from the
# timings, for seeds 3 and 11. Blank values in the threshold-reward curves
# leave gaps in their lines, which no bundled chart has. The config names its
# files by relative paths, so the config hash in the manifests does not
# depend on where the run happens.
SYNTH_SHA256 = {
    ("synth-audit", 3): {
        "bounded_effort_curves.csv": "483aff8823022e3ed3c5c5890dce692c8218d262a2fca4b6833bcaf07594f6ce",
        "bounded_effort_curves.svg": "adb1c2f2ddb6b43b2d01c02dc68fda1b279894babc5ae95252a6197892a46b23",
        "fairness_bars.csv": "0c3dedf28c4e554a2bd75904d6b459f5d2b9dd3b6035f4ed942f3cb99efed073",
        "fairness_bars.svg": "ea183af269dc273f5b6c1cf104df7b16edbc81deab6b7e457f8b2a636132c0a6",
        "fairness_report.json": "94fedbd3b93c6192574b62f48ad0ea9d4355f01a9c387e766330e75159c12d2d",
        "mae_report.json": "93ba67987b080c0ef984247212c1ab37515d72d4a470adc1829d4a72b94b334b",
        "manifest_fairness.json": "d604a7b0480ac42ae305bc827207ebac40a06045aea7958aeb9b4427a29bf937",
        "models.json": "fc1881b42a3853f8403c71b5510eeb7b2c5603157929e183531731cf700b683e",
        "threshold_reward_curves.csv": "091b1210beeba5fd1741f2deee8381a6a65f3c834b972803b7d2c5441bbf8c2c",
        "threshold_reward_curves.svg": "03811b626ea82ab4e7fb781eb83fe31bbbaed59acf12b697da58d913e1095559",
    },
    ("synth-audit", 11): {
        "bounded_effort_curves.csv": "d6aa78762633e167927ac989df2b094f49e56a27d205425a10c33ee85ea03e9a",
        "bounded_effort_curves.svg": "345e9d77e72881779a6ed99905fe6444611c84bbf8322eb15bb8585382817f3d",
        "fairness_bars.csv": "bd53a3679602e12d42df3bcf5a008c71b50808c6c4338a84b2618127db0bbe0a",
        "fairness_bars.svg": "7b84dbd3a131266f10c5b9739a9145f788f853819c7d7d5ec2fc7709e2fcb98d",
        "fairness_report.json": "de7c65cc2bfd9436c738fb5b691c83c3b64e3881fe42d64a8a9d3a483559112b",
        "mae_report.json": "67e1eca9b2f5f3b1676df63b44c28658353ea047bdceb5cdfca17a9c3c0bd34f",
        "manifest_fairness.json": "db004b87ed05ba2e512426ffaddde962bba5ef007a37e596283ea9ba9010ff2a",
        "models.json": "034a654d07d7945c15e27e745c395105532e985455a1e99023c6751b7822308c",
        "threshold_reward_curves.csv": "ec4eed6ae76be3cafca0663cc6aa761cb91ac24de02f051e30453e7965a93d6f",
        "threshold_reward_curves.svg": "b9f14602a1f93714eb5110f92a499150330259ed17c74dca94ac04da3521f4d3",
    },
    ("synth-impact", 3): {
        "impacted_tree.csv": "e2e076fe39ae29b43bb4753f14108ad2f47109d980ea5a37ba09132335c3c8e8",
        "manifest_simulate.json": "db1757f2044c577260dc17d8cf6507bd5d1600aff25b189fbe26a46ebee7fb13",
        "outcomes_tree.json": "cfa0e2dc1072bb67c564b137395037f8c62c4e18a9492990181ae72c02746c72",
        "segregation.csv": "41b14d6fcdf893e241ba89c52f401adc09c4732ee4f3bbc501e1fabe3e13ea9c",
        "segregation.svg": "54fa3f444d4ea3320ce4b50d777cc834f27cc98e44b816bc2ae80b1766ae7999",
        "shift_tree.json": "9fd3c4c00161acc7f25723ff58d160c5be0ecae59db042192d594de25d45eafd",
        "simulate_report.json": "b749c00c0d0a72afcab60154ec754e8f6a7527140bf8bb55a8fc4f2534a2c768",
    },
    ("synth-impact", 11): {
        "impacted_tree.csv": "9fd4f854d68029a2b02f4d7df37e0a1eb0cf9707cef2b449b7ea7e531fa50e8d",
        "manifest_simulate.json": "f436542f41ffaa1c818158bc3e164c39e6099a45fd147313bf2d974a92fc4226",
        "outcomes_tree.json": "6a08f255ed66d2702646d002a577c7212f118730b7772ea5273a8a543348be44",
        "segregation.csv": "c2a1fab915a95b4ad6ea431f1ff3a2b0ed7bff5db441ddd315e139cd67a4a84b",
        "segregation.svg": "83b0f28fc6e44771ae12212a1ebafc61ccdfb2cca58c2fb917adad7d6dcf3052",
        "shift_tree.json": "330ca064f1b7cdc4fb054cbe55e66218def70c146882cbd76742b778632a5989",
        "simulate_report.json": "4ee777f2c917a17b69f10b0e9b3352f3ee52553305796df90119c239f39de90e",
    },
}


@pytest.mark.parametrize("workload, seed", sorted(SYNTH_SHA256))
def test_synthetic_outputs_keep_their_sha256(tmp_path, workload, seed):
    shutil.copy(data_path("student_schema.json"), tmp_path / "student_schema.json")
    schema = load_schema(tmp_path / "student_schema.json")
    write_csv(generate_synthetic(schema, {"F": 1200, "M": 1800}, seed, shift=0.5), tmp_path / "population.csv")
    model, command = SYNTH_RUNS[workload]
    raw = _bundled_config(
        dataset="population.csv",
        seed=seed,
        split={"train_fraction": 0.7, "seed": seed},
        models=[model],
    )
    out = _run_config(tmp_path, raw, [command])
    cmd_figures(out)
    differ = _differ_from_pins(out, SYNTH_SHA256[workload, seed])
    assert not differ, f"outputs that differ from the pinned table: {', '.join(differ)}"


# Outputs that see a feature only through the order of its values within
# each group, so a strictly increasing recoding of a column keeps their bytes.
ORDER_ONLY_OUTPUTS = (
    "bounded_effort_curves.csv",
    "threshold_reward_curves.csv",
    "fairness_bars.csv",
    "fairness_report.json",
    "mae_report.json",
    "outcomes_tree.json",
    "segregation.csv",
)


def test_increasing_recoding_keeps_order_only_outputs(student_pop, tmp_path):
    X = student_pop.X.copy()
    recodings = {
        "absences": lambda x: x**3 + 2 * x + 5,  # numerical monotone
        "studytime": lambda x: 10 * x + 0.25,  # ordinal monotone
        "age": lambda x: 2 * x + 1,  # conditionally immutable
    }
    for name, recode in recodings.items():
        k = student_pop.schema.index(name)
        X[:, k] = recode(X[:, k])
    recoded = Population(student_pop.schema, X, student_pop.y, list(student_pop.groups))
    write_csv(recoded, tmp_path / "recoded.csv")
    tree = [m for m in _bundled_config()["models"] if m["name"] == "tree"]
    outs = []
    for dataset in (data_path("student_por_synthetic.csv"), tmp_path / "recoded.csv"):
        (tmp_path / dataset.stem).mkdir()
        raw = _bundled_config(dataset=str(dataset), schema=str(data_path("student_schema.json")), models=tree)
        outs.append(_run_config(tmp_path / dataset.stem, raw, [cmd_fairness, cmd_simulate]))
    differ = [name for name in ORDER_ONLY_OUTPUTS if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes()]
    assert not differ, f"outputs that a recoding moved: {', '.join(differ)}"
    # the recoding reaches the model: its thresholds are printed in the new coding
    assert (outs[0] / "models.json").read_bytes() != (outs[1] / "models.json").read_bytes()
