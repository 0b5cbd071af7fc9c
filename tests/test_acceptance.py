"""Acceptance gate: one test per shipped criterion, summary line each.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion
PASS/FAIL lines appear in the terminal summary section.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

import oracles
from conftest import ACCEPTANCE_LINES, run_simulate
from effortsim import data_path
from effortsim.dataset import load_csv, restrict_features, split, write_csv
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
        assert pop.schema.binary_count() == 10
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
        audit = FairnessAudit(train, params, "predicted")
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
        audit = FairnessAudit(train, config.effort, config.benefit)
        for spec in config.models:
            h = fit_model(spec, train, config)
            grid = audit.default_grid(h, BOUNDED_EFFORT, 20)
            curve = audit.sweep(h, BOUNDED_EFFORT, grid)
            lo = audit.bounded_effort(h, 0.0).per_group_value
            hi = audit.bounded_effort(h, math.inf).per_group_value
            for g, vals in curve.per_group_values.items():
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])), (spec.name, g)
                assert vals[0] == lo[g] and vals[-1] == hi[g], (spec.name, g)
                checked += 1
            tgrid = audit.default_grid(h, THRESHOLD_REWARD, 20)
            tcurve = audit.sweep(h, THRESHOLD_REWARD, tgrid)
            t0 = audit.threshold_reward(h, tgrid[0]).per_group_value
            t_end = audit.threshold_reward(h, tgrid[-1]).per_group_value
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
                feas = (rewards >= delta) & np.isfinite(audit.efforts)
                mins = np.where(feas, audit.efforts, np.inf).min(axis=1)
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
            audit = FairnessAudit(pop, params, benefit)
            E = oracles.effort_matrix(pop, params)
            finite = audit.efforts[np.isfinite(audit.efforts)]
            deltas = (0.0, float(np.median(finite)), float(finite.max()))
            for delta in deltas:
                got = audit.bounded_effort(h, delta).per_group_value
                want = oracles.bounded_effort(h, pop, params, benefit, delta, E)
                for g in want:
                    assert abs(got[g] - want[g]) <= 1e-10, ("bounded", seed, delta, g)
            b = audit.benefits(h)
            hi = float(b.max() - b.min())
            for delta in (0.0, hi / 3, hi):
                got_rep = audit.threshold_reward(h, delta)
                want_vals, want_feas = oracles.threshold_reward(h, pop, params, benefit, delta, E)
                for g in want_vals:
                    if want_vals[g] is None:
                        assert got_rep.per_group_value[g] is None
                    else:
                        assert abs(got_rep.per_group_value[g] - want_vals[g]) <= 1e-10
                    assert got_rep.feasibility[g] == want_feas[g]
            got_er = audit.effort_reward(h).per_group_value
            want_er = oracles.effort_reward(h, pop, params, benefit, E)
            for g in want_er:
                assert abs(got_er[g] - want_er[g]) <= 1e-10, ("effort_reward", seed, g)
            outcomes = run_simulate(h, pop, params, benefit).outcomes
            for i in range(pop.size):
                got = outcomes[i]
                want_idx, want_u = oracles.role_model(h, pop, params, benefit, i)
                assert got.role_model_index == want_idx, ("role_model", seed, i)
                if want_idx is not None:
                    assert abs(got.exerted.utility - want_u) <= 1e-10
            minority = pop.group_names[0]
            ctx = MetricContext(pop, params, minority)
            got_aci, _ = distance_indices(ctx, pop, 1e-6)
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
        assert distance_indices(ctx2, pop2, 1e-6)[1] == pytest.approx(
            math.exp(-0.5), abs=1e-8
        )
        pop, params, _, _ = random_instance(200)
        ctx = MetricContext(pop, params, pop.group_names[0])
        base, _ = distance_indices(ctx, pop, 1e-6)
        perm = np.random.default_rng(3).permutation(pop.size)
        shuffled = Population(
            pop.schema, pop.X[perm], pop.y[perm], [pop.groups[i] for i in perm]
        )
        shuffled_aci, _ = distance_indices(ctx, shuffled, 1e-6)
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
        for h, impact in zip(models, simulate(models, train, params, config.benefit)):
            preds_before = h.predict(train)
            preds_after = h.predict(impact.impacted)
            own = risk_adjusted(benefit_value(config.benefit, train.y, preds_before), params.alpha)
            mutable = train.schema.mutable_mask
            for o in impact.outcomes:
                i = o.individual_index
                assert np.array_equal(impact.impacted.X[i, ~mutable], train.X[i, ~mutable])
                assert impact.impacted.groups[i] == train.groups[i]
                if not o.changed:
                    continue
                audited_changes += 1
                assert o.exerted.utility > 0.0
                assert preds_after[i] > preds_before[i]
                # exhaustive candidate audit: every imitation target of row i
                targets = train.X.copy()
                targets[:, ~mutable] = train.X[i, ~mutable]
                preds = h.predict_rows(train.schema, targets)
                target_benefit = risk_adjusted(
                    benefit_value(config.benefit, train.y, preds), params.alpha
                )
                utilities = target_benefit - own[i] - efforts[i]
                assert o.exerted.utility >= float(np.max(utilities)) - 1e-12
        flat = fit_tree(train, 0)
        [fixed] = simulate([flat], train, params, config.benefit)
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
        h0 = fit_constrained_linear(train, 0.0, config.benefit, minority)
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
