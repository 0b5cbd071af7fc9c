from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from conftest import single_group_pop, sweep_point
from effortsim import effort, fairness
from effortsim.dataset import Feature, FeatureKind, FeatureSchema, Population
from effortsim.effort import EffortParams
from effortsim.fairness import (
    BOUNDED_EFFORT,
    THRESHOLD_REWARD,
    FairnessAudit,
    residual_differences,
)
from effortsim.models import LinearPredictor, fit_tree
from instances import random_instance


def _skill_model(pop, weight=1.0, intercept=0.0):
    w = np.zeros(pop.schema.size)
    w[pop.schema.index("skill")] = weight
    return LinearPredictor(pop.schema.names, w, intercept)


def _two_group_skill_pop():
    schema = FeatureSchema(
        features=(
            Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False),
            Feature("skill", FeatureKind("numerical_monotone", direction="increasing"), mutable=True),
        ),
        sensitive="grp",
        label="y",
    )
    X = np.array([[0, 1], [0, 3], [1, 2], [1, 4]], dtype=float)
    y = np.zeros(4)
    return Population(schema, X, y, ["g1", "g1", "g2", "g2"])


class TestBoundedEffort:
    def test_zero_budget_with_base_cost_means_nobody_moves(self):
        pop = _two_group_skill_pop()
        h = _skill_model(pop)
        audit = FairnessAudit(pop, EffortParams(base_cost=0.1), "predicted")
        values, _ = sweep_point(audit, h, BOUNDED_EFFORT, 0.0)
        assert values == {"g1": 0.0, "g2": 0.0}
        assert fairness._disparity(values) == 0.0

    def test_unbounded_budget_reaches_best_candidate(self):
        pop = _two_group_skill_pop()
        h = _skill_model(pop)
        params = EffortParams()
        audit = FairnessAudit(pop, params, "predicted")
        values, _ = sweep_point(audit, h, BOUNDED_EFFORT, math.inf)
        want = oracles.bounded_effort(h, pop, params, "predicted", math.inf)
        assert values == pytest.approx(want, abs=1e-12)

    def test_matches_bruteforce_on_random_instances(self):
        for seed in range(6):
            pop, params, h, benefit = random_instance(seed)
            audit = FairnessAudit(pop, params, benefit)
            finite = audit.efforts[np.isfinite(audit.efforts)]
            for delta in (0.0, float(np.median(finite)), float(finite.max())):
                got, _ = sweep_point(audit, h, BOUNDED_EFFORT, delta)
                want = oracles.bounded_effort(h, pop, params, benefit, delta)
                for g in want:
                    assert got[g] == pytest.approx(want[g], abs=1e-10)

    def test_negative_budget_rejected(self):
        pop = _two_group_skill_pop()
        audit = FairnessAudit(pop, EffortParams(), "predicted")
        with pytest.raises(ValueError):
            sweep_point(audit, _skill_model(pop), BOUNDED_EFFORT, -0.5)


class TestThresholdReward:
    def test_self_candidate_makes_zero_threshold_free(self):
        pop = _two_group_skill_pop()
        h = _skill_model(pop)
        audit = FairnessAudit(pop, EffortParams(), "predicted")
        values, feasibility = sweep_point(audit, h, THRESHOLD_REWARD, 0.0)
        assert values == {"g1": 0.0, "g2": 0.0}
        assert feasibility == {"g1": 1.0, "g2": 1.0}

    def test_unreachable_threshold_reports_absent(self):
        pop = _two_group_skill_pop()
        h = _skill_model(pop)
        audit = FairnessAudit(pop, EffortParams(), "predicted")
        values, feasibility = sweep_point(audit, h, THRESHOLD_REWARD, 1e9)
        assert values == {"g1": None, "g2": None}
        assert feasibility == {"g1": 0.0, "g2": 0.0}
        assert fairness._disparity(values) is None

    def test_matches_bruteforce_on_random_instances(self):
        for seed in range(6, 12):
            pop, params, h, benefit = random_instance(seed)
            audit = FairnessAudit(pop, params, benefit)
            b = audit.benefits(h)
            hi = float(b.max() - b.min())
            for delta in (0.0, hi / 2, hi):
                got, got_feas = sweep_point(audit, h, THRESHOLD_REWARD, delta)
                want_vals, want_feas = oracles.threshold_reward(h, pop, params, benefit, delta)
                for g in want_vals:
                    if want_vals[g] is None:
                        assert got[g] is None
                    else:
                        assert got[g] == pytest.approx(want_vals[g], abs=1e-10)
                    assert got_feas[g] == pytest.approx(want_feas[g], abs=1e-12)


class TestEffortReward:
    def test_constant_predictor_floors_at_stay_put(self):
        pop = _two_group_skill_pop()
        h = _skill_model(pop, weight=0.0, intercept=5.0)
        rep = FairnessAudit(pop, EffortParams(), "predicted").effort_reward(h)
        assert rep.per_group_value == {"g1": 0.0, "g2": 0.0}
        assert rep.disparity == 0.0

    def test_matches_bruteforce_on_random_instances(self):
        for seed in range(12, 18):
            pop, params, h, benefit = random_instance(seed)
            got = FairnessAudit(pop, params, benefit).effort_reward(h).per_group_value
            want = oracles.effort_reward(h, pop, params, benefit)
            for g in want:
                assert got[g] == pytest.approx(want[g], abs=1e-10)

    def test_dominates_every_candidate(self):
        pop, params, h, benefit = random_instance(18)
        audit = FairnessAudit(pop, params, benefit)
        rep = audit.effort_reward(h)
        b = audit.benefits(h)
        utilities = b[None, :] - b[:, None] - audit.efforts
        best = np.maximum(np.max(utilities, axis=1), 0.0)
        for i in range(pop.size):
            assert best[i] + 1e-12 >= np.max(utilities[i])
            assert best[i] >= 0.0

    def test_single_group_disparity_zero(self):
        pop = single_group_pop([1, 2, 3, 4])
        h = _skill_model(pop)
        assert FairnessAudit(pop, EffortParams(), "predicted").effort_reward(h).disparity == 0.0

    def test_permutation_invariance(self):
        pop, params, h, benefit = random_instance(19)
        perm = np.random.default_rng(0).permutation(pop.size)
        shuffled = Population(
            pop.schema, pop.X[perm], pop.y[perm], [pop.groups[i] for i in perm]
        )
        a = FairnessAudit(pop, params, benefit).effort_reward(h).per_group_value
        b = FairnessAudit(shuffled, params, benefit).effort_reward(h).per_group_value
        assert a == pytest.approx(b, abs=1e-12)


class TestResidualDifferences:
    def test_perfect_predictor_absent(self):
        pop = single_group_pop([1, 2, 3], labels=[1, 2, 3])
        h = _skill_model(pop)
        pos, neg = residual_differences(h, pop)
        assert pos.per_group_value == {"g1": None}
        assert neg.per_group_value == {"g1": None}
        assert pos.disparity is None and neg.disparity is None

    def test_hand_worked_example(self):
        # group g1 residuals {+2, -1}; group g2 residuals {+1, +1}
        pop = _two_group_skill_pop()
        X = pop.X.copy()
        X[:, 1] = [2.0, -1.0, 1.0, 1.0]
        pop = Population(pop.schema, X, np.zeros(4), list(pop.groups))
        h = _skill_model(pop)
        pos, neg = residual_differences(h, pop)
        assert pos.per_group_value == {"g1": 2.0, "g2": 1.0}
        assert pos.disparity == pytest.approx(1.0)
        assert neg.per_group_value["g1"] == pytest.approx(1.0)
        assert neg.per_group_value["g2"] is None
        assert neg.disparity is None


class TestSweep:
    def test_grid_must_be_sorted(self):
        pop, params, h, benefit = random_instance(20)
        with pytest.raises(ValueError):
            FairnessAudit(pop, params, benefit).sweep(h, BOUNDED_EFFORT, [1.0, 0.5])

    def test_curves_nondecreasing_and_match_pointwise(self):
        for seed in (23, 24):
            pop, params, h, benefit = random_instance(seed)
            audit = FairnessAudit(pop, params, benefit)
            grid = audit.default_grid(h, BOUNDED_EFFORT, 8)
            curve = audit.sweep(h, BOUNDED_EFFORT, grid)
            for g, vals in curve.per_group_values.items():
                assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
                for d, v in zip(curve.deltas, vals):
                    assert v == sweep_point(audit, h, BOUNDED_EFFORT, d)[0][g]
            tgrid = audit.default_grid(h, THRESHOLD_REWARD, 8)
            tcurve = audit.sweep(h, THRESHOLD_REWARD, tgrid)
            for g, vals in tcurve.per_group_values.items():
                present = [v for v in vals if v is not None]
                assert all(a <= b + 1e-12 for a, b in zip(present, present[1:]))

    def test_endpoints_match_closed_forms(self):
        pop, params, h, benefit = random_instance(25)
        audit = FairnessAudit(pop, params, benefit)
        grid = audit.default_grid(h, BOUNDED_EFFORT, 6)
        curve = audit.sweep(h, BOUNDED_EFFORT, grid)
        lo, _ = sweep_point(audit, h, BOUNDED_EFFORT, 0.0)
        hi, _ = sweep_point(audit, h, BOUNDED_EFFORT, math.inf)
        for g in lo:
            assert curve.per_group_values[g][0] == lo[g]
            # the top of the default grid admits every finite-effort candidate
            assert curve.per_group_values[g][-1] == hi[g]

    def test_grid_top_is_scanned_once_per_audit(self, monkeypatch):
        pop, params, h, benefit = random_instance(23)
        audit = FairnessAudit(pop, params, benefit)
        scans = []
        original = fairness.row_tiles

        def counting(n_rows, n_cols):
            scans.append(n_rows)
            return original(n_rows, n_cols)

        monkeypatch.setattr(fairness, "row_tiles", counting)
        flat = LinearPredictor(pop.schema.names, np.zeros(pop.schema.size), 1.0)
        grids = [audit.default_grid(model, BOUNDED_EFFORT, 5) for model in (h, flat, h)]
        assert len(scans) == 1
        finite = audit.efforts[np.isfinite(audit.efforts)]
        assert grids[0] == grids[1] == grids[2]
        assert grids[0][-1] == float(finite.max())

    def test_rows_layout(self):
        pop, params, h, benefit = random_instance(26)
        curve = FairnessAudit(pop, params, benefit).sweep(h, BOUNDED_EFFORT, [0.0, 0.1])
        assert curve.deltas == (0.0, 0.1)
        assert sorted(curve.per_group_values) == list(pop.group_names)
        assert all(len(vals) == 2 for vals in curve.per_group_values.values())


def _sweep_cases():
    """(population, params, predictor, benefit) with random, tied or constant benefits.

    Groups stay under eight members, so numpy's group mean adds in the same
    order as the oracle's loop and the comparison can be exact.
    """
    for seed in range(30, 42):
        pop, params, h, benefit = random_instance(seed, max_individuals=10)
        by_group = np.zeros(pop.schema.size)
        by_group[pop.schema.index("grp")] = 1.5
        for model in (
            h,
            LinearPredictor(pop.schema.names, by_group, 0.25),
            LinearPredictor(pop.schema.names, np.zeros(pop.schema.size), 1.0),
        ):
            yield pop, params, model, benefit


class TestOnePassSweep:
    @pytest.fixture(autouse=True)
    def three_row_tiles(self, monkeypatch):
        # Tiles of three rows, so every audit here crosses tile boundaries.
        monkeypatch.setattr(effort, "tile_rows", lambda n_cols: 3)

    def test_bounded_effort_equals_oracle(self):
        saw_inf = saw_ties = False
        for pop, params, h, benefit in _sweep_cases():
            audit = FairnessAudit(pop, params, benefit)
            saw_inf |= bool(np.isinf(audit.efforts).any())
            saw_ties |= len(set(audit.benefits(h).tolist())) < pop.size
            finite = np.unique(audit.efforts[np.isfinite(audit.efforts)])
            grid = sorted({0.0, *finite[:: max(1, finite.size // 6)].tolist(), math.inf})
            curve = audit.sweep(h, BOUNDED_EFFORT, grid)
            E = oracles.effort_matrix(pop, params)
            for col, delta in enumerate(grid):
                want = oracles.bounded_effort(h, pop, params, benefit, delta, E)
                for g in pop.group_names:
                    assert curve.per_group_values[g][col] == want[g], (delta, g)
        assert saw_inf and saw_ties

    def test_threshold_reward_equals_oracle(self):
        for pop, params, h, benefit in _sweep_cases():
            audit = FairnessAudit(pop, params, benefit)
            b = audit.benefits(h)
            rewards = np.unique(b[None, :] - b[:, None])
            grid = sorted({-math.inf, *rewards[:: max(1, rewards.size // 6)].tolist(), math.inf})
            curve = audit.sweep(h, THRESHOLD_REWARD, grid)
            E = oracles.effort_matrix(pop, params)
            for col, delta in enumerate(grid):
                want_vals, want_feas = oracles.threshold_reward(h, pop, params, benefit, delta, E)
                for g in pop.group_names:
                    assert curve.per_group_values[g][col] == want_vals[g], (delta, g)
                    assert curve.per_group_feasibility[g][col] == want_feas[g], (delta, g)

    def test_rewards_are_not_stored(self):
        pop, params, h, benefit = random_instance(43)
        audit = FairnessAudit(pop, params, benefit)
        audit.sweep(h, THRESHOLD_REWARD, audit.default_grid(h, THRESHOLD_REWARD, 5))
        assert "rewards" not in vars(audit)
        b = audit.benefits(h)
        top = float(b.max() - b.min())
        assert audit.default_grid(h, THRESHOLD_REWARD, 5)[-1] == max(top, 0.0)


class TestTreePredictorIntegration:
    def test_audit_works_with_trees(self):
        pop, params, _, benefit = random_instance(27)
        h = fit_tree(pop, 3)
        got = FairnessAudit(pop, params, benefit).effort_reward(h).per_group_value
        want = oracles.effort_reward(h, pop, params, benefit)
        for g in want:
            assert got[g] == pytest.approx(want[g], abs=1e-10)
