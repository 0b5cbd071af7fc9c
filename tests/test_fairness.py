from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from conftest import count_effort_walks, single_group_pop, sweep_point, synthetic_student_pop, toy_schema
from effortsim import effort, fairness
from effortsim.dataset import Feature, FeatureKind, FeatureSchema, Population
from effortsim.effort import EffortEngine, EffortParams
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


def _dense_efforts(pop, params):
    """The full n x n effort matrix, which the audit itself never holds."""
    return EffortEngine(pop, params).pairwise_effort(pop)


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
        audit = FairnessAudit(pop, EffortParams(base_cost=0.1), [h])
        values, _ = sweep_point(audit, h, BOUNDED_EFFORT, 0.0)
        assert values == {"g1": 0.0, "g2": 0.0}
        assert fairness._disparity(values) == 0.0

    def test_unbounded_budget_reaches_best_candidate(self):
        pop = _two_group_skill_pop()
        h = _skill_model(pop)
        params = EffortParams()
        audit = FairnessAudit(pop, params, [h])
        values, _ = sweep_point(audit, h, BOUNDED_EFFORT, math.inf)
        want = oracles.bounded_effort(h, pop, params, "predicted", math.inf)
        assert values == pytest.approx(want, abs=1e-12)

    def test_matches_bruteforce_on_random_instances(self):
        for seed in range(6):
            pop, params, h, benefit = random_instance(seed)
            audit = FairnessAudit(pop, params, [h])
            efforts = _dense_efforts(pop, params)
            finite = efforts[np.isfinite(efforts)]
            for delta in (0.0, float(np.median(finite)), float(finite.max())):
                got, _ = sweep_point(audit, h, BOUNDED_EFFORT, delta)
                want = oracles.bounded_effort(h, pop, params, benefit, delta)
                for g in want:
                    assert got[g] == pytest.approx(want[g], abs=1e-10)

    def test_negative_budget_rejected(self):
        pop = _two_group_skill_pop()
        h = _skill_model(pop)
        audit = FairnessAudit(pop, EffortParams(), [h])
        with pytest.raises(ValueError):
            sweep_point(audit, h, BOUNDED_EFFORT, -0.5)


class TestThresholdReward:
    def test_self_candidate_makes_zero_threshold_free(self):
        pop = _two_group_skill_pop()
        h = _skill_model(pop)
        audit = FairnessAudit(pop, EffortParams(), [h])
        values, feasibility = sweep_point(audit, h, THRESHOLD_REWARD, 0.0)
        assert values == {"g1": 0.0, "g2": 0.0}
        assert feasibility == {"g1": 1.0, "g2": 1.0}

    def test_unreachable_threshold_reports_absent(self):
        pop = _two_group_skill_pop()
        h = _skill_model(pop)
        audit = FairnessAudit(pop, EffortParams(), [h])
        values, feasibility = sweep_point(audit, h, THRESHOLD_REWARD, 1e9)
        assert values == {"g1": None, "g2": None}
        assert feasibility == {"g1": 0.0, "g2": 0.0}
        assert fairness._disparity(values) is None

    def test_matches_bruteforce_on_random_instances(self):
        for seed in range(6, 12):
            pop, params, h, benefit = random_instance(seed)
            audit = FairnessAudit(pop, params, [h])
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
        rep = FairnessAudit(pop, EffortParams(), [h]).effort_reward(h)
        assert rep.per_group_value == {"g1": 0.0, "g2": 0.0}
        assert rep.disparity == 0.0

    def test_matches_bruteforce_on_random_instances(self):
        for seed in range(12, 18):
            pop, params, h, benefit = random_instance(seed)
            got = FairnessAudit(pop, params, [h]).effort_reward(h).per_group_value
            want = oracles.effort_reward(h, pop, params, benefit)
            for g in want:
                assert got[g] == pytest.approx(want[g], abs=1e-10)

    def test_dominates_every_candidate(self):
        pop, params, h, benefit = random_instance(18)
        audit = FairnessAudit(pop, params, [h])
        rep = audit.effort_reward(h)
        b = audit.benefits(h)
        utilities = b[None, :] - b[:, None] - _dense_efforts(pop, params)
        best = np.maximum(np.max(utilities, axis=1), 0.0)
        for i in range(pop.size):
            assert best[i] + 1e-12 >= np.max(utilities[i])
            assert best[i] >= 0.0

    def test_single_group_disparity_zero(self):
        pop = single_group_pop([1, 2, 3, 4])
        h = _skill_model(pop)
        audit = FairnessAudit(pop, EffortParams(), [h])
        assert audit.effort_reward(h).disparity == 0.0

    def test_permutation_invariance(self):
        pop, params, h, benefit = random_instance(19)
        perm = np.random.default_rng(0).permutation(pop.size)
        shuffled = Population(
            pop.schema, pop.X[perm], pop.y[perm], [pop.groups[i] for i in perm]
        )
        a = FairnessAudit(pop, params, [h]).effort_reward(h).per_group_value
        b = FairnessAudit(shuffled, params, [h]).effort_reward(h).per_group_value
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
            FairnessAudit(pop, params, [h]).sweep(h, BOUNDED_EFFORT, [1.0, 0.5])

    def test_curves_nondecreasing_and_match_pointwise(self):
        for seed in (23, 24):
            pop, params, h, benefit = random_instance(seed)
            audit = FairnessAudit(pop, params, [h])
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
        audit = FairnessAudit(pop, params, [h])
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
        walks = count_effort_walks(monkeypatch)
        flat = LinearPredictor(pop.schema.names, np.zeros(pop.schema.size), 1.0)
        audit = FairnessAudit(pop, params, [h, flat])
        grids = [audit.default_grid(model, BOUNDED_EFFORT, 5) for model in (h, flat, h)]
        assert walks == [(False, {"pairs"})]  # every feature, feasible pairs alone
        efforts = _dense_efforts(pop, params)
        finite = efforts[np.isfinite(efforts)]
        assert grids[0] == grids[1] == grids[2]
        assert grids[0][-1] == float(finite.max())

    def test_rows_layout(self):
        pop, params, h, benefit = random_instance(26)
        curve = FairnessAudit(pop, params, [h]).sweep(h, BOUNDED_EFFORT, [0.0, 0.1])
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
            audit = FairnessAudit(pop, params, [h])
            efforts = _dense_efforts(pop, params)
            saw_inf |= bool(np.isinf(efforts).any())
            saw_ties |= len(set(audit.benefits(h).tolist())) < pop.size
            finite = np.unique(efforts[np.isfinite(efforts)])
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
            audit = FairnessAudit(pop, params, [h])
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
        audit = FairnessAudit(pop, params, [h])
        audit.sweep(h, THRESHOLD_REWARD, audit.default_grid(h, THRESHOLD_REWARD, 5))
        assert "rewards" not in vars(audit)
        b = audit.benefits(h)
        top = float(b.max() - b.min())
        assert audit.default_grid(h, THRESHOLD_REWARD, 5)[-1] == max(top, 0.0)


def _row_answers(E, b, measure, grid):
    """Per-row answers of a dense scan of every candidate (``E`` from the oracles)."""
    n = len(b)
    out = np.empty((n, len(grid)))
    for i in range(n):
        finite = [j for j in range(n) if math.isfinite(E[i][j])]
        for col, delta in enumerate(grid):
            if measure == BOUNDED_EFFORT:
                reach = [b[j] - b[i] for j in finite if E[i][j] <= delta]
                out[i, col] = max(reach) if reach else 0.0
            else:
                costs = [E[i][j] for j in finite if b[j] - b[i] >= delta]
                out[i, col] = min(costs) if costs else math.inf
    return out


def _dense_best_utility(E, b):
    n = len(b)
    return np.array(
        [max(-math.inf if math.isinf(E[i][j]) else (b[j] - b[i]) - E[i][j] for j in range(n))
         for i in range(n)]
    )


class TestStaircases:
    """Each row's staircase answers exactly what a scan of its whole effort row does."""

    @pytest.fixture(autouse=True)
    def three_row_tiles(self, monkeypatch):
        monkeypatch.setattr(effort, "tile_rows", lambda n_cols: 3)

    def test_row_answers_equal_dense_scan(self):
        saw_inf = saw_ties = False
        for pop, params, h, benefit in _sweep_cases():
            audit = FairnessAudit(pop, params, [h])
            stairs = audit._of(h)
            E = oracles.effort_matrix(pop, params)
            b = oracles.benefit_vector(h, pop, params, benefit)
            saw_inf |= any(math.isinf(e) for row in E for e in row)
            saw_ties |= len(set(b)) < pop.size
            # grid points exactly at effort values and at reward values
            efforts = sorted({e for row in E for e in row if math.isfinite(e)})
            rewards = sorted({bj - bi for bi in b for bj in b})
            for measure, values, ends in (
                (BOUNDED_EFFORT, efforts, (0.0, math.inf)),
                (THRESHOLD_REWARD, rewards, (-math.inf, math.inf)),
            ):
                grid = sorted({*ends, *values[:: max(1, len(values) // 12)], values[-1]})
                got = stairs.table(measure, grid)
                np.testing.assert_array_equal(got, _row_answers(E, b, measure, grid))
            np.testing.assert_array_equal(stairs.best_utility(), _dense_best_utility(E, b))
        assert saw_inf and saw_ties

    def test_unreachable_top_candidate_is_left_off_the_row(self):
        # Row 2 has the highest benefit. Row 0 can reach it (same group, not
        # older); row 1 is older and rows 3 and 4 are in the other group, so
        # their staircases end at a reachable candidate below it, and the
        # answers still match a scan of the whole row.
        schema = toy_schema(age=FeatureKind("conditionally_immutable", direction="increasing"))
        X = np.array([[0, 1, 20], [0, 2, 30], [0, 5, 25], [1, 3, 20], [1, 4, 22]], dtype=float)
        pop = Population(schema, X, np.zeros(5), ["g1", "g1", "g1", "g2", "g2"])
        h = _skill_model(pop)
        params = EffortParams(base_cost=0.05)
        audit = FairnessAudit(pop, params, [h])
        E = oracles.effort_matrix(pop, params)
        b = oracles.benefit_vector(h, pop, params, "predicted")
        top = int(np.argmax(b))
        assert top == 2 and math.isfinite(E[0][top]) and math.isinf(E[1][top]) and math.isinf(E[3][top])
        stairs = audit._of(h)
        ends = stairs.starts[1:] - 1
        assert [p == pop.size - 1 for p in stairs.pos[ends]] == [True, False, True, False, False]
        assert np.isfinite(stairs.val).all()
        efforts = sorted({e for row in E for e in row if math.isfinite(e)})
        rewards = sorted({bj - bi for bi in b for bj in b})
        for measure, grid in (
            (BOUNDED_EFFORT, [0.0, *efforts, math.inf]),
            (THRESHOLD_REWARD, [-math.inf, *rewards, math.inf]),
        ):
            np.testing.assert_array_equal(
                stairs.table(measure, grid), _row_answers(E, b, measure, grid)
            )
        np.testing.assert_array_equal(stairs.best_utility(), _dense_best_utility(E, b))

    def test_mostly_infeasible_population_equals_oracle(self):
        # The bundled schema's shape: one immutable and four conditionally
        # immutable columns rule out most pairs.
        pop = synthetic_student_pop(200, seed=3)
        params = EffortParams(base_cost={"F": 0.02}, categorical_cost=0.4, benefit="shifted_gain")
        h = fit_tree(pop, 3)
        audit = FairnessAudit(pop, params, [h])
        dense = _dense_efforts(pop, params)
        rng = np.random.default_rng(0)
        for i, j in rng.integers(0, pop.size, size=(40, 2)):
            g = pop.groups[i]
            assert dense[i, j] == oracles.total_effort(pop, params, g, pop.X[i], pop.X[j])
        assert np.isinf(dense).mean() > 0.9
        E = dense.tolist()
        b = oracles.benefit_vector(h, pop, params, "shifted_gain")
        stairs = audit._of(h)
        for measure in (BOUNDED_EFFORT, THRESHOLD_REWARD):
            grid = audit.default_grid(h, measure, 7)
            np.testing.assert_array_equal(
                stairs.table(measure, grid), _row_answers(E, b, measure, grid)
            )
            curve = audit.sweep(h, measure, grid)
            for col, delta in enumerate(grid):
                if measure == BOUNDED_EFFORT:
                    want = oracles.bounded_effort(h, pop, params, "shifted_gain", delta, E)
                else:
                    want = oracles.threshold_reward(h, pop, params, "shifted_gain", delta, E)[0]
                for g in pop.group_names:
                    assert curve.per_group_values[g][col] == pytest.approx(want[g], rel=1e-12)
        np.testing.assert_array_equal(stairs.best_utility(), _dense_best_utility(E, b))
        assert audit.feasible_pairs == np.isfinite(dense).sum()
        assert audit.pairs == pop.size**2

    @pytest.mark.parametrize("nan_row", range(4))
    def test_a_row_with_no_move_equals_oracle(self, nan_row):
        # A NaN in a gated column rules out every move of its row, staying
        # put included, so the row has no staircase point at all.
        schema = toy_schema(age=FeatureKind("conditionally_immutable", direction="increasing"))
        skill = np.arange(1.0, 5.0)
        age = skill.copy()
        age[nan_row] = np.nan
        pop = Population(schema, np.column_stack([np.zeros(4), skill, age]), skill.copy(), ["g1"] * 4)
        h = LinearPredictor(("skill",), [1.0], 0.0)
        params = EffortParams(base_cost=0.05)
        audit = FairnessAudit(pop, params, [h])
        stairs = audit._of(h)
        assert np.diff(stairs.starts)[nan_row] == 0 and stairs.best_utility()[nan_row] == -np.inf
        for delta in (0.0, 0.3, 1.0):
            got, _ = sweep_point(audit, h, BOUNDED_EFFORT, delta)
            assert got == pytest.approx(oracles.bounded_effort(h, pop, params, "predicted", delta), abs=1e-12)
        for delta in (0.0, 1.0, 2.0, 3.0):
            got = sweep_point(audit, h, THRESHOLD_REWARD, delta)
            want = oracles.threshold_reward(h, pop, params, "predicted", delta)
            assert got[0] == pytest.approx(want[0], abs=1e-12) and got[1] == pytest.approx(want[1], abs=1e-12)
        want = oracles.effort_reward(h, pop, params, "predicted")
        assert audit.effort_reward(h).per_group_value == pytest.approx(want, abs=1e-12)

    def test_no_row_with_a_move_equals_oracle(self):
        # NaN in every row's gated column: no row has a staircase point.
        schema = toy_schema(age=FeatureKind("conditionally_immutable", direction="increasing"))
        skill = np.arange(1.0, 5.0)
        pop = Population(schema, np.column_stack([np.zeros(4), skill, np.full(4, np.nan)]), skill.copy(), ["g1"] * 4)
        h = LinearPredictor(("skill",), [1.0], 0.0)
        params = EffortParams(base_cost=0.05)
        audit = FairnessAudit(pop, params, [h])
        assert audit._of(h).pos.size == 0
        for delta in (0.0, 1.0):
            got, _ = sweep_point(audit, h, BOUNDED_EFFORT, delta)
            assert got == oracles.bounded_effort(h, pop, params, "predicted", delta) == {"g1": 0.0}
        for delta in (0.0, 2.0):
            got = sweep_point(audit, h, THRESHOLD_REWARD, delta)
            assert got == oracles.threshold_reward(h, pop, params, "predicted", delta) == ({"g1": None}, {"g1": 0.0})
        want = oracles.effort_reward(h, pop, params, "predicted")
        assert audit.effort_reward(h).per_group_value == want == {"g1": 0.0}

    def test_rising_effort_gives_a_point_per_candidate(self):
        # Effort rises strictly with benefit above each row, so row i's
        # staircase holds every candidate from i up: O(n) points per row.
        n = 40
        pop = single_group_pop(np.arange(1.0, n + 1))
        h = _skill_model(pop)
        params = EffortParams()
        audit = FairnessAudit(pop, params, [h])
        assert audit.staircase_size(h) == {"points": n * (n + 1) // 2, "max_row_points": n}
        E = oracles.effort_matrix(pop, params)
        b = oracles.benefit_vector(h, pop, params, "predicted")
        stairs = audit._of(h)
        efforts = sorted({e for row in E for e in row})
        rewards = sorted({bj - bi for bi in b for bj in b})
        for measure, grid in ((BOUNDED_EFFORT, efforts), (THRESHOLD_REWARD, rewards)):
            np.testing.assert_array_equal(
                stairs.table(measure, grid), _row_answers(E, b, measure, grid)
            )
        np.testing.assert_array_equal(stairs.best_utility(), _dense_best_utility(E, b))

    def test_one_walk_serves_every_model(self, monkeypatch):
        pop, params, h, benefit = random_instance(44)
        flat = LinearPredictor(pop.schema.names, np.zeros(pop.schema.size), 1.0)
        walks = count_effort_walks(monkeypatch)
        both = FairnessAudit(pop, params, [h, flat])
        assert walks == [(False, {"pairs"})]  # every feature, feasible pairs alone
        assert both.tiles == -(-pop.group_size("a") // 3) + -(-pop.group_size("b") // 3)
        for model in (h, flat):
            alone = FairnessAudit(pop, params, [model])
            grid = both.default_grid(model, BOUNDED_EFFORT, 5)
            curves = [audit.sweep(model, BOUNDED_EFFORT, grid) for audit in (both, alone)]
            assert curves[0] == curves[1]
            assert both.effort_reward(model) == alone.effort_reward(model)

    def test_unaudited_model_rejected(self):
        pop, params, h, benefit = random_instance(45)
        audit = FairnessAudit(pop, params, [h])
        other = LinearPredictor(pop.schema.names, np.zeros(pop.schema.size), 1.0)
        for ask in (
            lambda: audit.benefits(other),
            lambda: audit.sweep(other, BOUNDED_EFFORT, [0.0]),
            lambda: audit.effort_reward(other),
            lambda: audit.default_grid(other, THRESHOLD_REWARD),
        ):
            with pytest.raises(ValueError):
                ask()


class TestWalkOrder:
    """The audit's answers do not depend on which rows share a tile or in what order the walk takes
    them: each pair's effort is one fold, and ties go to the highest position over their run."""

    ORDERS = {
        "gate": EffortEngine._gate_order,
        "given": lambda self, group, Xa, idx: None,
        "reversed": lambda self, group, Xa, idx: np.arange(Xa.shape[0])[::-1],
        "shuffled": lambda self, group, Xa, idx: np.random.default_rng(Xa.shape[0]).permutation(Xa.shape[0]),
    }

    def test_staircases_do_not_depend_on_walk_order(self, monkeypatch):
        pop = synthetic_student_pop(240, seed=3)
        rng = np.random.default_rng(8)
        linear = LinearPredictor(pop.schema.names, rng.normal(size=pop.schema.size), 0.5)
        models = [linear, fit_tree(pop, 3)]  # the tree's benefits tie, so effort ties decide
        params = EffortParams(base_cost=0.05)
        want = None
        for height in (1, 7, 1000):
            monkeypatch.setattr(effort, "tile_rows", lambda n_cols, height=height: height)
            for name, order in self.ORDERS.items():
                monkeypatch.setattr(EffortEngine, "_gate_order", order)
                audit = FairnessAudit(pop, params, models)
                got = [self._answers(audit, h) for h in models]
                got.append((audit.feasible_pairs, audit.max_finite_effort))
                if want is None:
                    want = got
                    assert max(audit.staircase_size(h)["max_row_points"] for h in models) > 1
                assert got == want, (height, name)

    @staticmethod
    def _answers(audit, h) -> tuple:
        """Model ``h``'s staircase arrays and its sweep tables, as bytes."""
        stairs = audit._of(h)
        arrays = [stairs.b, stairs.b_asc, stairs.pos, stairs.val, stairs.starts, stairs.best_utility()]
        for measure in (BOUNDED_EFFORT, THRESHOLD_REWARD):
            arrays.append(stairs.table(measure, audit.default_grid(h, measure, 9)))
        return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


class TestGateCells:
    """``gate_cells`` counts the cells the audit's gate folds read: every feasible pair, and no
    more than every pair."""

    @staticmethod
    def _pop(age):
        schema = toy_schema(age=FeatureKind("conditionally_immutable", direction="increasing"))
        skill = np.linspace(0.0, 1.0, age.shape[0])
        X = np.column_stack([np.zeros_like(age), skill, age])
        return Population(schema, X, skill.copy(), ["g1"] * age.shape[0])

    def test_continuous_gate_prunes_the_fold(self, monkeypatch):
        # One group, so the group column prunes nothing; a continuous
        # conditionally immutable column does, once the rows span tiles.
        monkeypatch.setattr(effort, "tile_rows", lambda n_cols: 4)
        pop = self._pop(np.random.default_rng(2).permutation(30) * 0.37)
        h = _skill_model(pop)
        audit = FairnessAudit(pop, EffortParams(), [h])
        assert audit.feasible_pairs == np.isfinite(_dense_efforts(pop, EffortParams())).sum()
        assert audit.feasible_pairs <= audit.gate_cells < audit.pairs
        # with the column's weight at zero no gate bounds anything
        free = EffortParams(feature_weights={"age": 0.0})
        audit = FairnessAudit(pop, free, [h])
        assert audit.feasible_pairs == audit.gate_cells == audit.pairs


class TestTreePredictorIntegration:
    def test_audit_works_with_trees(self):
        pop, params, _, benefit = random_instance(27)
        h = fit_tree(pop, 3)
        got = FairnessAudit(pop, params, [h]).effort_reward(h).per_group_value
        want = oracles.effort_reward(h, pop, params, benefit)
        for g in want:
            assert got[g] == pytest.approx(want[g], abs=1e-10)
