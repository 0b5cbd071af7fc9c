from __future__ import annotations

import numpy as np
import pytest

import oracles
from conftest import run_simulate, single_group_pop
from effortsim.dataset import Feature, FeatureKind, FeatureSchema, Population
from effortsim import effort
from effortsim.dynamics import feature_shift_report, simulate
from effortsim.effort import EffortParams
from effortsim.models import (
    LinearPredictor,
    fit_constrained_linear,
    fit_linear,
    fit_mlp,
    fit_ridge,
    fit_tree,
)
from instances import random_instance


def _skill_model(pop, weight=1.0, intercept=0.0):
    w = np.zeros(pop.schema.size)
    w[pop.schema.index("skill")] = weight
    return LinearPredictor(pop.schema.names, w, intercept)


def _toy_pop():
    schema = FeatureSchema(
        features=(
            Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False),
            Feature("skill", FeatureKind("numerical_monotone", direction="increasing"), mutable=True),
        ),
        sensitive="grp",
        label="y",
    )
    X = np.array([[0, 1], [0, 5], [1, 3]], dtype=float)
    y = np.array([2.0, 9.0, 5.0])
    return Population(schema, X, y, ["g1", "g1", "g2"])


def select_role_model(h, pop, params, i):
    """(role model index or None, outcome) of row i after one imitation round."""
    outcome = run_simulate(h, pop, params).outcomes[i]
    return outcome.role_model_index, outcome


class TestSelectRoleModel:
    def test_constant_predictor_selects_nobody(self):
        pop = _toy_pop()
        h = _skill_model(pop, weight=0.0, intercept=3.0)
        for i in range(pop.size):
            idx, best = select_role_model(h, pop, EffortParams(), i)
            assert idx is None
            assert best.utility <= 0.0

    def test_three_individual_argmax_by_hand(self):
        # skills {1, 5} in g1: individual 0 gains h = 4 by imitating 1 at a
        # quantile cost of 0.5/2; nobody offers individual 1 anything better
        # than staying put.
        pop = _toy_pop()
        h = _skill_model(pop)
        params = EffortParams()
        idx, best = select_role_model(h, pop, params, 0)
        assert idx == 1
        assert best.reward == pytest.approx(4.0)
        assert best.effort == pytest.approx(0.25)  # (0 + 0.5) / K with K = 2
        assert best.utility == pytest.approx(3.75)
        idx1, best1 = select_role_model(h, pop, params, 1)
        assert idx1 is None and best1.utility <= 0.0

    def test_matches_bruteforce_enumeration(self):
        for seed in range(30, 36):
            pop, params, h, benefit = random_instance(seed)
            for i in range(pop.size):
                got_idx, got_best = select_role_model(h, pop, params, i)
                want_idx, want_u = oracles.role_model(h, pop, params, benefit, i)
                assert got_idx == want_idx
                if want_idx is not None:
                    assert got_best.utility == pytest.approx(want_u, abs=1e-10)

    def test_sensitive_only_difference_is_never_selected(self):
        # Candidate 1 differs from 0 only in the sensitive feature: the
        # imitation target equals individual 0's own profile, so the move
        # can never strictly improve utility under the predicted benefit.
        schema = _toy_pop().schema
        X = np.array([[0, 2], [1, 2]], dtype=float)
        pop = Population(schema, X, np.array([1.0, 1.0]), ["g1", "g2"])
        h = _skill_model(pop)
        idx, best = select_role_model(h, pop, EffortParams(), 0)
        assert idx is None
        assert best.utility <= 0.0


class TestSimulate:
    def test_constant_predictor_is_fixed_point(self):
        pop = _toy_pop()
        h = _skill_model(pop, weight=0.0, intercept=3.0)
        impact = run_simulate(h, pop, EffortParams())
        assert np.array_equal(impact.impacted.X, pop.X)
        assert np.array_equal(impact.impacted.y, pop.y)
        assert impact.focal_points == []
        assert all(not o.changed for o in impact.outcomes)

    def test_single_imitator_single_focal_point(self):
        pop = _toy_pop()
        h = _skill_model(pop)
        impact = run_simulate(h, pop, EffortParams())
        changed = [o for o in impact.outcomes if o.changed]
        # individual 0 imitates 1; individual 1 stays; individual 2 is alone
        # in its group but can still copy 1's mutable skill.
        assert {o.individual_index for o in changed} == {0, 2}
        assert len(impact.focal_points) == 1
        assert impact.focal_points[0].count == 2
        assert impact.focal_points[0].vector.tolist() == [5.0]

    def test_bookkeeping_consistency(self):
        for seed in (40, 41):
            pop, params, h, benefit = random_instance(seed)
            impact = run_simulate(h, pop, params)
            mutable = pop.schema.mutable_mask
            for o in impact.outcomes:
                new_x = impact.impacted.X[o.individual_index]
                new_y = impact.impacted.y[o.individual_index]
                assert o.changed == (o.role_model_index is not None)
                assert o.changed == (o.utility > 0.0)
                if o.changed:
                    j = o.role_model_index
                    assert np.array_equal(new_x[mutable], pop.X[j, mutable])
                    assert new_y == pop.y[j]
                else:
                    assert np.array_equal(new_x, pop.X[o.individual_index])
                    assert new_y == pop.y[o.individual_index]
                assert np.array_equal(new_x[~mutable], pop.X[o.individual_index, ~mutable])
            assert impact.impacted.size == pop.size
            assert impact.impacted.groups == pop.groups
            if impact.focal_points:
                total = sum(fp.count for fp in impact.focal_points)
                assert total == sum(1 for o in impact.outcomes if o.changed)
                keys = [fp.vector.tobytes() for fp in impact.focal_points]
                assert len(set(keys)) == len(keys)
                assert all(fp.count >= 1 for fp in impact.focal_points)

    def test_recorded_utility_matches_recompute(self):
        pop, params, h, benefit = random_instance(42)
        impact = run_simulate(h, pop, params)
        for o in impact.outcomes:
            if not o.changed:
                continue
            i = o.individual_index
            new_x, new_y = impact.impacted.X[i], impact.impacted.y[i]
            preds = h.predict_rows(pop.schema, np.array([pop.X[i], new_x]))
            reward = oracles.benefit(benefit, new_y, preds[1]) - oracles.benefit(
                benefit, pop.y[i], preds[0]
            )
            effort = oracles.total_effort(pop, params, pop.groups[i], pop.X[i], new_x)
            assert o.utility == pytest.approx(reward - effort, abs=1e-10)
            assert o.effort == pytest.approx(effort, abs=1e-10)

    def test_predicted_label_strictly_increases_for_changers(self):
        pop, params, h, _ = random_instance(43)
        impact = run_simulate(h, pop, params)
        preds_before = h.predict(pop)
        preds_after = h.predict(impact.impacted)
        for o in impact.outcomes:
            if o.changed:
                assert preds_after[o.individual_index] > preds_before[o.individual_index]


def _short_first_group_pop():
    """Group g1 has 2 rows, g2 has 12: at 3 or 7 rows per tile the first tile is the shortest."""
    rng = np.random.default_rng(8)
    schema = _toy_pop().schema
    grp = np.array([0] * 2 + [1] * 12, dtype=float)
    X = np.column_stack([grp, rng.integers(0, 6, size=14)]).astype(float)
    return Population(schema, X, rng.normal(5.0, 2.0, size=14), ["g1"] * 2 + ["g2"] * 12)


def _same_result(got, want):
    assert [o.to_dict() for o in got.outcomes] == [o.to_dict() for o in want.outcomes]
    assert np.array_equal(got.impacted.X, want.impacted.X)
    assert np.array_equal(got.impacted.y, want.impacted.y)
    assert [(fp.vector.tolist(), fp.count) for fp in got.focal_points] == [
        (fp.vector.tolist(), fp.count) for fp in want.focal_points
    ]
    assert got.metadata == want.metadata


class TestTiledSimulate:
    @pytest.mark.parametrize("rows_per_tile", [1, 3, 7])
    def test_outcomes_do_not_depend_on_tile_size(self, monkeypatch, rows_per_tile):
        short = _short_first_group_pop()
        cases = [(_skill_model(short), short, EffortParams())]
        cases.append((fit_tree(short, 2), short, EffortParams(benefit="shifted_gain")))
        for seed in (50, 51, 52):
            pop, params, h, _ = random_instance(seed)
            cases += [(h, pop, params), (fit_tree(pop, 3), pop, params)]
        want = [run_simulate(*case) for case in cases]  # one tile: these populations are small
        monkeypatch.setattr(effort, "tile_rows", lambda n_cols: rows_per_tile)
        assert any(o.changed for o in want[0].outcomes + want[1].outcomes)
        for case, w in zip(cases, want):
            _same_result(run_simulate(*case), w)

    @pytest.mark.parametrize("benefit", ["predicted", "shifted_gain"])
    def test_duplicated_rows_never_move_onto_themselves(self, benefit):
        # Weights 0.1 and 0.7 are not exact in binary, so an own benefit
        # predicted by another route than the targets (or a prediction that
        # depended on where a row sits) would hand duplicates a reward of one
        # ulp; with zero base cost that alone would make them move. The
        # profiles include ones whose rounding goes either way.
        schema = FeatureSchema(
            features=(
                Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False),
                Feature("skill", FeatureKind("numerical_monotone", direction="increasing"), mutable=True),
                Feature("hours", FeatureKind("numerical_nonmonotone"), mutable=True),
            ),
            sensitive="grp",
            label="y",
        )
        n = 203
        grp = np.arange(n) % 2
        groups = ["g1" if g == 0 else "g2" for g in grp]
        h = LinearPredictor(schema.names, [0.7, 0.1, 0.7], 0.1)
        profiles = [(0.3, 1.7), (0.7, 0.1), (0.9, 1.7), (2.9, 0.7), (1.1, 3.3), (1.3, 0.1)]
        for skill, hours in profiles:
            X = np.column_stack([grp, np.full(n, skill), np.full(n, hours)]).astype(float)
            pop = Population(schema, X, np.full(n, 0.9), groups)
            impact = run_simulate(h, pop, EffortParams(base_cost=0.0, benefit=benefit))
            assert not any(o.changed for o in impact.outcomes), (skill, hours)
            assert impact.focal_points == []

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_tree_role_models_match_oracle(self, depth):
        for seed in range(60, 66):
            pop, params, _, benefit = random_instance(seed)
            h = fit_tree(pop, depth)
            impact = run_simulate(h, pop, params)
            for i in range(pop.size):
                want_idx, want_u = oracles.role_model(h, pop, params, benefit, i)
                got = impact.outcomes[i]
                assert got.role_model_index == want_idx
                if want_idx is not None:
                    assert got.utility == pytest.approx(want_u, abs=1e-10)


class TestSharedRound:
    @pytest.mark.parametrize("benefit, alpha", [("predicted", 1.0), ("shifted_gain", 2.0)])
    def test_each_model_scores_as_if_alone(self, student_split, benefit, alpha):
        train, _ = student_split
        models = [
            fit_linear(train),
            fit_ridge(train, 200.0),
            fit_tree(train, 4),
            fit_constrained_linear(train, 2.0, benefit, "M"),
            fit_mlp(train, hidden=8, epochs=30, seed=3),
        ]
        params = EffortParams(alpha=alpha, base_cost=0.05, benefit=benefit)
        together = simulate(models, train, params)
        assert len(together) == len(models)
        for h, got in zip(models, together):
            [alone] = simulate([h], train, params)
            _same_result(got, alone)
        assert sum(o.changed for o in together.outcomes) > 0

    def test_no_models_no_results(self):
        assert simulate([], _toy_pop(), EffortParams()) == []


class TestFeatureShiftReport:
    def test_fixed_point_reports_identical_summaries(self):
        pop = _toy_pop()
        report = feature_shift_report(pop, pop)
        for feature in report.values():
            for summary in feature["groups"].values():
                assert summary["mean_before"] == summary["mean_after"]
                assert summary["var_before"] == summary["var_after"]
                assert summary["hist_before"] == summary["hist_after"]

    def test_single_move_shifts_group_mean(self):
        pop = single_group_pop([1, 2, 3, 4])
        moved = Population(
            pop.schema,
            np.column_stack([np.zeros(4), [3, 2, 3, 4]]),
            pop.y,
            list(pop.groups),
        )
        report = feature_shift_report(pop, moved)
        summary = report["skill"]["groups"]["g1"]
        assert summary["mean_after"] - summary["mean_before"] == pytest.approx(2 / 4)

    def test_histograms_conserve_group_sizes(self):
        pop, params, h, benefit = random_instance(44)
        impact = run_simulate(h, pop, params)
        report = feature_shift_report(pop, impact.impacted)
        for feature in report.values():
            for g, summary in feature["groups"].items():
                assert sum(summary["hist_before"]) == pop.group_size(g)
                assert sum(summary["hist_after"]) == impact.impacted.group_size(g)

    def test_schema_mismatch_rejected(self):
        pop = _toy_pop()
        other = single_group_pop([1, 2, 3])
        with pytest.raises(ValueError):
            feature_shift_report(pop, other)
