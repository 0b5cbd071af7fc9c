from __future__ import annotations

import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import run_simulate, single_group_pop
from effortsim.dataset import Feature, FeatureKind, FeatureSchema, Population
from effortsim import dynamics, effort
from effortsim.dynamics import feature_shift_report, simulate
from effortsim.effort import EffortEngine, EffortParams
from effortsim.models import (
    LinearPredictor,
    fit_constrained_linear,
    fit_linear,
    fit_mlp,
    fit_ridge,
    fit_tree,
)
from instances import random_instance, shift_cases, shift_pops


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
        assert any(o.changed for w in want[:2] for o in w.outcomes)
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
            fit_constrained_linear(train, 2.0, EffortParams(benefit=benefit), "M"),
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


def _per_row_impact(pop, best, reward, exerted, utility):
    """One model's round applied row by row: (outcome dicts, impacted X, impacted y, focal points).

    A row moves on utility > 0 and copies its role model's mutable values
    and label; a focal point is one value of the role models' mutable bytes,
    in the order of its first imitator, with its number of imitators.
    """
    mutable = pop.schema.mutable_mask
    new_X, new_y = pop.X.copy(), pop.y.copy()
    outcomes, focal = [], {}
    for i in range(pop.size):
        if not utility[i] > 0.0:
            outcomes.append(dynamics.ImitationOutcome(i, None, 0.0, 0.0, 0.0, False).to_dict())
            continue
        j = int(best[i])
        new_X[i, mutable] = pop.X[j, mutable]
        new_y[i] = pop.y[j]
        outcomes.append(
            dynamics.ImitationOutcome(i, j, float(reward[i]), float(exerted[i]), float(utility[i]), True).to_dict()
        )
        key = pop.X[j, mutable].tobytes()
        focal[key] = focal.get(key, 0) + 1
    return outcomes, new_X, new_y, [(key, count) for key, count in focal.items()]


def _impact_parts(result):
    """The parts of an ``ImpactResult`` that ``_per_row_impact`` returns, focal vectors as bytes."""
    return (
        [o.to_dict() for o in result.outcomes],
        result.impacted.X,
        result.impacted.y,
        [(fp.vector.tobytes(), fp.count) for fp in result.focal_points],
    )


def _same_parts(got, want):
    assert got[0] == want[0]
    assert [(v, type(v)) for o in got[0] for v in o.values()] == [(v, type(v)) for o in want[0] for v in o.values()]
    assert got[1].tobytes() == want[1].tobytes() and got[2].tobytes() == want[2].tobytes()
    assert got[3] == want[3]


def _signed_zero_pop():
    """Role models 1 and 3 differ only by the sign of a zero skill; rows 0, 2, 4 and 5 can imitate."""
    schema = _toy_pop().schema
    X = np.array([[0, 3.0], [0, 0.0], [0, 4.0], [1, -0.0], [1, 2.0], [1, 6.0]])
    return Population(schema, X, np.array([1.0, 5.0, 2.0, 6.0, 3.0, 4.0]), ["g1"] * 3 + ["g2"] * 3)


class TestImpact:
    """``_impact`` applies a round in one pass: the per-row loop's outcomes, rows and focal points."""

    @pytest.mark.parametrize("seed", [40, 41, 42, 43, 60, 61])
    def test_equals_the_per_row_loop_on_rounds(self, seed):
        pop, params, h, _ = random_instance(seed)
        models = [h, fit_tree(pop, 3)]
        best, reward, exerted, utility = dynamics._best_moves(models, pop, params, {})
        for m, result in enumerate(simulate(models, pop, params)):
            want = _per_row_impact(pop, best[m], reward[m], exerted[m], utility[m])
            _same_parts(_impact_parts(result), want)

    def test_equals_the_per_row_loop_on_the_student_round(self, student_split):
        train, _ = student_split
        models = [fit_tree(train, 5), fit_ridge(train, 200.0)]
        params = EffortParams(base_cost=0.05)
        best, reward, exerted, utility = dynamics._best_moves(models, train, params, {})
        results = simulate(models, train, params)
        assert len(results[0].focal_points) >= 10  # the tree's movers copy many profiles
        for m, result in enumerate(results):
            _same_parts(_impact_parts(result), _per_row_impact(train, best[m], reward[m], exerted[m], utility[m]))

    def test_equals_the_per_row_loop_on_any_moves(self):
        # Utilities of every sign, NaN and -0.0; role models repeated, signed zeros among them.
        pop = _signed_zero_pop()
        rng = np.random.default_rng(9)
        for _ in range(20):
            best = rng.integers(0, pop.size, size=pop.size)
            utility = rng.choice([-1.0, -0.0, 0.0, np.nan, 0.5, 2.0], size=pop.size)
            reward, exerted = rng.normal(size=pop.size), rng.random(pop.size)
            reward[::2] = -0.0
            got = dynamics._impact(pop, best, reward, exerted, utility, {})
            _same_parts(_impact_parts(got), _per_row_impact(pop, best, reward, exerted, utility))

    def test_signed_zeros_are_two_focal_points(self):
        pop = _signed_zero_pop()
        best = np.array([1, 0, 3, 0, 1, 3])
        utility = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        got = dynamics._impact(pop, best, utility, np.zeros(pop.size), utility, {})
        assert [(fp.vector.tobytes(), fp.count) for fp in got.focal_points] == [
            (np.array([0.0]).tobytes(), 2),
            (np.array([-0.0]).tobytes(), 2),
        ]
        assert np.signbit(got.impacted.X[[2, 5], 1]).all() and not np.signbit(got.impacted.X[[0, 4], 1]).any()

    def test_focal_points_keep_first_imitator_order(self):
        # The first mover copies 6.0, then 0.0 and -0.0 follow, then 6.0 again:
        # sorted bytes would put 0.0 first.
        pop = _signed_zero_pop()
        best = np.array([5, 0, 1, 0, 3, 5])
        utility = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0])
        got = dynamics._impact(pop, best, utility, np.zeros(pop.size), utility, {})
        assert [(fp.vector.tolist(), fp.count) for fp in got.focal_points] == [([6.0], 2), ([0.0], 1), ([-0.0], 1)]
        assert [np.signbit(fp.vector[0]) for fp in got.focal_points] == [False, False, True]

    def test_outcomes_read_like_a_list(self):
        pop = _signed_zero_pop()
        best = np.array([5, 0, 1, 0, 3, 5])
        utility = np.array([1.0, 0.0, 2.5, np.nan, -1.0, 0.5])
        reward = np.array([1.5, 9.0, -0.0, 9.0, 9.0, 0.75])
        result = dynamics._impact(pop, best, reward, reward - utility, utility, {})
        outcomes = result.outcomes
        items = list(outcomes)
        assert len(outcomes) == len(items) == pop.size
        assert [outcomes[i] for i in range(pop.size)] == items
        assert outcomes[-1] == items[-1] and outcomes[np.int64(2)] == items[2]
        with pytest.raises(IndexError):
            outcomes[pop.size]
        assert result.imitators == sum(o.changed for o in items) == 3
        assert [o.role_model_index for o in items] == [5, None, 1, None, None, 5]
        assert math.copysign(1.0, items[2].reward) == -1.0  # a mover's -0.0 reward keeps its sign
        assert all(isinstance(o.role_model_index, (int, type(None))) for o in items)
        assert all(type(v) is float for o in items for v in (o.reward, o.effort, o.utility))

    def test_nobody_moves(self):
        pop = _signed_zero_pop()
        got = dynamics._impact(pop, np.zeros(pop.size, np.intp), *np.zeros((3, pop.size)), {})
        assert got.focal_points == [] and not any(o.changed for o in got.outcomes)
        assert got.impacted.X.tobytes() == pop.X.tobytes() and got.impacted.y.tobytes() == pop.y.tobytes()


def _dense_round(h, pop, params) -> list:
    """``oracles.best_moves`` of ``h`` on ``pop``: every reward, and the mutable-only effort matrix."""
    rewards = params.reward(pop.y, h.imitation_block(pop.schema, pop.X)(np.arange(pop.size)))
    return oracles.best_moves(rewards, EffortEngine(pop, params).pairwise_effort(pop, mutable_only=True))


def _moves(result) -> list:
    """Per row, None or (role model, reward, effort, utility) with each float's bits in hex."""
    return [
        (o.role_model_index, o.reward.hex(), o.effort.hex(), o.utility.hex()) if o.changed else None
        for o in result.outcomes
    ]


def _record_reads(monkeypatch) -> list:
    """Record the imitation walk's effort reads: per row tile, ``(height, reads)`` with each read's kind and width."""
    tiles = []
    walk = EffortEngine.effort_reads

    def effort_reads(self, pop, mutable_only=False):
        for rows, read, allowed, cols in walk(self, pop, mutable_only):
            reads = []
            tiles.append((rows.shape[0], reads))

            def recording(cols=effort.EVERY, pairs=None, read=read, reads=reads):
                out = read(cols, pairs)
                kind = "pairs" if pairs is not None else "tile" if cols is effort.EVERY else "cols"
                reads.append((kind, out.shape[-1]))
                return out

            yield rows, recording, allowed, cols

    monkeypatch.setattr(EffortEngine, "effort_reads", effort_reads)
    return tiles


def _reads_per_model(tiles, models: int) -> list:
    """Each model's column reads as ``(rows, columns)``, checking that per tile every model
    makes one pair read, then at most one column read, and nothing reads the tile whole."""
    per_model = [[] for _ in range(models)]
    for height, reads in tiles:
        assert re.fullmatch(f"(pc?){{{models}}}", "".join(kind[0] for kind, _ in reads))
        m = -1
        for kind, width in reads:
            if kind == "pairs":
                m += 1
                assert width == height
            else:
                per_model[m].append((height, width))
    return per_model


def _hex(moves) -> list:
    return [None if m is None else (m[0], *(float(v).hex() for v in m[1:])) for m in moves]


def _one_profile_pop():
    """Six rows hold the top skill and are the same profile: every row gains most by copying them."""
    schema = _toy_pop().schema
    skill = np.array([5, 1, 0, 5, 2, 5, 3, 5, 0, 4, 5, 1, 5, 2], dtype=float)
    grp = np.array([0] * 6 + [1] * 8, dtype=float)
    y = np.where(skill == 5, 7.5, np.arange(14) / 4.0)
    return Population(schema, np.column_stack([grp, skill]), y, ["g1"] * 6 + ["g2"] * 8)


class TestCandidateColumns:
    """Efforts are read only for candidates that can win, and every outcome keeps the dense round's bits."""

    @staticmethod
    def _cases():
        """(models, population, params): random instances under each utility model, plus hand-made rounds."""
        cases = []
        for seed in (70, 71, 72, 73):
            pop, params, h, _ = random_instance(seed)
            constant = LinearPredictor(pop.schema.names, np.zeros(pop.schema.size), 1.0)
            models = [h, fit_tree(pop, 3), fit_linear(pop), constant]
            for utility in (
                {},
                {"benefit": "shifted_gain"},
                {"alpha": 2.0, "base_cost": {"a": 0.05, "b": 0.2}},
            ):
                cases.append((models, pop, dataclasses.replace(params, **utility)))
        one = _one_profile_pop()
        for benefit in ("predicted", "shifted_gain"):
            cases.append(([_skill_model(one, weight=10.0), fit_tree(one, 2)], one, EffortParams(benefit=benefit)))
        return cases

    @pytest.mark.parametrize("rows_per_tile", [1, 3, 7, None])
    def test_outcomes_equal_the_dense_round(self, monkeypatch, rows_per_tile):
        if rows_per_tile is not None:
            monkeypatch.setattr(effort, "tile_rows", lambda n_cols: rows_per_tile)
        tiles = _record_reads(monkeypatch)
        some_subtile = False
        for models, pop, params in self._cases():
            tiles.clear()
            results = simulate(models, pop, params)
            per_model = _reads_per_model(tiles, len(models))
            for h, result in zip(models, results):
                assert _moves(result) == _hex(_dense_round(h, pop, params))
            assert results.walk["pairs"] == pop.size**2
            assert results.walk["candidate_columns"] == [sum(width for _, width in reads) for reads in per_model]
            cells = sum(height * width for reads in per_model for height, width in reads)
            assert results.walk["subtile_cells"] == cells
            some_subtile |= any(width < pop.size for reads in per_model for _, width in reads)
        assert some_subtile  # some model reads fewer columns than the tile has

    def test_every_row_copies_one_profile(self):
        pop = _one_profile_pop()
        for benefit in ("predicted", "shifted_gain"):
            [result] = simulate([_skill_model(pop, weight=10.0)], pop, EffortParams(benefit=benefit))
            movers = [o for o in result.outcomes if o.changed]
            # the six top rows tie exactly, and the first of them wins every row
            assert len(movers) == 8 and {o.role_model_index for o in movers} == {0}

    def test_exactly_tied_gains_go_to_the_lowest_index(self):
        # rows 1, 2 and 3 are one profile: equal gains and equal efforts from every row
        schema = _toy_pop().schema
        X = np.array([[0, 1], [0, 4], [0, 4], [1, 4], [1, 0]], dtype=float)
        pop = Population(schema, X, np.full(5, 2.0), ["g1", "g1", "g1", "g2", "g2"])
        [result] = simulate([_skill_model(pop)], pop, EffortParams())
        assert [o.role_model_index for o in result.outcomes] == [1, None, None, None, 1]
        assert _moves(result) == _hex(_dense_round(_skill_model(pop), pop, EffortParams()))

    def test_nobody_gains_and_no_effort_is_read(self):
        pop, params, _, _ = random_instance(74)
        constant = LinearPredictor(pop.schema.names, np.zeros(pop.schema.size), 2.0)
        results = simulate([constant], pop, params)
        assert not any(o.changed for o in results.outcomes)
        assert results.walk["subtile_cells"] == 0 and results.walk["candidate_columns"] == [0]

    def test_a_tiny_gain_moves_a_row(self):
        # One mutable profile, labels one ulp-scale step apart: under the
        # shifted gain a row gains y_i - y_j at zero effort by adopting a
        # lower label, and the least positive gain still counts.
        schema = _toy_pop().schema
        X = np.array([[0, 2], [0, 2], [0, 2]], dtype=float)
        pop = Population(schema, X, np.array([2.0, 2.0 + 1e-12, 2.0]), ["g1"] * 3)
        h, params = _skill_model(pop), EffortParams(benefit="shifted_gain")
        [result] = simulate([h], pop, params)
        assert [o.role_model_index for o in result.outcomes] == [None, 0, None]
        assert 0.0 < result.outcomes[1].utility < 1e-11
        assert _moves(result) == _hex(_dense_round(h, pop, params))

    def test_nan_gains_read_their_nan_columns(self):
        # Rewards overflow to -inf and +inf (alpha 3). A row whose own reward
        # is -inf gains NaN (-inf - -inf) from the rows like it and +inf from
        # the others; a row-wise argmax stops at its first NaN, so every row
        # stays put, though reading only the +inf gains would move half.
        pop = _short_first_group_pop()
        h = _skill_model(pop, weight=1e200, intercept=-2.5e200)
        params = EffortParams(alpha=3.0)
        with np.errstate(over="ignore", invalid="ignore"):
            results = simulate([h], pop, params)
            want = _dense_round(h, pop, params)
        assert _moves(results[0]) == _hex(want)
        assert want == [None] * pop.size
        assert results.walk["subtile_cells"] > 0  # no gain reaches a bound, yet the NaN columns are read

    @pytest.mark.parametrize("rows_per_tile", [2, 3, None])
    def test_nan_rows_and_movers_share_a_tile(self, monkeypatch, rows_per_tile):
        # Rows with skill -1e200 reward -inf (alpha 3): they gain NaN from one
        # another and +inf from everyone else, and stay put as the dense
        # argmax has them. The other rows of their tiles gain finite amounts
        # and move, each reading its own candidates only.
        if rows_per_tile is not None:
            monkeypatch.setattr(effort, "tile_rows", lambda n_cols: rows_per_tile)
        schema = _toy_pop().schema
        skill = np.array([1, 4, -1e200, 0, 3, -1e200, 1, 2, 5, -1e200, 0])
        grp = np.array([0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1], dtype=float)
        pop = Population(schema, np.column_stack([grp, skill]), np.zeros(11), ["g1"] * 2 + ["g2"] * 9)
        h, params = _skill_model(pop), EffortParams(alpha=3.0)
        with np.errstate(over="ignore", invalid="ignore"):
            results = simulate([h], pop, params)
            want = _dense_round(h, pop, params)
        assert _moves(results[0]) == _hex(want)
        assert [i for i, m in enumerate(want) if m is not None] == [0, 1, 3, 4, 6, 7, 10]
        assert results.walk["subtile_cells"] < results.walk["pairs"]  # no tile is read whole


class TestShiftReportReference:
    """The shift report, every feature of a group at once, equals the per-feature loop bit for bit."""

    @staticmethod
    def _check(original, impacted):
        with np.errstate(all="ignore"):  # plain sums that overflow are taken again
            got = feature_shift_report(original, impacted)
            want = oracles.feature_shift_report(original, impacted, dynamics.SHIFT_BINS)
        assert list(got) == list(want)
        # repr tells -0.0 from 0.0 and gives every other float's bits back
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    @settings(max_examples=150, deadline=None)
    @given(shift_cases())
    def test_equals_the_per_feature_loop(self, case):
        self._check(*shift_pops(*case))

    def test_equals_the_per_feature_loop_at_scale(self):
        rng = np.random.default_rng(36)
        codes = rng.integers(0, 2, 2100)
        X = np.column_stack([codes, rng.normal(scale=1e3, size=(2100, 5)), rng.integers(0, 5, 2100)]).astype(float)
        moved = X.copy()
        moved[::3, 1:] = X[1::3][: moved[::3].shape[0], 1:]
        moved[[4, 9], 2] = [-1e154, 1e154]  # one feature's squared deviations overflow after the round
        self._check(*shift_pops(X, moved, codes.tolist()))


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

    @pytest.mark.parametrize("big", [1e308, sys.float_info.max])
    def test_overflowing_span_gives_finite_increasing_edges(self, big):
        pop = _toy_pop()
        X = pop.X.copy()
        X[:, pop.schema.index("skill")] = [-big, 5.0, big]
        wide = Population(pop.schema, X, pop.y, list(pop.groups))
        with np.errstate(all="ignore"):  # the variances overflow
            report = feature_shift_report(wide, pop)
        edges = np.array(report["skill"]["bin_edges"])
        assert np.isfinite(edges).all() and (np.diff(edges) > 0).all()
        assert edges[0] == -big and edges[-1] == big
        for g, summary in report["skill"]["groups"].items():
            assert sum(summary["hist_before"]) == sum(summary["hist_after"]) == pop.group_size(g)

    def test_schema_mismatch_rejected(self):
        pop = _toy_pop()
        other = single_group_pop([1, 2, 3])
        with pytest.raises(ValueError):
            feature_shift_report(pop, other)
