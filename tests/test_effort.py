from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import single_group_pop, synthetic_student_pop
from effortsim import effort
from effortsim.dataset import Feature, FeatureKind, FeatureSchema, Population, _distinct_rows, level_codes
from effortsim.effort import (
    EVERY,
    TILE_BYTES,
    EffortEngine,
    EffortParams,
    _candidates,
    _gate,
    _gate_order,
    risk_adjusted,
    tile_rows,
)
from effortsim.fairness import FairnessAudit
from effortsim.models import LinearPredictor
from instances import oracle_cases, random_instance


@pytest.fixture
def ladder_pop():
    return single_group_pop([1, 2, 3, 4, 5])


def feature_effort(pop, params, group, k, a, b):
    """Feature k's effort from value a to value b: one-feature ``eps_sum`` on a 1x1 pair."""
    xa = np.zeros((1, pop.schema.size))
    xb = np.zeros((1, pop.schema.size))
    xa[0, k], xb[0, k] = a, b
    return float(EffortEngine(pop, params).eps_sum(group, xa, xb, [k], weighted=False)[0, 0])


def quantile_rank(pop, group, k, x):
    """Fraction of the group's feature-k values <= x: the increasing-rank gap up from -inf."""
    return feature_effort(pop, EffortParams(), group, k, -math.inf, x)


def total_effort(pop, params, group, xa, xb):
    """Total effort from xa to xb: ``pairwise_effort`` over a population holding both rows."""
    rows = Population(pop.schema, np.array([xa, xb]), np.zeros(2), [group, group])
    return float(EffortEngine(pop, params).pairwise_effort(rows)[0, 1])


class TestQuantileRank:
    def test_midpoint(self, ladder_pop):
        assert quantile_rank(ladder_pop, "g1", 1, 3.0) == 0.6

    def test_maximum_maps_to_one(self, ladder_pop):
        assert quantile_rank(ladder_pop, "g1", 1, 5.0) == 1.0
        assert quantile_rank(ladder_pop, "g1", 1, 99.0) == 1.0

    def test_below_minimum_maps_to_zero(self, ladder_pop):
        assert quantile_rank(ladder_pop, "g1", 1, 0.5) == 0.0

    def test_matches_counting_oracle(self, ladder_pop):
        for x in (-1, 1, 1.5, 2, 3.7, 5, 6):
            assert quantile_rank(ladder_pop, "g1", 1, x) == oracles.rank_leq(
                [1, 2, 3, 4, 5], x
            )

    def test_nondecreasing_and_duplication_invariant(self):
        pop = single_group_pop([2, 2, 3, 7, 9, 9])
        doubled = single_group_pop([2, 2, 3, 7, 9, 9] * 2)
        xs = np.linspace(0, 10, 40)
        ranks = [quantile_rank(pop, "g1", 1, x) for x in xs]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        for x in xs:
            assert quantile_rank(pop, "g1", 1, x) == quantile_rank(doubled, "g1", 1, x)


def _mixed_pop():
    schema = FeatureSchema(
        features=(
            Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False),
            Feature("up", FeatureKind("numerical_monotone", direction="increasing"), mutable=True),
            Feature("down", FeatureKind("ordinal_monotone", direction="decreasing"), mutable=True),
            Feature("free", FeatureKind("numerical_nonmonotone"), mutable=True),
            Feature("cat", FeatureKind("categorical", levels=("a", "b", "c")), mutable=True),
            Feature("older", FeatureKind("conditionally_immutable", direction="increasing"), mutable=False),
            Feature("fewer", FeatureKind("conditionally_immutable", direction="decreasing"), mutable=False),
        ),
        sensitive="grp",
        label="y",
    )
    X = np.array(
        [
            # grp, up, down, free, cat, older, fewer
            [0, 1, 1, 10.0, 0, 15, 3],
            [0, 2, 2, 20.0, 1, 16, 2],
            [0, 3, 3, 30.0, 2, 17, 1],
            [0, 4, 4, 40.0, 0, 18, 0],
            [0, 5, 5, 50.0, 1, 19, 4],
            [1, 2, 1, 15.0, 2, 15, 2],
            [1, 4, 3, 25.0, 0, 17, 0],
        ],
        dtype=float,
    )
    return Population(schema, X, np.zeros(7), ["g1"] * 5 + ["g2"] * 2)


class TestFeatureEffort:
    def test_no_change_is_free_for_every_kind(self):
        pop = _mixed_pop()
        params = EffortParams()
        for k in range(pop.schema.size):
            v = float(pop.X[0, k])
            assert feature_effort(pop, params, "g1", k, v, v) == 0.0

    def test_monotone_increasing_ladder(self, ladder_pop):
        params = EffortParams()
        assert feature_effort(ladder_pop, params, "g1", 1, 1.0, 3.0) == pytest.approx(0.4)
        assert feature_effort(ladder_pop, params, "g1", 1, 3.0, 1.0) == 0.0

    def test_monotone_decreasing_counts_downward_moves(self):
        pop = _mixed_pop()
        params = EffortParams()
        # group g1 "down" values are {1,2,3,4,5}; moving 3 -> 1 crosses two ranks
        assert feature_effort(pop, params, "g1", 2, 3.0, 1.0) == pytest.approx(0.4)
        assert feature_effort(pop, params, "g1", 2, 1.0, 3.0) == 0.0

    def test_nonmonotone_charges_both_directions(self):
        pop = _mixed_pop()
        params = EffortParams()
        up = feature_effort(pop, params, "g1", 3, 10.0, 30.0)
        down = feature_effort(pop, params, "g1", 3, 30.0, 10.0)
        assert up == down == pytest.approx(0.4)

    def test_categorical_flat_cost(self):
        pop = _mixed_pop()
        params = EffortParams(categorical_cost=0.5)
        assert feature_effort(pop, params, "g1", 4, 0.0, 2.0) == 0.5
        assert feature_effort(pop, params, "g1", 4, 2.0, 2.0) == 0.0

    def test_immutable_change_is_infinite(self):
        pop = _mixed_pop()
        params = EffortParams()
        assert feature_effort(pop, params, "g1", 0, 0.0, 1.0) == math.inf

    def test_conditionally_immutable_directions(self):
        pop = _mixed_pop()
        params = EffortParams()
        up_allowed = feature_effort(pop, params, "g1", 5, 15.0, 17.0)
        assert up_allowed == pytest.approx(0.4)
        assert feature_effort(pop, params, "g1", 5, 17.0, 15.0) == math.inf
        down_allowed = feature_effort(pop, params, "g1", 6, 3.0, 1.0)
        assert down_allowed == pytest.approx(0.4)
        assert feature_effort(pop, params, "g1", 6, 1.0, 3.0) == math.inf

    def test_monotone_effort_nondecreasing_in_target(self, ladder_pop):
        params = EffortParams()
        costs = [feature_effort(ladder_pop, params, "g1", 1, 2.0, t) for t in (1, 2, 3, 4, 5)]
        assert all(a <= b for a, b in zip(costs, costs[1:]))

    def test_matches_oracle_across_kinds(self):
        pop = _mixed_pop()
        params = EffortParams(categorical_cost=0.25)
        for k, feature in enumerate(pop.schema.features):
            values = oracles.group_values(pop, "g1", k)
            for a in values:
                for b in values:
                    got = feature_effort(pop, params, "g1", k, a, b)
                    want = oracles.feature_effort(feature, values, a, b, params.categorical_cost)
                    assert got == want


class TestTotalEffort:
    def test_self_change_costs_base_only(self):
        pop = _mixed_pop()
        params = EffortParams(base_cost={"g1": 0.2, "g2": 0.0})
        for i in (0, 5):
            g = pop.groups[i]
            assert total_effort(pop, params, g, pop.X[i], pop.X[i]) == params.base_cost_for(g)

    def test_two_feature_average(self):
        # K = 2: the immutable group feature stays put (0) and the skill move
        # 1 -> 5 crosses 0.8 of the quantile scale, so the mean over K is 0.4.
        pop = single_group_pop([1, 2, 3, 4, 5])
        params = EffortParams()
        xa = np.array([0.0, 1.0])
        xb = np.array([0.0, 5.0])
        assert total_effort(pop, params, "g1", xa, xb) == pytest.approx(0.4)

    def test_matches_arithmetic_oracle(self):
        pop = _mixed_pop()
        params = EffortParams(base_cost=0.05, categorical_cost=0.3)
        for i in range(pop.size):
            for j in range(pop.size):
                got = total_effort(pop, params, pop.groups[i], pop.X[i], pop.X[j])
                want = oracles.total_effort(pop, params, pop.groups[i], pop.X[i], pop.X[j])
                assert got == want

    def test_immutable_term_absorbs(self):
        pop = _mixed_pop()
        params = EffortParams()
        assert total_effort(pop, params, "g1", pop.X[0], pop.X[5]) == math.inf

    def test_zero_weight_disables_a_feature(self):
        pop = _mixed_pop()
        params = EffortParams(feature_weights={"up": 0.0})
        xa, xb = pop.X[0].copy(), pop.X[0].copy()
        xb[1] = 5.0
        assert total_effort(pop, params, "g1", xa, xb) == 0.0

    def test_nested_group_weights_replace_the_flat_ones(self):
        # g1's nested map names "a" only, so g1's "b" falls back to the
        # schema weight 1.5, not the flat 3.0; g2 has no nested map and reads
        # the flat entry. Only g1 has a base cost.
        schema = FeatureSchema(
            features=(
                Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False),
                Feature("a", FeatureKind("numerical_nonmonotone"), mutable=True),
                Feature("b", FeatureKind("numerical_nonmonotone"), mutable=True, weight=1.5),
            ),
            sensitive="grp",
            label="y",
        )
        params = EffortParams(feature_weights={"g1": {"a": 2.0}, "b": 3.0}, base_cost={"g1": 0.2})
        a, b = schema.features[1:]
        lookups = [params.weight_for(g, f) for g in ("g1", "g2") for f in (a, b)]
        assert lookups == [2.0, 1.5, 1.0, 3.0]
        assert [params.base_cost_for(g) for g in ("g1", "g2")] == [0.2, 0.0]
        # Each group's two rows differ in "b" alone, half its quantile scale apart.
        X = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        pop = Population(schema, X, np.zeros(4), ["g1", "g1", "g2", "g2"])
        efforts = EffortEngine(pop, params).pairwise_effort(pop)
        assert efforts[0, 1] == pytest.approx(0.2 + 1.5 * 0.5 / 3)
        assert efforts[2, 3] == pytest.approx(3.0 * 0.5 / 3)


def _rewards(h, pop, benefit, alpha=1.0, base_cost=0.0):
    """(dense efforts, rewards b[j] - b[i] from the audit's benefit vector)."""
    params = EffortParams(alpha=alpha, base_cost=base_cost, benefit=benefit)
    b = FairnessAudit(pop, params, [h]).benefits(h)
    return EffortEngine(pop, params).pairwise_effort(pop), b[None, :] - b[:, None]


class TestRewardUtility:
    def _identity_model(self, pop):
        w = np.zeros(pop.schema.size)
        w[1] = 1.0
        return LinearPredictor(pop.schema.names, w, 0.0)

    def test_no_move_no_reward(self, ladder_pop):
        h = self._identity_model(ladder_pop)
        _, rewards = _rewards(h, ladder_pop, "predicted")
        assert rewards[0, 0] == 0.0

    def test_linear_alpha_one(self):
        pop = single_group_pop([11, 14])
        h = self._identity_model(pop)
        _, rewards = _rewards(h, pop, "predicted")
        assert rewards[0, 1] == 3.0

    def test_alpha_two_powers(self):
        pop = single_group_pop([2, 3])
        h = self._identity_model(pop)
        _, rewards = _rewards(h, pop, "predicted", alpha=2.0)
        assert rewards[0, 1] == 5.0

    def test_negative_benefit_fractional_alpha_rejected(self):
        with pytest.raises(ValueError):
            risk_adjusted(-1.0, 0.5)
        assert risk_adjusted(-2.0, 2.0) == 4.0

    def test_reward_equals_prediction_gap_for_alpha_one(self):
        pop, params, h, _ = random_instance(4)
        _, rewards = _rewards(h, pop, "predicted")
        preds = h.predict(pop)
        for i in (0, 1):
            for j in (2, 3):
                assert rewards[i, j] == preds[j] - preds[i]

    def test_utility_breakdown(self):
        pop = single_group_pop([1, 2, 3, 4, 5])
        h = self._identity_model(pop)
        efforts, rewards = _rewards(h, pop, "predicted")
        none_moved = (rewards[0, 0], efforts[0, 0], rewards[0, 0] - efforts[0, 0])
        assert none_moved == (0.0, 0.0, 0.0)
        efforts, rewards = _rewards(h, pop, "predicted", base_cost=0.1)
        assert rewards[0, 0] - efforts[0, 0] == pytest.approx(-0.1)

    def test_immutable_move_gives_minus_infinity(self):
        pop = _mixed_pop()
        h = LinearPredictor(pop.schema.names, np.zeros(pop.schema.size), 0.0)
        efforts, rewards = _rewards(h, pop, "predicted")
        effort = efforts[0, 5]
        assert effort == math.inf and rewards[0, 5] - effort == -math.inf

    def test_shifted_gain_benefit(self):
        pop = single_group_pop([1, 4], labels=[2, 3])
        h = self._identity_model(pop)
        _, rewards = _rewards(h, pop, "shifted_gain")
        # b = y_hat - y + 1: (4 - 3 + 1) - (1 - 2 + 1) = 2
        assert rewards[0, 1] == 2.0


class TestVectorizedEngine:
    def test_pairwise_matches_scalar_everywhere(self):
        for seed in (0, 1, 2):
            pop, params, _, _ = random_instance(seed)
            engine = EffortEngine(pop, params)
            E = engine.pairwise_effort(pop)
            for i in range(pop.size):
                for j in range(pop.size):
                    assert E[i, j] == oracles.total_effort(
                        pop, params, pop.groups[i], pop.X[i], pop.X[j]
                    )

    def test_mutable_only_skips_frozen_features(self):
        pop = _mixed_pop()
        params = EffortParams()
        E = EffortEngine(pop, params).pairwise_effort(pop, mutable_only=True)
        assert np.all(np.isfinite(E))
        target = pop.X[5].copy()
        mutable = pop.schema.mutable_mask
        target[~mutable] = pop.X[0, ~mutable]
        assert E[0, 5] == oracles.total_effort(pop, params, "g1", pop.X[0], target)


class TestOracleProperties:
    @settings(max_examples=50)
    @given(oracle_cases())
    def test_pairwise_effort_equals_oracle(self, case):
        pop, params = case
        E = EffortEngine(pop, params).pairwise_effort(pop)
        for i in range(pop.size):
            for j in range(pop.size):
                want = oracles.total_effort(pop, params, pop.groups[i], pop.X[i], pop.X[j])
                assert E[i, j] == want, (i, j)

    @settings(max_examples=50)
    @given(oracle_cases())
    def test_mutable_only_equals_oracle_on_imitation_target(self, case):
        pop, params = case
        E = EffortEngine(pop, params).pairwise_effort(pop, mutable_only=True)
        mutable = pop.schema.mutable_mask
        for i in range(pop.size):
            for j in range(pop.size):
                target = np.where(mutable, pop.X[j], pop.X[i])
                want = oracles.total_effort(pop, params, pop.groups[i], pop.X[i], target)
                assert E[i, j] == want, (i, j)


def _every_kind_pop(n_per_group=60, seed=0):
    """Two groups over a schema holding every feature kind, with tied values."""
    kinds = (
        ("num_up", FeatureKind("numerical_monotone", direction="increasing"), True),
        ("num_down", FeatureKind("numerical_monotone", direction="decreasing"), True),
        ("num_free", FeatureKind("numerical_nonmonotone"), True),
        ("ord_up", FeatureKind("ordinal_monotone", direction="increasing"), True),
        ("ord_down", FeatureKind("ordinal_monotone", direction="decreasing"), True),
        ("ord_free", FeatureKind("ordinal_nonmonotone"), True),
        ("cat", FeatureKind("categorical", levels=("a", "b", "c")), True),
        ("older", FeatureKind("conditionally_immutable", direction="increasing"), False),
        ("fewer", FeatureKind("conditionally_immutable", direction="decreasing"), False),
        ("born", FeatureKind("immutable"), False),
    )
    features = [Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False)]
    features += [Feature(name, kind, mutable=mutable) for name, kind, mutable in kinds]
    schema = FeatureSchema(features=tuple(features), sensitive="grp", label="y")
    rng = np.random.default_rng(seed)
    n = 2 * n_per_group
    X = np.round(rng.normal(0.0, 1.0, size=(n, schema.size)), 1)  # ties on purpose
    X[:, 0] = np.repeat([0.0, 1.0], n_per_group)
    for k in (4, 5, 6, 7, 8, 9, 10):  # ordinal, categorical and conditional: few levels
        X[:, k] = rng.integers(0, 3, size=n)
    return Population(schema, X, np.zeros(n), ["g1"] * n_per_group + ["g2"] * n_per_group)


def _schema_order_sum(engine, group, Xa, Xb, idx, weighted):
    """The accumulation the tiled kernel must reproduce: acc + w * eps, feature by feature.

    Each per-feature matrix is a one-feature unweighted ``eps_sum``, which is
    ``0 + eps`` and so equals eps bit for bit.
    """
    acc = np.zeros((Xa.shape[0], Xb.shape[0]))
    for k in idx:
        eps = engine.eps_sum(group, Xa, Xb, [k], weighted=False)
        if weighted:
            w = engine.params.weight_for(group, engine.schema.features[k])
            if w == 0.0:
                continue
            acc = acc + w * eps
        else:
            acc = acc + eps
    return acc


class TestTiledEpsSum:
    N_COLS = 4096  # one tile then holds tile_rows(4096) = 32 rows

    def test_eps_matrix_matches_scalar_rule_for_every_kind(self):
        pop = _every_kind_pop(n_per_group=12)
        params = EffortParams(categorical_cost=0.7)
        engine = EffortEngine(pop, params)
        for k in range(pop.schema.size):
            col = pop.X[:, k]
            for g in pop.group_names:
                got = engine.eps_sum(g, pop.X, pop.X, [k], weighted=False)
                values = oracles.group_values(pop, g, k)
                feature = pop.schema.features[k]
                for i, a in enumerate(col):
                    for j, b in enumerate(col):
                        want = oracles.feature_effort(feature, values, a, b, params.categorical_cost)
                        assert got[i, j] == want

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("mutable_only", [False, True])
    def test_bit_identical_to_schema_order_sum(self, weighted, mutable_only):
        pop = _every_kind_pop()
        params = EffortParams(
            categorical_cost=0.45,
            feature_weights={
                "g1": {"num_up": 2.5, "ord_free": 0.0, "older": 0.3},
                "g2": {"num_down": 0.0, "cat": 7.0},
            },
        )
        engine = EffortEngine(pop, params)
        rng = np.random.default_rng(1)
        Xb = pop.X[rng.integers(0, pop.size, size=self.N_COLS)]
        height = tile_rows(self.N_COLS)
        assert height == 32
        idx = [k for k, f in enumerate(pop.schema.features) if f.mutable or not mutable_only]
        for rows in (1, height - 1, height, 2 * height + 11):
            Xa = pop.X[rng.integers(0, pop.size, size=rows)]
            for g in pop.group_names:
                got = engine.eps_sum(g, Xa, Xb, idx, weighted=weighted)
                want = _schema_order_sum(engine, g, Xa, Xb, idx, weighted)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                assert (got == 0.0).any() and np.isinf(got).any() != mutable_only


def _value_pattern_pop(pattern, rows=23, seed=4):
    """Rows on ``_every_kind_pop``'s schema whose feature columns all follow one value pattern."""
    schema = _every_kind_pop().schema
    rng = np.random.default_rng(seed)
    X = np.empty((rows, schema.size))
    groups = rng.choice(["g1", "g2"], size=rows)
    X[:, 0] = groups == "g2"
    for k in range(1, schema.size):
        if pattern == "one_value":
            X[:, k] = 1.0
        elif pattern == "all_distinct":
            X[:, k] = rng.permutation(rows) * 0.17 - 2.0
        elif pattern == "heavy_ties":
            X[:, k] = rng.choice([0.0, 1.0, 2.0], size=rows, p=[0.7, 0.2, 0.1])
        elif pattern == "signed_zero":
            X[:, k] = rng.choice([-0.0, 0.0, 1.0], size=rows)
        else:  # "nan_cell": ties, and one NaN in every feature column
            X[:, k] = rng.integers(0, 3, size=rows)
            X[rows // 2, k] = np.nan
    return Population(schema, X, np.zeros(rows), groups)


def _fill(rule, a, b, out):
    """Run a ``(key, op)`` rule of ``_eps_rule`` or ``_gate`` from every value of ``a`` to every value of ``b``."""
    key, op = rule
    op(key(a)[:, None], key(b), out)


def _row_by_row(engine, group, Xa, Xb, idx, weighted):
    """``acc + w * eps`` in the given feature order, each rule run on every row of ``Xa``.

    No tiles, no level tables and no separate gate step: a gated column's
    ``eps`` is ``inf`` where its gate rules the move out (and 0 elsewhere for
    an immutable column, which has no rule), inside the sum. The reference
    the kernel must reproduce bit for bit on both of its paths.
    """
    acc = np.zeros((Xa.shape[0], Xb.shape[0]))
    gates = dict(engine._gates(group, idx, weighted))
    for k in idx:
        w = engine.params.weight_for(group, engine.schema.features[k]) if weighted else 1.0
        if w == 0.0:
            continue
        eps = np.zeros_like(acc)
        rule = engine._eps_rule(group, k)
        if rule is not None:
            _fill(rule, Xa[:, k], Xb[:, k], eps)
        if k in gates:
            ok = np.empty(acc.shape, bool)
            _fill(_gate(gates[k]), Xa[:, k], Xb[:, k], ok)
            eps[~ok] = np.inf
        acc = acc + w * eps
    return acc


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestDistinctValueGather:
    """Few-valued columns gather level-table rows, the rest run per row; no entry may move."""

    PARAMS = EffortParams(
        base_cost={"g1": 0.25},
        categorical_cost=0.45,
        feature_weights={
            "g1": {"num_up": 2.5, "ord_free": 0.0, "older": 0.3, "cat": 1.7},
            "g2": {"num_down": 0.0, "cat": 7.0, "born": 0.5, "ord_up": 3.1},
        },
    )

    @pytest.mark.parametrize("height", [1, 3, 7])
    @pytest.mark.parametrize(
        "pattern", ["one_value", "all_distinct", "heavy_ties", "signed_zero", "nan_cell"]
    )
    def test_eps_sum_and_pairwise_effort_keep_their_bits(self, monkeypatch, pattern, height):
        monkeypatch.setattr(effort, "tile_rows", lambda n_cols: height)
        engine = EffortEngine(_every_kind_pop(n_per_group=12), self.PARAMS)
        pop = _value_pattern_pop(pattern)
        schema = pop.schema
        Xb = np.vstack([pop.X, engine.reference.X[::3]])
        every = list(range(schema.size))
        mutable = [k for k in every if schema.features[k].mutable]
        for g in pop.group_names:
            for idx in (every, mutable):
                for weighted in (True, False):
                    got = engine.eps_sum(g, pop.X, Xb, idx, weighted)
                    assert _same_bits(got, _row_by_row(engine, g, pop.X, Xb, idx, weighted))
        for idx, mutable_only in ((every, False), (mutable, True)):
            E = engine.pairwise_effort(pop, mutable_only=mutable_only)
            for g in pop.group_names:
                rows = pop.group_rows(g)
                acc = _row_by_row(engine, g, pop.X[rows], pop.X, idx, weighted=True)
                want = self.PARAMS.base_cost_for(g) + acc / schema.size
                assert _same_bits(E[rows], want)

    @pytest.mark.parametrize("height", [1, 3, 7])
    def test_level_budget_is_one_tile_spent_in_feature_order(self, monkeypatch, height):
        # Distinct counts of columns 0-4: two over the whole budget (run per
        # row), one value (a table), then the rest of the budget exactly (a
        # table; at height 1 column 2 already filled it), then one value over
        # an empty budget (runs per row). The other columns run per row.
        # Column 0 (immutable "grp") and column 10 have no rule, so their
        # gates' paths are read instead.
        monkeypatch.setattr(effort, "tile_rows", lambda n_cols: height)
        weights = {"num_up": 1.5, "num_down": 2.5, "ord_free": 0.0}  # per row, table, skipped
        params = EffortParams(feature_weights={"g1": weights})
        engine = EffortEngine(_every_kind_pop(n_per_group=12), params)
        Xa = _value_pattern_pop("nan_cell").X.copy()
        rng = np.random.default_rng(9)
        for k, count in enumerate((height + 1, height + 1, 1, max(height - 1, 1), 1)):
            Xa[:, k] = rng.permutation(np.arange(Xa.shape[0]) % count) * 0.5 - 1.0
        tabled = {2, 3} if height > 1 else {2}
        Xb = np.vstack([Xa, engine.reference.X[::3]])
        every = list(range(Xa.shape[1]))
        mutable = [k for k in every if engine.schema.features[k].mutable]  # 1-7: all finite
        plans = []  # per walk, each column's path: whether it reads through a level table

        def planned(*args):
            terms, masks = EffortEngine._terms(engine, *args)
            plans.append({k: table is not None for k, _, table, _ in terms + masks})
            return terms, masks

        for idx in (every, mutable):
            for weighted in (True, False):
                plans.clear()
                engine._terms = planned
                got = engine.eps_sum("g1", Xa, Xb, idx, weighted)
                del engine._terms
                assert _same_bits(got, _row_by_row(engine, "g1", Xa, Xb, idx, weighted))
                skipped = {6} if weighted else set()  # g1 weighs ord_free 0.0
                assert plans == [{k: k in tabled for k in idx if k not in skipped}]

    @pytest.mark.parametrize(
        "pattern", ["one_value", "all_distinct", "heavy_ties", "signed_zero", "nan_cell"]
    )
    def test_rules_are_finite_and_only_weighted_gates_give_inf(self, pattern):
        # g1 weighs the immutable "born" 0.0, so its gate must not count there.
        weights = {g: dict(w) for g, w in self.PARAMS.feature_weights.items()}
        weights["g1"]["born"] = 0.0
        params = dataclasses.replace(self.PARAMS, feature_weights=weights)
        engine = EffortEngine(_every_kind_pop(n_per_group=12), params)
        pop = _value_pattern_pop(pattern)
        Xb = np.vstack([pop.X, engine.reference.X[::3]])
        shape = (pop.size, Xb.shape[0])
        r, j = np.divmod(np.arange(pop.size * Xb.shape[0]), Xb.shape[0])
        every = range(pop.schema.size)
        for g in pop.group_names:
            ruled_out = np.zeros(shape, bool)
            gates, weighted_gates = dict(engine._gates(g, every, False)), dict(engine._gates(g, every, True))
            for k, feature in enumerate(pop.schema.features):
                rule = engine._eps_rule(g, k)
                gated = feature.kind.kind in ("immutable", "conditionally_immutable")
                assert (rule is None) == (feature.kind.kind == "immutable")
                assert (k in gates) == gated
                assert (k in weighted_gates) == (gated and params.weight_for(g, feature) != 0.0)
                if rule is not None:
                    key, op = rule
                    ka, kb = key(pop.X[:, k]), key(Xb[:, k])
                    for a, b, size in ((ka[:, None], kb, shape), (ka[r], kb[j], r.shape)):
                        out = np.full(size, np.nan)
                        op(a, b, out)
                        assert np.all(np.isfinite(out)), feature.name
                if k in weighted_gates:
                    ok = np.empty(shape, bool)
                    _fill(_gate(weighted_gates[k]), pop.X[:, k], Xb[:, k], ok)
                    ruled_out |= ~ok
            got = engine.eps_sum(g, pop.X, Xb, range(pop.schema.size), weighted=True)
            assert np.array_equal(np.isinf(got), ruled_out)
            assert not np.isnan(got).any()

    def test_merged_values_share_a_level_row(self):
        # -0.0 and 0.0 compare equal and all NaNs sort together, so they take
        # one code, and a level table gives each pair one row; every rule and
        # every gate gives them equal rows too, the immutable group column's
        # gate included.
        pop = _value_pattern_pop("signed_zero")
        col = np.array([0.0, -0.0, np.nan, 1.0, np.nan, -0.0])
        values, codes = level_codes(np.sort(col), col)
        assert values.shape == (3,) and np.isnan(values[-1])
        assert codes.tolist() == [0, 0, 2, 1, 2, 0]
        engine = EffortEngine(_every_kind_pop(n_per_group=12), self.PARAMS)
        gated = 0
        gates = dict(engine._gates("g1", range(pop.schema.size), weighted=False))
        for k in range(pop.schema.size):
            fill = engine._eps_rule("g1", k)
            allowed = _gate(gates[k]) if k in gates else None
            for rule, dtype in ((fill, float), (allowed, bool)):
                if rule is None:
                    continue
                rows = np.empty((col.shape[0], pop.size), dtype)
                _fill(rule, col, pop.X[:, k], rows)
                for i, j in ((0, 1), (0, 5), (2, 4)):
                    assert np.array_equal(rows[i].view(np.uint8), rows[j].view(np.uint8))
                gated += dtype is bool
        assert gated == 4  # grp, older, fewer, born


def _gated_pairs(walk, shape):
    """The audit's read of an ``eps_reads`` walk: each tile's allowed pairs among its candidate
    columns, read in pairs and written into an ``inf`` matrix, with a mask of the pairs read."""
    out = np.full(shape, np.inf)
    seen = np.zeros(shape, bool)
    for lo, hi, read, allowed, cols in walk:
        if cols is EVERY:
            cols = np.arange(shape[1])
        r, j = np.divmod(np.flatnonzero(allowed(cols)), cols.shape[0])
        j = cols[j]
        assert np.all(r < hi - lo)
        out[lo + r, j] = read(pairs=(r, j))
        seen[lo + r, j] = True
    return out, seen


class TestDistinctRows:
    @pytest.mark.parametrize("seed", range(6))
    def test_one_entry_per_distinct_row(self, seed):
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        a = rng.choice([-1.5, 0.0, 2.0], size=(n, k))
        a[rng.random((n, k)) < 0.3] *= -1.0  # -0.0 beside 0.0
        first, inverse = _distinct_rows(a)
        assert np.array_equal(a[first][inverse], a)  # -0.0 == 0.0
        assert len(first) == len({tuple(row) for row in a.tolist()})
        assert sorted(set(inverse.tolist())) == list(range(len(first)))

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_rows_of_no_columns_are_one_row(self, n):
        first, inverse = _distinct_rows(np.empty((n, 0)))
        assert first.tolist() == [0] * min(n, 1) and inverse.tolist() == [0] * n

    def test_a_row_holding_nan_is_its_own(self):
        a = np.array([[np.nan, 1.0], [0.0, 1.0], [np.nan, 1.0], [-0.0, 1.0]])
        first, inverse = _distinct_rows(a)
        assert len(first) == 3
        assert inverse[1] == inverse[3] and len({inverse[0], inverse[2], inverse[1]}) == 3
        assert first[inverse[0]] == 0 and first[inverse[2]] == 2


# Column patterns of a coded population: one value (NaN included), ties with -0.0 beside 0.0,
# ties with NaN, and distinct values.
_COLUMN_POOLS = ((1.5,), (np.nan,), (-0.0, 0.0, 1.0, 2.0), (np.nan, 0.0, 1.0), None)


@st.composite
def _coded_pops(draw):
    """A two-group population on ``_every_kind_pop``'s schema, each column and the label drawn
    from one of ``_COLUMN_POOLS``, with its groups' sizes."""
    schema = _every_kind_pop().schema
    sizes = [draw(st.integers(1, 9)), draw(st.integers(1, 9))]
    n = sum(sizes)
    columns = []
    for _ in range(schema.size + 1):
        pool = draw(st.sampled_from(_COLUMN_POOLS))
        if pool is None:
            columns.append(np.array(draw(st.permutations(range(n)))) * 0.25 - 1.0)
        else:
            columns.append(np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))))
    X = np.column_stack(columns[:-1])
    X[:, 0] = np.repeat([0.0, 1.0], sizes)
    return Population(schema, X, columns[-1], ["g1"] * sizes[0] + ["g2"] * sizes[1])


class TestLevelCodes:
    """A population codes each (group, column) once; the walks' level tables, filled on distinct
    values and expanded by the codes, hold the bits of tables built from each walk's own rows."""

    PARAMS = EffortParams(categorical_cost=0.45, feature_weights={"g1": {"num_up": 2.5, "ord_free": 0.0}})

    @settings(max_examples=40, deadline=None)
    @given(_coded_pops(), st.randoms(use_true_random=False))
    def test_tables_equal_the_per_walk_construction(self, pop, rnd):
        engine = EffortEngine(pop, self.PARAMS)
        XY = np.column_stack([pop.X, pop.y])
        every = list(range(pop.schema.size))
        view = [k for k in every if pop.schema.features[k].mutable] + [pop.schema.size]
        for g, other in itertools.permutations(pop.group_names):
            rows = pop.group_rows(g)
            # A: the group's rows in some order and some of them, as gate orders and classes take them
            at = np.array(rnd.sample(range(rows.size), rnd.randint(1, rows.size)))
            sides = [(None, XY), (other, XY[pop.group_rows(other)])]
            for (b_group, Xb), (idx, weighted) in itertools.product(sides, ((every, True), (view, False))):
                levels = (effort.pop_levels(pop, g, at), effort.pop_levels(pop, b_group))
                gates = engine._gates(g, idx, weighted)
                terms, masks = engine._terms(g, XY[rows[at]], Xb, levels, idx, weighted, gates, 1 << 30)
                want = oracles.walk_level_tables(pop, self.PARAMS, g, XY[rows[at]], Xb, idx, weighted, dict(gates))
                got = {(k, kind): (table, codes) for kind, entries in (("term", terms), ("mask", masks))
                       for k, _, table, codes in entries}
                assert got.keys() == want.keys()
                for key, (table, codes) in got.items():
                    want_table, want_codes = want[key]
                    assert _same_bytes(table[codes], want_table[want_codes]), key

    def test_levels_code_every_row(self):
        # a group's column, every row's column and the label: each row's code names its value
        pop = _value_pattern_pop("nan_cell")
        for group, k in (("g1", 3), (None, 3), ("g2", pop.schema.size)):
            column = pop.y if k == pop.schema.size else pop.X[:, k]
            column = column if group is None else column[pop.group_rows(group)]
            values, codes = pop.levels(group, k)
            assert pop.levels(group, k)[1] is codes  # cached
            assert np.array_equal(values[codes], column, equal_nan=True)
            nan = np.isnan(values)
            assert np.all(values[~nan][:-1] < values[~nan][1:])  # sorted and distinct
            assert nan.sum() == np.isnan(column).any() and not nan[:-1].any()  # one NaN, the last


class TestPairForm:
    """Reads of chosen pairs and masks of the gates keep the bits of the whole-tile read."""

    @staticmethod
    def _engine_pop(pattern):
        # every kind, with a per-feature categorical cost on "cat"
        pop = _every_kind_pop(n_per_group=12)
        features = tuple(
            dataclasses.replace(f, categorical_cost=1.3) if f.name == "cat" else f
            for f in pop.schema.features
        )
        schema = dataclasses.replace(pop.schema, features=features)
        reference = Population(schema, pop.X, pop.y, list(pop.groups))
        rows = _value_pattern_pop(pattern)
        return reference, Population(schema, rows.X, rows.y, list(rows.groups))

    @pytest.mark.parametrize("height", [1, 3, 7])
    @pytest.mark.parametrize("pattern", ["heavy_ties", "all_distinct", "signed_zero", "nan_cell"])
    def test_finite_pairs_keep_their_bits(self, monkeypatch, pattern, height):
        monkeypatch.setattr(effort, "tile_rows", lambda n_cols: height)
        reference, pop = self._engine_pop(pattern)
        engine = EffortEngine(reference, TestDistinctValueGather.PARAMS)
        Xb = np.vstack([pop.X, reference.X[::3]])
        every = list(range(pop.schema.size))
        for g in pop.group_names:
            for weighted in (True, False):
                want = engine.eps_sum(g, pop.X, Xb, every, weighted)
                got, seen = _gated_pairs(engine.eps_reads(g, pop.X, Xb, every, weighted), want.shape)
                assert np.array_equal(seen, np.isfinite(want))
                assert _same_bits(got, want)
                assert 0 < seen.sum() < seen.size

    @pytest.mark.parametrize("height", [1, 3, 7])
    @pytest.mark.parametrize("pattern", ["heavy_ties", "all_distinct", "signed_zero", "nan_cell"])
    def test_pair_reads_equal_the_whole_read(self, monkeypatch, pattern, height):
        # Every pair of a tile, read in pairs, has the bits of the tile's
        # whole read; gated and gate-free walks alike.
        monkeypatch.setattr(effort, "tile_rows", lambda n_cols: height)
        reference, pop = self._engine_pop(pattern)
        engine = EffortEngine(reference, TestDistinctValueGather.PARAMS)
        Xb = np.vstack([pop.X, reference.X[::3]])
        every = list(range(pop.schema.size))
        mutable = [k for k in every if pop.schema.features[k].mutable]
        for g in pop.group_names:
            for idx, weighted in ((every, True), (every, False), (mutable, True)):
                for lo, hi, read, _, _ in engine.eps_reads(g, pop.X, Xb, idx, weighted):
                    whole = read().copy()
                    r, j = np.divmod(np.arange(whole.size), Xb.shape[0])
                    assert _same_bits(read(pairs=(r, j)), whole.reshape(-1))

    def test_gates_are_apart_from_the_terms(self, monkeypatch):
        # A gated walk's read holds only its finite terms, and its mask
        # rules moves out; a gate-free walk's mask allows every move.
        monkeypatch.setattr(effort, "tile_rows", lambda n_cols: 3)
        reference, pop = self._engine_pop("heavy_ties")
        engine = EffortEngine(reference, TestDistinctValueGather.PARAMS)
        every = list(range(pop.schema.size))
        mutable = [k for k in every if pop.schema.features[k].mutable]
        for g in pop.group_names:
            want = engine.eps_sum(g, pop.X, reference.X, every, weighted=True)
            ruled_out = 0
            for lo, hi, read, allowed, _ in engine.eps_reads(g, pop.X, reference.X, every, weighted=True):
                tile, feasible = read(), allowed()
                assert np.all(np.isfinite(tile))
                assert np.array_equal(feasible, np.isfinite(want[lo:hi]))
                assert _same_bits(tile[feasible], want[lo:hi][feasible])
                ruled_out += int((~feasible).sum())
            assert ruled_out > 0
            for lo, hi, read, allowed, cols in engine.eps_reads(g, pop.X, reference.X, mutable, weighted=True):
                assert allowed().shape == (hi - lo, reference.size) and allowed().all() and cols is EVERY

    @pytest.mark.parametrize("height", [3, 1000])
    def test_effort_reads_in_pairs_match_pairwise_effort(self, monkeypatch, height):
        monkeypatch.setattr(effort, "tile_rows", lambda n_cols: height)
        reference, pop = self._engine_pop("heavy_ties")
        engine = EffortEngine(reference, TestDistinctValueGather.PARAMS)
        E = engine.pairwise_effort(pop)
        got = np.full_like(E, np.inf)
        for rows, read, allowed, cols in engine.effort_reads(pop):
            r, j = np.divmod(np.flatnonzero(allowed(cols)), cols.shape[0])
            j = cols[j]
            e = read(pairs=(r, j))
            assert np.all(np.isfinite(e))
            got[rows[r], j] = e
        assert _same_bits(got, E)
        assert np.isinf(E).any()

    def test_walk_without_gates_is_every_pair(self, monkeypatch):
        # Zero weights switch every immutable and conditionally immutable
        # column off for g1, so its walk has no gate and every pair is feasible.
        monkeypatch.setattr(effort, "tile_rows", lambda n_cols: 3)
        off = {name: 0.0 for name in ("grp", "older", "fewer", "born")}
        params = EffortParams(feature_weights={"g1": off}, base_cost=0.25)
        reference, pop = self._engine_pop("heavy_ties")
        engine = EffortEngine(reference, params)
        every = list(range(pop.schema.size))
        mutable = [k for k in every if pop.schema.features[k].mutable]
        for g, idx, weighted in (("g1", every, True), ("g2", mutable, True), ("g2", mutable, False)):
            want = engine.eps_sum(g, pop.X, reference.X, idx, weighted)
            assert np.all(np.isfinite(want))
            got, seen = _gated_pairs(engine.eps_reads(g, pop.X, reference.X, idx, weighted), want.shape)
            assert seen.all() and _same_bits(got, want)


@st.composite
def _gated_rows(draw):
    """Rows on ``_every_kind_pop``'s schema: every column draws NaN, -0.0, ties and continuous
    values, and the group column holds 0.0 or -0.0 for g1 and 1.0 for g2."""
    schema = _every_kind_pop().schema
    n = draw(st.integers(1, 24))
    groups = draw(st.lists(st.sampled_from(["g1", "g2"]), min_size=n, max_size=n))
    value = st.one_of(st.sampled_from([np.nan, -0.0, 0.0, 1.0, 2.0]), st.floats(-2.0, 2.0))
    X = np.array([[draw(value) for _ in range(schema.size)] for _ in range(n)])
    X[:, 0] = [1.0 if g == "g2" else draw(st.sampled_from([0.0, -0.0])) for g in groups]
    return Population(schema, X, np.zeros(n), groups)


class TestGatePruning:
    """The audit's walk folds the gates on each tile's candidate columns alone, with its rows in
    gate order; it finds every feasible pair of the dense gate fold, with the same bits."""

    # Both directions of conditionally immutable column ("older", "fewer"),
    # two immutable ones ("grp", "born"), and "fewer" switched off for g1.
    PARAMS = EffortParams(
        base_cost={"g1": 0.25},
        feature_weights={
            "g1": {"fewer": 0.0, "older": 0.3, "num_up": 2.5},
            "g2": {"born": 0.5, "num_down": 0.0, "fewer": 1.5},
        },
    )

    @settings(max_examples=60)
    @given(_gated_rows())
    def test_pruned_walk_equals_the_dense_fold(self, pop):
        engine = EffortEngine(_every_kind_pop(n_per_group=12), self.PARAMS)
        for height in (1, 3, 7):
            with mock.patch.object(effort, "tile_rows", lambda n_cols, height=height: height):
                want = engine.pairwise_effort(pop)  # every tile's gates folded over every column
                got, seen = np.full(want.shape, np.inf), np.zeros(want.shape, bool)
                walked = []
                for rows, read, allowed, cols in engine.effort_reads(pop):
                    r, j = np.divmod(np.flatnonzero(allowed(cols)), cols.shape[0])
                    got[rows[r], cols[j]] = read(pairs=(r, cols[j]))
                    seen[rows[r], cols[j]] = True
                    walked.extend(rows.tolist())
            assert sorted(walked) == list(range(pop.size))
            assert np.array_equal(seen, np.isfinite(want))
            assert _same_bits(got, want)

    def test_candidates_bound_each_gate(self):
        # One tile's rows against single values: a conditionally immutable
        # column keeps the values at or past the tile's least (NaN ignored),
        # an immutable one the values within the tile's range.
        engine = EffortEngine(_every_kind_pop(n_per_group=12), self.PARAMS)
        k = {name: engine.schema.index(name) for name in ("grp", "older", "fewer", "born")}
        A = np.zeros((3, engine.schema.size))
        A[:, k["older"]] = [1.0, np.nan, 2.0]
        A[:, k["fewer"]] = [np.nan, 0.5, -0.0]
        A[:, k["born"]] = [3.0, 3.0, 3.0]
        B = np.zeros((7, engine.schema.size))
        B[:, k["older"]] = [0.5, 1.0, 2.0, np.nan, 9.0, 1.0, 1.0]
        B[:, k["fewer"]] = [0.0, 0.5, 0.0, 0.0, 0.0, 0.6, 0.0]
        B[:, k["born"]] = [3.0, 3.0, 3.0, 3.0, 3.0, 3.0, -3.0]
        gates = engine._gates("g1", [k[name] for name in ("grp", "older", "fewer", "born")], weighted=False)
        assert gates == [(k["older"], 1), (k["fewer"], -1), (k["grp"], 0), (k["born"], 0)]
        assert _candidates(gates, A, B).tolist() == [1, 2, 4]
        assert _candidates(gates[2:3], A, B).tolist() == list(range(7))
        assert _candidates([], A, B) is EVERY
        A[:, k["older"]] = np.nan  # no row allows a move
        assert _candidates(gates, A, B).tolist() == []

    def test_rows_go_in_gate_order(self):
        # "older" ascending first, then "fewer" descending, then the
        # immutable columns; "fewer" has no weight for g1.
        pop = _value_pattern_pop("heavy_ties", rows=40)
        engine = EffortEngine(pop, self.PARAMS)
        every = list(range(pop.schema.size))
        older, fewer = pop.schema.index("older"), pop.schema.index("fewer")
        for g, keys in (("g1", [older]), ("g2", [older, fewer])):
            Xa = pop.X[pop.group_rows(g)]
            order = _gate_order(engine._gates(g, every, weighted=True), Xa)
            sorted_keys = [tuple(Xa[i, k] if k == older else -Xa[i, k] for k in keys) for i in order]
            assert sorted_keys == sorted(sorted_keys)
        mutable = [k for k in every if pop.schema.features[k].mutable]
        assert _gate_order(engine._gates("g1", mutable, weighted=True), pop.X) is None


class TestGateList:
    """Each walk's gates, listed once as ``(column, direction)``, and the mask built from them."""

    # g1 weighs "older" and the immutable "born" 0.0; g2 weighs every gated column
    PARAMS = EffortParams(feature_weights={"g1": {"older": 0.0, "born": 0.0}, "g2": {"fewer": 2.0}})

    @pytest.mark.parametrize(
        "group, columns, weighted, want",
        [
            # every gated kind and both directions: conditionally immutable first, then immutable
            ("g2", "all", True, [("older", 1), ("fewer", -1), ("grp", 0), ("born", 0)]),
            # weight 0 takes a column's gate away in a weighted walk only
            ("g1", "all", True, [("fewer", -1), ("grp", 0)]),
            ("g1", "all", False, [("older", 1), ("fewer", -1), ("grp", 0), ("born", 0)]),
            # the given order is kept within each part
            (
                "g2", ["born", "fewer", "grp", "older"], True,
                [("fewer", -1), ("older", 1), ("born", 0), ("grp", 0)],
            ),
            # mutable columns and the label have no gate
            ("g2", ["num_up", "cat", "ord_free", "label"], False, []),
            ("g1", ["older", "born"], True, []),
        ],
    )
    def test_gate_list(self, group, columns, weighted, want):
        engine = EffortEngine(_every_kind_pop(n_per_group=12), self.PARAMS)
        schema = engine.schema
        index = {**{name: k for k, name in enumerate(schema.names)}, "label": schema.size}
        idx = range(schema.size) if columns == "all" else [index[name] for name in columns]
        assert engine._gates(group, idx, weighted) == [(index[name], d) for name, d in want]

    @pytest.mark.parametrize("weighted", [True, False])
    def test_mask_matches_oracle_feasibility(self, weighted):
        # NaN, -0.0 and ties in every column: the mask of the listed gates
        # is the oracle's feasibility, move by move.
        values = [np.nan, -0.0, 0.0, 1.0, 1.0, 2.0]
        schema = _every_kind_pop().schema
        X = np.array([[values[(i + 3 * k) % len(values)] for k in range(schema.size)] for i in range(18)])
        X[:, 0] = np.repeat([0.0, -0.0, 1.0], 6)
        pop = Population(schema, X, np.zeros(18), ["g1"] * 12 + ["g2"] * 6)
        engine = EffortEngine(_every_kind_pop(n_per_group=12), self.PARAMS)
        for g in ("g1", "g2"):
            rows = pop.group_rows(g)
            mask = np.ones((rows.shape[0], pop.size), bool)
            for k, d in engine._gates(g, range(schema.size), weighted):
                ok = np.empty(mask.shape, bool)
                _fill(_gate(d), pop.X[rows, k], pop.X[:, k], ok)
                mask &= ok
            params = self.PARAMS if weighted else EffortParams()  # unweighted: every gate counts
            effort_of = lambda i, j: oracles.total_effort(engine.reference, params, g, pop.X[i], pop.X[j])
            want = [[math.isfinite(effort_of(i, j)) for j in range(pop.size)] for i in rows]
            assert np.array_equal(mask, np.array(want))
            assert 0 < mask.sum() < mask.size


class TestPairwiseEffortMemory:
    def test_peak_is_the_output_plus_a_few_tiles(self):
        # Each group's rows go straight into the output, tile by tile; no
        # (group rows x n) accumulator next to it.
        pop = synthetic_student_pop(1500)
        engine = EffortEngine(pop, EffortParams(base_cost=0.1))
        tracemalloc.start()
        try:
            engine.pairwise_effort(pop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * pop.size**2 + 4 * TILE_BYTES

    @staticmethod
    def _walk_peak(read_tile) -> int:
        """Traced peak of group F's walk against everyone on a synthetic population, every feature,
        with ``read_tile(read, allowed, cols, n)`` reading each tile."""
        pop = synthetic_student_pop(3000, seed=1)
        tracemalloc.start()
        try:
            engine = EffortEngine(pop, EffortParams())
            Xa = pop.X[pop.group_rows("F")]
            walk = engine.eps_reads("F", Xa, pop.X, range(pop.schema.size), weighted=True)
            for _, _, read, allowed, cols in walk:
                read_tile(read, allowed, cols, pop.size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_whole_tile_reads_stay_under_four_tiles(self):
        # The few-valued columns' level tables share one tile's rows next to
        # the accumulator, the gather tile and the gates' masks.
        def whole(read, allowed, cols, n):
            feasible = allowed()
            np.putmask(read(), np.logical_not(feasible, out=feasible), np.inf)

        assert self._walk_peak(whole) < 4 * TILE_BYTES

    def test_gated_pair_reads_stay_under_four_tiles(self):
        # The audit's read: the feasible pairs of the gates' mask over the
        # candidate columns, read in pairs into arrays of their own size; no
        # float tile is allocated.
        def pairs(read, allowed, cols, n):
            r, j = np.divmod(np.flatnonzero(allowed(cols)), cols.shape[0])
            read(pairs=(r, cols[j]))

        assert self._walk_peak(pairs) < 4 * TILE_BYTES

    @staticmethod
    def _one_column_peak(ask_for_masks: bool) -> int:
        """Traced peak of group F's walk over the gated "age" alone, its values made distinct so that
        it has no level table, reading a few pairs per tile and asking for the masks or not."""
        pop = synthetic_student_pop(3000, seed=1)
        k = pop.schema.index("age")
        Xa = pop.X[pop.group_rows("F")].copy()
        Xa[:, k] = np.arange(Xa.shape[0]) * 0.01
        engine = EffortEngine(pop, EffortParams())
        engine.reference.feature_table("F")  # sorted and cached before tracing
        tracemalloc.start()
        try:
            for _, _, read, allowed, cols in engine.eps_reads("F", Xa, pop.X, [k], weighted=True):
                read(pairs=(np.zeros(4, np.intp), np.arange(4)))
                if ask_for_masks:
                    allowed(cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_a_walk_that_asks_for_no_mask_holds_no_mask_tile(self):
        # The two bool tiles are allocated by the first mask, as the float
        # tiles are by the first read that is not of pairs.
        mask_tile = tile_rows(3000) * 3000
        assert self._one_column_peak(ask_for_masks=False) < mask_tile
        assert self._one_column_peak(ask_for_masks=True) >= 2 * mask_tile


class TestReversalInvariance:
    """Quantile effort sees only the order within a group: negating a monotone column and
    flipping its direction keeps every effort bit."""

    @staticmethod
    def _coded(pop, k, direction, sign):
        """``pop`` with column k given ``direction`` and multiplied by ``sign``."""
        features = list(pop.schema.features)
        kind = dataclasses.replace(features[k].kind, direction=direction)
        features[k] = dataclasses.replace(features[k], kind=kind)
        X = pop.X.copy()
        X[:, k] *= sign
        schema = dataclasses.replace(pop.schema, features=tuple(features))
        return Population(schema, X, pop.y, list(pop.groups))

    # numerical monotone, ordinal monotone, conditionally immutable
    @pytest.mark.parametrize("name", ["absences", "studytime", "age"])
    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    def test_negated_column_keeps_every_bit(self, student_split, name, direction):
        train, _ = student_split
        k = train.schema.index(name)
        other = "decreasing" if direction == "increasing" else "increasing"
        pops = self._coded(train, k, direction, 1.0), self._coded(train, k, other, -1.0)
        params = EffortParams(base_cost=0.25)
        engines = [EffortEngine(p, params) for p in pops]
        E = [engine.pairwise_effort(p) for engine, p in zip(engines, pops)]
        assert _same_bits(*E)
        for g in train.group_names:
            eps = [e.eps_sum(g, p.X[p.group_rows(g)], p.X, [k], weighted=False) for e, p in zip(engines, pops)]
            assert _same_bits(*eps)
            assert np.any(eps[0] > 0)
        # the flip alone, without the negation, moves efforts: the check sees the direction
        flipped = self._coded(train, k, other, 1.0)
        assert not _same_bits(E[0], EffortEngine(flipped, params).pairwise_effort(flipped))
