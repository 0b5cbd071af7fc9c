from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import single_group_pop, synthetic_student_pop
from effortsim import models
from effortsim.dataset import Feature, FeatureKind, FeatureSchema, Population, restrict_features
from effortsim.effort import EffortParams
from effortsim.models import (
    evaluate,
    fit_constrained_linear,
    fit_linear,
    fit_mlp,
    fit_ridge,
    fit_tree,
    group_benefit_gap,
)
from instances import random_instance

PREDICTED = EffortParams(benefit="predicted")


def _line_pop(n=20, slope=2.0, intercept=1.0):
    xs = np.linspace(-3, 3, n)
    pop = single_group_pop(xs, labels=slope * xs + intercept)
    return pop


def _two_group_pop(seed=0, n_a=30, n_b=15, group_gap=2.0):
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(
        features=(
            Feature("grp", FeatureKind("immutable", levels=("a", "b")), mutable=False),
            Feature("x1", FeatureKind("numerical_nonmonotone"), mutable=True),
            Feature("x2", FeatureKind("numerical_nonmonotone"), mutable=True),
        ),
        sensitive="grp",
        label="y",
    )
    g = np.concatenate([np.zeros(n_a), np.ones(n_b)])
    x1 = rng.normal(size=n_a + n_b)
    x2 = rng.normal(size=n_a + n_b)
    y = 1.5 * x1 - 0.5 * x2 + group_gap * (1 - g) + rng.normal(0, 0.3, n_a + n_b)
    X = np.column_stack([g, x1, x2])
    return Population(schema, X, y, ["a"] * n_a + ["b"] * n_b)


class TestLinear:
    def test_exact_interpolation(self):
        pop = _line_pop()
        h = fit_linear(pop)
        assert h.weights[1] == pytest.approx(2.0, abs=1e-9)
        assert h.intercept == pytest.approx(1.0, abs=1e-9)
        assert evaluate(h, pop).mae_overall <= 1e-9

    def test_single_point_jitter_fits_it(self):
        pop = single_group_pop([3.0], labels=[5.0])
        h = fit_linear(pop)
        assert "jitter" in h.hyperparameters
        assert abs(h.predict(pop)[0] - 5.0) <= 1e-5

    def test_constant_labels_fine(self):
        pop = single_group_pop([1, 2, 3], labels=[4, 4, 4])
        h = fit_linear(pop)
        assert np.allclose(h.predict(pop), 4.0, atol=1e-9)

    def test_beats_random_linear_probes(self):
        pop, _, _, _ = random_instance(11)
        h = fit_linear(pop)
        fitted_mse = float(np.mean((h.predict(pop) - pop.y) ** 2))
        rng = np.random.default_rng(0)
        A = np.column_stack([pop.X, np.ones(pop.size)])
        for _ in range(100):
            w = rng.normal(size=A.shape[1])
            probe_mse = float(np.mean((A @ w - pop.y) ** 2))
            assert fitted_mse <= probe_mse + 1e-12

    def test_deterministic(self):
        pop = _two_group_pop()
        h1, h2 = fit_linear(pop), fit_linear(pop)
        assert np.array_equal(h1.weights, h2.weights) and h1.intercept == h2.intercept


class TestRidge:
    def test_zero_penalty_reproduces_least_squares(self):
        pop = _two_group_pop(seed=3)
        hl, hr = fit_linear(pop), fit_ridge(pop, 0.0)
        assert np.abs(hl.weights - hr.weights).max() <= 1e-9
        assert abs(hl.intercept - hr.intercept) <= 1e-9

    def test_huge_penalty_collapses_to_mean(self):
        pop = _two_group_pop(seed=4)
        h = fit_ridge(pop, 1e12)
        assert np.abs(h.weights).max() <= 1e-3
        assert np.allclose(h.predict(pop), pop.y.mean(), atol=1e-3)

    def test_negative_penalty_rejected(self):
        with pytest.raises(Exception):
            fit_ridge(_line_pop(), -1.0)


def _brute_force_best_split(X, y):
    best = None
    for k in range(X.shape[1]):
        values = sorted(set(X[:, k].tolist()))
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2.0
            left = y[X[:, k] <= thr]
            right = y[X[:, k] > thr]
            sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            if best is None or sse < best[0] - 1e-12:
                best = (sse, k, thr)
    return best


@st.composite
def split_cases(draw):
    """``(X, y, depth)`` with few distinct values, so columns, positions and SSEs tie.

    A constant column has no split at all.
    """
    n = draw(st.integers(2, 40))
    values = st.sampled_from(draw(st.sampled_from([(0.0, 1.0), (-1.0, 0.0, 0.1, 0.7, 2.5)])))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append(np.full(n, draw(values)))
        else:
            columns.append(np.array(draw(st.lists(values, min_size=n, max_size=n))))
    y = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return np.column_stack(columns), y, draw(st.integers(1, 4))


class TestTree:
    def test_depth_zero_is_label_mean(self):
        pop = _two_group_pop(seed=5)
        h = fit_tree(pop, 0)
        assert np.allclose(h.predict(pop), pop.y.mean())

    def test_two_points_split_exactly(self):
        pop = single_group_pop([0.0, 1.0], labels=[0.0, 1.0])
        h = fit_tree(pop, 1)
        assert h.predict(pop).tolist() == [0.0, 1.0]

    def test_pure_node_never_splits(self):
        pop = single_group_pop([1, 2, 3, 4], labels=[7, 7, 7, 7])
        h = fit_tree(pop, 5)
        assert len(h.nodes) == 1 and h.nodes[0]["feature"] == -1

    def test_root_split_matches_exhaustive_search(self):
        pop, _, _, _ = random_instance(21)
        h = fit_tree(pop, 1)
        want = _brute_force_best_split(pop.X, pop.y)
        assert want is not None
        root = h.nodes[0]
        got_sse, k, thr = want[0], root["feature"], root["threshold"]
        assert (k, thr) == (want[1], pytest.approx(want[2]))

    def test_training_mse_nonincreasing_in_depth(self):
        pop, _, _, _ = random_instance(22)
        mses = []
        for depth in range(6):
            h = fit_tree(pop, depth)
            mses.append(float(np.mean((h.predict(pop) - pop.y) ** 2)))
        assert all(a >= b - 1e-12 for a, b in zip(mses, mses[1:]))

    def test_deterministic(self):
        pop = _two_group_pop(seed=6)
        t1, t2 = fit_tree(pop, 4), fit_tree(pop, 4)
        assert t1.nodes == t2.nodes

    @settings(max_examples=60)
    @given(split_cases())
    @example((np.array([[0.0], [1.0], [2.0]]), np.array([0.0, 1.0, 0.0]), 1))  # equal SSEs
    def test_vectorised_scan_equals_scalar_oracle(self, case):
        X, y, depth = case
        assert models._best_split(X, y, np.argsort(X.T, axis=1, kind="stable")) == oracles.tree_split(X, y)
        pop = _tree_pop(X, y)
        want, _ = oracles.fit_tree_per_node(pop, depth, oracles.tree_split)
        assert fit_tree(pop, depth).nodes == want


def _tree_pop(X, y):
    """A one-group population whose features are the columns of ``X``, then the group column."""
    n, n_cols = X.shape
    schema = FeatureSchema(
        features=tuple(Feature(f"x{k}", FeatureKind("numerical_nonmonotone"), mutable=True) for k in range(n_cols))
        + (Feature("grp", FeatureKind("immutable", levels=("a",)), mutable=False),),
        sensitive="grp",
        label="y",
    )
    return Population(schema, np.column_stack([X, np.zeros(n)]), y, ["a"] * n)


def _hex(value):
    """``value`` with every float as its hex text, so that NaN equals NaN and -0.0 differs from 0.0."""
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    if isinstance(value, dict):
        return {key: _hex(v) for key, v in value.items()}
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return None if value is None else int(value)


@st.composite
def presort_cases(draw):
    """``(X, y, depth)``: up to 60 rows of columns with ties, -0.0 beside 0.0, NaN or one value,
    and labels whose sums round differently in different orders."""
    n = draw(st.integers(1, 60))
    pools = [(-0.0, 0.0, 1.0), (np.nan, 0.5, 1.5, 2.5), (3.0,), (np.nan,), (0.1, 0.2, 0.7, 1.3)]
    columns = [
        np.array(draw(st.lists(st.sampled_from(draw(st.sampled_from(pools))), min_size=n, max_size=n)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    y = np.array(draw(st.lists(st.sampled_from([0.1, 0.7, 2.3, -1.9, 1e3]), min_size=n, max_size=n)))
    return np.column_stack(columns), y, draw(st.integers(0, 6))


class TestPresortedTree:
    """One stable sort per feature and fit, and stable partitions at each node, fit the tree the
    per-node scan fits: every node, and every node's scan with its SSE, bit for bit."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a NaN threshold leaves a child empty
    @settings(max_examples=80, deadline=None)
    @given(presort_cases())
    @example((np.array([[-0.0], [0.0], [1.0], [0.0], [-0.0]]), np.array([0.1, 0.7, 0.1, 2.3, 0.7]), 3))
    def test_fit_equals_the_per_node_fit(self, case):
        X, y, depth = case
        pop = _tree_pop(X, y)
        want_nodes, want_splits = oracles.fit_tree_per_node(pop, depth)
        splits, sorts = [], []
        scan, argsort = models._best_split, np.argsort

        def counted_argsort(a, *args, **kwargs):
            sorts.append(a.shape)
            return argsort(a, *args, **kwargs)

        with mock.patch.object(models, "_best_split", lambda *args: splits.append(scan(*args)) or splits[-1]):
            with mock.patch.object(models.np, "argsort", counted_argsort):
                got = fit_tree(pop, depth)
        assert _hex(got.nodes) == _hex(want_nodes)
        assert _hex(splits) == _hex(want_splits)
        assert sorts == [pop.X.T.shape]  # each feature sorted once


class TestNanSplits:
    """NaN sorts last, and no split lies below a NaN: a NaN-only feature is never split, and a
    finite and NaN feature splits between its finite values only."""

    @pytest.mark.filterwarnings("error")
    def test_no_nan_threshold_and_no_empty_leaf(self):
        nan = np.nan
        X = np.array([[nan, 1.0], [nan, 2.0], [nan, nan], [nan, 3.0], [nan, nan], [nan, 1.0]])
        y = np.array([0.0, 5.0, 9.0, 5.0, 9.0, 0.0])
        pop = _tree_pop(X, y)
        tree = fit_tree(pop, 4)
        splits = [node for node in tree.nodes if node["feature"] >= 0]
        assert splits and all(node["feature"] == 1 and np.isfinite(node["threshold"]) for node in splits)
        assert all(np.isfinite(node["value"]) for node in tree.nodes)
        assert np.isfinite(tree.predict(pop)).all()
        # every leaf holds a row: the rows reaching each node, as predict_rows sends them
        rows = {0: np.arange(pop.size)}
        for i, node in enumerate(tree.nodes):
            assert rows[i].size > 0, (i, tree.nodes)
            if node["feature"] >= 0:
                left = pop.X[rows[i], node["feature"]] <= node["threshold"]
                rows[node["left"]], rows[node["right"]] = rows[i][left], rows[i][~left]
        assert models._best_split(X[:, :1], y, np.argsort(X[:, :1].T, axis=1, kind="stable")) is None


class TestConstrained:
    def test_tau_zero_is_least_squares(self):
        pop = _two_group_pop(seed=7)
        h0 = fit_constrained_linear(pop, 0.0, PREDICTED, "b")
        hl = fit_linear(pop)
        assert np.array_equal(h0.weights, hl.weights)
        assert h0.intercept == hl.intercept

    def test_large_tau_shrinks_group_gap(self):
        pop = _two_group_pop(seed=8, group_gap=2.0)
        gap0 = group_benefit_gap(fit_constrained_linear(pop, 0.0, PREDICTED, "b"), pop, PREDICTED, "b")
        assert gap0 > 0.5  # construction: least squares favors the majority
        gap_big = group_benefit_gap(
            fit_constrained_linear(pop, 50.0, PREDICTED, "b"), pop, PREDICTED, "b"
        )
        assert gap_big <= gap0

    def test_objective_never_worse_than_warm_start(self):
        pop = _two_group_pop(seed=9, group_gap=2.0)
        hl = fit_linear(pop)
        for tau in (0.5, 2.0, 10.0):
            hc = fit_constrained_linear(pop, tau, PREDICTED, "b")

            def objective(h):
                mse = float(np.mean((h.predict(pop) - pop.y) ** 2))
                gap = group_benefit_gap(h, pop, PREDICTED, "b")
                return mse + tau * max(0.0, gap)

            assert objective(hc) <= objective(hl) + 1e-12
            assert np.isfinite(objective(hc))

    def test_needs_two_groups(self):
        pop = single_group_pop([1, 2, 3])
        with pytest.raises(Exception):
            fit_constrained_linear(pop, 1.0, PREDICTED, None)

    @staticmethod
    def _objective(h, pop, tau, benefit, minority):
        w = np.append(h.weights, h.intercept)
        return oracles.constrained_objective(pop, tau, benefit, minority, w)

    @pytest.mark.parametrize("benefit", ["predicted", "shifted_gain"])
    @pytest.mark.parametrize("tau", [0.01, 0.1, 0.5, 2.0, 5.0, 50.0])
    def test_reaches_the_oracle_optimum(self, student_split, benefit, tau):
        # Minority M: least squares favours F, so the predicted-benefit hinge
        # is active. Below tau ~ 0.328 the optimum keeps a positive gap;
        # above it the gap is closed to 0.
        train, _ = student_split
        h = fit_constrained_linear(train, tau, EffortParams(benefit=benefit), "M")
        want = oracles.constrained_optimum(train, tau, benefit, "M")
        assert self._objective(h, train, tau, benefit, "M") == pytest.approx(want, rel=1e-12)
        if benefit == "predicted":
            gap = group_benefit_gap(h, train, EffortParams(benefit=benefit), "M")
            assert gap > 1e-3 if tau < 0.3 else abs(gap) <= 1e-12

    @pytest.mark.parametrize("tau", [0.01, 0.5, 50.0])
    def test_inactive_hinge_returns_least_squares(self, student_split, tau):
        # Minority F: least squares already gives F the higher mean prediction.
        train, _ = student_split
        assert group_benefit_gap(fit_linear(train), train, PREDICTED, "F") < 0
        h = fit_constrained_linear(train, tau, PREDICTED, "F")
        hl = fit_linear(train)
        assert np.array_equal(h.weights, hl.weights)
        assert h.intercept == hl.intercept

    @pytest.mark.parametrize("benefit", ["predicted", "shifted_gain"])
    @pytest.mark.parametrize("tau", [0.1, 2.0, 50.0])
    def test_duplicated_column_takes_the_jitter_path(self, student_split, benefit, tau):
        train, _ = student_split
        k = train.schema.index("G1")
        copy = replace(train.schema.features[k], name="G1_copy")
        schema = replace(train.schema, features=train.schema.features + (copy,))
        pop = Population(schema, np.column_stack([train.X, train.X[:, k]]), train.y, train.groups)
        h = fit_constrained_linear(pop, tau, EffortParams(benefit=benefit), "M")
        assert h.hyperparameters["jitter"] == models.JITTER
        want = oracles.constrained_optimum(pop, tau, benefit, "M", jitter=models.JITTER)
        assert self._objective(h, pop, tau, benefit, "M") == pytest.approx(want, rel=1e-12)


class TestEvaluate:
    def test_perfect_model(self):
        pop = _line_pop()
        rep = evaluate(fit_linear(pop), pop)
        assert rep.mae_overall <= 1e-9
        assert all(v <= 1e-9 for v in rep.mae_per_group.values())

    def test_constant_predictor_mae(self):
        pop = single_group_pop([0.0, 1.0], labels=[0.0, 2.0])
        h = fit_tree(pop, 0)  # predicts the mean, 1.0
        assert evaluate(h, pop).mae_overall == pytest.approx(1.0)

    def test_per_group_values(self):
        pop = _two_group_pop(seed=10)
        rep = evaluate(fit_linear(pop), pop)
        assert set(rep.mae_per_group) == {"a", "b"}


class TestMlp:
    def test_seeded_and_finite(self):
        pop = _two_group_pop(seed=14)
        h1 = fit_mlp(pop, hidden=8, epochs=50, seed=5)
        h2 = fit_mlp(pop, hidden=8, epochs=50, seed=5)
        assert np.array_equal(h1.predict(pop), h2.predict(pop))
        assert np.all(np.isfinite(h1.predict(pop)))


class TestNameBasedPrediction:
    def test_restricted_model_predicts_on_full_population(self, student_pop):
        restricted = restrict_features(student_pop, "mutable_plus_sensitive")
        h = fit_ridge(restricted, 200.0)
        preds_full = h.predict(student_pop)
        preds_restricted = h.predict(restricted)
        assert np.array_equal(preds_full, preds_restricted)

    def test_missing_feature_rejected(self):
        pop = _two_group_pop(seed=15)
        h = fit_linear(pop)
        small = single_group_pop([1, 2, 3])
        with pytest.raises(Exception):
            h.predict(small)


def _explicit_imitation_predictions(h, pop):
    """Row i: ``predict_rows`` on i's non-mutable entries joined to every row's mutable ones."""
    frozen = ~pop.schema.mutable_mask
    out = np.empty((pop.size, pop.size))
    for i in range(pop.size):
        targets = pop.X.copy()
        targets[:, frozen] = pop.X[i, frozen]
        out[i] = h.predict_rows(pop.schema, targets)
    return out


@pytest.fixture(scope="module")
def imitation_models(student_split):
    train, _ = student_split
    return train, {
        "linear": fit_linear(train),
        "ridge": fit_ridge(train, 200.0),
        "constrained": fit_constrained_linear(train, 2.0, PREDICTED, "M"),
        "tree_depth0": fit_tree(train, 0),
        "tree_depth5": fit_tree(train, 5),
        "ridge_mutable": fit_ridge(restrict_features(train, "mutable_plus_sensitive"), 200.0),
        "mlp": fit_mlp(train, hidden=8, epochs=30, seed=3),
    }


MODEL_NAMES = (
    "linear", "ridge", "constrained", "tree_depth0", "tree_depth5", "ridge_mutable", "mlp"
)


class TestImitationBlock:
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_block_equals_explicit_targets(self, imitation_models, name):
        train, models = imitation_models
        h = models[name]
        got = h.imitation_block(train.schema, train.X)(np.arange(train.size))
        want = _explicit_imitation_predictions(h, train)
        if name.startswith("tree") or name == "mlp":
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_fixture_models_exercise_both_factors(self, imitation_models):
        train, models = imitation_models
        assert models["ridge_mutable"].feature_names != train.schema.names
        tree = models["tree_depth5"]
        split_on = {tree.feature_names[node["feature"]] for node in tree.nodes if node["feature"] >= 0}
        mutable = {f.name for f in train.schema.features if f.mutable}
        assert split_on - mutable, "the depth-5 tree never tests a non-mutable feature"
        assert split_on & mutable, "the depth-5 tree never tests a mutable feature"

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_uneven_tiles_concatenate_to_the_full_block(self, imitation_models, name):
        train, models = imitation_models
        block = models[name].imitation_block(train.schema, train.X)
        bounds = [0, 1, 4, 11, 100, 257, train.size - 1, train.size]
        tiles = np.concatenate([block(np.arange(lo, hi)) for lo, hi in zip(bounds, bounds[1:])])
        assert np.array_equal(tiles, block(np.arange(train.size)))

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_any_row_array_picks_the_full_block_rows(self, imitation_models, name):
        # Tiles of a group walk are slices of its rows: not contiguous in
        # the population, and a caller may pass rows in any order.
        train, models = imitation_models
        block = models[name].imitation_block(train.schema, train.X)
        full = block(np.arange(train.size))
        rng = np.random.default_rng(4)
        for rows in (
            np.arange(1, train.size, 3),  # strided
            train.group_rows("F")[5:40],  # one group's rows
            rng.permutation(train.size)[:50],  # unsorted
            np.array([7, 7, 2]),  # repeated
        ):
            out = np.full((rows.shape[0], train.size), np.nan)
            assert block(rows, out=out) is out
            assert np.array_equal(out, full[rows])


def _full_tree(pop, depth, mutable_level, seed, leaf_values=None):
    """A hand-built tree of ``depth`` full levels: level l tests a mutable column when
    ``mutable_level(l)``, a non-mutable one otherwise, each at one of the column's finite values.

    Leaves take ``leaf_values`` left to right when given, standard normal draws otherwise.
    """
    rng = np.random.default_rng(seed)
    columns = {
        flag: np.flatnonzero(pop.schema.mutable_mask == flag) for flag in (True, False)
    }
    leaves = iter(leaf_values if leaf_values is not None else rng.normal(size=2**depth))
    nodes: list[dict] = []

    def build(level):
        node_id = len(nodes)
        nodes.append({"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": 0.0})
        if level == depth:
            nodes[node_id]["value"] = float(next(leaves))
            return node_id
        k = int(rng.choice(columns[bool(mutable_level(level))]))
        finite = pop.X[np.isfinite(pop.X[:, k]), k]
        threshold = float(rng.choice(finite))
        left, right = build(level + 1), build(level + 1)
        nodes[node_id].update(feature=k, threshold=threshold, left=left, right=right)
        return node_id

    build(0)
    return models.TreePredictor(pop.schema.names, nodes)


def _same_bits(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _alternating(level):
    return level % 2 == 0


class TestTreeTableBlock:
    """The tree's imitation block gathers leaf values: the bits ``predict_rows`` writes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nan_in_tested_columns(self, seed):
        pop = synthetic_student_pop(80, seed=seed)
        h = _full_tree(pop, 4, _alternating, seed)
        tested = sorted({node["feature"] for node in h.nodes if node["feature"] >= 0})
        assert pop.schema.mutable_mask[tested].any() and not pop.schema.mutable_mask[tested].all()
        X = pop.X.copy()
        rng = np.random.default_rng(seed)
        for k in tested:
            X[rng.choice(pop.size, size=10, replace=False), k] = np.nan
        nan_pop = Population(pop.schema, X, pop.y, pop.groups)
        block = h.imitation_block(nan_pop.schema, nan_pop.X)
        assert block.__qualname__.startswith("TreePredictor.")
        assert _same_bits(block(np.arange(pop.size)), _explicit_imitation_predictions(h, nan_pop))

    @pytest.mark.parametrize("value", [3.25, -2.5, -0.0])
    def test_single_leaf_tree(self, value):
        pop = synthetic_student_pop(30)
        h = models.TreePredictor(
            pop.schema.names, [{"feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": value}]
        )
        got = h.imitation_block(pop.schema, pop.X)(np.arange(pop.size))
        assert _same_bits(got, np.full((pop.size, pop.size), value))
        assert _same_bits(got, _explicit_imitation_predictions(h, pop))

    @pytest.mark.parametrize("seed", [3, 4])
    def test_negative_leaf_values(self, seed):
        pop = synthetic_student_pop(60, seed=seed)
        leaf_values = -np.abs(np.random.default_rng(seed).normal(size=2**3))
        leaf_values[::3] = -0.0  # a leaf of -0.0 keeps its sign
        h = _full_tree(pop, 3, _alternating, seed, leaf_values)
        got = h.imitation_block(pop.schema, pop.X)(np.arange(pop.size))
        want = _explicit_imitation_predictions(h, pop)
        assert np.signbit(want).all() and (want == 0.0).any()
        assert _same_bits(got, want)

    @pytest.mark.parametrize("depth, path", [(2, "Predictor."), (4, "TreePredictor.")])
    def test_table_beyond_two_leaf_matrices_takes_per_row_predictions(self, monkeypatch, depth, path):
        # Coded as every row its own pattern, 30 rows make a 30 x 30 table:
        # more than 2 * n * L = 240 entries for the 4 leaves of depth 2, not
        # more than 960 for the 16 of depth 4. Either way the bits are kept.
        pop = synthetic_student_pop(30, seed=6)
        h = _full_tree(pop, depth, _alternating, 6)
        monkeypatch.setattr(models, "_distinct_rows", lambda a: (np.arange(len(a)), np.arange(len(a))))
        block = h.imitation_block(pop.schema, pop.X)
        assert block.__qualname__.startswith(path)
        assert _same_bits(block(np.arange(pop.size)), _explicit_imitation_predictions(h, pop))
