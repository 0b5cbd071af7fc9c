from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import run_simulate, single_group_pop, synthetic_student_pop
from effortsim import effort, segregation
from effortsim.dataset import Feature, FeatureKind, FeatureSchema, Population, SchemaError
from effortsim.dynamics import FocalPoint
from effortsim.effort import EffortEngine, EffortParams
from effortsim.models import LinearPredictor
from effortsim.segregation import (
    MetricContext,
    atkinson_index,
    build_focal_neighborhoods,
    centralization,
    distance_indices,
    measure_population,
    pairwise_distances,
    spectral_segregation,
)
from effortsim.segregation import _components, _spectral_radius, _strong_components
from instances import oracle_cases, random_instance


def _two_feature_pop():
    schema = FeatureSchema(
        features=(
            Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False),
            Feature("skill", FeatureKind("numerical_monotone", direction="increasing"), mutable=True),
            Feature("club", FeatureKind("categorical", levels=("no", "yes")), mutable=True),
        ),
        sensitive="grp",
        label="y",
    )
    X = np.array([[0, 1, 0], [0, 3, 1], [1, 2, 0], [1, 4, 1]], dtype=float)
    y = np.array([4.0, 8.0, 5.0, 9.0])
    return Population(schema, X, y, ["g1", "g1", "g2", "g2"])


# Frozen via the counting/enumeration oracle before wiring the test:
# four individuals above, minority g1, categorical cost 0.5.
ACI_HAND_VALUE = 0.19785005312731524


def _aci(ctx, pop):
    return distance_indices(ctx, pop)[0]


def _closeness(ctx, pop, group):
    """exp(-d) over the group's within-group block of the dense distance matrix."""
    rows = pop.group_rows(group)
    return np.exp(-pairwise_distances(ctx, pop)[np.ix_(rows, rows)])


class TestMetricContext:
    @pytest.mark.parametrize(
        "setting, value",
        [
            ("beta", 0.0),
            ("beta", 1.0),
            ("beta", math.nan),
            ("connectivity_threshold", -1e-6),
            ("connectivity_threshold", math.inf),
            ("connectivity_threshold", math.nan),
            ("centralization_threshold", math.nan),
            ("centralization_threshold", -math.inf),
        ],
    )
    def test_bad_setting_raises_at_construction(self, setting, value):
        with pytest.raises(SchemaError, match=setting):
            MetricContext(_two_feature_pop(), EffortParams(), "g1", **{setting: value})


class TestDistance:
    def test_self_distance_zero(self):
        pop = _two_feature_pop()
        ctx = MetricContext(pop, EffortParams(), "g1")
        assert np.all(np.diag(pairwise_distances(ctx, pop)) == 0.0)

    def test_single_group_ladder_value(self):
        pop = single_group_pop([1, 2, 3, 4, 5])
        ctx = MetricContext(pop, EffortParams(), "g1")
        D = pairwise_distances(ctx, pop.take(np.array([0, 2])))  # skill 1 vs 3, labels equal
        assert D[0, 1] == pytest.approx(0.4)
        assert D[1, 0] == 0.0  # downhill move is free, labels equal

    def test_view_max_is_order_insensitive(self):
        pop = _two_feature_pop()
        params = EffortParams()
        ctx = MetricContext(pop, params, "g1")
        i, j = 0, 2
        d_ij = pairwise_distances(ctx, pop)[i, j]
        # same ordered pair, group views swapped by hand
        views = [
            oracles.directed_view(pop, params, pop.groups[g], pop.X[i], pop.y[i], pop.X[j], pop.y[j])
            for g in (j, i)
        ]
        assert d_ij == pytest.approx(max(views), abs=1e-12)

    def test_always_finite_and_nonnegative(self):
        for seed in (50, 51):
            pop, params, _, _ = random_instance(seed)
            ctx = MetricContext(pop, params, pop.group_names[0])
            D = pairwise_distances(ctx, pop)
            assert np.all(np.isfinite(D)) and np.all(D >= 0.0)
            assert np.all(np.diag(D) == 0.0)

    def test_matrix_matches_scalar_and_oracle(self):
        pop = _two_feature_pop()
        params = EffortParams(categorical_cost=0.5)
        ctx = MetricContext(pop, params, "g1")
        D = pairwise_distances(ctx, pop)
        for i in range(pop.size):
            for j in range(pop.size):
                assert D[i, j] == pytest.approx(
                    oracles.distance(pop, params, pop, i, j), abs=1e-12
                )


    @settings(max_examples=50)
    @given(oracle_cases())
    def test_matrix_equals_oracle_on_random_schemas(self, case):
        pop, params = case
        D = pairwise_distances(MetricContext(pop, params, "a"), pop)
        for i in range(pop.size):
            for j in range(pop.size):
                assert D[i, j] == pytest.approx(oracles.distance(pop, params, pop, i, j), abs=1e-12)



def _distance_reference(ctx, pop):
    """The distance matrix from ``eps_sum`` and the label ranks, one full-matrix view per group."""
    views = {}
    for g in pop.group_names:
        table = np.sort(ctx.reference.y[ctx.reference.group_rows(g)])
        rank = np.searchsorted(table, pop.y, side="right") / table.shape[0]
        gap = np.maximum(0.0, rank[None, :] - rank[:, None])
        views[g] = ctx.engine.eps_sum(g, pop.X, pop.X, ctx.mutable_indices, weighted=False) + gap
    own = np.array([views[pop.groups[i]][i] for i in range(pop.size)])
    other = np.array([views[pop.groups[j]][:, j] for j in range(pop.size)]).T
    return np.maximum(own, other)


class TestDistanceBits:
    @pytest.mark.parametrize("labels", ["tied", "distinct", "signed_zero"])
    @pytest.mark.parametrize("seed", [64, 65])
    def test_bits_equal_eps_sum_plus_label_gap(self, seed, labels):
        pop, params, _, _ = random_instance(seed)
        n = pop.size
        y = {
            "tied": np.arange(n) % 3 * 1.5,
            "distinct": np.random.default_rng(seed).permutation(n) * 0.37,
            "signed_zero": np.where(np.arange(n) % 2 == 0, -0.0, 0.0) + (np.arange(n) % 5 == 0),
        }[labels]
        pop = Population(pop.schema, pop.X, y, pop.groups)
        ctx = MetricContext(pop, params, pop.group_names[0])
        want = _distance_reference(ctx, pop).view(np.uint64)
        for height in (1, 3, 7):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(effort, "tile_rows", lambda n_cols: height)
                got = pairwise_distances(ctx, pop)
            assert np.array_equal(got.view(np.uint64), want), height


class TestFocalNeighborhoods:
    def test_single_focal_point_collects_everyone(self):
        pop = _two_feature_pop()
        ctx = MetricContext(pop, EffortParams(), "g1")
        nearest = build_focal_neighborhoods(ctx, [np.array([3.0, 1.0])], pop)
        assert nearest.tolist() == [0] * pop.size

    def test_own_vector_is_distance_zero_home(self):
        pop = _two_feature_pop()
        ctx = MetricContext(pop, EffortParams(), "g1")
        mutable = pop.schema.mutable_mask
        focals = [pop.X[0, mutable], pop.X[3, mutable]]
        nearest = build_focal_neighborhoods(ctx, focals, pop)
        assert nearest[0] == 0
        assert nearest[3] == 1

    def test_assignment_matches_bruteforce(self):
        for seed in (52, 53):
            pop, params, _, _ = random_instance(seed)
            ctx = MetricContext(pop, params, pop.group_names[0])
            mutable = pop.schema.mutable_mask
            rng = np.random.default_rng(seed)
            rows = rng.choice(pop.size, size=3, replace=False)
            focals = [pop.X[r, mutable] for r in rows]
            nearest = build_focal_neighborhoods(ctx, focals, pop)
            assert nearest.tolist() == oracles.focal_assignment(pop, params, pop, focals)

    def test_empty_focal_list_rejected(self):
        pop = _two_feature_pop()
        ctx = MetricContext(pop, EffortParams(), "g1")
        with pytest.raises(ValueError):
            build_focal_neighborhoods(ctx, [], pop)

    @settings(max_examples=30)
    @given(
        oracle_cases(max_individuals=10),
        st.sampled_from(["one_group", "one_group_identical", "signed_zero"]),
        st.integers(2, 4),
        st.integers(0, 2**16),
    )
    def test_each_profile_is_measured_once(self, case, pattern, copies, seed):
        base, params = case
        pop = _repeated_profiles(base, pattern, copies)
        ctx = MetricContext(base, params, base.group_names[0])
        idx = ctx.mutable_indices
        # focal vectors from the rows, so equal distances (ties) are common
        picks = np.random.default_rng(seed).integers(0, pop.size, size=3)
        focals = [pop.X[i, idx] for i in picks]
        F = np.zeros((len(focals), pop.schema.size))
        F[:, idx] = focals
        dist = np.empty((pop.size, len(focals)))
        for g in pop.group_names:
            rows = pop.group_rows(g)
            dist[rows] = ctx.engine.eps_sum(g, pop.X[rows], F, idx, weighted=False)
        measured = []
        original = EffortEngine.eps_sum

        def counting(self, group, Xa, *args, **kwargs):
            measured.append(Xa.shape[0])
            return original(self, group, Xa, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(EffortEngine, "eps_sum", counting)
            nearest = build_focal_neighborhoods(ctx, focals, pop)
        assert nearest.tolist() == np.argmin(dist, axis=1).tolist()  # the first minimum wins
        # one row per mutable profile of each group; -0.0 is 0.0
        assert measured == [
            len({tuple(r) for r in (pop.X[pop.group_rows(g)][:, idx] + 0.0).tolist()}) for g in pop.group_names
        ]


class TestAtkinson:
    def test_uniform_minority_share_scores_zero(self):
        assert atkinson_index([2, 4, 6], [4, 8, 12], 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_full_separation_scores_one(self):
        assert atkinson_index([5, 0], [5, 5], 0.5) == pytest.approx(1.0)

    def test_single_unit_scores_zero(self):
        assert atkinson_index([7], [20], 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_units = int(rng.integers(1, 9))
            totals = rng.integers(1, 30, size=n_units)
            minority = np.array([rng.integers(0, t + 1) for t in totals])
            if minority.sum() == 0 or minority.sum() == totals.sum():
                continue
            for beta in (0.1, 0.5, 0.9):
                got = atkinson_index(minority, totals, beta)
                want = oracles.atkinson(minority.tolist(), totals.tolist(), beta)
                assert got == pytest.approx(want, abs=1e-12)
                assert -1e-12 <= got <= 1.0 + 1e-12

    @settings(max_examples=50)
    @given(oracle_cases(), st.data())
    def test_measure_population_matches_focal_oracle(self, case, data):
        pop, params = case
        mutable = pop.schema.mutable_mask
        rows = data.draw(st.lists(st.integers(0, pop.size - 1), min_size=1, max_size=4))
        vectors = [pop.X[r, mutable] for r in rows]
        beta = data.draw(st.sampled_from([0.1, 0.5, 0.9]))
        ctx = MetricContext(pop, params, "a", beta=beta)
        h = LinearPredictor(pop.schema.names, np.zeros(pop.schema.size), 0.0)
        focal_points = [FocalPoint(vector=v, count=1) for v in vectors]
        got = measure_population(ctx, h, pop, focal_points, (None, None)).atkinson
        nearest = oracles.focal_assignment(pop, params, pop, vectors)
        units = range(len(vectors))
        totals = [nearest.count(u) for u in units]
        minority = [
            sum(1 for i, v in enumerate(nearest) if v == u and pop.groups[i] == "a") for u in units
        ]
        assert got == pytest.approx(oracles.atkinson(minority, totals, beta), abs=1e-12)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            atkinson_index([0, 0], [3, 3], 0.5)  # no minority present
        with pytest.raises(ValueError):
            atkinson_index([1], [2], 1.5)  # beta out of range


class TestCentralization:
    def _pop_with_predictions(self, preds, groups):
        schema = FeatureSchema(
            features=(
                Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False),
                Feature("skill", FeatureKind("numerical_monotone", direction="increasing"), mutable=True),
            ),
            sensitive="grp",
            label="y",
        )
        gcol = [0.0 if g == "g1" else 1.0 for g in groups]
        X = np.column_stack([gcol, preds])
        pop = Population(schema, X, np.zeros(len(preds)), groups)
        w = np.zeros(2)
        w[1] = 1.0
        return pop, LinearPredictor(schema.names, w, 0.0)

    def test_counts_above_threshold(self):
        pop, h = self._pop_with_predictions([10.0, 12.0, 13.0, 99.0], ["g1", "g1", "g1", "g2"])
        assert centralization(h, pop, "g1", 11.94) == pytest.approx(2 / 3)

    def test_all_below_is_zero(self):
        pop, h = self._pop_with_predictions([1.0, 2.0, 3.0], ["g1", "g1", "g2"])
        assert centralization(h, pop, "g1", 10.0) == 0.0

    def test_minus_infinity_threshold_is_one(self):
        pop, h = self._pop_with_predictions([1.0, 2.0, 3.0], ["g1", "g1", "g2"])
        assert centralization(h, pop, "g1", -math.inf) == 1.0


class TestAbsoluteClustering:
    def test_frozen_hand_instance(self):
        pop = _two_feature_pop()
        ctx = MetricContext(pop, EffortParams(categorical_cost=0.5), "g1")
        got = _aci(ctx, pop)
        assert got == pytest.approx(ACI_HAND_VALUE, abs=1e-12)

    def test_equal_distances_closed_form(self):
        schema = FeatureSchema(
            features=(
                Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False),
                Feature("tribe", FeatureKind("categorical", levels=("a", "b", "c", "d")), mutable=True),
            ),
            sensitive="grp",
            label="y",
        )
        X = np.array([[0, 0], [0, 1], [1, 2], [1, 3]], dtype=float)
        pop = Population(schema, X, np.zeros(4), ["g1", "g1", "g2", "g2"])
        ctx = MetricContext(pop, EffortParams(categorical_cost=0.5), "g1")
        c = math.exp(-0.5)
        closed_form = (1 - c) / (1 + (pop.size - 1) * c)
        got = _aci(ctx, pop)
        assert got == pytest.approx(closed_form, abs=1e-12)

    def test_permutation_invariance(self):
        pop, params, _, _ = random_instance(54)
        ctx = MetricContext(pop, params, pop.group_names[0])
        value = _aci(ctx, pop)
        perm = np.random.default_rng(1).permutation(pop.size)
        shuffled = Population(pop.schema, pop.X[perm], pop.y[perm], [pop.groups[i] for i in perm])
        got = _aci(ctx, shuffled)
        assert got == pytest.approx(value, abs=1e-10)

    def test_matches_oracle_on_random_instances(self):
        for seed in (55, 56, 57):
            pop, params, _, _ = random_instance(seed)
            minority = pop.group_names[0]
            ctx = MetricContext(pop, params, minority)
            got = _aci(ctx, pop)
            D = oracles.distance_matrix(pop, params, pop)
            flags = [1 if g == minority else 0 for g in pop.groups]
            want = oracles.aci(D, flags)
            assert got == pytest.approx(want, abs=1e-10)

    def test_duplicated_population_scale_check(self):
        # doubling every individual: the library stays an exact evaluation of
        # the formula (checked against the oracle at the doubled scale)
        pop, params, _, _ = random_instance(58, max_individuals=16)
        minority = pop.group_names[0]
        doubled = Population(
            pop.schema,
            np.vstack([pop.X, pop.X]),
            np.concatenate([pop.y, pop.y]),
            list(pop.groups) * 2,
        )
        ctx = MetricContext(doubled, params, minority)
        got = _aci(ctx, doubled)
        D = oracles.distance_matrix(doubled, params, doubled)
        flags = [1 if g == minority else 0 for g in doubled.groups]
        assert got == pytest.approx(oracles.aci(D, flags), abs=1e-10)


class TestSpectralSegregation:
    def test_two_member_closed_form(self):
        # two g1 members at symmetric distance 0.5 (categorical flip),
        # so the component matrix is [[0, c], [c, 0]] with c = exp(-0.5)
        schema = FeatureSchema(
            features=(
                Feature("grp", FeatureKind("immutable", levels=("g1", "g2")), mutable=False),
                Feature("club", FeatureKind("categorical", levels=("no", "yes")), mutable=True),
            ),
            sensitive="grp",
            label="y",
        )
        X = np.array([[0, 0], [0, 1], [1, 0]], dtype=float)
        pop = Population(schema, X, np.zeros(3), ["g1", "g1", "g2"])
        ctx = MetricContext(pop, EffortParams(categorical_cost=0.5), "g1")
        value = spectral_segregation(_closeness(ctx, pop, "g1"), np.ones(2))
        assert value == pytest.approx(math.exp(-0.5), abs=1e-8)

    def test_threshold_above_everything_gives_zero(self):
        pop = _two_feature_pop()
        ctx = MetricContext(pop, EffortParams(), "g1")
        assert spectral_segregation(_closeness(ctx, pop, "g1"), np.ones(2), connectivity_threshold=2.0) == 0.0

    def test_singleton_group_scores_zero(self):
        pop = single_group_pop([1.0])
        ctx = MetricContext(pop, EffortParams(), "g1")
        assert spectral_segregation(_closeness(ctx, pop, "g1"), np.ones(1)) == 0.0

    def test_connected_block_iterated_without_a_copy(self):
        # A component spanning the whole block is shifted and iterated in
        # place: beyond its input, SSI allocates less than one more block.
        m = 600
        block = np.exp(-np.random.default_rng(0).random((m, m)))  # connected: every entry > 1e-6
        want = spectral_segregation(block.copy(), np.ones(m))
        tracemalloc.start()
        try:
            got = spectral_segregation(block, np.ones(m))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < block.nbytes, peak

    def test_matches_dense_eigensolver_oracle(self):
        for seed in (58, 59, 60):
            pop, params, _, _ = random_instance(seed)
            group = pop.group_names[0]
            ctx = MetricContext(pop, params, group)
            got = spectral_segregation(_closeness(ctx, pop, group), np.ones(pop.group_size(group)))
            D = np.array(oracles.distance_matrix(pop, params, pop))
            rows = pop.group_rows(group)
            B = np.exp(-D[np.ix_(rows, rows)])
            np.fill_diagonal(B, 0.0)
            B[B < 1e-6] = 0.0
            assert got == pytest.approx(oracles.ssi(B), abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_several_components_match_dense_eigensolver_oracle(self, seed):
        # asymmetric blocks on the diagonal, with singletons between them,
        # then one permutation of rows and columns to scatter the members
        rng = np.random.default_rng(seed)
        sizes = [int(k) for k in rng.integers(2, 7, size=int(rng.integers(2, 5)))] + [1, 1]
        B = np.zeros((sum(sizes), sum(sizes)))
        lo = 0
        for size in sizes:
            block = rng.uniform(0.05, 1.0, (size, size)) * (rng.random((size, size)) < 0.8)
            block[np.arange(size), (np.arange(size) + 1) % size] = rng.uniform(0.05, 1.0, size)
            B[lo : lo + size, lo : lo + size] = block  # the cycle keeps each block connected
            lo += size
        np.fill_diagonal(B, 0.0)
        perm = rng.permutation(len(B))
        B = B[np.ix_(perm, perm)]
        assert not np.array_equal(B, B.T)
        assert sum(comp.size > 1 for comp in _components(B)) >= 2
        assert spectral_segregation(B.copy(), np.ones(len(B))) == pytest.approx(oracles.ssi(B), abs=1e-8)

    @pytest.mark.parametrize(
        "M",
        [
            [[0.0, 2.0, 0.5], [1.0, 0.0, 3.0], [0.2, 0.7, 0.0]],
            [[0.0, 0.9, 0.0, 0.0], [0.0, 0.0, 0.4, 0.0], [0.1, 0.0, 0.0, 0.8], [0.6, 0.3, 0.0, 0.0]],
        ],
    )
    def test_power_iteration_on_asymmetric_matrix(self, M):
        # nonnegative, asymmetric, strongly connected: a unique Perron root
        M = np.array(M)
        assert not np.array_equal(M, M.T)
        eigvals = np.linalg.eigvals(M)
        assert _spectral_radius(M) == pytest.approx(float(eigvals.real.max()), abs=1e-8)


class TestDuplicatedPopulation:
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("seed", [3, 58, 200])
    def test_how_each_index_grows_with_group_size(self, seed, k):
        # Every row repeated k times, measured against the original's frozen
        # context: duplicates sit at distance 0 (closeness 1), so each
        # component's network becomes C kron J_k - I with C = B + I, whose
        # spectral radius is k * (lambda + 1) - 1. SSI follows suit; the
        # shares and ratios behind the other three indices do not move.
        pop, params, h, _ = random_instance(seed)
        ctx = MetricContext(pop, params, pop.group_names[0], centralization_threshold=0.0)
        mutable = ctx.mutable_indices
        focal = [FocalPoint(vector=pop.X[i, mutable], count=1) for i in (0, pop.size // 2, pop.size - 1)]
        before, after = (
            measure_population(ctx, h, p, focal, distance_indices(ctx, p))
            for p in (pop, pop.take(np.repeat(np.arange(pop.size), k)))
        )
        assert after.ssi == pytest.approx(k * (before.ssi + 1.0) - 1.0, rel=1e-9)
        for measure in ("aci", "atkinson", "centralization"):
            assert getattr(after, measure) == pytest.approx(getattr(before, measure), abs=1e-12)


class TestCompare:
    def test_identical_populations_identical_reports(self):
        pop, params, h, _ = random_instance(62)
        ctx = MetricContext(pop, params, pop.group_names[0], centralization_threshold=0.0)
        impact = run_simulate(h, pop, params)
        before, after = (
            measure_population(ctx, h, pop, impact.focal_points, distance_indices(ctx, pop))
            for _ in range(2)
        )
        assert before.values() == after.values()

    def test_reports_complete_with_metadata(self, student_split):
        train, _ = student_split
        params = EffortParams()
        ctx = MetricContext(train, params, "F", centralization_threshold=11.94)
        h = LinearPredictor(train.schema.names, np.zeros(train.schema.size), 11.0)
        indices = distance_indices(ctx, train)
        rep = measure_population(ctx, h, train, [], indices)
        assert rep.atkinson is None  # no focal points
        assert "atkinson_absent" in rep.metadata
        assert rep.metadata["beta"] == 0.5
        assert rep.metadata["threshold"] == 11.94
        assert rep.metadata["minority"] == "F"
        assert set(rep.values()) == {"atkinson", "centralization", "aci", "ssi"}

    def test_before_after_use_frozen_reference(self):
        pop, params, h, _ = random_instance(63)
        ctx = MetricContext(pop, params, pop.group_names[0], centralization_threshold=0.0)
        impact = run_simulate(h, pop, params)
        if not impact.focal_points:
            pytest.skip("instance produced no movers")
        before, after = (
            measure_population(ctx, h, p, impact.focal_points, distance_indices(ctx, p))
            for p in (pop, impact.impacted)
        )
        # the impacted population is measured against the initial tables, so
        # recomputing with a context frozen on the impacted data must differ
        # in general; here we just assert both reports are complete
        assert before.centralization is not None and after.centralization is not None


class TestStreamedIndices:
    @settings(max_examples=40)
    @given(st.one_of(oracle_cases(), oracle_cases(max_individuals=10, n_groups=3)))
    def test_equal_oracles_at_any_tile_height(self, case):
        pop, params = case
        D = np.array(oracles.distance_matrix(pop, params, pop))
        for minority in pop.group_names:
            ctx = MetricContext(pop, params, minority)
            flags = [1 if g == minority else 0 for g in pop.groups]
            want_aci = oracles.aci(D.tolist(), flags)
            want_ssi = oracles.ssi(_member_block(D, pop.group_rows(minority)))
            dense_ssi = spectral_segregation(_closeness(ctx, pop, minority), np.ones(pop.group_size(minority)))
            distinct = _class_count(ctx, pop, minority) == pop.group_size(minority)
            for height in (1, 3, 7):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(effort, "tile_rows", lambda n_cols: height)
                    aci, ssi = distance_indices(ctx, pop)
                assert aci == pytest.approx(want_aci, abs=1e-12)
                # a minority of distinct rows is its own classes: bit for bit
                # the dense definition's SSI; the eigensolver oracle agrees to
                # the power iteration's tolerance
                if distinct:
                    assert ssi == dense_ssi
                assert ssi == pytest.approx(want_ssi, abs=1e-8)

    def test_peak_memory_below_two_n_squared(self):
        pop = synthetic_student_pop(1500)
        ctx = MetricContext(pop, EffortParams(), "F")
        tracemalloc.start()
        try:
            distance_indices(ctx, pop)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * pop.size**2


def _member_block(D, rows, threshold=1e-6):
    """The member network of the rows ``rows`` of distance matrix ``D``."""
    return _network(np.exp(-np.asarray(D)[np.ix_(rows, rows)]), threshold)


def _network(closeness, threshold):
    """A copy of a member-level ``closeness`` block with a zero diagonal and the entries below ``threshold`` dropped."""
    B = np.array(closeness, dtype=float)
    np.fill_diagonal(B, 0.0)
    B[B < threshold] = 0.0
    return B


def _class_count(ctx, pop, group):
    """The number of distinct (mutable, label) profiles in ``group``; -0.0 is 0.0, each NaN its own."""
    idx, XY = segregation._view(ctx, pop)
    rows = XY[pop.group_rows(group)][:, idx] + 0.0
    nan = np.isnan(rows).any(axis=1)
    return len({tuple(r) for r in rows[~nan].tolist()}) + int(nan.sum())


def _repeated_profiles(pop, pattern, copies):
    """``pop`` with repeated (mutable, label) profiles in group "a" (in every group for "signed_zero")."""
    a = pop.group_rows("a")
    X, y = pop.X.copy(), pop.y.copy()
    if pattern == "one_group_identical":
        X[a], y[a] = X[a[0]], y[a[0]]
        return Population(pop.schema, X, y, pop.groups)
    repeat = np.arange(pop.size) if pattern == "signed_zero" else a
    rows = np.concatenate([np.arange(pop.size)] + [repeat] * (copies - 1))
    rows = rows[np.random.default_rng(copies).permutation(rows.size)]  # copies apart
    X, y = X[rows], y[rows]
    if pattern == "signed_zero":
        X[1::2] = np.where(X[1::2] == 0.0, -0.0, X[1::2])
        y[1::2] = np.where(y[1::2] == 0.0, -0.0, y[1::2])
    return Population(pop.schema, X, y, [pop.groups[i] for i in rows])


def _expanded(C, sizes, threshold):
    """The member network of classes with closeness ``C`` and member counts ``sizes``."""
    of_member = np.repeat(np.arange(len(sizes)), sizes)
    return _network(C[np.ix_(of_member, of_member)], threshold)


class TestProfileClasses:
    """A population with repeated profiles is measured on its classes: the member-level indices."""

    @settings(max_examples=30)
    @given(
        oracle_cases(max_individuals=10),
        st.sampled_from(["one_group", "one_group_identical", "signed_zero"]),
        st.integers(2, 4),
    )
    def test_equal_the_oracles_on_the_member_block(self, case, pattern, copies):
        base, params = case
        pop = _repeated_profiles(base, pattern, copies)
        D = np.array(oracles.distance_matrix(base, params, pop))
        for minority in pop.group_names:
            ctx = MetricContext(base, params, minority)
            want_aci = oracles.aci(D.tolist(), [1 if g == minority else 0 for g in pop.groups])
            want_ssi = oracles.ssi(_member_block(D, pop.group_rows(minority)))
            for height in (None, 1, 3, 7):
                walk: dict = {}
                with pytest.MonkeyPatch.context() as mp:
                    if height is not None:
                        mp.setattr(effort, "tile_rows", lambda n_cols: height)
                    aci, ssi = distance_indices(ctx, pop, walk)
                assert aci == pytest.approx(want_aci, abs=1e-12)
                assert ssi == pytest.approx(want_ssi, abs=1e-8)
                classes = {g: _class_count(ctx, pop, g) for g in pop.group_names}
                assert walk["classes"] == classes
                assert (walk["cells"], walk["pairs"]) == (sum(classes.values()) ** 2, pop.size**2)

    @pytest.mark.parametrize("height", [1, 3, 7])
    def test_one_class_spanning_the_group_scores_m_minus_one(self, height):
        pop = _two_feature_pop()
        X, y = pop.X.copy(), pop.y.copy()
        g1 = pop.group_rows("g1")
        rows = np.concatenate([np.arange(pop.size)] + [g1] * 5)  # seven g1 members of one profile
        X[g1], y[g1] = X[g1[0]], y[g1[0]]
        pop = Population(pop.schema, X[rows], y[rows], [pop.groups[i] for i in rows])
        ctx = MetricContext(_two_feature_pop(), EffortParams(), "g1")
        walk: dict = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(effort, "tile_rows", lambda n_cols: height)
            _, ssi = distance_indices(ctx, pop, walk)
        assert walk["classes"] == {"g1": 1, "g2": 2}
        assert ssi == pop.group_size("g1") - 1 == 11

    @pytest.mark.parametrize("height", [1, 3, 7])
    def test_signed_zeros_are_one_class_and_nan_rows_each_their_own(self, height):
        pop = _two_feature_pop()
        X = pop.X.copy()
        X[:, 2] = 0.0  # the categorical column
        signed = X.copy()
        signed[:, 2] = -0.0
        nan = X[[0, 0, 1]].copy()
        nan[:, 1] = np.nan  # three g1 rows holding NaN, two of them identical: three classes
        X = np.vstack([X, signed, nan])
        y = np.concatenate([pop.y, pop.y, pop.y[[0, 0, 1]]])
        groups = list(pop.groups) * 2 + ["g1"] * 3
        pop2 = Population(pop.schema, X, y, groups)
        ctx = MetricContext(pop, EffortParams(), "g1")
        walk: dict = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(effort, "tile_rows", lambda n_cols: height)
            aci, ssi = distance_indices(ctx, pop2, walk)
        assert walk["classes"] == {"g1": 5, "g2": 2}
        assert walk["cells"] == 49
        D = pairwise_distances(ctx, pop2)  # the dense definition, row by row
        assert aci == pytest.approx(oracles.aci(D.tolist(), [int(g == "g1") for g in groups]), abs=1e-12)
        assert ssi == pytest.approx(oracles.ssi(_member_block(D, pop2.group_rows("g1"))), abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("threshold", [0.3, 1.5])
    def test_quotient_equals_the_expanded_member_network(self, seed, threshold):
        # Classes 0-2 and 3-5 are tied among themselves with closeness
        # between 1.6 and 3, asymmetric, and 1 within each class; every other
        # tie is 0.2, so both thresholds split the group into components.
        # A threshold of 1.5 also removes every tie inside a class: class 6's
        # members are isolated and the others tied only across classes.
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, size=7)
        C = np.full((7, 7), 0.2)
        for block in (slice(0, 3), slice(3, 6)):
            C[block, block] = rng.uniform(1.6, 3.0, (3, 3))
        np.fill_diagonal(C, 1.0)
        assert len(oracles.components(_expanded(C, sizes, 1e-6))) == 1
        B = _expanded(C, sizes, threshold)
        assert len(oracles.components(B)) >= 3
        got = spectral_segregation(C.copy(), sizes, threshold)
        assert got == pytest.approx(oracles.ssi(B), abs=1e-8)

    @pytest.mark.parametrize("seed", [1, 2, 3, 5])
    def test_one_way_ties_match_the_expanded_member_network(self, seed):
        # Within classes 0-2 and 3-5 the closeness is U(0.05, 3), so at 1.5
        # some of their ties run one way only. Power iteration does not
        # converge on such a component (on each of these seeds); its Perron
        # root is the largest over its strongly connected parts.
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 5, size=7)
        C = np.full((7, 7), 0.2)
        for block in (slice(0, 3), slice(3, 6)):
            C[block, block] = rng.uniform(0.05, 3.0, (3, 3))
        np.fill_diagonal(C, 1.0)
        got = spectral_segregation(C.copy(), sizes, 1.5)
        assert got == pytest.approx(oracles.ssi(_expanded(C, sizes, 1.5)), abs=1e-8)
        if seed == 1:
            assert got == pytest.approx(3.1883827117436336, abs=1e-8)

    def test_one_way_ties_between_equal_classes(self):
        # Two classes of two members, each tied within at closeness 1, a tie
        # from the first to the second only, and one from the second to a
        # class of one member: the quotient [[1, 1.6, 0], [0, 1, 0.7],
        # [0, 0, 0]] repeats its top root 1, which power iteration does not
        # find; its strongly connected parts have roots 1, 1 and 0.
        C = np.array([[1.0, 0.8, 0.0], [0.1, 1.0, 0.7], [0.0, 0.1, 1.0]])
        sizes = np.array([2, 2, 1])
        B = _expanded(C, sizes, 0.3)
        assert len(oracles.components(B)) == 1
        Q = np.array([[1.0, 1.6, 0.0], [0.0, 1.0, 0.7], [0.0, 0.0, 0.0]])
        assert _spectral_radius(Q.copy()) is None
        assert spectral_segregation(C.copy(), sizes, 0.3) == pytest.approx(1.0, abs=1e-8)
        assert oracles.ssi(B) == pytest.approx(1.0, abs=1e-6)  # eig on a repeated root

    def test_all_distinct_population_is_its_own_classes(self):
        pop = synthetic_student_pop(300)
        ctx = MetricContext(pop, EffortParams(), "F")
        walk: dict = {}
        _, ssi = distance_indices(ctx, pop, walk)
        assert walk["classes"] == walk["rows"] == {g: pop.group_size(g) for g in pop.group_names}
        assert walk["cells"] == walk["pairs"] == pop.size**2
        assert ssi == spectral_segregation(_closeness(ctx, pop, "F"), np.ones(pop.group_size("F")))


class TestComponents:
    @pytest.mark.parametrize("seed", range(8))
    def test_match_search_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 60))
        weights = rng.random((n, n))
        for adj in (
            np.zeros((n, n)),
            np.ones((n, n)),
            weights * (rng.random((n, n)) < 2.0 / max(n, 1)),  # sparse, asymmetric
            np.triu(weights * (rng.random((n, n)) < 0.1), k=1),  # every edge one-way
        ):
            got = [c.tolist() for c in _components(adj)]
            assert got == oracles.components(adj.tolist())


def _strong_reference(adj) -> list[list[int]]:
    """Strongly connected parts by a transitive closure: i and j share a part when each reaches the other."""
    n = len(adj)
    reach = (np.asarray(adj) != 0.0) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k, None] & reach[None, k, :]
    mutual = reach & reach.T
    return sorted({tuple(np.flatnonzero(mutual[i]).tolist()) for i in range(n)})


class TestStrongComponents:
    @pytest.mark.parametrize("seed", range(8))
    def test_match_closure_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 40))
        weights = rng.random((n, n))
        for adj in (
            np.zeros((n, n)),
            np.ones((n, n)),
            weights * (rng.random((n, n)) < 1.5 / max(n, 1)),  # sparse, asymmetric
            np.triu(weights * (rng.random((n, n)) < 0.2), k=1),  # every edge one-way
        ):
            got = _strong_components(adj)
            assert all(np.array_equal(part, np.sort(part)) for part in got)
            assert sorted(tuple(part.tolist()) for part in got) == _strong_reference(adj)

    def test_long_one_way_chain(self):
        n = 1500  # deeper than Python's recursion limit
        adj = np.zeros((n, n))
        adj[np.arange(n - 1), np.arange(1, n)] = 1.0
        assert [part.tolist() for part in _strong_components(adj)] == [[i] for i in reversed(range(n))]
