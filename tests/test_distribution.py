import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperharmonic import (
    CapacityError,
    ContinuousSeriesTable,
    DiscreteSeriesTable,
    EntropyOracle,
    EstimationError,
    GaussianModel,
    JointDistribution,
    ValidationError,
    copula_gaussian_fit,
    estimate_empirical,
    read_continuous_csv,
    read_discrete_csv,
)
from hyperharmonic import distribution
from hyperharmonic.distribution import (
    SMOOTHING_SUPPORT_CAP,
    _normal_scores,
    distinct_rows,
    normal_quantile,
    read_model,
    subset_entropies_nats,
    write_model,
)
from hyperharmonic.simplices import enumerate_simplices

import dict_reference
from reference import average_ranks, entropy, entropy_nats, marginalize
from conftest import dense_to_distribution, mass_dict, random_pmf, random_table, xor_triple


def make_table(*columns, alphabet_sizes=None):
    columns = [np.array(c) for c in columns]
    if alphabet_sizes is None:
        alphabet_sizes = [int(c.max()) + 1 for c in columns]
    return DiscreteSeriesTable(
        variable_names=tuple(f"v{i}" for i in range(len(columns))),
        samples=np.column_stack(columns),
        alphabet_sizes=tuple(alphabet_sizes),
    )


@st.composite
def sorted_pmfs_and_orders(draw):
    """(sizes, support, masses) of up to 40 outcomes, the support in
    lexicographic order, and a permutation of its rows. Alphabets go up to
    2**40, so products of two or more can pass int64."""
    sizes = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 5, 2**40]), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    S = draw(st.integers(1, 40))
    rows = np.unique(np.column_stack([rng.integers(0, a, size=S) for a in sizes]), axis=0)
    masses = rng.random(len(rows)) + 0.05
    return (sizes, rows, masses / masses.sum()), draw(st.permutations(range(len(rows))))


@st.composite
def sparse_pmfs(draw):
    """A pmf built from a support in random order."""
    (sizes, rows, masses), order = draw(sorted_pmfs_and_orders())
    return JointDistribution(sizes, rows[order], masses[order])


class TestSampleTables:
    @pytest.mark.parametrize("dtype, make", [
        (np.int64, lambda X: DiscreteSeriesTable(("a", "b"), samples=X, alphabet_sizes=(3, 3))),
        (np.float64, lambda X: ContinuousSeriesTable(("a", "b"), samples=X)),
    ], ids=["discrete", "continuous"])
    def test_table_keeps_its_own_read_only_copy(self, dtype, make):
        X = np.array([[0, 1], [2, 0], [1, 1]], dtype=dtype)
        table = make(X)
        X[0, 0] = 2
        assert table.samples.tolist() == [[0, 1], [2, 0], [1, 1]]
        assert table.samples.dtype == dtype
        assert (table.num_samples, table.num_variables) == (3, 2)
        with pytest.raises(ValueError):
            table.samples[0, 0] = 1

    @pytest.mark.parametrize("names, samples", [
        (("a", "b"), [[0, 1], [1]]),
        (("a",), [0, 1, 1]),
        (("a", "b", "c"), [[0, 1], [1, 0]]),
        (("a", "b"), np.zeros((0, 2), dtype=np.int64)),
        ((), np.zeros((3, 0), dtype=np.int64)),
    ], ids=["ragged", "one-dimensional", "name-count", "no-samples", "no-variables"])
    def test_malformed_samples_rejected(self, names, samples):
        with pytest.raises(ValidationError):
            DiscreteSeriesTable(names, samples=samples, alphabet_sizes=(2,) * len(names))
        with pytest.raises(ValidationError):
            ContinuousSeriesTable(names, samples=samples)

    @pytest.mark.parametrize("sizes", [(2, 3.9), (2, "3"), (True, 3)],
                             ids=["fractional", "text", "bool"])
    def test_alphabet_sizes_must_be_integers(self, sizes):
        with pytest.raises(ValidationError, match="alphabet size must be an integer"):
            DiscreteSeriesTable(("a", "b"), samples=[[0, 1], [1, 2]], alphabet_sizes=sizes)

    def test_integral_float_alphabet_size_accepted(self):
        table = DiscreteSeriesTable(("a", "b"), samples=[[0, 1], [1, 2]], alphabet_sizes=(2.0, 3))
        assert table.alphabet_sizes == (2, 3) and type(table.alphabet_sizes[0]) is int

    def test_first_bad_column_is_named(self):
        with pytest.raises(ValidationError, match=r"column 'b' has values outside \[0, 1\]"):
            DiscreteSeriesTable("abc", samples=[[0, 2, 5], [1, 0, 0]], alphabet_sizes=(2, 2, 2))
        with pytest.raises(ValidationError, match="column 'c' contains non-finite values"):
            ContinuousSeriesTable("abcd", samples=[[0, 1, np.nan, np.inf], [1, 2, 0, 0]])


class TestEstimateEmpirical:
    def test_uniform_counts(self):
        dist = estimate_empirical(make_table([0, 0, 1, 1], [0, 1, 0, 1]))
        assert mass_dict(dist) == {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}

    def test_xor_rows(self):
        rows = [(a, b, a ^ b) for a in (0, 1) for b in (0, 1)]
        cols = list(zip(*rows))
        dist = estimate_empirical(make_table(*cols))
        expected, _ = xor_triple()
        assert mass_dict(dist) == mass_dict(expected)

    def test_point_mass(self):
        dist = estimate_empirical(make_table([2, 2, 2], alphabet_sizes=[3]))
        assert mass_dict(dist) == {(2,): 1.0}

    def test_unobserved_absent(self):
        dist = estimate_empirical(make_table([0, 0, 1], [1, 1, 0]))
        assert (0, 0) not in mass_dict(dist)
        assert mass_dict(dist)[(0, 1)] == pytest.approx(2 / 3)

    def test_out_of_alphabet_symbol(self):
        with pytest.raises(ValidationError):
            make_table([0, 3], alphabet_sizes=[2])

    def test_empty_table(self):
        with pytest.raises(ValidationError):
            make_table([], alphabet_sizes=[2])

    def test_smoothing_densifies(self):
        table = make_table([0, 0], [1, 1], alphabet_sizes=[2, 2])
        dist = estimate_empirical(table, smoothing=1.0)
        assert len(mass_dict(dist)) == 4
        assert mass_dict(dist)[(0, 1)] == pytest.approx(3 / 6)
        assert mass_dict(dist)[(1, 0)] == pytest.approx(1 / 6)

    @pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), -0.5])
    def test_bad_smoothing_rejected_before_counting(self, smoothing):
        # The product alphabet is past the smoothing cap, so a value that got
        # past the check would raise CapacityError instead.
        table = make_table([0, 1], alphabet_sizes=[SMOOTHING_SUPPORT_CAP + 1])
        with pytest.raises(ValidationError, match="smoothing"):
            estimate_empirical(table, smoothing=smoothing)
        with pytest.raises(CapacityError):
            estimate_empirical(table, smoothing=0.5)

    @given(st.integers(0, 2 ** 31 - 1), st.lists(st.integers(1, 4), min_size=1, max_size=7),
           st.integers(1, 400), st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_reference(self, seed, sizes, num_samples, smoothing):
        table = random_table(seed, sizes, num_samples)
        dict_reference.assert_same_pmf(
            estimate_empirical(table, smoothing=smoothing),
            dict_reference.estimate_empirical(table, smoothing=smoothing),
        )


class TestJointDistribution:
    def test_arrays_are_read_only_copies(self):
        outcomes = np.array([[0, 1], [1, 0]])
        masses = np.array([0.5, 0.5])
        dist = JointDistribution((2, 2), outcomes, masses)
        outcomes[0, 0] = 1
        masses[0] = 0.25
        assert mass_dict(dist) == {(0, 1): 0.5, (1, 0): 0.5}
        assert not dist.outcomes.flags.writeable and not dist.masses.flags.writeable
        assert dist.num_variables == 2 and dist.support_size() == 2

    @pytest.mark.parametrize("sizes,outcomes,masses", [
        ((2, 2), [(0, 0), (0, 0), (1, 1)], [0.25, 0.25, 0.5]),
        ((2, 2), [(0, 0), (1, 1)], [float("nan"), 1.0]),
        ((2, 2), [(0, 0), (1, 1)], [float("inf"), 0.5]),
        ((2, 2), [(0, 0), (1, 1)], [0.0, 1.0]),
        ((2, 2), [(0, 0), (1, 2)], [0.5, 0.5]),
        ((2, 2), [(0,), (1,)], [0.5, 0.5]),
        ((2, 2), [(0, 0), (1, 1)], [0.5, 0.4]),
        ((2, 2), np.zeros((0, 2)), []),
        ((2, 2), [(0.5, 1), (1, 1)], [0.5, 0.5]),
        ((2, 2), [(float("nan"), 0), (1, 1)], [0.5, 0.5]),
        ((2, 2), [(1e30, 0), (1, 1)], [0.5, 0.5]),
        ((2, 2.5), [(0, 0), (1, 1)], [0.5, 0.5]),
        (("2", True), [(0, 0), (1, 0)], [0.5, 0.5]),
        ((2, [2]), [(0, 0), (1, 1)], [0.5, 0.5]),
    ], ids=["repeated", "nan", "inf", "zero", "outside", "arity", "total", "empty",
            "fractional-outcome", "nan-outcome", "huge-outcome", "fractional-size",
            "text-and-bool-sizes", "list-size"])
    def test_invalid_pmf_rejected(self, sizes, outcomes, masses):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                JointDistribution(sizes, outcomes, masses)

    def test_fractional_outcome_named_as_given(self):
        with pytest.raises(ValidationError, match=r"outcome \[0\.5, 1\.0\] is not integral"):
            JointDistribution((2, 2), [(0.5, 1), (1, 1)], [0.5, 0.5])

    def test_integral_float_outcomes_accepted(self):
        dist = JointDistribution((2, 2), np.array([[1.0, 0.0], [0.0, 1.0]]), [0.25, 0.75])
        assert dist.outcomes.dtype == np.int64
        assert mass_dict(dist) == {(0, 1): 0.75, (1, 0): 0.25}

    @given(sorted_pmfs_and_orders())
    @settings(max_examples=80, deadline=None)
    def test_support_held_in_lexicographic_order(self, case):
        (sizes, rows, masses), order = case
        dist = JointDistribution(sizes, rows[order], masses[order])
        assert dist.outcomes.tobytes() == rows.tobytes()
        assert dist.masses.tobytes() == masses.tobytes()
        assert not dist.outcomes.flags.writeable and not dist.masses.flags.writeable

    @given(sorted_pmfs_and_orders())
    @settings(max_examples=40, deadline=None)
    def test_model_file_round_trip(self, tmp_path_factory, case):
        (sizes, rows, masses), order = case
        dist = JointDistribution(sizes, rows[order], masses[order])
        path = tmp_path_factory.mktemp("model") / "model.json"
        write_model(path, dist)
        back = read_model(path)
        assert back.alphabet_sizes == dist.alphabet_sizes
        assert back.outcomes.tobytes() == dist.outcomes.tobytes()
        assert back.masses.tobytes() == dist.masses.tobytes()


class TestMarginalize:
    def test_full_set_identity(self):
        dist, _ = xor_triple()
        assert marginalize(dist, (0, 1, 2)) is dist

    def test_xor_pair_is_independent(self):
        dist, _ = xor_triple()
        pair = marginalize(dist, (0, 2))
        assert mass_dict(pair) == {
            (0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25
        }

    def test_product_projects_to_factor(self):
        coins = dense_to_distribution(np.full((2, 2), 0.25))
        single = marginalize(coins, (1,))
        assert mass_dict(single) == {(0,): 0.5, (1,): 0.5}

    def test_rejects_bad_subsets(self):
        dist, _ = xor_triple()
        with pytest.raises(ValidationError):
            marginalize(dist, ())
        with pytest.raises(ValidationError):
            marginalize(dist, (1, 1))
        with pytest.raises(ValidationError):
            marginalize(dist, (0, 3))

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_mass_conserved(self, seed, subset_size):
        rng = np.random.default_rng(seed)
        dist, _ = random_pmf(rng, (2, 3, 2, 2))
        subset = tuple(sorted(rng.choice(4, size=subset_size, replace=False)))
        marginal = marginalize(dist, subset)
        assert math.fsum(mass_dict(marginal).values()) == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_axis_sum(self, seed, subset_size):
        rng = np.random.default_rng(seed)
        dist, dense = random_pmf(rng, (2, 3, 2))
        subset = tuple(sorted(rng.choice(3, size=subset_size, replace=False)))
        marginal = marginalize(dist, subset)
        axes = tuple(i for i in range(3) if i not in subset)
        reference = dense.sum(axis=axes) if axes else dense
        for idx, value in np.ndenumerate(reference):
            if value > 0:
                assert mass_dict(marginal)[idx] == pytest.approx(value, abs=1e-12)
            else:
                assert idx not in mass_dict(marginal)

    @given(st.integers(0, 2 ** 31 - 1), st.lists(st.integers(1, 4), min_size=2, max_size=6),
           st.integers(1, 400), st.sampled_from([0.0, 0.5]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_reference(self, seed, sizes, num_samples, smoothing, data):
        dist = estimate_empirical(random_table(seed, sizes, num_samples), smoothing=smoothing)
        for _ in range(3):
            subset = tuple(sorted(data.draw(st.sets(
                st.integers(0, len(sizes) - 1), min_size=1, max_size=len(sizes) - 1))))
            dict_reference.assert_same_pmf(
                marginalize(dist, subset), dict_reference.marginalize(mass_dict(dist), subset)
            )


class TestDistinctRows:
    @given(st.integers(1, 4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_key_and_row_paths_agree(self, width, data):
        cell = st.integers(-3, 3) | st.sampled_from([-2**63, 2**63 - 1])
        rows = np.array(data.draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                                           min_size=1, max_size=40)), dtype=np.int64)
        distinct, groups = distinct_rows(rows)
        with mock.patch.object(distribution, "_INT64_MAX", 0):  # every product is too large
            by_rows = distinct_rows(rows)
        assert np.array_equal(distinct, by_rows[0]) and np.array_equal(groups, by_rows[1])
        assert np.array_equal(distinct[groups], rows)
        assert [tuple(r) for r in distinct.tolist()] == sorted(set(map(tuple, rows.tolist())))


class TestSubsetEntropies:
    """The blocked bincount kernel against one ``entropy_nats(marginalize(...))``
    per subset, bit for bit."""

    @staticmethod
    def per_subset(dist, subsets):
        return np.array([entropy_nats(marginalize(dist, s)) for s in subsets.tolist()])

    @given(sparse_pmfs(), st.integers(1, 400))
    @settings(max_examples=80, deadline=None)
    def test_levels_equal_per_subset_entropies(self, dist, budget):
        with mock.patch.object(distribution, "_BLOCK_BUDGET", budget):
            for k in range(1, dist.num_variables + 1):
                subsets = enumerate_simplices(dist.num_variables - 1, k - 1)
                assert np.array_equal(subset_entropies_nats(dist, subsets)[0],
                                      self.per_subset(dist, subsets))

    def test_every_grouping_path_in_one_level(self):
        # Seven bits, one alphabet of 600 and two of 2**40. With room for four
        # binary triples per block, the 35 binary triples of level 3 form eight
        # blocks of four and one of three. Every other triple has more bins than
        # the budget and is sorted; the one with both large alphabets spans
        # symbols whose key product passes int64, so it is grouped by rows.
        rng = np.random.default_rng(3)
        sizes = (2,) * 7 + (600, 2**40, 2**40)
        rows = np.column_stack([rng.integers(0, a, size=200) for a in sizes])
        dist = JointDistribution(sizes, rows, np.full(len(rows), 1.0 / len(rows)))
        subsets = enumerate_simplices(9, 2)
        blocks = []
        binned = distribution._binned_entropies

        def spy(columns, masses, block, radix):
            blocks.append(len(block))
            return binned(columns, masses, block, radix)

        budget = 4 * (len(rows) + 8)
        with mock.patch.object(distribution, "_BLOCK_BUDGET", budget), \
                mock.patch.object(distribution, "_binned_entropies", spy):
            values, _ = subset_entropies_nats(dist, subsets)
        assert blocks == [4] * 8 + [3]
        assert np.array_equal(values, self.per_subset(dist, subsets))

    def test_terms_equal_python_products(self):
        # np.log differs from math.log in the last place on a few of these.
        p = np.random.default_rng(5).random(100_000)
        assert distribution._entropy_terms(p) == [x * math.log(x) for x in p.tolist()]

    def test_level_fill_allocates_under_4_mb(self):
        # The discrete benchmark's size: V=11 ternary, T=2000, level k=4 (330
        # subsets of ~2,000 outcomes). One unblocked bincount allocates ~11 MB.
        rng = np.random.default_rng(1)
        table = DiscreteSeriesTable(tuple(f"v{i}" for i in range(11)),
                                    samples=rng.integers(0, 3, size=(11, 2000)).T,
                                    alphabet_sizes=(3,) * 11)
        dist = estimate_empirical(table)
        subsets = enumerate_simplices(10, 3)
        tracemalloc.start()
        try:
            subset_entropies_nats(dist, subsets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestEntropy:
    def test_point_mass(self):
        assert entropy(dense_to_distribution(np.array([0.0, 1.0]))) == 0.0

    def test_fair_coin(self):
        assert entropy(dense_to_distribution(np.array([0.5, 0.5]))) == 1.0

    def test_xor_joint(self):
        dist, _ = xor_triple()
        assert entropy(dist) == 2.0

    def test_nats_switch(self):
        dist = dense_to_distribution(np.array([0.5, 0.5]))
        assert entropy_nats(dist) == pytest.approx(math.log(2))
        assert EntropyOracle(dist, units="nats").entropy((0,)) == pytest.approx(math.log(2))
        assert entropy(dist) == 1.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_monotone_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        dist, _ = random_pmf(rng, (2, 2, 3))
        small = entropy(marginalize(dist, (0, 2)))
        large = entropy(marginalize(dist, (0, 1, 2)))
        assert small <= large + 1e-10
        assert -1e-12 <= large <= sum(math.log2(a) for a in dist.alphabet_sizes) + 1e-10


class TestCopulaFit:
    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(11)
        table = ContinuousSeriesTable(
            variable_names=("a", "b"),
            samples=np.column_stack([rng.standard_normal(10_000), rng.standard_normal(10_000)]),
        )
        model = copula_gaussian_fit(table)
        assert abs(model.correlation_matrix[0, 1]) < 0.05

    def test_duplicated_column(self):
        x = np.random.default_rng(3).standard_normal(500)
        model = copula_gaussian_fit(
            ContinuousSeriesTable(variable_names=("a", "b"), samples=np.column_stack([x, x]))
        )
        assert model.correlation_matrix[0, 1] == pytest.approx(1.0, abs=1e-6)

    def test_negated_column(self):
        x = np.random.default_rng(4).standard_normal(500)
        model = copula_gaussian_fit(
            ContinuousSeriesTable(variable_names=("a", "b"), samples=np.column_stack([x, -x]))
        )
        assert model.correlation_matrix[0, 1] == pytest.approx(-1.0, abs=1e-6)

    def test_table_is_left_unchanged(self):
        X = np.random.default_rng(6).standard_normal((500, 3))
        before = X.tobytes()
        copula_gaussian_fit(ContinuousSeriesTable(("a", "b", "c"), samples=X))
        assert X.tobytes() == before

    def test_constant_column_rejected(self):
        with pytest.raises(EstimationError):
            copula_gaussian_fit(
                ContinuousSeriesTable(
                    variable_names=("a", "b"),
                    samples=np.column_stack([np.ones(10), np.arange(10.0)]),
                )
            )

    def test_monotone_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(200)
        y = rng.standard_normal(200) + 0.5 * x
        base = copula_gaussian_fit(
            ContinuousSeriesTable(variable_names=("a", "b"), samples=np.column_stack([x, y]))
        )
        warped = copula_gaussian_fit(
            ContinuousSeriesTable(
                variable_names=("a", "b"),
                samples=np.column_stack([np.exp(x), y**3]),
            )
        )
        assert np.max(np.abs(base.correlation_matrix - warped.correlation_matrix)) <= 1e-12


class TestNormalScores:
    """The NumPy ``ndtri`` port against ``scipy.special.ndtri``, bit for bit."""

    @pytest.mark.parametrize("T", [3, 4, 7, 2000, 10000, 10001])
    def test_table_matches_scipy_on_the_half_integer_grid(self, T):
        from scipy.special import ndtri

        # Odd T puts y = 0.5 on the grid, which pins the sign of zero.
        grid = ((np.arange(2 * T - 1) + 2) / 2.0) / (T + 1)
        assert _normal_scores(T).tobytes() == ndtri(grid).tobytes()
        assert _normal_scores(T).tobytes() == normal_quantile(grid).tobytes()

    def test_matches_scipy_on_uniforms(self):
        from scipy.special import ndtri

        y = np.random.default_rng(20240101).random(10**5)
        assert normal_quantile(y).tobytes() == ndtri(y).tobytes()

    def test_matches_scipy_in_both_tails(self):
        from scipy.special import ndtri

        tail = np.geomspace(1e-300, 0.2, 20_000)  # below exp(-32) the x >= 8 branch runs
        assert np.any(normal_quantile(tail) < -8.0)
        assert normal_quantile(tail).tobytes() == ndtri(tail).tobytes()
        upper = 1.0 - tail[tail > 1e-16]
        assert normal_quantile(upper).tobytes() == ndtri(upper).tobytes()

    def test_table_is_read_only_and_shared(self):
        table = _normal_scores(5)
        assert table is _normal_scores(5)
        assert table.shape == (9,)
        with pytest.raises(ValueError):
            table[0] = 0.0

    @given(
        st.tuples(st.integers(3, 60), st.integers(1, 4)).flatmap(
            lambda shape: st.lists(
                st.lists(st.integers(0, shape[1]), min_size=shape[0], max_size=shape[0]),
                min_size=1, max_size=4,
            )
        )
    )
    @example([[0, 1, 1]])
    @example([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    @example([[0] * 59 + [1], [1] + [0] * 59])
    @settings(max_examples=80, deadline=None)
    def test_fit_equals_scipy_reference_with_ties(self, columns):
        from scipy.special import ndtri
        from scipy.stats import rankdata

        cols = [np.array(c, dtype=float) for c in columns]
        assume(all(np.ptp(c) > 0 for c in cols))
        T = len(cols[0])
        Z = np.column_stack([ndtri(rankdata(c) / (T + 1)) for c in cols])
        R = np.atleast_2d(np.corrcoef(Z, rowvar=False))
        R = (R + R.T) / 2.0
        np.fill_diagonal(R, 1.0)
        model = copula_gaussian_fit(
            ContinuousSeriesTable(tuple(f"v{i}" for i in range(len(cols))),
                                  samples=np.column_stack(cols))
        )
        assert model.correlation_matrix.tobytes() == R.tobytes()

    def test_sample_count_checked_before_constant_columns(self):
        table = ContinuousSeriesTable(variable_names=("a",), samples=np.ones((2, 1)))
        with pytest.raises(ValidationError, match="at least 3 samples"):
            copula_gaussian_fit(table)


class TestAverageRanks:
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_rankdata_on_continuous_values(self, values):
        from scipy.stats import rankdata

        x = np.array(values)
        assert average_ranks(x).tobytes() == rankdata(x, method="average").tobytes()

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy_rankdata_with_ties(self, values):
        from scipy.stats import rankdata

        x = np.array(values, dtype=float)
        assert average_ranks(x).tobytes() == rankdata(x, method="average").tobytes()

    def test_small_arrays(self):
        assert average_ranks(np.array([5.0])).tolist() == [1.0]
        assert average_ranks(np.array([2.0, 2.0])).tolist() == [1.5, 1.5]
        assert average_ranks(np.array([3.0, 1.0, 3.0, 2.0])).tolist() == [3.5, 1.0, 3.5, 2.0]


class TestGaussianEntropy:
    def test_standard_normal(self):
        model = GaussianModel(correlation_matrix=np.eye(2))
        expected = 0.5 * math.log2(2 * math.pi * math.e)
        oracle = EntropyOracle(model)
        assert oracle.entropy((0,)) == pytest.approx(expected, abs=1e-9)
        assert oracle.entropy((0, 1)) == pytest.approx(2 * expected, abs=1e-9)

    def test_correlated_pair(self):
        R = np.array([[1.0, 0.5], [0.5, 1.0]])
        model = GaussianModel(correlation_matrix=R)
        expected = 0.5 * math.log2((2 * math.pi * math.e) ** 2 * 0.75)
        assert EntropyOracle(model).entropy((0, 1)) == pytest.approx(expected, abs=1e-9)

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            GaussianModel(correlation_matrix=np.array([[1.0, 0.2], [0.3, 1.0]]))
        with pytest.raises(ValidationError):
            GaussianModel(correlation_matrix=np.array([[2.0, 0.0], [0.0, 1.0]]))


class TestCsvIngestion:
    def test_discrete_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0,1\n1,0\n1,1\n")
        table = read_discrete_csv(path)
        assert table.variable_names == ("a", "b")
        assert table.alphabet_sizes == (2, 2)
        assert table.num_samples == 3

    def test_discrete_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0,1\nx,0\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_discrete_csv(path)

    def test_discrete_ragged_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0,1\n1\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_discrete_csv(path)

    def test_discrete_largest_symbol_accepted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(f"a,b\n0,1\n{2**63 - 2},0\n")
        assert read_discrete_csv(path).alphabet_sizes == (2**63 - 1, 2)

    def test_continuous_rejects_non_finite(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a\n1.5\ninf\n")
        with pytest.raises(ValidationError, match="line 3"):
            read_continuous_csv(path)

    def test_continuous_roundtrip(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b\n1.5,2.0\n-0.25,1e-3\n")
        table = read_continuous_csv(path)
        assert table.num_samples == 2
        assert table.samples[1, 1] == pytest.approx(1e-3)

    @pytest.mark.parametrize("reader,text,message", [
        (read_discrete_csv, "", "empty file"),
        (read_continuous_csv, "", "empty file"),
        (read_discrete_csv, "\n", "line 1: malformed header"),
        (read_continuous_csv, "a,,c\n0,1,2\n", "line 1: malformed header"),
        (read_discrete_csv, "a,b,c\n", "no data rows"),
        (read_continuous_csv, "a,b,c\n", "no data rows"),
        (read_discrete_csv, "a,b,c\n0,1,2\n\n", "line 3: expected 3 cells, got 0"),
        (read_continuous_csv, "a,b,c\n0,1,2\n0,1,2,3\n", "line 3: expected 3 cells, got 4"),
        (read_discrete_csv, "a,b,c\n0,1,2\n0,x,2\n", "line 3: 'x' is not an integer"),
        (read_discrete_csv, "a,b,c\n0,1,2\n0,-1,2\n", "line 3: negative symbol -1"),
        (read_discrete_csv, f"a,b,c\n0,1,2\n0,{2**63 - 1},2\n",
         f"line 3: symbol {2**63 - 1} is too large; symbols must be below {2**63 - 1}"),
        (read_continuous_csv, "a,b,c\n0,1,2\n0,x,2\n", "line 3: 'x' is not a number"),
        (read_continuous_csv, "a,b,c\n0,1,2\n0,inf,2\n", "line 3: non-finite value 'inf'"),
        (read_discrete_csv, f"a,b,c\n0,1,2\n0,1,2\n0,{'1' * 200_000},2\n",
         "line 4: field larger than field limit (131072)"),
        (read_continuous_csv, f"a,b,c\n0,{'1' * 200_000},2\n",
         "line 2: field larger than field limit (131072)"),
    ], ids=["empty-discrete", "empty-continuous", "newline-only", "blank-name",
            "header-only-discrete", "header-only-continuous", "blank-line", "ragged",
            "not-integer", "negative", "too-large", "not-number", "inf",
            "long-cell-discrete", "long-cell-continuous"])
    def test_reader_message(self, tmp_path, reader, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as excinfo:
            reader(path)
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize("reader", [read_discrete_csv, read_continuous_csv],
                             ids=["discrete", "continuous"])
    def test_reader_holds_no_object_per_cell(self, tmp_path, reader):
        """The traced peak stays within the decoded text and its StringIO copy
        (5 bytes per input character), the cell buffer and the table's copy
        (two 8-byte values per cell), and 64 KiB."""
        T, V = 5_000, 8
        rng = np.random.default_rng(9)
        if reader is read_discrete_csv:
            cells = rng.integers(0, 3, size=(T, V)).astype(str)
        else:
            cells = np.vectorize(repr)(rng.standard_normal((T, V)).tolist())
        text = "\n".join([",".join(f"v{j}" for j in range(V))]
                         + [",".join(row) for row in cells.tolist()]) + "\n"
        path = tmp_path / "t.csv"
        path.write_text(text)
        tracemalloc.start()
        try:
            reader(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(text) + 2 * 8 * T * V + 64 * 1024
