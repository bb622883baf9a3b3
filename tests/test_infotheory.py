import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperharmonic import (
    EntropyOracle,
    GaussianModel,
    JointDistribution,
    MeasureKind,
    ValidationError,
    dual_total_correlation,
    enumerate_simplices,
    interaction_information,
    mutual_information,
    o_information,
    s_information,
    signal_sweep,
    total_correlation,
)

from hyperharmonic import infotheory
from hyperharmonic.infotheory import resolved_measures

import bruteforce as bf
from reference import entropy_nats, gaussian_entropy_nats, marginalize
from conftest import (
    bit_copy,
    correlated_pair,
    five_variable_sources,
    independent_bits,
    product_distribution,
    random_correlation,
    random_pmf,
    xor_triple,
)


class TestOracle:
    def test_empty_subset_is_zero(self):
        dist, _ = xor_triple()
        assert EntropyOracle(dist).entropy(()) == 0.0

    def test_subset_order_irrelevant(self):
        dist, _ = xor_triple()
        oracle = EntropyOracle(dist)
        assert oracle.entropy((2, 0)) == oracle.entropy((0, 2))

    def test_monotone_under_inclusion(self):
        dist, _ = random_pmf(np.random.default_rng(0), (2, 3, 2))
        oracle = EntropyOracle(dist)
        for small, large in [((0,), (0, 1)), ((1,), (0, 1, 2)), ((0, 2), (0, 1, 2))]:
            assert oracle.entropy(small) <= oracle.entropy(large) + 1e-10

    def test_cache_is_bounded_by_subset_count(self):
        dist, _ = xor_triple()
        oracle = EntropyOracle(dist)
        for size in (1, 2, 3):
            for s in itertools.combinations(range(3), size):
                oracle.entropy(s)
                oracle.entropy(s)
        assert sum(len(level) for level in oracle._levels.values()) == 7

    def test_unit_belongs_to_each_oracle(self):
        dist, _ = xor_triple()
        nats = EntropyOracle(dist, units="nats")
        bits = EntropyOracle(dist)
        assert (bits.units, nats.units) == ("bits", "nats")
        assert nats.entropy((0, 1)) == pytest.approx(2 * math.log(2), abs=1e-12)
        assert bits.entropy((0, 1)) == 2.0
        assert o_information(nats, (0, 1, 2)) == pytest.approx(-math.log(2), abs=1e-12)
        assert o_information(bits, (0, 1, 2)) == pytest.approx(-1.0, abs=1e-12)

    def test_unknown_unit_rejected(self):
        dist, _ = xor_triple()
        with pytest.raises(ValidationError, match="unknown entropy unit"):
            EntropyOracle(dist, units="bans")

    def test_rejects_duplicates(self):
        dist, _ = xor_triple()
        with pytest.raises(ValidationError):
            EntropyOracle(dist).entropy((0, 0))

    def test_gaussian_backend(self):
        model = GaussianModel(correlation_matrix=np.eye(3))
        oracle = EntropyOracle(model)
        single = 0.5 * math.log2(2 * math.pi * math.e)
        assert oracle.entropy((0, 1, 2)) == pytest.approx(3 * single, abs=1e-9)

    def test_degenerate_gaussian_flags_regularized_subsets(self):
        R = np.array([
            [1.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ])
        oracle = EntropyOracle(GaussianModel(correlation_matrix=R))
        value = oracle.entropy((0, 1))
        assert np.isfinite(value)
        assert (0, 1) in oracle.regularized_subsets
        oracle.entropy((0, 2))
        assert (0, 2) not in oracle.regularized_subsets


class TestEntropyTable:
    @given(
        st.integers(0, 2**31 - 1),
        st.lists(st.integers(2, 4), min_size=2, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_discrete_levels_match_marginalize(self, seed, shape):
        dist, dense = random_pmf(np.random.default_rng(seed), tuple(shape))
        oracle = EntropyOracle(dist)
        V = len(shape)
        for k in range(1, V + 1):
            table = oracle.table(k)
            subsets = enumerate_simplices(V - 1, k - 1)
            assert table.shape == (len(subsets),)
            for value, s in zip(table, subsets):
                assert abs(value - entropy_nats(marginalize(dist, s))) <= 1e-12
                assert abs(value / math.log(2) - bf.subset_entropy_bits(dense, s)) <= 1e-10

    @given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.data())
    @settings(max_examples=40, deadline=None)
    def test_gaussian_levels_match_per_subset(self, seed, size, data):
        rank = data.draw(st.integers(1, size))
        model = GaussianModel(
            correlation_matrix=random_correlation(np.random.default_rng(seed), size, rank)
        )
        oracle = EntropyOracle(model)
        flagged = set()
        for k in range(1, size + 1):
            table = oracle.table(k)
            for value, s in zip(table, map(tuple, enumerate_simplices(size - 1, k - 1).tolist())):
                expected, needed = gaussian_entropy_nats(model, s)
                assert abs(value - expected) <= 1e-12
                if needed:
                    flagged.add(s)
        assert oracle.regularized_subsets == flagged

    def test_wide_alphabets_do_not_overflow_keys(self):
        # Mixed-radix keys over all three variables would need 66 bits; in
        # int64 arithmetic the first two outcomes would share a key.
        sizes = (2**22,) * 3
        outcomes = [(0, 0, 0), (2**20, 0, 0), (0, 2**21, 1)]
        dist = JointDistribution(sizes, outcomes, [0.5, 0.25, 0.25])
        oracle = EntropyOracle(dist)
        assert oracle.table(3)[0] == entropy_nats(dist)
        assert oracle.table(3)[0] == pytest.approx(1.5 * math.log(2), abs=1e-15)
        for k in (1, 2):
            for value, s in zip(oracle.table(k), enumerate_simplices(2, k - 1)):
                assert value == entropy_nats(marginalize(dist, s))


class TestPinnedValues:
    def test_xor(self):
        dist, _ = xor_triple()
        oracle = EntropyOracle(dist)
        assert mutual_information(oracle, 0, 1) == 0.0
        assert mutual_information(oracle, 0, 2) == 0.0
        assert total_correlation(oracle, (0, 1, 2)) == 1.0
        assert dual_total_correlation(oracle, (0, 1, 2)) == 2.0
        assert o_information(oracle, (0, 1, 2)) == -1.0
        assert s_information(oracle, (0, 1, 2)) == 3.0
        assert interaction_information(oracle, (0, 1, 2)) == -1.0

    def test_three_bit_copy(self):
        dist, _ = bit_copy(3)
        oracle = EntropyOracle(dist)
        assert total_correlation(oracle, (0, 1, 2)) == 2.0
        assert dual_total_correlation(oracle, (0, 1, 2)) == 1.0
        assert o_information(oracle, (0, 1, 2)) == 1.0
        assert s_information(oracle, (0, 1, 2)) == 3.0

    def test_copied_coin_mi(self):
        dist, _ = bit_copy(2)
        assert mutual_information(EntropyOracle(dist), 0, 1) == 1.0

    def test_independent_bits_all_zero(self):
        dist, _ = independent_bits(3)
        oracle = EntropyOracle(dist)
        assert mutual_information(oracle, 0, 1) == 0.0
        assert total_correlation(oracle, (0, 1, 2)) == 0.0
        assert dual_total_correlation(oracle, (0, 1, 2)) == 0.0
        assert s_information(oracle, (0, 1, 2)) == 0.0
        assert interaction_information(oracle, (0, 1, 2)) == 0.0

    def test_two_variable_interaction_equals_mi(self):
        dist, _ = random_pmf(np.random.default_rng(7), (3, 2))
        oracle = EntropyOracle(dist)
        assert interaction_information(oracle, (0, 1)) == pytest.approx(
            mutual_information(oracle, 0, 1), abs=1e-12
        )

    def test_mi_rejects_equal_indices(self):
        dist, _ = xor_triple()
        with pytest.raises(ValidationError):
            mutual_information(EntropyOracle(dist), 1, 1)

    def test_minimum_subset_sizes(self):
        dist, _ = xor_triple()
        oracle = EntropyOracle(dist)
        with pytest.raises(ValidationError):
            total_correlation(oracle, (0,))
        with pytest.raises(ValidationError):
            o_information(oracle, (0, 1))


MEASURE_PAIRS = [
    (total_correlation, bf.tc_bits, 2),
    (dual_total_correlation, bf.dtc_bits, 2),
    (o_information, bf.o_information_bits, 3),
    (s_information, bf.s_information_bits, 2),
    (interaction_information, bf.interaction_information_bits, 2),
]


def assert_matches_bruteforce(dist, dense):
    oracle = EntropyOracle(dist)
    k = dense.ndim
    for fn, ref, min_size in MEASURE_PAIRS:
        for size in range(min_size, k + 1):
            for subset in itertools.combinations(range(k), size):
                assert fn(oracle, subset) == pytest.approx(
                    ref(dense, subset), abs=1e-10
                ), f"{fn.__name__} on {subset}"


class TestBruteForceEquivalence:
    def test_xor(self):
        assert_matches_bruteforce(*xor_triple())

    def test_copies(self):
        assert_matches_bruteforce(*bit_copy(3))
        assert_matches_bruteforce(*bit_copy(4))

    def test_independent(self):
        assert_matches_bruteforce(*independent_bits(4))

    def test_pair_product(self):
        assert_matches_bruteforce(
            *product_distribution(correlated_pair(), correlated_pair(0.3, 0.2, 0.2, 0.3))
        )

    def test_random_pmfs(self):
        rng = np.random.default_rng(123)
        for trial in range(20):
            shape = (2,) * int(rng.integers(3, 5))
            dist, dense = random_pmf(rng, shape)
            assert_matches_bruteforce(dist, dense)


class TestAxioms:
    def test_permutation_symmetry(self):
        dist, dense = random_pmf(np.random.default_rng(9), (2, 2, 2, 2))
        oracle = EntropyOracle(dist)
        reference = o_information(oracle, (0, 1, 3))
        assert o_information(oracle, (3, 0, 1)) == reference
        assert o_information(oracle, (1, 3, 0)) == reference

    def test_o_information_bounded_by_s(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            dist, _ = random_pmf(rng, (2, 2, 2))
            oracle = EntropyOracle(dist)
            assert abs(o_information(oracle, (0, 1, 2))) <= s_information(
                oracle, (0, 1, 2)
            ) + 1e-10

    def test_additive_over_products(self):
        xor_dense = xor_triple()[1]
        copy_dense = bit_copy(3)[1]
        dist, _ = product_distribution(xor_dense, copy_dense)
        oracle = EntropyOracle(dist)
        combined = o_information(oracle, tuple(range(6)))
        xor_alone = o_information(EntropyOracle(xor_triple()[0]), (0, 1, 2))
        copy_alone = o_information(EntropyOracle(bit_copy(3)[0]), (0, 1, 2))
        assert combined == pytest.approx(xor_alone + copy_alone, abs=1e-10)

    def test_pairwise_factorised_nullity(self):
        pair = correlated_pair()
        two_pairs, _ = product_distribution(pair, correlated_pair(0.25, 0.25, 0.1, 0.4))
        assert o_information(EntropyOracle(two_pairs), (0, 1, 2, 3)) == pytest.approx(
            0.0, abs=1e-10
        )
        three_pairs, _ = product_distribution(pair, pair, correlated_pair(0.5, 0.1, 0.1, 0.3))
        assert o_information(
            EntropyOracle(three_pairs), tuple(range(6))
        ) == pytest.approx(0.0, abs=1e-10)

    def test_chain_rule_for_s_information(self):
        dist, _ = random_pmf(np.random.default_rng(31), (2, 2, 2, 2))
        oracle = EntropyOracle(dist)
        subset = (0, 1, 2, 3)
        total = s_information(oracle, subset)
        chain = 0.0
        for i in subset:
            rest = tuple(j for j in subset if j != i)
            chain += oracle.entropy((i,)) + oracle.entropy(rest) - oracle.entropy(subset)
        assert total == pytest.approx(chain, abs=1e-10)


class TestSignalSweep:
    def test_single_subset(self):
        dist, _ = xor_triple()
        values = signal_sweep(EntropyOracle(dist), 2, MeasureKind.O_INFORMATION)
        assert values.shape == (1,)
        assert values[0] == -1.0

    def test_independent_gives_zero_vector(self):
        dist, _ = independent_bits(4)
        values = signal_sweep(EntropyOracle(dist), 2, MeasureKind.TC)
        assert values.shape == (4,)
        assert np.max(np.abs(values)) <= 1e-10

    def test_order_matches_simplex_enumeration(self):
        # Each sweep entry is its scalar measure to the bit: the whole-level
        # and the one-row evaluation share one arithmetic.
        scalar = {
            MeasureKind.TC: total_correlation,
            MeasureKind.DTC: dual_total_correlation,
            MeasureKind.O_INFORMATION: o_information,
            MeasureKind.S_INFORMATION: s_information,
            MeasureKind.INTERACTION_INFORMATION: interaction_information,
        }
        assert set(scalar) == set(MeasureKind)
        checked = 0
        for source in five_variable_sources():
            for units in ("bits", "nats"):
                oracle = EntropyOracle(source, units=units)
                for kind, measure in scalar.items():
                    first = 2 if kind is MeasureKind.O_INFORMATION else 1
                    for n in range(first, 5):
                        subsets = enumerate_simplices(4, n).tolist()
                        assert subsets == [list(s) for s in itertools.combinations(range(5), n + 1)]
                        values = signal_sweep(oracle, n, kind)
                        assert values.tolist() == [measure(oracle, s) for s in subsets]
                        checked += len(subsets)
        assert checked == 4 * (4 * 26 + 16)

    def test_scalar_measure_evaluates_one_row(self, monkeypatch):
        # A scalar call must not pay for its whole level: every array the
        # measure arithmetic gathers or clamps holds the one subset's row.
        lengths = []

        def recording(wrapped):
            def record(*args):
                values = wrapped(*args)
                lengths.append(len(values))
                return values
            return record

        monkeypatch.setattr(infotheory, "_clamp", recording(infotheory._clamp))
        monkeypatch.setattr(infotheory, "_entropies", recording(infotheory._entropies))
        oracle = EntropyOracle(five_variable_sources()[1])
        for measure in (total_correlation, dual_total_correlation, o_information,
                        s_information, interaction_information):
            measure(oracle, (0, 2, 3, 4))
        assert len(lengths) > 4 and set(lengths) == {1}

    def test_rejects_low_dimension_for_o_information(self):
        dist, _ = xor_triple()
        with pytest.raises(ValidationError):
            signal_sweep(EntropyOracle(dist), 1, MeasureKind.O_INFORMATION)


class TestResolvedMeasures:
    def test_values_and_members_become_members(self):
        assert resolved_measures(["tc", MeasureKind.DTC]) == (MeasureKind.TC, MeasureKind.DTC)

    @pytest.mark.parametrize("names, message", [
        (("foo",), "unknown measure 'foo'; expected one of: tc, dtc, o_information, "
                   "s_information, interaction_information"),
        ((), "measures must name at least one measure"),
        (("tc", MeasureKind.TC), "measures must not repeat a value, got ('tc', 'tc')"),
    ], ids=["unknown", "empty", "repeated"])
    def test_rejected_with_the_cli_message(self, names, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            resolved_measures(names)
