import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperharmonic import (
    CapacityError,
    EntropyOracle,
    EstimationError,
    GaussianModel,
    SimilarityMetric,
    StructuralSimplex,
    ValidationError,
    WeightAggregator,
    boundary_faces,
    enumerate_simplices,
    mutual_information,
    similarity_matrix,
    simplex_count,
    simplex_rank,
    structural_weights,
    total_correlation,
)
from hyperharmonic.distribution import subset_entropies_nats
from hyperharmonic import simplices
from hyperharmonic.simplices import WEIGHT_FLOOR, boundary_to_csv, simplex_ranks

import dict_reference
from boundary_reference import boundary_matrix
from conftest import (
    bit_copy,
    dense_to_distribution,
    five_variable_sources,
    independent_bits,
    mass_dict,
    random_table,
    smoothed_distribution,
    xor_triple,
)

# The four boundary matrices of the full simplex on four vertices, written out
# by hand from the face/sign rule.
B0_EXPECTED = np.zeros((1, 4))
B1_EXPECTED = np.array([
    [-1, -1, -1, 0, 0, 0],
    [1, 0, 0, -1, -1, 0],
    [0, 1, 0, 1, 0, -1],
    [0, 0, 1, 0, 1, 1],
], dtype=float)
B2_EXPECTED = np.array([
    [1, 1, 0, 0],
    [-1, 0, 1, 0],
    [0, -1, -1, 0],
    [1, 0, 0, 1],
    [0, 1, 0, -1],
    [0, 0, 1, 1],
], dtype=float)
B3_EXPECTED = np.array([[-1], [1], [-1], [1]], dtype=float)


class TestEnumeration:
    def test_edges_of_tetrahedron(self):
        assert enumerate_simplices(3, 1).tolist() == [
            [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]
        ]

    def test_top_simplex(self):
        assert enumerate_simplices(3, 3).tolist() == [[0, 1, 2, 3]]

    def test_vertices(self):
        assert enumerate_simplices(2, 0).tolist() == [[0], [1], [2]]

    def test_out_of_range_dimension(self):
        with pytest.raises(ValidationError):
            enumerate_simplices(2, 3)

    def test_lexicographic_comparison_rule(self):
        simplices = enumerate_simplices(4, 2).tolist()
        assert simplices == sorted(simplices)

    def test_cached_read_only_int64_array(self):
        for N, n in ((0, 0), (3, 1), (4, 2), (9, 4), (9, 9)):
            S = enumerate_simplices(N, n)
            assert enumerate_simplices(N, n) is S
            assert S.dtype == np.int64
            assert S.shape == (math.comb(N + 1, n + 1), n + 1)
            assert S.tolist() == [list(c) for c in itertools.combinations(range(N + 1), n + 1)]
            with pytest.raises(ValueError):
                S[0, 0] = 1


class TestRankUnrank:
    def test_first_and_last_edge(self):
        assert simplex_rank((0, 1), 3) == 0
        assert simplex_rank((2, 3), 3) == 5

    def test_matches_enumeration(self):
        for n in range(4):
            for r, s in enumerate(map(tuple, enumerate_simplices(3, n).tolist())):
                assert simplex_rank(s, 3) == r

    @given(st.integers(0, 8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, N, data):
        """Row r of the enumeration is the simplex of rank r."""
        n = data.draw(st.integers(0, N))
        r = data.draw(st.integers(0, simplex_count(N, n) - 1))
        assert simplex_rank(tuple(enumerate_simplices(N, n)[r].tolist()), N) == r

    def test_exhaustive_roundtrip_small(self):
        for N in range(9):
            for n in range(N + 1):
                assert np.array_equal(simplex_ranks(enumerate_simplices(N, n), N),
                                      np.arange(simplex_count(N, n)))

    def test_rank_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            simplex_rank((1, 1), 3)
        with pytest.raises(ValidationError):
            simplex_rank((0, 4), 3)


class TestBoundaryMatrix:
    def test_matches_handwritten_tetrahedron(self):
        assert np.array_equal(boundary_matrix(3, 0).toarray(), B0_EXPECTED)
        assert np.array_equal(boundary_matrix(3, 1).toarray(), B1_EXPECTED)
        assert np.array_equal(boundary_matrix(3, 2).toarray(), B2_EXPECTED)
        assert np.array_equal(boundary_matrix(3, 3).toarray(), B3_EXPECTED)

    def test_boundary_of_boundary_vanishes(self):
        for N in range(1, 9):
            for n in range(1, N + 1):
                product = boundary_matrix(N, n) @ boundary_matrix(N, n + 1) \
                    if n < N else None
                if product is not None:
                    assert np.max(np.abs(product.toarray())) == 0.0

    def test_column_sparsity_and_sign_pattern(self):
        for N in (3, 5):
            for n in range(1, N + 1):
                B = boundary_matrix(N, n).tocsc()
                faces = enumerate_simplices(N, n - 1).tolist()
                for j, simplex in enumerate(enumerate_simplices(N, n).tolist()):
                    col = B.getcol(j)
                    assert col.nnz == n + 1
                    for i in range(n + 1):
                        face = simplex[:i] + simplex[i + 1:]
                        assert col[faces.index(face), 0] == (-1.0) ** i

    def test_shapes(self):
        assert boundary_matrix(4, 0).shape == (1, 5)
        assert boundary_matrix(4, 2).shape == (10, 10)

    def test_csv_export(self, tmp_path):
        path = tmp_path / "b.csv"
        boundary_to_csv(path, 2, 1)
        assert path.read_text() == (
            "row,col,value\n0,0,-1\n0,1,-1\n1,0,1\n1,2,-1\n2,1,1\n2,2,1\n"
        )
        boundary_to_csv(path, 2, 0)
        assert path.read_text() == "row,col,value\n"

    def test_built_once_per_pair_and_read_only(self):
        for n in (0, 2):
            B = boundary_matrix(4, n)
            assert boundary_matrix(4, n) is B
            for array in (B.data, B.indices, B.indptr):
                with pytest.raises(ValueError):
                    array[...] = 0
        assert np.array_equal(boundary_matrix(4, 2).toarray(),
                              boundary_matrix.__wrapped__(4, 2).toarray())

    def test_faces_are_cached_read_only_int64(self):
        for N, n in ((4, 1), (4, 2), (6, 6)):
            F = boundary_faces(N, n)
            assert boundary_faces(N, n) is F
            assert F.dtype == np.int64
            assert F.shape == (simplex_count(N, n), n + 1)
            with pytest.raises(ValueError):
                F[0, 0] = 0
        with pytest.raises(ValidationError):
            boundary_faces(4, 0)

    def test_faces_are_the_ranks_of_the_dropped_vertex_faces(self):
        for N in (3, 6):
            for n in range(1, N + 1):
                F = boundary_faces(N, n)
                for j, simplex in enumerate(enumerate_simplices(N, n).tolist()):
                    expected = [simplex_rank(simplex[:i] + simplex[i + 1:], N)
                                for i in range(n + 1)]
                    assert F[j].tolist() == expected

    def test_matrix_equals_the_one_rebuilt_from_faces_and_signs(self):
        for N in range(1, 9):
            for n in range(1, N + 1):
                F = boundary_faces(N, n)
                dense = np.zeros((simplex_count(N, n - 1), simplex_count(N, n)))
                dense[F, np.arange(len(F))[:, None]] = (-1.0) ** np.arange(n + 1)
                assert np.array_equal(boundary_matrix(N, n).toarray(), dense)


# The per-simplex Python loop that structural_weights replaced, kept as the
# bit-for-bit reference for its vectorized aggregation.
_LOOP_AGGREGATE = {
    WeightAggregator.MEAN: lambda vals: sum(vals) / len(vals),
    WeightAggregator.MAX: max,
    WeightAggregator.MIN: min,
}


def loop_structural_weights(mi, aggregator, floor):
    N = mi.shape[0] - 1
    aggregate = _LOOP_AGGREGATE[aggregator]
    weights = [np.ones(N + 1)]
    for n in range(1, N + 1):
        vals = []
        for simplex in itertools.combinations(range(N + 1), n + 1):
            pairs = [mi[a, b] for a, b in itertools.combinations(simplex, 2)]
            vals.append(max(aggregate(pairs), floor))
        weights.append(np.array(vals))
    return weights


def random_similarity(rng, size):
    """Symmetric, non-negative, with exact and negative zeros, magnitudes over
    eight decades (so summation order shows in the last bits), and a lower
    triangle that differs from the upper one within the symmetry tolerance."""
    draw = np.exp(rng.uniform(-12.0, 6.0, size=(size, size)))
    draw[rng.random((size, size)) < 0.25] = 0.0
    draw[rng.random((size, size)) < 0.1] = -0.0
    upper = np.triu(np.ones((size, size), dtype=bool), 1)
    mi = np.where(upper, draw, draw.T)
    noise = rng.uniform(0.0, 1e-12, size=(size, size))
    mi = np.where(upper.T & (mi > 0), mi + noise, mi)
    np.fill_diagonal(mi, 0.0)
    return mi


class TestStructuralWeights:
    @pytest.mark.parametrize("aggregator", list(WeightAggregator))
    @pytest.mark.parametrize("floor", [1e-9, 0.3])
    def test_matches_the_loop_reference_bit_for_bit(self, aggregator, floor, monkeypatch):
        """At the package's floor, and at one that bites on mid-range values too."""
        monkeypatch.setattr(simplices, "WEIGHT_FLOOR", floor)
        rng = np.random.default_rng(17)
        for size in (2, 3, 5, 8, 11):
            mi = random_similarity(rng, size)
            got = structural_weights(mi, aggregator)
            expected = loop_structural_weights(mi, aggregator, floor)
            for n in range(size):
                assert got.weight_vector(n).tobytes() == expected[n].tobytes(), (size, n)

    def test_constant_matrix_mean(self):
        mi = np.ones((4, 4)) - np.eye(4)
        simplex = structural_weights(mi, WeightAggregator.MEAN)
        for n in range(simplex.N + 1):
            assert np.allclose(simplex.weight_vector(n), 1.0)

    def test_floor_on_zero_matrix(self):
        simplex = structural_weights(np.zeros((3, 3)))
        assert np.all(simplex.weight_vector(1) == WEIGHT_FLOOR)
        assert np.all(simplex.weight_vector(2) == WEIGHT_FLOOR)
        assert np.allclose(simplex.weight_vector(0), 1.0)

    def test_mean_of_triangle(self):
        mi = np.zeros((3, 3))
        mi[0, 1] = mi[1, 0] = 0.2
        mi[0, 2] = mi[2, 0] = 0.4
        mi[1, 2] = mi[2, 1] = 0.6
        simplex = structural_weights(mi, WeightAggregator.MEAN)
        assert simplex.weight_vector(2)[0] == pytest.approx(0.4)
        assert np.allclose(simplex.weight_vector(1), [0.2, 0.4, 0.6])

    def test_vertex_weights_pinned_to_one(self):
        mi = np.full((5, 5), 3.0) - 3.0 * np.eye(5)
        simplex = structural_weights(mi)
        assert np.array_equal(simplex.weight_vector(0), np.ones(5))

    def test_aggregator_monotonicity(self):
        rng = np.random.default_rng(8)
        mi = rng.uniform(0.0, 2.0, size=(6, 6))
        mi = (mi + mi.T) / 2
        np.fill_diagonal(mi, 0.0)
        by_kind = {
            kind: structural_weights(mi, kind) for kind in WeightAggregator
        }
        for n in range(2, 6):
            lo = by_kind[WeightAggregator.MIN].weight_vector(n)
            mid = by_kind[WeightAggregator.MEAN].weight_vector(n)
            hi = by_kind[WeightAggregator.MAX].weight_vector(n)
            assert np.all(lo <= mid + 1e-15)
            assert np.all(mid <= hi + 1e-15)

    def test_rejects_asymmetric_or_negative(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValidationError):
            structural_weights(bad)
        with pytest.raises(ValidationError):
            structural_weights(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_vertex_cap(self):
        with pytest.raises(CapacityError):
            structural_weights(np.zeros((20, 20)))

    def test_direct_construction_validates(self):
        with pytest.raises(ValidationError):
            StructuralSimplex(N=1, weights=(np.ones(2), np.zeros(1)))


class TestSimilarityMatrix:
    def test_independent_mi_is_zero(self):
        dist, _ = independent_bits(3)
        out = similarity_matrix(EntropyOracle(dist), SimilarityMetric.MUTUAL_INFORMATION)
        assert np.max(np.abs(out)) == 0.0

    def test_xor_mi_is_zero(self):
        dist, _ = xor_triple()
        out = similarity_matrix(EntropyOracle(dist), SimilarityMetric.MUTUAL_INFORMATION)
        assert np.max(np.abs(out)) == 0.0

    def test_mi_is_each_pair_mutual_information(self):
        for source in five_variable_sources():
            oracle = EntropyOracle(source)
            out = similarity_matrix(oracle, SimilarityMetric.MUTUAL_INFORMATION)
            for i, j in itertools.permutations(range(5), 2):
                assert out[i, j] == mutual_information(oracle, i, j)
            assert np.all(np.diag(out) == 0.0) and np.count_nonzero(out) == 20

    def test_copied_bits_pearson(self):
        dist, _ = bit_copy(3)
        out = similarity_matrix(EntropyOracle(dist), SimilarityMetric.ABS_PEARSON)
        off = out[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 1.0)

    def test_constant_variable_pearson_rejected(self):
        dist = dense_to_distribution(np.array([[0.5, 0.5]]))
        with pytest.raises(EstimationError):
            similarity_matrix(EntropyOracle(dist), SimilarityMetric.ABS_PEARSON)

    def test_total_variation_zero_iff_independent(self):
        dist, _ = independent_bits(3)
        out = similarity_matrix(EntropyOracle(dist), SimilarityMetric.TOTAL_VARIATION)
        assert np.max(np.abs(out)) <= 1e-15
        copies, _ = bit_copy(2)
        out = similarity_matrix(EntropyOracle(copies), SimilarityMetric.TOTAL_VARIATION)
        assert out[0, 1] == pytest.approx(0.5)

    @given(st.integers(0, 2 ** 31 - 1), st.lists(st.integers(1, 4), min_size=2, max_size=7),
           st.integers(1, 400), st.sampled_from([0.0, 0.0, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_discrete_metrics_match_dict_reference(self, seed, sizes, num_samples, smoothing):
        # Smoothing above 0 gives a dense support.
        dist = smoothed_distribution(random_table(seed, sizes, num_samples), smoothing)
        oracle = EntropyOracle(dist)
        mass, k = mass_dict(dist), len(sizes)
        tv = similarity_matrix(oracle, SimilarityMetric.TOTAL_VARIATION)
        assert tv.tobytes() == dict_reference.total_variation(mass, k).tobytes()
        expected = dict_reference.abs_pearson(mass, k)
        if expected is None:
            with pytest.raises(EstimationError, match="constant"):
                similarity_matrix(oracle, SimilarityMetric.ABS_PEARSON)
        else:
            assert similarity_matrix(oracle, SimilarityMetric.ABS_PEARSON).tobytes() \
                == expected.tobytes()

    def test_total_variation_needs_discrete(self):
        model = GaussianModel(correlation_matrix=np.eye(2))
        with pytest.raises(EstimationError):
            similarity_matrix(EntropyOracle(model), SimilarityMetric.TOTAL_VARIATION)

    def test_gaussian_pearson(self):
        R = np.array([[1.0, -0.3], [-0.3, 1.0]])
        oracle = EntropyOracle(GaussianModel(correlation_matrix=R))
        out = similarity_matrix(oracle, SimilarityMetric.ABS_PEARSON)
        assert out[0, 1] == pytest.approx(0.3)
        assert out[0, 0] == 0.0

    def test_gaussian_mi_closed_form(self):
        rho = 0.5
        R = np.array([[1.0, rho], [rho, 1.0]])
        oracle = EntropyOracle(GaussianModel(correlation_matrix=R))
        out = similarity_matrix(oracle, SimilarityMetric.MUTUAL_INFORMATION)
        assert out[0, 1] == pytest.approx(-0.5 * math.log2(1 - rho**2), abs=1e-9)

    def test_symmetry(self):
        dist, _ = bit_copy(4)
        for metric in SimilarityMetric:
            out = similarity_matrix(EntropyOracle(dist), metric)
            assert np.array_equal(out, out.T)

    def test_bare_model_rejected(self):
        dist, _ = bit_copy(2)
        for model in (dist, GaussianModel(correlation_matrix=np.eye(2))):
            with pytest.raises(ValidationError, match=r"EntropyOracle\(\.\.\.\)"):
                similarity_matrix(model, SimilarityMetric.MUTUAL_INFORMATION)


def subset_callers():
    """Each entry point that takes a variable subset, on three variables."""
    dist, _ = xor_triple()
    model = GaussianModel(correlation_matrix=np.eye(3))
    return {
        "marginal_entropies": lambda s: subset_entropies_nats(dist, [s]),
        "gaussian_entropies": lambda s: subset_entropies_nats(model, [s]),
        "entropy": lambda s: EntropyOracle(dist).entropy(s),
        "total_correlation": lambda s: total_correlation(EntropyOracle(dist), s),
    }


class TestOneSubsetValidator:
    @pytest.mark.parametrize("caller", sorted(subset_callers()))
    @pytest.mark.parametrize("subset", [(), (1, 1), (0, 2, 0), (0, 3), (-1, 2)])
    def test_rejects_empty_duplicated_or_out_of_range(self, caller, subset):
        call = subset_callers()[caller]
        if caller == "entropy" and subset == ():
            assert call(subset) == 0.0  # H(empty) = 0 by definition
            return
        with pytest.raises(ValidationError):
            call(subset)

    def test_measures_accept_unsorted_subsets(self):
        dist, _ = xor_triple()
        oracle = EntropyOracle(dist)
        assert oracle.entropy((2, 0)) == oracle.entropy((0, 2))
        assert total_correlation(oracle, (2, 1, 0)) == total_correlation(oracle, (0, 1, 2))
        callers = subset_callers()
        for caller in ("marginal_entropies", "gaussian_entropies"):
            with pytest.raises(ValidationError):
                callers[caller]((2, 0))
