import itertools
import json
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest

from hyperharmonic import (
    EntropyOracle,
    HighOrderSignal,
    MeasureKind,
    NumericalError,
    SimilarityMetric,
    ValidationError,
    build_signal,
    cev_report,
    fourier_basis,
    from_fourier,
    measure_reports,
    random_null,
    signal_sweep,
    similarity_matrix,
    structural_weights,
    to_fourier,
)
from hyperharmonic.seeding import derive_rng
from hyperharmonic.spectral import FourierBasis
from hyperharmonic.transform import (
    CANONICAL,
    CEV_THRESHOLDS,
    FOURIER,
    cev_to_json,
    read_signal,
    write_signal,
)

import reference
from conftest import dense_to_distribution, random_pmf, xor_triple
from test_spectral import random_structural_simplex


def weighted(weights) -> FourierBasis:
    """A basis that only carries ``weights``: its Fourier coefficients are √w ∘ x."""
    d = weights.size
    return FourierBasis(1, np.zeros(d), np.eye(d), weights)


@pytest.fixture(scope="module")
def basis_1001():
    return fourier_basis(random_structural_simplex(13, np.random.default_rng(61)), 3)


class TestBuildSignal:
    def test_xor_single_triangle(self):
        dist, _ = xor_triple()
        oracle = EntropyOracle(dist)
        signal = build_signal(oracle, 2, MeasureKind.O_INFORMATION)
        assert signal.basis == CANONICAL
        assert signal.measure is MeasureKind.O_INFORMATION
        assert np.array_equal(signal.coefficients, [-1.0])

    def test_length_matches_simplex_count(self):
        dist, _ = random_pmf(np.random.default_rng(0), (2,) * 6)
        oracle = EntropyOracle(dist)
        values = signal_sweep(oracle, 2, MeasureKind.S_INFORMATION)
        assert values.shape == (20,)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            HighOrderSignal(dimension=1, coefficients=np.array([np.nan, 1.0]))

    def test_custom_tag(self, tmp_path):
        from hyperharmonic.cli import EXIT_VALIDATION, main

        with pytest.raises(ValidationError):
            HighOrderSignal(dimension=1, coefficients=np.ones(3), basis="custom:rot17")
        path = tmp_path / "sig.json"
        path.write_text(json.dumps(
            {"dimension": 1, "basis": "custom:rot17", "coefficients": [1.0]}
        ))
        assert main(["cev", "--signal", str(path), "--output-prefix", str(tmp_path / "r")]) \
            == EXIT_VALIDATION

    def test_json_round_trip(self, tmp_path):
        sig = HighOrderSignal(
            dimension=2,
            coefficients=np.array([0.5, -1.25, 3.0, 0.0]),
            measure=MeasureKind.O_INFORMATION,
        )
        path = tmp_path / "sig.json"
        write_signal(path, sig, num_vertices=4)
        back = read_signal(path)
        assert back.dimension == sig.dimension
        assert back.measure is MeasureKind.O_INFORMATION
        assert np.array_equal(back.coefficients, sig.coefficients)


class TestFourierRoundTrip:
    def test_basis_column_maps_to_one_hot(self):
        rng = np.random.default_rng(1)
        S = random_structural_simplex(4, rng)
        basis = fourier_basis(S, 2)
        j = 3
        signal = HighOrderSignal(dimension=2,
                                 coefficients=reference.inverse_matrix(basis)[:, j].copy())
        hat = to_fourier(signal, basis)
        expected = np.zeros(signal.size)
        expected[j] = 1.0
        assert np.allclose(hat.coefficients, expected, atol=1e-10)
        assert hat.basis == FOURIER

    def test_zero_signal_transforms_to_zero(self):
        rng = np.random.default_rng(2)
        S = random_structural_simplex(3, rng)
        basis = fourier_basis(S, 1)
        zero = HighOrderSignal(dimension=1, coefficients=np.zeros(6))
        assert np.array_equal(to_fourier(zero, basis).coefficients, np.zeros(6))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(3)
        for N in range(2, 7):
            S = random_structural_simplex(N, rng)
            for n in range(1, N + 1):
                basis = fourier_basis(S, n)
                for _ in range(10):
                    coeffs = rng.standard_normal(basis.weights.size)
                    signal = HighOrderSignal(dimension=n, coefficients=coeffs)
                    back = from_fourier(to_fourier(signal, basis), basis)
                    scale = max(np.max(np.abs(coeffs)), 1.0)
                    assert np.max(np.abs(back.coefficients - coeffs)) <= 1e-8 * scale

    def test_parseval_in_weighted_norm(self):
        rng = np.random.default_rng(4)
        for N in range(2, 7):
            S = random_structural_simplex(N, rng)
            for n in range(1, N + 1):
                basis = fourier_basis(S, n)
                coeffs = rng.standard_normal(basis.weights.size)
                signal = HighOrderSignal(dimension=n, coefficients=coeffs)
                hat = to_fourier(signal, basis)
                energy = float(np.sum(hat.coefficients**2))
                reference = float(np.sum(S.weight_vector(n) * coeffs**2))
                assert abs(energy - reference) <= 1e-8 * max(reference, 1e-30)

    def test_tag_and_dimension_checks(self):
        rng = np.random.default_rng(5)
        S = random_structural_simplex(3, rng)
        basis = fourier_basis(S, 1)
        fourier_signal = HighOrderSignal(
            dimension=1, coefficients=np.zeros(6), basis=FOURIER
        )
        with pytest.raises(ValidationError):
            to_fourier(fourier_signal, basis)
        with pytest.raises(ValidationError):
            from_fourier(
                HighOrderSignal(dimension=1, coefficients=np.zeros(6)), basis
            )
        with pytest.raises(ValidationError):
            to_fourier(HighOrderSignal(dimension=1, coefficients=np.zeros(5)), basis)


class TestCevReport:
    def test_one_hot(self):
        signal = HighOrderSignal(dimension=1, coefficients=np.array([0.0, 7.0, 0.0]))
        report = cev_report(signal)
        assert report.cev[0] == 1.0
        assert all(k == 1 for k in report.components_at.values())

    def test_flat_spectrum(self):
        signal = HighOrderSignal(dimension=1, coefficients=np.ones(5))
        report = cev_report(signal)
        assert np.allclose(report.cev, np.arange(1, 6) / 5)
        assert report.components_at[0.60] == 3
        assert report.components_at[0.99] == 5

    def test_three_four_vector(self):
        signal = HighOrderSignal(dimension=1, coefficients=np.array([3.0, 4.0]))
        report = cev_report(signal)
        assert np.allclose(report.sorted_ev, [16 / 25, 9 / 25])
        assert np.allclose(report.cev, [0.64, 1.0])
        assert report.components_at[0.60] == 1
        assert report.components_at[0.80] == 2

    def test_ties_broken_by_canonical_index(self):
        signal = HighOrderSignal(dimension=1, coefficients=np.array([2.0, -2.0, 1.0]))
        report = cev_report(signal)
        assert np.allclose(report.sorted_ev, [4 / 9, 4 / 9, 1 / 9])

    def test_zero_signal_rejected(self):
        with pytest.raises(NumericalError):
            cev_report(HighOrderSignal(dimension=1, coefficients=np.zeros(4)))

    def test_monotone_terminal_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            signal = HighOrderSignal(dimension=1, coefficients=rng.standard_normal(17))
            report = cev_report(signal)
            assert np.all(np.diff(report.cev) >= -1e-15)
            assert report.cev[-1] == pytest.approx(1.0, abs=1e-10)
            assert np.all(report.sorted_ev >= 0.0)

    def test_serialization(self, tmp_path):
        report = cev_report(HighOrderSignal(dimension=1, coefficients=np.array([3.0, 4.0])))
        cev_to_json(tmp_path / "r.json", report)
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["sorted_ev"][0] == pytest.approx(0.64)
        assert '"0.60": 1' in (tmp_path / "r.json").read_text()


class TestAgainstCachedMatrices:
    """The products against the change-of-basis matrices a basis once cached."""

    @pytest.fixture(params=[1, 56, 330, 1001])
    def basis(self, request, basis_1001):
        if request.param == 1001:
            return basis_1001
        N, n = {1: (2, 2), 56: (7, 2), 330: (10, 3)}[request.param]
        return fourier_basis(random_structural_simplex(N, np.random.default_rng(N)), n)

    def test_transforms_are_bit_identical(self, basis):
        d = basis.weights.size
        for seed in range(3):
            coeffs = np.random.default_rng(seed).standard_normal(d)
            hat = to_fourier(HighOrderSignal(basis.dimension, coeffs), basis)
            expected = reference.forward_matrix(basis) @ coeffs
            assert hat.coefficients.tobytes() == expected.tobytes()
            back = from_fourier(HighOrderSignal(basis.dimension, coeffs, FOURIER), basis)
            expected = reference.inverse_matrix(basis) @ coeffs
            assert back.coefficients.tobytes() == expected.tobytes()

    def test_no_dense_array_outlives_the_transforms(self, basis_1001):
        """tracemalloc counts, in float64 d x d arrays, what stays alive after
        one transform each way: the two signals only, against two cached
        matrices when a basis kept them."""
        d = basis_1001.weights.size
        signal = HighOrderSignal(3, np.random.default_rng(67).standard_normal(d))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            hat = to_fourier(signal, basis_1001)
            back = from_fourier(hat, basis_1001)
            alive = (tracemalloc.get_traced_memory()[0] - base) / (8.0 * d * d)
        finally:
            tracemalloc.stop()
        assert back.size == d
        assert alive < 0.01


class TestControlComparison:
    """The Fourier CEV against a random basis's, whose large-d curve is the
    closed form ``random_null``."""

    @staticmethod
    def assert_brackets(d, draws):
        """At each threshold, ``random_null(d)``'s count lies within the
        2.5-97.5% range of the counts of the coefficient vectors ``draws``."""
        reports = [cev_report(HighOrderSignal(1, x)) for x in draws]
        for t, closed in random_null(d).components_at.items():
            low, high = np.quantile([r.components_at[t] for r in reports], [0.025, 0.975])
            assert low <= closed <= high, (t, closed, low, high)

    def test_concentrated_signal_beats_random_mean_at_first_component(self):
        rng = np.random.default_rng(12)
        S = random_structural_simplex(4, rng)
        basis = fourier_basis(S, 2)
        signal = HighOrderSignal(dimension=2,
                                 coefficients=reference.inverse_matrix(basis)[:, 4].copy())
        fourier = cev_report(to_fourier(signal, basis))
        null = random_null(signal.size)
        assert fourier.cev[0] == pytest.approx(1.0, abs=1e-10)
        assert null.cev[0] < 1.0 and null.cev[-1] == 1.0
        assert np.all(np.diff(null.cev) > 0) and np.all(np.diff(null.sorted_ev) <= 0)
        assert all(fourier.components_at[t] == 1 < null.components_at[t]
                   for t in CEV_THRESHOLDS)

    @pytest.mark.parametrize("d", [3, 4, 10, 35, 84, 126, 165, 330, 1001, 3003, 5000])
    def test_counts_are_the_fewest_k_reaching_each_threshold(self, d):
        """G(q) = 2(a phi(a) + 1 - Phi(a)), a = Phi^-1(1 - q/2), from
        ``statistics.NormalDist``: the fewest k with G(k/d) >= t."""
        normal = NormalDist()

        def G(q):
            a = normal.inv_cdf(1 - q / 2)
            return 2 * (a * normal.pdf(a) + 1 - normal.cdf(a))

        null = random_null(d)
        assert null.cev.shape == (d,)
        for t in CEV_THRESHOLDS:
            assert null.components_at[t] == next(k for k in range(1, d + 1) if G(k / d) >= t)

    @pytest.mark.parametrize("d", [10, 35, 165])
    def test_null_matches_the_reference_qr_draw(self, d):
        """Against 200 sign-fixed QR bases of ``reference.random_basis``."""
        rng = np.random.default_rng(17)
        basis = weighted(rng.uniform(0.1, 5.0, size=d))
        x = rng.standard_normal(d)
        self.assert_brackets(d, (reference.random_basis(basis, seed=100_000 + i)[0] @ x
                                 for i in range(200)))

    @pytest.mark.parametrize("d", [35, 165, 1001])
    def test_counts_bracket_the_closed_form(self, d):
        """Against 200 standard-normal curves, replicate k drawn from
        ``derive_rng(0, k)``."""
        self.assert_brackets(d, (derive_rng(0, k).standard_normal(d) for k in range(200)))

    def test_null_needs_a_component(self):
        with pytest.raises(ValidationError, match="d >= 1"):
            random_null(0)


class TestMeasureReports:
    def test_canonical_then_fourier_with_an_undefined_report_as_value(self):
        """X2 copies X0 while X1 and X3 are independent coins, so every
        O-information value is 0 and the S-information ones are not."""
        p = np.zeros((2, 2, 2, 2))
        for a, b, c in itertools.product((0, 1), repeat=3):
            p[a, b, a, c] = 1 / 8
        oracle = EntropyOracle(dense_to_distribution(p))
        basis = fourier_basis(random_structural_simplex(3, np.random.default_rng(3)), 2)
        O, S = MeasureKind.O_INFORMATION, MeasureKind.S_INFORMATION
        got = list(measure_reports(oracle, basis, (O, S)))
        assert [(signal.measure, signal.basis) for signal, _ in got] == [
            (O, CANONICAL), (O, FOURIER), (S, CANONICAL), (S, FOURIER)]
        for _, report in got[:2]:
            assert isinstance(report, NumericalError)
            assert str(report) == "all-zero signal: explained variance undefined"
        canonical = build_signal(oracle, 2, S)
        for (signal, report), want in zip(got[2:], (canonical, to_fourier(canonical, basis))):
            assert np.array_equal(signal.coefficients, want.coefficients)
            assert np.array_equal(report.cev, cev_report(want).cev)


class TestPermutationBehavior:
    """Relabeling vertices permutes canonical entries and preserves both the
    eigenvalue spectrum and the canonical-basis CEV. The Fourier-basis CEV is
    preserved whenever the relabeling twists every simplex orientation the
    same way (a full reversal does); a generic permutation mixes orientation
    signs and genuinely changes the Fourier coefficients."""

    @staticmethod
    def _pipeline(dense_pmf, dims=(1, 2)):
        from conftest import dense_to_distribution

        dist = dense_to_distribution(dense_pmf)
        oracle = EntropyOracle(dist)
        mi = similarity_matrix(oracle, SimilarityMetric.MUTUAL_INFORMATION)
        simplex = structural_weights(mi)
        out = {}
        for n in dims:
            basis = fourier_basis(simplex, n)
            signal = build_signal(oracle, n, MeasureKind.S_INFORMATION)
            out[n] = (signal, basis)
        return out

    def test_canonical_entries_and_cev_permute(self):
        rng = np.random.default_rng(14)
        dist, dense_pmf = random_pmf(rng, (2, 2, 2, 2))
        perm = (2, 0, 3, 1)
        permuted_pmf = np.transpose(dense_pmf, axes=np.argsort(perm))
        base = self._pipeline(dense_pmf)
        relabeled = self._pipeline(permuted_pmf)
        for n in (1, 2):
            sig, basis = base[n]
            sig2, basis2 = relabeled[n]
            for idx, simplex in enumerate(itertools.combinations(range(4), n + 1)):
                image = tuple(sorted(perm[v] for v in simplex))
                image_idx = list(itertools.combinations(range(4), n + 1)).index(image)
                assert sig2.coefficients[image_idx] == pytest.approx(
                    sig.coefficients[idx], abs=1e-10
                )
            assert np.allclose(basis.eigenvalues, basis2.eigenvalues, atol=1e-8)
            assert np.allclose(
                cev_report(sig).cev, cev_report(sig2).cev, atol=1e-8
            )

    def test_full_reversal_preserves_fourier_cev(self):
        rng = np.random.default_rng(15)
        dist, dense_pmf = random_pmf(rng, (2, 2, 2, 2))
        reversed_pmf = np.transpose(dense_pmf, axes=(3, 2, 1, 0))
        base = self._pipeline(dense_pmf)
        relabeled = self._pipeline(reversed_pmf)
        for n in (1, 2):
            sig, basis = base[n]
            sig2, basis2 = relabeled[n]
            cev_a = cev_report(to_fourier(sig, basis)).cev
            cev_b = cev_report(to_fourier(sig2, basis2)).cev
            assert np.allclose(cev_a, cev_b, atol=1e-8)
