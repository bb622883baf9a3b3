import math
import tracemalloc

import numpy as np
import pytest

from hyperharmonic import (
    CapacityError,
    EntropyOracle,
    MeasureKind,
    NumericalError,
    ValidationError,
    copula_gaussian_fit,
    random_rank_covariance,
    rank_experiment,
    sample_gaussian,
    total_correlation,
)
from hyperharmonic import distribution, spectral, synth
from hyperharmonic.seeding import derive_rng
from hyperharmonic.synth import RANK_TOLERANCE, RankedCovariance

import reference


class TestRankedCovariance:
    def test_full_rank_keeps_everything(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 5))
        cov = random_rank_covariance(5, 5, seed=0)
        eigs = np.linalg.eigvalsh(cov.matrix)
        assert np.all(eigs > RANK_TOLERANCE * eigs.max())

    def test_rank_one_is_outer_product(self):
        cov = random_rank_covariance(6, 1, seed=1)
        eigs = np.linalg.eigvalsh(cov.matrix)
        assert np.count_nonzero(eigs > 1e-8 * eigs.max()) == 1

    def test_trace_shrinks_with_truncation(self):
        rng = np.random.default_rng(2)
        full = random_rank_covariance(7, 7, seed=2)
        truncated = random_rank_covariance(7, 3, seed=2)
        assert np.trace(truncated.matrix) < np.trace(full.matrix)

    def test_declared_rank_checked(self):
        cov = random_rank_covariance(5, 2, seed=3)
        with pytest.raises(ValidationError):
            RankedCovariance(size=5, rank=4, matrix=cov.matrix)

    def test_draw_that_misses_full_rank_is_drawn_again(self):
        first = derive_rng(219, 9, 6, 0).standard_normal((9, 9))
        eigs = np.linalg.eigvalsh(first @ first.T)
        assert eigs.min() < RANK_TOLERANCE * eigs.max()
        cov = random_rank_covariance(9, 9, derive_rng(219, 9, 6, 0))
        eigs = np.linalg.eigvalsh(cov.matrix)
        assert np.all(eigs > RANK_TOLERANCE * eigs.max())

    def test_three_misses_raise_numerical_error(self, monkeypatch):
        def miss(**kwargs):
            raise ValidationError("numerical rank 8 does not match declared rank 9")

        monkeypatch.setattr(synth, "RankedCovariance", miss)
        with pytest.raises(NumericalError, match="three times"):
            random_rank_covariance(9, 9, seed=0)

    def test_rank_out_of_range(self):
        with pytest.raises(ValidationError):
            random_rank_covariance(5, 0, seed=0)
        with pytest.raises(ValidationError):
            random_rank_covariance(5, 6, seed=0)


class TestSampleGaussian:
    def test_deterministic(self):
        cov = random_rank_covariance(4, 4, seed=5)
        a = sample_gaussian(cov, 100, seed=7)
        b = sample_gaussian(cov, 100, seed=7)
        for col_a, col_b in zip(a.samples.T, b.samples.T):
            assert np.array_equal(col_a, col_b)

    def test_sample_covariance_converges(self):
        cov = random_rank_covariance(4, 4, seed=11)
        table = sample_gaussian(cov, 100_000, seed=13)
        X = table.samples
        sample_cov = np.cov(X.T)
        scale = np.max(np.abs(cov.matrix))
        assert np.max(np.abs(sample_cov - cov.matrix)) < 0.05 * max(scale, 1.0)

    def test_rank_one_columns_are_collinear(self):
        cov = random_rank_covariance(5, 1, seed=17)
        table = sample_gaussian(cov, 50, seed=19)
        X = table.samples
        assert np.linalg.matrix_rank(X, tol=1e-8) == 1

    @pytest.mark.parametrize("T", [1, 2, 3, 1024, 1025, 1026, 2049, 10_000])
    def test_blocked_draw_equals_reference(self, T):
        for rank in (1, 4, 9):
            cov = random_rank_covariance(9, rank, seed=T)
            got = sample_gaussian(cov, T, seed=rank)
            want = reference.sample_gaussian(cov, T, seed=rank)
            assert got.samples.tobytes() == want.samples.tobytes(), rank

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_replicate_draw_and_fit_equal_reference(self, seed):
        """Every replicate of ``control-synth --ranks 2,9 --replicates 10
        --samples 10000 --size 9 --seed <seed>``, as ``rank_experiment`` runs it."""
        for rank in (2, 9):
            for rep in range(10):
                cov = random_rank_covariance(9, rank, derive_rng(seed, rank, rep, 0))
                X = synth._gaussian_draw(cov, 10_000, derive_rng(seed, rank, rep, 1))
                table = reference.sample_gaussian(cov, 10_000, derive_rng(seed, rank, rep, 1))
                assert X.tobytes() == table.samples.tobytes(), (rank, rep)
                got = synth._copula_fit(X, table.variable_names).correlation_matrix
                want = reference.copula_gaussian_fit(table).correlation_matrix
                assert got.tobytes() == want.tobytes(), (rank, rep)


class TestGaussianOracleCrossCheck:
    def test_tc_equals_negative_half_logdet(self):
        cov = random_rank_covariance(9, 9, seed=23)
        table = sample_gaussian(cov, 5_000, seed=29)
        model = copula_gaussian_fit(table)
        oracle = EntropyOracle(model)
        rng = np.random.default_rng(31)
        for _ in range(20):
            size = int(rng.integers(2, 6))
            subset = tuple(sorted(rng.choice(9, size=size, replace=False)))
            sub = model.correlation_matrix[np.ix_(subset, subset)]
            expected = -0.5 * math.log2(np.linalg.det(sub))
            assert total_correlation(oracle, subset) == pytest.approx(expected, abs=1e-9)


class TestRankExperiment:
    def test_deterministic_and_counter_seeded(self):
        kwargs = dict(
            ranks=(2,), replicates=2, num_samples=400, base_seed=5,
            size=5, dimensions=(2,), measures=(MeasureKind.O_INFORMATION,),
        )
        first = rank_experiment(**kwargs)
        second = rank_experiment(**kwargs)
        key = (2, 2, MeasureKind.O_INFORMATION)
        assert np.array_equal(first.mean_cev[key], second.mean_cev[key])

        extended = rank_experiment(**{**kwargs, "replicates": 3})
        assert extended.manifest["replicates"] == 3

    def test_single_replicate_has_degenerate_band(self):
        result = rank_experiment(
            ranks=(2,), replicates=1, num_samples=300, base_seed=4,
            size=4, dimensions=(2,), measures=(MeasureKind.O_INFORMATION,),
        )
        key = (2, 2, MeasureKind.O_INFORMATION)
        assert np.array_equal(result.ci_low[key], result.mean_cev[key])
        assert np.array_equal(result.ci_high[key], result.mean_cev[key])
        assert np.all(np.isfinite(result.mean_cev[key]))

    def test_single_rank_structure(self):
        result = rank_experiment(
            ranks=(3,), replicates=2, num_samples=300, base_seed=1,
            size=5, dimensions=(2, 3), measures=(MeasureKind.S_INFORMATION,),
        )
        assert set(result.mean_cev) == {
            (3, 2, MeasureKind.S_INFORMATION),
            (3, 3, MeasureKind.S_INFORMATION),
        }
        for key, curve in result.mean_cev.items():
            assert np.all(np.diff(curve) >= -1e-12)
            assert curve[-1] == pytest.approx(1.0, abs=1e-9)
            assert np.all(result.ci_low[key] <= curve + 1e-15)
            assert np.all(curve <= result.ci_high[key] + 1e-15)

    def test_replicate_fills_each_entropy_level_once(self, monkeypatch):
        from hyperharmonic import distribution

        filled = []
        batched = distribution.subset_entropies_nats

        def recording(source, subsets):
            filled.append(subsets.shape)
            return batched(source, subsets)

        monkeypatch.setattr(distribution, "subset_entropies_nats", recording)
        rank_experiment(
            ranks=(2,), replicates=1, num_samples=500, base_seed=0,
            size=9, dimensions=(2, 3),
        )
        assert sorted(filled, key=lambda shape: shape[1]) == [(9, 1), (36, 2), (84, 3), (126, 4)]

    def test_replicate_holds_one_sample_array(self):
        T, V = 10_000, 9
        kwargs = dict(ranks=(9,), replicates=1, size=V, dimensions=(2,),
                      measures=(MeasureKind.O_INFORMATION,))
        rank_experiment(num_samples=50, **kwargs)  # fill the caches that do not scale with T
        distribution._normal_scores.cache_clear()
        tracemalloc.start()
        try:
            rank_experiment(num_samples=T, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The draw, the score table (2T - 1 floats) and per-column rank
        # temporaries: 2.70 arrays of T x V float64. A stacked copy of the
        # scores and the copy np.corrcoef makes took it to 4.33.
        assert peak / (T * V * 8) <= 3.0

    def test_curves_equal_those_of_diagnosed_bases(self, monkeypatch):
        kwargs = dict(ranks=(2, 9), replicates=2, num_samples=2000, base_seed=3)
        plain = rank_experiment(**kwargs)
        solve = synth.fourier_basis

        def diagnosed(simplex, n):
            basis = solve(simplex, n)
            spectral.basis_diagnostics(simplex, basis)
            return basis

        monkeypatch.setattr(synth, "fourier_basis", diagnosed)
        checked = rank_experiment(**kwargs)
        for name in ("mean_cev", "ci_low", "ci_high"):
            got, want = getattr(plain, name), getattr(checked, name)
            assert got.keys() == want.keys()
            for key in got:
                assert np.array_equal(got[key], want[key]), (name, key)

    def test_never_computes_basis_diagnostics(self, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)

        monkeypatch.setattr(spectral, "basis_diagnostics", spy)
        monkeypatch.setattr(synth, "basis_diagnostics", spy, raising=False)
        rank_experiment(ranks=(2,), replicates=1, num_samples=300, size=5, dimensions=(2, 3))
        assert calls == []

    def test_default_dimensions_follow_the_size(self):
        result = rank_experiment([2], 1, num_samples=50, size=5)
        assert result.manifest["dimensions"] == [2, 3, 4]
        assert {n for _, n, _ in result.mean_cev} == {2, 3, 4}

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            rank_experiment(ranks=(), replicates=1)
        with pytest.raises(ValidationError):
            rank_experiment(ranks=(10,), replicates=1, size=9)
        with pytest.raises(ValidationError):
            rank_experiment(ranks=(2,), replicates=0)
        with pytest.raises(ValidationError):
            rank_experiment(ranks=(2,), replicates=1, size=9, dimensions=(9,))

    @pytest.mark.parametrize("kwargs, error", [
        (dict(num_samples=2), ValidationError),
        (dict(size=20), CapacityError),
        (dict(size=17, dimensions=(7,)), CapacityError),
        (dict(replicates=0), ValidationError),
        (dict(ranks=(2, 3, 2)), ValidationError),
        (dict(dimensions=(2, 2)), ValidationError),
        (dict(measures=("o_information", MeasureKind.O_INFORMATION)), ValidationError),
        (dict(measures=()), ValidationError),
        (dict(measures=("foo",)), ValidationError),
    ])
    def test_invalid_arguments_rejected_before_sampling(self, monkeypatch, kwargs, error):
        def fail(*args, **kw):
            raise AssertionError("sampled before the arguments were checked")

        monkeypatch.setattr(synth, "random_rank_covariance", fail)
        arguments = dict(ranks=(2,), replicates=1, num_samples=50, size=4, dimensions=(2,))
        with pytest.raises(error):
            rank_experiment(**{**arguments, **kwargs})

    def test_error_tagged_with_rank_and_replicate(self, monkeypatch):
        def fail(*args, **kwargs):
            raise ValidationError("bad table")

        monkeypatch.setattr(synth, "_copula_fit", fail)
        with pytest.raises(ValidationError, match="rank 2, replicate 0"):
            rank_experiment(
                ranks=(2,), replicates=1, num_samples=50, base_seed=0,
                size=4, dimensions=(2,),
            )

    def test_package_error_tagged_and_type_kept(self, monkeypatch):
        def fail(*args, **kwargs):
            raise NumericalError("boom")

        monkeypatch.setattr(synth, "_gaussian_draw", fail)
        with pytest.raises(NumericalError, match=r"^rank 2, replicate 0: boom$"):
            rank_experiment(ranks=(2,), replicates=1, num_samples=50, size=4, dimensions=(2,))

    def test_foreign_error_propagates_unchanged(self, monkeypatch):
        original = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        def fail(*args, **kwargs):
            raise original

        monkeypatch.setattr(synth, "_gaussian_draw", fail)
        with pytest.raises(UnicodeDecodeError) as excinfo:
            rank_experiment(ranks=(2,), replicates=1, num_samples=50, size=4, dimensions=(2,))
        assert excinfo.value is original

    def test_csv_and_manifest(self, tmp_path):
        result = rank_experiment(
            ranks=(2, 4), replicates=2, num_samples=300, base_seed=9,
            size=4, dimensions=(2,), measures=(MeasureKind.O_INFORMATION,),
        )
        result.to_csv(tmp_path / "cev.csv")
        lines = (tmp_path / "cev.csv").read_text().splitlines()
        assert lines[0] == "rank,dimension,measure,k,mean_cev,ci_low,ci_high"
        d = math.comb(4, 3)
        assert len(lines) == 1 + 2 * d
        assert result.manifest["base_seed"] == 9
        assert result.manifest["replicate_axis"] == "covariance draws"
