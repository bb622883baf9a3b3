"""Rank-controlled synthetic Gaussian data and the compressibility experiment.

A random covariance of prescribed rank is produced by truncating the spectrum
of a Wishart-style draw; sampling from it, fitting a Gaussian copula and
running the full spectral pipeline measures how the input's effective number
of degrees of freedom shows up in the compressibility of the resulting
high-order signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distribution import ContinuousSeriesTable, _copula_fit
from .errors import CapacityError, NumericalError, ValidationError
from .infotheory import (EntropyOracle, MeasureKind, SimilarityMetric, resolved_measures,
                         similarity_matrix)
from .jsonio import csv_writer
from .seeding import derive_rng
from .simplices import (
    DENSE_DIMENSION_CAP,
    WEIGHT_FLOOR,
    WeightAggregator,
    resolved_dimensions,
    structural_weights,
)
from .spectral import fourier_basis
from .transform import _cev_curve, build_signal, mean_with_band, to_fourier

RANK_TOLERANCE = 1e-8

DEFAULT_SIZE = 9
DEFAULT_SAMPLES = 10_000
DEFAULT_REPLICATES = 50
DEFAULT_MEASURES = (MeasureKind.O_INFORMATION, MeasureKind.S_INFORMATION)


@dataclass(frozen=True)
class RankedCovariance:
    """Symmetric PSD matrix whose numerical rank is pinned by construction."""

    size: int
    rank: int
    matrix: np.ndarray

    def __post_init__(self):
        C = np.asarray(self.matrix, dtype=float)
        if C.shape != (self.size, self.size):
            raise ValidationError(f"expected a {self.size}x{self.size} matrix, got {C.shape}")
        if np.max(np.abs(C - C.T)) > 1e-12:
            raise ValidationError("covariance must be symmetric within 1e-12")
        eigs = np.linalg.eigvalsh(C)
        top = eigs.max(initial=0.0)
        numerical_rank = int(np.count_nonzero(eigs > RANK_TOLERANCE * top)) if top > 0 else 0
        if numerical_rank != self.rank:
            raise ValidationError(
                f"numerical rank {numerical_rank} does not match declared rank {self.rank}"
            )
        object.__setattr__(self, "matrix", C)


def random_rank_covariance(size: int, rank: int, seed) -> RankedCovariance:
    """Draw M with iid standard-normal entries, form A = M M^T, zero all but
    the ``rank`` largest eigenvalues, and reassemble.

    A draw whose kept eigenvalues span more than 1 / RANK_TOLERANCE misses its
    declared rank; it is drawn again from the same stream, at most three times.
    """
    if not 1 <= rank <= size:
        raise ValidationError(f"rank must lie in [1, {size}], got {rank}")
    rng = np.random.default_rng(seed)
    for _ in range(3):
        M = rng.standard_normal((size, size))
        eigenvalues, V = np.linalg.eigh(M @ M.T)
        eigenvalues[: size - rank] = 0.0
        C = (V * eigenvalues) @ V.T
        try:
            return RankedCovariance(size=size, rank=rank, matrix=(C + C.T) / 2.0)
        except ValidationError:  # (C + C.T) / 2 is symmetric, so only the rank can miss
            continue
    raise NumericalError(f"covariance draw missed rank {rank} three times in a row")


def sample_gaussian(cov: RankedCovariance, num_samples: int, seed) -> ContinuousSeriesTable:
    """Draw zero-mean Gaussian samples via the eigenfactor transform."""
    if num_samples < 1:
        raise ValidationError(f"need at least one sample, got {num_samples}")
    X = _gaussian_draw(cov, num_samples, np.random.default_rng(seed))
    return ContinuousSeriesTable(tuple(f"X{i}" for i in range(cov.size)), X)


def _gaussian_draw(cov: RankedCovariance, num_samples: int, rng) -> np.ndarray:
    """The (T, V) samples of ``sample_gaussian``, transformed in the draw's buffer."""
    eigenvalues, V = np.linalg.eigh(cov.matrix)
    # Eigenvalues below the rank tolerance are reconstruction dust; zeroing
    # them keeps the samples inside the span the declared rank promises.
    cut = RANK_TOLERANCE * max(float(eigenvalues.max(initial=0.0)), 0.0)
    factor = (V * np.sqrt(np.where(eigenvalues < cut, 0.0, eigenvalues))).T
    X = rng.standard_normal((num_samples, cov.size))
    # Row blocks bound the product's temporary. No block has one row unless
    # T = 1: NumPy multiplies a single row with gemv, which rounds unlike gemm.
    edges = [*range(0, max(num_samples - 1, 1), 1024), num_samples]
    for start, stop in zip(edges, edges[1:]):
        X[start:stop] = X[start:stop] @ factor
    return X


@dataclass
class RankExperimentResult:
    """Averaged Fourier-basis CEV curves keyed by (rank, dimension, measure)."""

    mean_cev: dict[tuple[int, int, MeasureKind], np.ndarray]
    ci_low: dict[tuple[int, int, MeasureKind], np.ndarray]
    ci_high: dict[tuple[int, int, MeasureKind], np.ndarray]
    manifest: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Long-format CSV (rank, dimension, measure, k, mean_cev, ci_low, ci_high)."""
        with csv_writer(path) as writer:
            writer.writerow(
                ["rank", "dimension", "measure", "k", "mean_cev", "ci_low", "ci_high"]
            )
            for key in sorted(self.mean_cev, key=lambda t: (t[0], t[1], t[2].value)):
                rank, n, measure = key
                rows = zip(self.mean_cev[key], self.ci_low[key], self.ci_high[key])
                for k, (m, lo, hi) in enumerate(rows, start=1):
                    writer.writerow(
                        [rank, n, measure.value, k, repr(float(m)), repr(float(lo)), repr(float(hi))]
                    )


def check_experiment(ranks, replicates, num_samples, size, dimensions, measures):
    """Ranks, dimensions and measures of an experiment as tuples.

    Raises ValidationError or CapacityError for any argument the experiment
    cannot run with, before anything is sampled.
    """
    measures = resolved_measures(measures)
    ranks = tuple(int(r) for r in ranks)
    if not ranks or any(not 1 <= r <= size for r in ranks):
        raise ValidationError(f"ranks must be a non-empty subset of [1, {size}], got {ranks}")
    if replicates < 1:
        raise ValidationError(f"need at least one replicate, got {replicates}")
    if num_samples < 3:
        raise ValidationError(f"need at least 3 samples to fit a copula, got {num_samples}")
    if num_samples * size > DENSE_DIMENSION_CAP**2:
        raise CapacityError(
            f"{num_samples} samples of {size} variables exceed {DENSE_DIMENSION_CAP}**2 entries")
    dimensions = resolved_dimensions(dimensions, size - 1)
    if len(set(ranks)) < len(ranks):
        raise ValidationError(f"ranks must not repeat a value, got {ranks}")
    return ranks, dimensions, measures


def rank_experiment(
    ranks,
    replicates: int,
    num_samples: int = DEFAULT_SAMPLES,
    base_seed: int = 0,
    size: int = DEFAULT_SIZE,
    dimensions=(),
    measures=DEFAULT_MEASURES,
) -> RankExperimentResult:
    """Average Fourier-basis CEV curves over replicated rank-controlled draws.

    Each replicate generates a fresh covariance of the given rank, samples it,
    fits the copula model, seeds the structural simplex with pairwise mutual
    information, and pushes both measures through Laplacians and Fourier bases
    for every requested dimension, by default 2..min(5, size - 1). Curves are
    averaged pointwise with a 95% band across replicates; replicate sub-seeds
    are derived by a fixed counter scheme so adding replicates never changes
    earlier ones.
    """
    ranks, dimensions, measures = check_experiment(
        ranks, replicates, num_samples, size, dimensions, measures
    )

    curves: dict[tuple[int, int, MeasureKind], list[np.ndarray]] = {
        (rank, n, m): [] for rank in ranks for n in dimensions for m in measures
    }
    regularized: dict[tuple[int, int], int] = {}
    for rank in ranks:
        for rep in range(replicates):
            try:
                cov = random_rank_covariance(size, rank, derive_rng(base_seed, rank, rep, 0))
                X = _gaussian_draw(cov, num_samples, derive_rng(base_seed, rank, rep, 1))
                model = _copula_fit(X, [f"X{i}" for i in range(size)])
                del X
                oracle = EntropyOracle(model)
                mi = similarity_matrix(oracle, SimilarityMetric.MUTUAL_INFORMATION)
                simplex = structural_weights(mi)
                for n in dimensions:
                    basis = fourier_basis(simplex, n)
                    for measure in measures:
                        signal = build_signal(oracle, n, measure)
                        curves[(rank, n, measure)].append(
                            _cev_curve(to_fourier(signal, basis).coefficients)[1]
                        )
                regularized[(rank, rep)] = len(oracle.regularized_subsets)
            except (ValidationError, NumericalError, CapacityError) as exc:
                raise type(exc)(f"rank {rank}, replicate {rep}: {exc}") from exc

    mean_cev, ci_low, ci_high = {}, {}, {}
    for key, stack in curves.items():
        mean_cev[key], ci_low[key], ci_high[key] = mean_with_band(np.vstack(stack))

    manifest = {
        "ranks": list(ranks),
        "replicates": replicates,
        "num_samples": num_samples,
        "base_seed": base_seed,
        "size": size,
        "dimensions": list(dimensions),
        "measures": [m.value for m in measures],
        "aggregator": WeightAggregator.MEAN.value,
        "weight_floor": WEIGHT_FLOOR,
        "similarity_metric": SimilarityMetric.MUTUAL_INFORMATION.value,
        "seed_scheme": "SeedSequence((base_seed, rank, replicate, stage))",
        "replicate_axis": "covariance draws",
        "regularized_subset_counts": {
            f"rank={rank},replicate={rep}": count
            for (rank, rep), count in sorted(regularized.items())
        },
    }
    return RankExperimentResult(mean_cev, ci_low, ci_high, manifest)
