"""Spectral compression of high-order information signals.

The library estimates joint distributions from discrete or continuous data,
computes multivariate information measures (total correlation, dual total
correlation, and their signed difference and sum) over every variable subset,
arranges them as signals on the standard simplex, and re-expresses those
signals in the eigenbasis of weighted simplex Laplace operators. Cumulative
explained-variance reports quantify how much the change of basis concentrates
each signal. They are read against the count a random basis would need, a
closed form of the signal's length, and against a rank-controlled synthetic
experiment.
"""

from .distribution import (
    ContinuousSeriesTable,
    DiscreteSeriesTable,
    GaussianModel,
    JointDistribution,
    copula_gaussian_fit,
    estimate_empirical,
    read_continuous_csv,
    read_discrete_csv,
)
from .errors import CapacityError, EstimationError, NumericalError, ValidationError
from .infotheory import (
    EntropyOracle,
    MeasureKind,
    SimilarityMetric,
    dual_total_correlation,
    interaction_information,
    mutual_information,
    o_information,
    s_information,
    signal_sweep,
    similarity_matrix,
    total_correlation,
)
from .simplices import (
    StructuralSimplex,
    WeightAggregator,
    boundary_faces,
    enumerate_simplices,
    simplex_count,
    simplex_rank,
    structural_weights,
)
from .spectral import (
    FourierBasis,
    basis_diagnostics,
    fourier_basis,
    kernel_dimension,
    laplacian,
)
from .synth import (
    RankedCovariance,
    random_rank_covariance,
    rank_experiment,
    sample_gaussian,
)
from .transform import (
    CevReport,
    HighOrderSignal,
    build_signal,
    cev_report,
    from_fourier,
    measure_reports,
    random_null,
    to_fourier,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CevReport",
    "ContinuousSeriesTable",
    "DiscreteSeriesTable",
    "EntropyOracle",
    "EstimationError",
    "FourierBasis",
    "GaussianModel",
    "HighOrderSignal",
    "JointDistribution",
    "MeasureKind",
    "NumericalError",
    "RankedCovariance",
    "SimilarityMetric",
    "StructuralSimplex",
    "ValidationError",
    "WeightAggregator",
    "basis_diagnostics",
    "boundary_faces",
    "build_signal",
    "cev_report",
    "copula_gaussian_fit",
    "dual_total_correlation",
    "enumerate_simplices",
    "estimate_empirical",
    "fourier_basis",
    "from_fourier",
    "interaction_information",
    "kernel_dimension",
    "laplacian",
    "measure_reports",
    "mutual_information",
    "o_information",
    "random_null",
    "random_rank_covariance",
    "rank_experiment",
    "read_continuous_csv",
    "read_discrete_csv",
    "s_information",
    "sample_gaussian",
    "signal_sweep",
    "similarity_matrix",
    "simplex_count",
    "simplex_rank",
    "structural_weights",
    "to_fourier",
    "total_correlation",
]
