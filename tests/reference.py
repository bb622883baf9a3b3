"""Library functions that left the package, kept unchanged as references.

- ``marginalize``, ``entropy_nats``, ``entropy`` and ``gaussian_entropy_nats``
  compute one subset's entropy at a time. The package fills whole levels with
  ``distribution.subset_entropies_nats``, which must equal them.
- ``sample_gaussian`` and ``copula_gaussian_fit`` drew the whole sample
  array and then multiplied it by the covariance factor, and fitted the copula
  from a list of score columns, a stacked copy and ``np.corrcoef``. The
  package transforms the draw in its own buffer and correlates in the same
  buffer; both must equal these bit for bit.
- ``average_ranks`` is the float rank transform that the fit indexed its
  score table with, at ``2 * rank - 2``. The package indexes the table with
  the integer a tie group's start plus its end minus 1, which is equal.
- ``forward_matrix`` and ``inverse_matrix`` are the change-of-basis matrices
  Q^T W^(1/2) and W^(-1/2) Q that a ``FourierBasis`` cached. ``to_fourier``
  and ``from_fourier`` apply the same float operations, and their outputs
  must equal these bit for bit.
- ``random_basis`` is the sign-fixed QR draw of a Haar-random basis that the
  random-basis control once applied to each signal. The package draws the
  control's curves from the sphere instead, and their distribution must
  match the curves of this draw.
- ``basis_diagnostics`` is the dense residual check that built ``forward``
  and ``inverse`` and ran four d x d products. The package's version runs
  two, and both must pass and fail on the same bases.
"""

import math

import numpy as np

from hyperharmonic import (
    ContinuousSeriesTable,
    EstimationError,
    JointDistribution,
    NumericalError,
    ValidationError,
)
from hyperharmonic.distribution import (
    _LOG_TWO_PI_E,
    GAUSSIAN_DIAGONAL_REGULARIZATION,
    GaussianModel,
    _normal_scores,
    distinct_rows,
)
from hyperharmonic.simplices import StructuralSimplex, validate_simplex
from hyperharmonic.spectral import FourierBasis, laplacian
from hyperharmonic.synth import RANK_TOLERANCE, RankedCovariance


def marginalize(dist: JointDistribution, subset) -> JointDistribution:
    """Marginal distribution of the variables in ``subset`` (sorted indices).

    Each mass adds up, in support order, the masses that project onto it.
    """
    s = validate_simplex(subset, dist.num_variables - 1)
    if len(s) == dist.num_variables:
        return dist
    outcomes, groups = distinct_rows(dist.outcomes[:, s])
    sizes = tuple(dist.alphabet_sizes[i] for i in s)
    return JointDistribution(sizes, outcomes, np.bincount(groups, weights=dist.masses))


def entropy_nats(dist: JointDistribution) -> float:
    return -math.fsum(p * math.log(p) for p in dist.masses.tolist())


def entropy(dist: JointDistribution) -> float:
    """Shannon entropy of the stored outcomes, in bits."""
    return entropy_nats(dist) / math.log(2.0)


def gaussian_entropy_nats(model: GaussianModel, subset) -> tuple[float, bool]:
    """Closed-form entropy of a variable subset, plus a flag marking cases
    where the diagonal regularization changed the log-determinant materially."""
    s = validate_simplex(subset, model.num_variables - 1)
    k = len(s)
    sub = model.correlation_matrix[np.ix_(s, s)]
    reg = sub + GAUSSIAN_DIAGONAL_REGULARIZATION * np.eye(k)
    sign, logdet = np.linalg.slogdet(reg)
    if sign <= 0 or not np.isfinite(logdet):
        raise NumericalError(
            f"regularized correlation submatrix for {s} is not positive definite"
        )
    raw_sign, raw_logdet = np.linalg.slogdet(sub)
    needed_regularization = bool(
        raw_sign <= 0 or not np.isfinite(raw_logdet) or abs(logdet - raw_logdet) > 1e-6
    )
    return 0.5 * (k * _LOG_TWO_PI_E + logdet), needed_regularization


def sample_gaussian(cov: RankedCovariance, num_samples: int, seed) -> ContinuousSeriesTable:
    """Draw zero-mean Gaussian samples via the eigenfactor transform."""
    if num_samples < 1:
        raise ValidationError(f"need at least one sample, got {num_samples}")
    rng = np.random.default_rng(seed)
    eigenvalues, V = np.linalg.eigh(cov.matrix)
    # Eigenvalues below the rank tolerance are reconstruction dust; zeroing
    # them keeps the samples inside the span the declared rank promises.
    cut = RANK_TOLERANCE * max(float(eigenvalues.max(initial=0.0)), 0.0)
    eigenvalues = np.where(eigenvalues < cut, 0.0, eigenvalues)
    Z = rng.standard_normal((num_samples, cov.size))
    X = Z @ (V * np.sqrt(eigenvalues)).T
    return ContinuousSeriesTable(
        variable_names=tuple(f"X{i}" for i in range(cov.size)),
        samples=X,
    )


def copula_gaussian_fit(table: ContinuousSeriesTable) -> GaussianModel:
    """Fit a Gaussian copula: rank-transform columns, correlate the scores.

    Each column is mapped through rank/(T+1) (average ranks on ties) and the
    standard-normal quantile function; the model is the sample correlation of
    the transformed columns. Depends on the data only through column orderings.
    """
    T = table.num_samples
    if T < 3:
        raise ValidationError(f"need at least 3 samples to fit a copula, got {T}")
    scores = []
    for name, col in zip(table.variable_names, table.samples.T):
        if np.ptp(col) == 0.0:
            raise EstimationError(f"column {name!r} is constant; rank transform undefined")
        scores.append(_normal_scores(T)[(2.0 * average_ranks(col)).astype(np.int64) - 2])
    Z = np.column_stack(scores)
    R = np.corrcoef(Z, rowvar=False)
    R = np.atleast_2d(R)
    R = (R + R.T) / 2.0
    np.fill_diagonal(R, 1.0)
    return GaussianModel(correlation_matrix=R)


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share the mean of their ranks.

    Equal to ``scipy.stats.rankdata(values, method="average")``. The sort need
    not be stable: a tie group's rank depends only on where the group starts and ends.
    """
    x = np.asarray(values)
    order = np.argsort(x)
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def forward_matrix(basis: FourierBasis) -> np.ndarray:
    """Q^T W^(1/2): canonical coefficients to Fourier coefficients."""
    return basis.eigenvectors.T * np.sqrt(basis.weights)[None, :]


def inverse_matrix(basis: FourierBasis) -> np.ndarray:
    """W^(-1/2) Q: Fourier coefficients back to canonical ones."""
    return basis.eigenvectors / np.sqrt(basis.weights)[:, None]


def random_basis(inner, seed) -> tuple[np.ndarray, np.ndarray]:
    """Seeded random basis pair (forward, inverse), w-orthonormal like a Fourier basis.

    A standard-normal d x d matrix, d the number of weights of ``inner``, is
    drawn and QR-orthonormalized (signs fixed so the draw is deterministic),
    then scaled by W^(-1/2) so that inverse^T W inverse = I.
    """
    rng, d = np.random.default_rng(seed), inner.weights.size
    Q = None
    for _ in range(3):
        draw = rng.standard_normal((d, d))
        q, r = np.linalg.qr(draw)
        rdiag = np.diag(r)
        if np.min(np.abs(rdiag)) <= 1e-12 * max(np.max(np.abs(rdiag)), 1.0):
            continue
        Q = q * np.sign(rdiag)[None, :]
        break
    if Q is None:
        raise NumericalError("random basis draw was singular three times in a row")
    root = np.sqrt(inner.weights)
    inverse = Q / root[:, None]
    forward = Q.T * root[None, :]
    return forward, inverse


def basis_diagnostics(simplex: StructuralSimplex, basis: FourierBasis) -> dict:
    """The four residuals of ``basis`` as an eigenbasis of the Laplacian of ``simplex``.

    ``self_adjointness`` is the relative asymmetry of W L, which vanishes
    exactly for a self-adjoint L. ``forward`` and ``inverse`` are built from Q
    and the weights. The d x d products go into two reused buffers, and the
    identity or the eigenvalues come off their diagonals in place: besides L
    and Q, at most four d x d arrays are alive at once.
    """
    L, w = laplacian(simplex, basis.dimension), basis.weights
    WL = w[:, None] * L
    scale = np.linalg.norm(WL)
    self_adjointness = float(np.linalg.norm(WL - WL.T) / scale) if scale else 0.0
    del WL
    denom = max(float(np.linalg.norm(L)), np.finfo(float).tiny)
    forward, inverse = forward_matrix(basis), inverse_matrix(basis)
    diagonal = np.diag_indices(w.size)
    product, result = np.empty(L.shape), np.empty(L.shape)

    np.matmul(np.matmul(forward, L, out=product), inverse, out=result)
    result[diagonal] -= basis.eigenvalues
    diagonalization = float(np.linalg.norm(result) / denom)
    np.matmul(inverse.T, np.multiply(w[:, None], inverse, out=product), out=result)
    result[diagonal] -= 1.0
    orthonormality = float(np.max(np.abs(result, out=result)))
    np.matmul(forward, inverse, out=result)
    result[diagonal] -= 1.0
    inversion = float(np.max(np.abs(result, out=result)))
    return {"self_adjointness": self_adjointness, "diagonalization": diagonalization,
            "orthonormality": orthonormality, "inversion": inversion}
