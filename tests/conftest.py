"""Shared distribution builders for the test suite.

Each builder returns a pair (JointDistribution, dense numpy array) so tests
can drive the library and the brute-force reference from the same data.
"""

import itertools

import numpy as np
import pytest

from hyperharmonic import DiscreteSeriesTable, GaussianModel, JointDistribution

import dict_reference


def dense_to_distribution(p: np.ndarray) -> JointDistribution:
    p = np.asarray(p, dtype=float)
    support = np.nonzero(p > 0)
    return JointDistribution(p.shape, np.column_stack(support), p[support])


def mass_dict(dist: JointDistribution) -> dict:
    """The pmf as {outcome tuple: mass}, in support order."""
    return dict(zip(map(tuple, dist.outcomes.tolist()), dist.masses.tolist()))


def xor_triple():
    """Two fair coins plus their parity: no pairwise dependence, pure synergy."""
    p = np.zeros((2, 2, 2))
    for a, b in itertools.product((0, 1), repeat=2):
        p[a, b, a ^ b] = 0.25
    return dense_to_distribution(p), p


def bit_copy(num_variables: int):
    """One fair coin copied into every variable."""
    p = np.zeros((2,) * num_variables)
    p[(0,) * num_variables] = 0.5
    p[(1,) * num_variables] = 0.5
    return dense_to_distribution(p), p


def independent_bits(num_variables: int):
    shape = (2,) * num_variables
    p = np.full(shape, 1.0 / 2**num_variables)
    return dense_to_distribution(p), p


def correlated_pair(p00=0.4, p01=0.1, p10=0.2, p11=0.3):
    return np.array([[p00, p01], [p10, p11]])


def product_distribution(*factors: np.ndarray):
    """Dense outer product of independent blocks of variables."""
    dense = factors[0]
    for factor in factors[1:]:
        dense = np.multiply.outer(dense, factor)
    return dense_to_distribution(dense), dense


def random_pmf(rng: np.random.Generator, shape, sparsity=0.3):
    """Random dense pmf with a fraction of outcomes zeroed out."""
    p = rng.random(shape)
    mask = rng.random(shape) < sparsity
    p[mask] = 0.0
    if p.sum() == 0:
        p[(0,) * len(shape)] = 1.0
    p /= p.sum()
    return dense_to_distribution(p), p


def random_correlation(rng: np.random.Generator, size: int, rank: int) -> np.ndarray:
    """Correlation matrix of a random covariance of the given rank."""
    M = rng.standard_normal((size, rank))
    C = M @ M.T
    d = np.sqrt(np.diag(C))
    R = C / np.outer(d, d)
    R = (R + R.T) / 2.0
    np.fill_diagonal(R, 1.0)
    return R


def five_variable_sources():
    """A random discrete pmf and a full-rank Gaussian model, five variables each."""
    dist, _ = random_pmf(np.random.default_rng(5), (2, 3, 2, 2, 3))
    model = GaussianModel(correlation_matrix=random_correlation(np.random.default_rng(5), 5, 5))
    return dist, model


def random_table(seed: int, sizes, num_samples: int) -> DiscreteSeriesTable:
    """Uniform random symbols, one column per alphabet size."""
    rng = np.random.default_rng(seed)
    return DiscreteSeriesTable(
        variable_names=tuple(f"v{i}" for i in range(len(sizes))),
        samples=np.column_stack([rng.integers(0, a, size=num_samples) for a in sizes]),
        alphabet_sizes=tuple(sizes),
    )


def smoothed_distribution(table: DiscreteSeriesTable, alpha: float) -> JointDistribution:
    """The pmf of ``dict_reference.estimate_empirical`` with additive smoothing
    ``alpha``: above 0 it gives every outcome of the product alphabet a mass,
    so the support is dense."""
    outcomes, masses = zip(*dict_reference.estimate_empirical(table, smoothing=alpha).items())
    return JointDistribution(table.alphabet_sizes, outcomes, masses)


@pytest.fixture
def xor_distribution():
    return xor_triple()[0]
