"""Information measures over variable subsets, computed on whole levels.

All measures are built from joint entropies of subsets, served by an
``EntropyOracle`` that holds one table per subset size k: the entropies of all
k-subsets in ``enumerate_simplices`` order, filled in one vectorized batch the
first time a level is needed. ``_level_values`` evaluates a measure on the
n-simplices of a level as array operations over these tables; the scalar
measures ask it for one row. Total correlation, dual total correlation and
mutual information are clamped to zero when they undershoot by floating-point
noise; the signed measures are never clamped. ``similarity_matrix`` reads the
same oracle for the pairwise values that weight the simplices.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum

import numpy as np

from . import distribution as dist_mod
from .errors import EstimationError, ValidationError
from .simplices import boundary_faces, enumerate_simplices, simplex_rank

NEGATIVE_NOISE_TOLERANCE = 1e-10

_LOG_OF_BASE = {"bits": math.log(2.0), "nats": 1.0}


class MeasureKind(Enum):
    """TC, DTC, O = TC - DTC (negative when synergy dominates), S = TC + DTC, and interaction
    information -sum (-1)^|g| H(g) over nonempty subsets g: -1 bit on an XOR triple."""

    TC = "tc"
    DTC = "dtc"
    O_INFORMATION = "o_information"
    S_INFORMATION = "s_information"
    INTERACTION_INFORMATION = "interaction_information"


def resolved_measures(names) -> tuple[MeasureKind, ...]:
    """``names``, measure values or members, as members: at least one, none repeated."""
    measures = []
    for name in names:
        try:
            measures.append(MeasureKind(name))
        except ValueError as exc:
            options = ", ".join(member.value for member in MeasureKind)
            raise ValidationError(f"unknown measure {name!r}; expected one of: {options}") from exc
    if not measures:
        raise ValidationError("measures must name at least one measure")
    if len(set(measures)) < len(measures):
        raise ValidationError(f"measures must not repeat a value, got "
                              f"{tuple(m.value for m in measures)}")
    return tuple(measures)


class EntropyOracle:
    """Maps sorted variable-index subsets to joint entropies.

    Backed either by marginalization of a sparse ``JointDistribution`` or by
    the closed Gaussian form of a ``GaussianModel``. ``table(k)`` holds the
    entropies in nats of all k-subsets; each level is filled once. Storage is
    bounded by the 2**V - 1 non-empty subsets. ``regularized_subsets`` records
    the Gaussian subsets of the filled levels whose entropy needed the diagonal
    regularization.

    ``units`` ('bits' or 'nats') is the unit of every value the oracle
    reports: ``entropy``, ``signal_sweep`` and the measures built on them.
    One model should have one oracle, shared by every stage that reads it.
    """

    def __init__(self, source, units: str = "bits"):
        if not isinstance(source, (dist_mod.JointDistribution, dist_mod.GaussianModel)):
            raise ValidationError(
                f"expected JointDistribution or GaussianModel, got {type(source).__name__}"
            )
        if units not in _LOG_OF_BASE:
            raise ValidationError(f"unknown entropy unit {units!r}; expected 'bits' or 'nats'")
        self.source = source
        self.units = units
        self.log_base = _LOG_OF_BASE[units]
        self.regularized_subsets: set[tuple[int, ...]] = set()
        self._levels: dict[int, np.ndarray] = {}

    @property
    def num_variables(self) -> int:
        return self.source.num_variables

    def table(self, k: int) -> np.ndarray:
        """Read-only entropies (nats) of all k-subsets in lexicographic order."""
        level = self._levels.get(k)
        if level is not None:
            return level
        if not 1 <= k <= self.num_variables:
            raise ValidationError(f"subset size {k} out of range [1, {self.num_variables}]")
        subsets = enumerate_simplices(self.num_variables - 1, k - 1)
        level, regularized = dist_mod.subset_entropies_nats(self.source, subsets)
        level.flags.writeable = False
        self.regularized_subsets.update(map(tuple, subsets[regularized].tolist()))
        self._levels[k] = level
        return level

    def entropy(self, subset) -> float:
        """Joint entropy of the subset, in the oracle's unit; H(empty) = 0."""
        key = tuple(sorted(int(i) for i in subset))
        if not key:
            return 0.0
        rank = simplex_rank(key, self.num_variables - 1)
        return float(self.table(len(key))[rank]) / self.log_base


def _clamp(values: np.ndarray) -> np.ndarray:
    return np.where((-NEGATIVE_NOISE_TOLERANCE < values) & (values < 0.0), 0.0, values)


def _entropies(oracle: EntropyOracle, size: int, ranks) -> np.ndarray:
    """Entropies of the ``size``-subsets at ``ranks``, in the oracle's unit."""
    return oracle.table(size)[ranks] / oracle.log_base


def _level_values(oracle: EntropyOracle, n: int, kind: MeasureKind, rows=slice(None)):
    """The measure on the n-simplices ``rows`` (default all), n >= 1.

    TC(s) = sum_i H(i) - H(s) and DTC(s) = H(s) - sum_i (H(s) - H(s minus i)),
    both clamped, with H(s minus i) read through column i of ``boundary_faces``;
    O = TC - DTC and S = TC + DTC. Interaction information is -sum (-1)^|g| H(g)
    over the non-empty g in s, mutual information for two variables; other
    texts differ in sign. Values are in the oracle's unit. Sums run left to
    right in subset order and each entropy is converted to the unit before it
    is combined, so a value is reproducible bit for bit.
    """
    N = oracle.num_variables - 1
    subsets = enumerate_simplices(N, n)[rows]
    m = len(subsets)
    joint = _entropies(oracle, n + 1, rows)
    if kind is MeasureKind.INTERACTION_INFORMATION:
        ranks = np.arange(*rows.indices(len(oracle.table(n + 1))))
        # The last term, g = s, is the joint entropy.
        return _inclusion_exclusion(oracle, n, ranks) + (-1.0 if n % 2 else 1.0) * joint
    if kind is not MeasureKind.DTC:
        singles = _entropies(oracle, 1, subsets)
        marginal_sum = np.zeros(m)
        for i in range(n + 1):
            marginal_sum = marginal_sum + singles[:, i]
        tc = _clamp(marginal_sum - joint)
        if kind is MeasureKind.TC:
            return tc
    faces = _entropies(oracle, n, boundary_faces(N, n)[rows])
    residual = np.zeros(m)
    for i in range(n + 1):
        residual = residual + (joint - faces[:, i])
    dtc = _clamp(joint - residual)
    if kind is MeasureKind.DTC:
        return dtc
    return tc - dtc if kind is MeasureKind.O_INFORMATION else tc + dtc


# Subset ranks held at once by interaction information: 2**(n+1) per n-simplex.
_RANK_BLOCK = 1 << 19


@functools.cache
def _parents(n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """For each size-subset g of the n + 1 positions of an n-simplex, in
    lexicographic order: the rank of the first (size + 1)-subset of positions
    with g as a face, and the column of that face in ``boundary_faces``."""
    first = np.unique(boundary_faces(n, size), return_index=True)[1]
    return np.divmod(first, size + 1)


def _inclusion_exclusion(oracle: EntropyOracle, n: int, rows: np.ndarray) -> np.ndarray:
    """-sum (-1)^|g| H(g) over the non-empty g in s other than s, for the
    n-simplices of ranks ``rows``, added left to right: by size, then g in
    lexicographic order.

    The ranks of each size are read down the face tables from those one size
    up, starting at s: g is the face of its parent g + {p} that drops p. Rows
    go in blocks, so that at most ``_RANK_BLOCK`` ranks are held at once.
    """
    N = oracle.num_variables - 1
    step = max(1, _RANK_BLOCK >> (n + 1))
    totals = []
    for start in range(0, len(rows), step):
        ranks = {n + 1: rows[start:start + step, None]}
        for size in range(n, 0, -1):
            parent, drop = _parents(n, size)
            ranks[size] = boundary_faces(N, size)[ranks[size + 1][:, parent], drop]
        total = np.zeros(len(ranks[n + 1]))
        for size in range(1, n + 1):
            sign = -1.0 if size % 2 == 0 else 1.0
            terms = sign * _entropies(oracle, size, ranks[size])
            total = np.cumsum(np.column_stack([total, terms]), axis=1)[:, -1]
        totals.append(total)
    return np.concatenate(totals)


def mutual_information(oracle: EntropyOracle, i: int, j: int) -> float:
    """I(X_i; X_j) = H(i) + H(j) - H(i, j), clamped at zero."""
    if i == j:
        raise ValidationError("mutual information needs two distinct variables")
    return total_correlation(oracle, (i, j))


def total_correlation(oracle: EntropyOracle, subset) -> float:
    """Sum of marginal entropies minus the joint entropy; zero iff independent."""
    return _measure_one(oracle, subset, MeasureKind.TC)


def dual_total_correlation(oracle: EntropyOracle, subset) -> float:
    """Joint entropy minus the sum of conditional entropies of each variable."""
    return _measure_one(oracle, subset, MeasureKind.DTC)


def o_information(oracle: EntropyOracle, subset) -> float:
    """TC minus DTC. Negative values mark synergy dominance, positive redundancy."""
    return _measure_one(oracle, subset, MeasureKind.O_INFORMATION)


def s_information(oracle: EntropyOracle, subset) -> float:
    """TC plus DTC: the overall interdependency strength of the subset."""
    return _measure_one(oracle, subset, MeasureKind.S_INFORMATION)


def interaction_information(oracle: EntropyOracle, subset) -> float:
    """Inclusion-exclusion over subset entropies: -sum (-1)^|g| H(g).

    Reduces to mutual information for two variables. The sign convention is
    kept exactly as implemented here; other texts differ and no reconciliation
    is attempted.
    """
    return _measure_one(oracle, subset, MeasureKind.INTERACTION_INFORMATION)


def _min_size(kind: MeasureKind) -> int:
    return 3 if kind is MeasureKind.O_INFORMATION else 2


def _measure_one(oracle: EntropyOracle, subset, kind: MeasureKind) -> float:
    s = sorted(int(i) for i in subset)
    rank = simplex_rank(s, oracle.num_variables - 1)
    if len(s) < _min_size(kind):
        raise ValidationError(f"need at least {_min_size(kind)} variables, got {len(s)}")
    return float(_level_values(oracle, len(s) - 1, kind, slice(rank, rank + 1))[0])


def signal_sweep(oracle: EntropyOracle, n: int, kind: MeasureKind) -> np.ndarray:
    """The measure evaluated on every (n+1)-subset of the oracle's variables,
    in canonical simplex order."""
    kind = MeasureKind(kind)
    N = oracle.num_variables - 1
    min_dim = _min_size(kind) - 1
    if not min_dim <= n <= N:
        raise ValidationError(f"dimension n={n} out of range [{min_dim}, {N}] for {kind.value}")
    return _level_values(oracle, n, kind)


class SimilarityMetric(Enum):
    """Pairwise dependence metric used to seed the structural weights."""

    MUTUAL_INFORMATION = "mutual_information"
    TOTAL_VARIATION = "total_variation"


def similarity_matrix(oracle, metric: SimilarityMetric) -> np.ndarray:
    """Symmetric matrix of a pairwise dependence metric, zero diagonal.

    ``oracle`` is the run's ``EntropyOracle``: mutual information reads its
    entropy tables, in its unit. Total variation reads ``oracle.source``: it is
    the distance between each pairwise joint and the product of its
    marginals, and is only defined for discrete distributions.
    """
    if not isinstance(oracle, EntropyOracle):
        raise ValidationError(
            f"similarity_matrix needs an EntropyOracle, got {type(oracle).__name__}; "
            "wrap the model in EntropyOracle(...)"
        )
    source = oracle.source
    if SimilarityMetric(metric) is SimilarityMetric.TOTAL_VARIATION:
        if isinstance(source, dist_mod.GaussianModel):
            raise EstimationError("total variation requires a discrete distribution")
        return _total_variation_discrete(source)
    k = source.num_variables
    out = np.zeros((k, k))
    if k > 1:
        pairs = enumerate_simplices(k - 1, 1)
        # The mutual information of a pair is its total correlation.
        mi = _level_values(oracle, 1, MeasureKind.TC)
        out[pairs[:, 0], pairs[:, 1]] = out[pairs[:, 1], pairs[:, 0]] = mi
    return out


def _total_variation_discrete(dist) -> np.ndarray:
    k = dist.num_variables
    out = np.zeros((k, k))
    # Each variable's observed values, coded in increasing order, with the
    # marginal mass of each code.
    codes = [dist_mod.distinct_rows(dist.outcomes[:, [i]])[1] for i in range(k)]
    singles = [np.bincount(c, weights=dist.masses) for c in codes]
    for i, j in itertools.combinations(range(k), 2):
        a, b = len(singles[i]), len(singles[j])
        joint = np.bincount(codes[i] * b + codes[j], weights=dist.masses, minlength=a * b)
        gaps = np.abs(joint - np.outer(singles[i], singles[j]).ravel())
        # cumsum adds left to right, as the former double loop did; np.sum
        # adds pairwise and would move the last bits.
        out[i, j] = out[j, i] = 0.5 * np.cumsum(gaps)[-1]
    return out
