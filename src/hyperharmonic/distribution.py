"""Joint distributions over discrete variables and Gaussian-copula models.

A discrete distribution is one pair of arrays: an (S, V) integer support in
lexicographic order that lists only outcomes with positive mass, which also
makes the 0*log(0) = 0 convention automatic, and the S masses in the same
order. Continuous data is handled through a Gaussian copula: each column is
rank-transformed to standard-normal scores and summarized by their
correlation matrix, for which joint entropies have a closed form.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, EstimationError, NumericalError, ValidationError
from .jsonio import (integer, number_array, parsing, read_header, read_sidecar, read_text,
                     write_json, write_sidecar)

MASS_TOLERANCE = 1e-12

# Added to the diagonal of correlation submatrices before taking determinants,
# so rank-deficient models produce finite (if large, negative) entropies.
GAUSSIAN_DIAGONAL_REGULARIZATION = 1e-12

# Support-size guard for additive smoothing, which densifies the outcome space.
SMOOTHING_SUPPORT_CAP = 2_000_000

MODEL_FORMAT = 2

# Keys plus bins that one ``np.bincount`` of a block of subsets may span; a
# subset with more bins than this is grouped by sorting instead.
_BLOCK_BUDGET = 1 << 16

_INT64_MAX = np.iinfo(np.int64).max

_LOG_TWO_PI_E = math.log(2.0 * math.pi * math.e)


@dataclass(frozen=True, eq=False)
class _SampleTable:
    """Aligned samples: a read-only (T, V) ``samples`` array, one row per
    sample and one column per named variable. A table keeps its own copy of
    the array it is given."""

    variable_names: tuple[str, ...]
    samples: np.ndarray

    def _store(self, dtype) -> np.ndarray:
        """Keep the names and a read-only C-order ``dtype`` copy of the
        samples: T >= 1 rows, each with one value per name, and V >= 1."""
        names = tuple(str(n) for n in self.variable_names)
        try:
            X = np.array(self.samples, dtype=dtype, order="C")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"samples must form a (T, V) array: {exc}") from None
        if X.ndim != 2 or X.shape[1] != len(names) or not X.size:
            raise ValidationError(f"need a (T, {len(names)}) sample array with T, V >= 1, "
                                  f"got shape {X.shape}")
        X.flags.writeable = False
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "samples", X)
        return X

    def _reject(self, bad: np.ndarray, problem: str) -> None:
        """Raise for the first column that ``bad`` marks."""
        if bad.any():
            raise ValidationError(f"column {self.variable_names[np.argmax(bad)]!r} {problem}")

    @property
    def num_variables(self) -> int:
        return self.samples.shape[1]

    @property
    def num_samples(self) -> int:
        return len(self.samples)


@dataclass(frozen=True, eq=False)
class DiscreteSeriesTable(_SampleTable):
    """Integer-valued samples: int64, column j within [0, alphabet_sizes[j])."""

    alphabet_sizes: tuple[int, ...]

    def __post_init__(self):
        X = self._store(np.int64)
        sizes = tuple(integer(a, "alphabet size") for a in self.alphabet_sizes)
        if len(sizes) != X.shape[1]:
            raise ValidationError("names, samples and alphabet sizes must align")
        bad = (X.min(axis=0) < 0) | (X.max(axis=0) >= sizes)
        self._reject(bad, f"has values outside [0, {sizes[np.argmax(bad)] - 1}]")
        object.__setattr__(self, "alphabet_sizes", sizes)


@dataclass(frozen=True, eq=False)
class ContinuousSeriesTable(_SampleTable):
    """Real-valued samples: finite float64."""

    def __post_init__(self):
        self._reject(~np.isfinite(self._store(float)).all(axis=0), "contains non-finite values")


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Sparse probability mass function over tuples of finite-alphabet symbols.

    ``outcomes`` is an (S, V) int64 array holding one distinct outcome per
    row, in lexicographic order, and ``masses`` the S float64 probabilities in
    the same order; a support given in another order is sorted, each mass
    moving with its outcome. Every mass is finite and strictly positive and
    the total is 1 within ``MASS_TOLERANCE``. Both arrays are read-only
    copies, so instances are immutable once built.
    """

    alphabet_sizes: tuple[int, ...]
    outcomes: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        sizes = tuple(integer(a, "alphabet size") for a in self.alphabet_sizes)
        if not sizes or min(sizes) < 1:
            raise ValidationError("need at least one variable, each with alphabet size >= 1")
        masses = np.array(self.masses, dtype=float)
        given = np.asarray(self.outcomes)
        with np.errstate(invalid="ignore"):
            outcomes = given.astype(np.int64)
        if masses.ndim != 1 or not masses.size or outcomes.shape != (masses.size, len(sizes)):
            raise ValidationError(f"need a non-empty (S, {len(sizes)}) outcome array and S "
                                  f"masses, got shapes {outcomes.shape} and {masses.shape}")
        _, groups = distinct_rows(outcomes)
        for bad, problem in (
            (np.any((outcomes < 0) | (outcomes >= sizes), axis=1), "is outside the alphabets"),
            (np.any(outcomes != given, axis=1), "is not integral"),
            (~(np.isfinite(masses) & (masses > 0)), "needs a finite, positive mass"),
            (np.bincount(groups)[groups] > 1, "appears more than once"),
        ):
            if bad.any():
                raise ValidationError(f"outcome {given[np.argmax(bad)].tolist()} {problem}")
        total = math.fsum(masses.tolist())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ValidationError(f"total mass {total} deviates from 1 beyond tolerance")
        if np.any(np.diff(groups) < 0):
            order = np.argsort(groups)
            outcomes, masses = outcomes[order], masses[order]
        outcomes.flags.writeable = masses.flags.writeable = False
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "masses", masses)

    @property
    def num_variables(self) -> int:
        return len(self.alphabet_sizes)

    def support_size(self) -> int:
        return len(self.masses)


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian-copula summary: a correlation matrix with unit diagonal."""

    correlation_matrix: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.correlation_matrix, dtype=float)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValidationError(f"correlation matrix must be square, got {R.shape}")
        if not np.all(np.isfinite(R)):
            raise ValidationError("correlation matrix contains non-finite values")
        if np.max(np.abs(R - R.T)) > 1e-12:
            raise ValidationError("correlation matrix must be symmetric within 1e-12")
        if np.max(np.abs(np.diag(R) - 1.0)) > 1e-12:
            raise ValidationError("correlation matrix must have unit diagonal")
        if np.linalg.eigvalsh(R).min() < -1e-10:
            raise ValidationError("correlation matrix is not positive semidefinite")
        object.__setattr__(self, "correlation_matrix", R)

    @property
    def num_variables(self) -> int:
        return self.correlation_matrix.shape[0]


def distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a non-empty (S, V) int64 array in lexicographic order,
    and the index of each row's distinct row in that order."""
    low = rows.min(axis=0)
    spans = [int(hi) - int(lo) + 1 for lo, hi in zip(low.tolist(), rows.max(axis=0).tolist())]
    if math.prod(spans) <= _INT64_MAX:  # one mixed-radix key per row
        keys = np.ravel_multi_index((rows - low).T, spans)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    return rows[first], inverse.reshape(-1)


def estimate_empirical(table: DiscreteSeriesTable, smoothing: float = 0.0) -> JointDistribution:
    """Empirical joint distribution: the relative frequency of each observed tuple.

    No smoothing is applied by default, so unobserved outcomes stay absent.
    With ``smoothing`` alpha > 0, every outcome in the full product alphabet
    gets mass (count + alpha) / (T + alpha * K); this densifies the support
    and is guarded by ``SMOOTHING_SUPPORT_CAP``. The masses do not depend on
    the order of the samples.
    """
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise ValidationError(f"smoothing must be finite and >= 0, got {smoothing}")
    T, samples = table.num_samples, table.samples
    if smoothing == 0.0:
        outcomes, groups = distinct_rows(samples)
        masses = np.bincount(groups) / T
    else:
        sizes = table.alphabet_sizes
        K = math.prod(sizes)
        if K > SMOOTHING_SUPPORT_CAP:
            raise CapacityError(
                f"smoothing would materialize {K} outcomes (cap {SMOOTHING_SUPPORT_CAP})"
            )
        counts = np.bincount(np.ravel_multi_index(samples.T, sizes), minlength=K)
        outcomes = np.column_stack(np.unravel_index(np.arange(K), sizes))
        masses = (counts + smoothing) / (T + smoothing * K)
    return JointDistribution(table.alphabet_sizes, outcomes, masses)


def subset_entropies_nats(source, subsets) -> tuple[np.ndarray, np.ndarray]:
    """Joint entropies, in nats, of each row of an (m, k) array of sorted subsets.

    ``source`` is a JointDistribution or a GaussianModel. Returns the entropies
    and a boolean array marking Gaussian subsets whose entropy needed the
    diagonal regularization (all False for discrete sources). Each value
    equals, with the same floating-point operations, the one-subset-at-a-time
    entropy that the tests keep as a reference.
    """
    s = np.asarray(subsets, dtype=np.int64)
    if s.ndim != 2 or s.shape[1] < 1:
        raise ValidationError(f"subsets must form a non-empty (m, k) array, got shape {s.shape}")
    if s.size and (np.any(np.diff(s, axis=1) <= 0) or s.min() < 0
                   or s.max() >= source.num_variables):
        raise ValidationError(
            f"subsets must be strictly increasing within [0, {source.num_variables})"
        )
    if isinstance(source, JointDistribution):
        return _discrete_entropies_nats(source, s), np.zeros(len(s), dtype=bool)
    if isinstance(source, GaussianModel):
        return _gaussian_entropies_nats(source, s)
    raise ValidationError(
        f"expected JointDistribution or GaussianModel, got {type(source).__name__}"
    )


def _discrete_entropies_nats(dist: JointDistribution, subsets: np.ndarray) -> np.ndarray:
    """Each bin adds its masses in support order; only how outcomes are
    grouped into bins differs by path. ``math.fsum`` rounds the exact sum,
    so the order of the bins does not matter."""
    outcomes, masses = dist.outcomes, dist.masses
    values = np.empty(len(subsets))
    sizes = np.asarray(dist.alphabet_sizes, dtype=float)
    products = sizes[subsets].prod(axis=1)
    # Blocks of consecutive binned subsets whose keys and bins start within one
    # budget-wide window, so a block exceeds the budget by one subset at most.
    binned = np.flatnonzero(products <= _BLOCK_BUDGET)
    costs = len(masses) + products[binned].astype(np.int64)
    window = (np.cumsum(costs) - costs) // _BLOCK_BUDGET
    columns = np.ascontiguousarray(outcomes.T)
    for rows in np.split(binned, np.flatnonzero(np.diff(window)) + 1):
        if len(rows):
            values[rows] = _binned_entropies(columns, masses, subsets[rows], sizes)
    for row in np.flatnonzero(products > _BLOCK_BUDGET).tolist():  # too many bins: sort
        _, groups = distinct_rows(outcomes[:, subsets[row]])
        values[row] = -math.fsum(_entropy_terms(np.bincount(groups, weights=masses)))
    return values


def _entropy_terms(p: np.ndarray) -> list[float]:
    """p * log(p) for each p, as a per-mass Python loop computes it: the logs
    use math.log, which np.log may differ from in the last place, and a
    float64 product rounds in NumPy as in Python."""
    return (p * np.fromiter(map(math.log, p.tolist()), float, len(p))).tolist()


def _binned_entropies(columns, masses, subsets, sizes) -> list[float]:
    """Entropies of a block of subsets from one ``np.bincount``: the outcomes
    of subset b get mixed-radix keys, shifted past the bins of the subsets
    before it, and its entropy sums over its non-empty bins."""
    radix = sizes[subsets].astype(np.int64)
    keys = columns[subsets[:, 0]]
    for j in range(1, subsets.shape[1]):
        keys *= radix[:, j, None]
        keys += columns[subsets[:, j]]
    bins = radix.prod(axis=1)
    offsets = np.cumsum(bins) - bins
    keys += offsets[:, None]
    counts = np.bincount(keys.ravel(), weights=np.tile(masses, len(subsets)), minlength=bins.sum())
    occupied = counts > 0
    terms = _entropy_terms(counts[occupied])
    ends = np.cumsum(np.add.reduceat(occupied, offsets, dtype=np.int64)).tolist()
    return [-math.fsum(terms[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)]


def _gaussian_entropies_nats(
    model: GaussianModel, subsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    k = subsets.shape[1]
    sub = model.correlation_matrix[subsets[:, :, None], subsets[:, None, :]]
    sign, logdet = np.linalg.slogdet(sub + GAUSSIAN_DIAGONAL_REGULARIZATION * np.eye(k))
    bad = (sign <= 0) | ~np.isfinite(logdet)
    if bad.any():
        s = tuple(subsets[np.argmax(bad)].tolist())
        raise NumericalError(
            f"regularized correlation submatrix for {s} is not positive definite"
        )
    raw_sign, raw_logdet = np.linalg.slogdet(sub)
    regularized = (
        (raw_sign <= 0) | ~np.isfinite(raw_logdet) | (np.abs(logdet - raw_logdet) > 1e-6)
    )
    return 0.5 * (k * _LOG_TWO_PI_E + logdet), regularized


# Cephes ``ndtri`` (the algorithm behind ``scipy.special.ndtri``): rational
# approximations for |y - 1/2| <= 3/8 (P0/Q0), and in z = 1/sqrt(-2 log y) for
# exp(-32) < y <= exp(-2) (P1/Q1) and y <= exp(-32) (P2/Q2). Each Q omits its
# leading coefficient 1.
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_MINUS_2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242e0


def _polevl(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Horner evaluation in Cephes order; ``monic`` prepends a leading 1 (``p1evl``)."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: np.ndarray) -> np.ndarray:
    """Standard-normal quantile of each y in (0, 1): Cephes ``ndtri`` in NumPy,
    bit-identical to ``scipy.special.ndtri``. Logarithms use ``math.log``, as
    scipy does; ``np.log`` can differ from it in the last places."""
    upper = y > 1.0 - _EXP_MINUS_2
    w = np.where(upper, 1.0 - y, y)
    out = np.empty_like(w)
    mid = w > _EXP_MINUS_2
    v = w[mid] - 0.5
    v2 = v * v
    out[mid] = (v + v * (v2 * _polevl(v2, _NDTRI_P0) / _polevl(v2, _NDTRI_Q0, True))) * _SQRT_2PI
    tail = ~mid
    x = np.sqrt(-2.0 * np.fromiter(map(math.log, w[tail].tolist()), float))
    x0 = x - np.fromiter(map(math.log, x.tolist()), float) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1, True),
                  z * _polevl(z, _NDTRI_P2) / _polevl(z, _NDTRI_Q2, True))
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    return out


@functools.lru_cache(maxsize=4)
def _normal_scores(T: int) -> np.ndarray:
    """Read-only normal scores of T samples: entry m is ``ndtri(r / (T + 1))``
    for the average rank r = (m + 2) / 2, m in [0, 2T - 2]."""
    table = _ndtri(((np.arange(2 * T - 1) + 2) / 2.0) / (T + 1))
    table.flags.writeable = False
    return table


def copula_gaussian_fit(table: ContinuousSeriesTable) -> GaussianModel:
    """Fit a Gaussian copula: rank-transform columns, correlate the scores.

    Each column is mapped through rank/(T+1) (average ranks on ties) and the
    standard-normal quantile function; the model is the sample correlation of
    the transformed columns. Depends on the data only through column orderings.
    The table is not written: the fit works on a copy of its samples.
    """
    return _copula_fit(table.samples.copy(), table.variable_names)


def _copula_fit(X: np.ndarray, names) -> GaussianModel:
    """``copula_gaussian_fit`` of the (T, V) float64 samples X, made in X's
    buffer, which ends up holding the centered normal scores. The correlation
    takes the float steps of ``np.corrcoef(X, rowvar=False)`` in order."""
    T = len(X)
    if T < 3:
        raise ValidationError(f"need at least 3 samples to fit a copula, got {T}")
    scores = _normal_scores(T)
    for j, name in enumerate(names):
        if np.ptp(X[:, j]) == 0.0:
            raise EstimationError(f"column {name!r} is constant; rank transform undefined")
        # A tie group at sorted positions [start, end) shares the average rank
        # r = (start + end + 1) / 2, whose score is entry 2r - 2 = start + end - 1.
        order = np.argsort(X[:, j])
        ordered = X[order, j]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        ends = np.r_[starts[1:], T]
        X[order, j] = scores[np.repeat(starts + ends - 1, ends - starts)]
    X -= X.mean(axis=0)
    R = np.dot(X.T, X)
    R *= np.true_divide(1, T - 1)
    stddev = np.sqrt(np.diag(R))
    R /= stddev[:, None]
    R /= stddev[None, :]
    np.clip(R, -1, 1, out=R)
    R = (R + R.T) / 2.0
    np.fill_diagonal(R, 1.0)
    return GaussianModel(correlation_matrix=R)


# ---------------------------------------------------------------------------
# CSV ingestion and JSON persistence
# ---------------------------------------------------------------------------


def _read_rows(path, parse_cell, typecode: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Header names and the (T, V) array of the data cells, read in one pass into
    one ``array.array`` of ``typecode``; ``parse_cell`` converts a cell or raises
    ValueError with the message reported for its line."""
    import array  # a shared library: only the commands that read a table load it
    rows = csv.reader(io.StringIO(read_text(path, "CSV"), newline=""))
    try:
        first = next(rows, None)
        if first is None:
            raise ValidationError(f"{path}: empty file")
        header = tuple(name.strip() for name in first)
        if not header or any(not name for name in header):
            raise ValidationError(f"{path}: line 1: malformed header")
        buffer = array.array(typecode)
        for line_no, row in enumerate(rows, start=2):
            if len(row) != len(header):
                raise ValidationError(f"{path}: line {line_no}: expected {len(header)} cells, "
                                      f"got {len(row)}")
            try:
                buffer.extend(map(parse_cell, row))
            except ValueError as exc:
                raise ValidationError(f"{path}: line {line_no}: {exc}") from exc
    except csv.Error as exc:
        raise ValidationError(f"{path}: line {rows.line_num}: {exc}") from exc
    if not buffer:
        raise ValidationError(f"{path}: no data rows")
    return header, np.frombuffer(buffer, np.dtype(typecode)).reshape(-1, len(header))


# The alphabet size, one more than the largest symbol, must fit in int64.
_MAX_SYMBOL = 2**63 - 1


def _symbol(cell: str) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise ValueError(f"{cell!r} is not an integer") from None
    if value < 0:
        raise ValueError(f"negative symbol {value}")
    if value >= _MAX_SYMBOL:
        raise ValueError(f"symbol {value} is too large; symbols must be below {_MAX_SYMBOL}")
    return value


def _real(cell: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"{cell!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {cell!r}")
    return value


def read_discrete_csv(path) -> DiscreteSeriesTable:
    """Read a discrete table: header of names, one sample per row, int cells.

    Each alphabet size is one more than its column's maximum value.
    """
    header, X = _read_rows(path, _symbol, "q")
    return DiscreteSeriesTable(header, X, (X.max(axis=0) + 1).tolist())


def read_continuous_csv(path) -> ContinuousSeriesTable:
    """Read a continuous table: header of names, one sample per row, float cells."""
    return ContinuousSeriesTable(*_read_rows(path, _real, "d"))


def write_model(path, model) -> None:
    """Write a model file: a JSON header, with a discrete pmf's arrays beside it.

    A discrete model's support goes to ``<stem>_outcomes.npy``, as the
    smallest unsigned integers that hold every symbol, and its masses to
    ``<stem>_masses.npy``; the header names both and is written last.
    A Gaussian model's correlation matrix stays inline.
    """
    header = {"format": MODEL_FORMAT, "num_variables": model.num_variables}
    if isinstance(model, JointDistribution):
        symbols = np.min_scalar_type(min(max(model.alphabet_sizes), 2**63) - 1)
        support = model.outcomes.astype(symbols)
        header.update(kind="discrete", alphabet_sizes=list(model.alphabet_sizes),
                      outcomes=write_sidecar(path, "outcomes", support),
                      masses=write_sidecar(path, "masses", model.masses))
    elif isinstance(model, GaussianModel):
        header.update(kind="gaussian", correlation=model.correlation_matrix.tolist())
    else:
        raise ValidationError(f"cannot serialize {type(model).__name__}")
    write_json(path, header)


def read_model(path):
    """Load a model file written by ``write_model``: its header, then the arrays it names."""
    payload = read_header(path, MODEL_FORMAT, "model file", "estimate")
    with parsing(f"{path}: malformed model file"):
        kind, count = payload["kind"], integer(payload["num_variables"], "num_variables")
        if kind not in ("discrete", "gaussian"):
            raise ValidationError(f"unknown model kind {kind!r}")
        # One entry per variable: a row of the correlation matrix, or an alphabet size.
        variables = (number_array(payload["correlation"], "correlation") if kind == "gaussian" else
                     tuple(integer(a, "alphabet size") for a in payload["alphabet_sizes"]))
        if len(variables) != count:
            raise ValidationError(f"num_variables is {count}, but the model has {len(variables)}")
        if kind == "gaussian":
            return GaussianModel(variables)
        outcomes = read_sidecar(path, payload["outcomes"], "outcomes")
        masses = read_sidecar(path, payload["masses"], "masses")
        if (outcomes.dtype.kind != "u" or masses.dtype != np.float64 or masses.ndim != 1
                or outcomes.shape != (masses.size, count)):
            raise ValidationError(
                f"need unsigned (S, {count}) outcomes and S float64 masses, got "
                f"{outcomes.dtype} {outcomes.shape} and {masses.dtype} {masses.shape}"
            )
        return JointDistribution(variables, outcomes.astype(np.int64), masses)
