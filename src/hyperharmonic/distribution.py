"""Joint distributions over discrete variables and Gaussian-copula models.

Discrete distributions are stored sparsely: only outcomes with positive mass
appear, which also makes the 0*log(0) = 0 convention automatic. Continuous
data is handled through a Gaussian copula: each column is rank-transformed to
standard-normal scores and summarized by their correlation matrix, for which
joint entropies have a closed form.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, EstimationError, NumericalError, ValidationError
from .jsonio import read_json, require_keys, write_json
from .simplices import validate_simplex

Outcome = tuple[int, ...]

MASS_TOLERANCE = 1e-12

# Added to the diagonal of correlation submatrices before taking determinants,
# so rank-deficient models produce finite (if large, negative) entropies.
GAUSSIAN_DIAGONAL_REGULARIZATION = 1e-12

# Support-size guard for additive smoothing, which densifies the outcome space.
SMOOTHING_SUPPORT_CAP = 2_000_000

_LOG_TWO_PI_E = math.log(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class DiscreteSeriesTable:
    """Aligned integer-valued samples: one column per variable."""

    variable_names: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    alphabet_sizes: tuple[int, ...]

    def __post_init__(self):
        names = tuple(str(n) for n in self.variable_names)
        cols = tuple(np.asarray(c, dtype=np.int64) for c in self.columns)
        sizes = tuple(int(a) for a in self.alphabet_sizes)
        if not (len(names) == len(cols) == len(sizes)):
            raise ValidationError("names, columns and alphabet sizes must align")
        if not cols:
            raise ValidationError("table needs at least one variable")
        T = len(cols[0])
        if T < 1:
            raise ValidationError("table needs at least one sample")
        for name, col, size in zip(names, cols, sizes):
            if len(col) != T:
                raise ValidationError(f"column {name!r} has length {len(col)}, expected {T}")
            if size < 1:
                raise ValidationError(f"alphabet size for {name!r} must be >= 1")
            if col.min() < 0 or col.max() >= size:
                raise ValidationError(
                    f"column {name!r} has values outside [0, {size - 1}]"
                )
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "alphabet_sizes", sizes)

    @property
    def num_variables(self) -> int:
        return len(self.columns)

    @property
    def num_samples(self) -> int:
        return len(self.columns[0])


@dataclass(frozen=True)
class ContinuousSeriesTable:
    """Aligned real-valued samples: one column per variable."""

    variable_names: tuple[str, ...]
    columns: tuple[np.ndarray, ...]

    def __post_init__(self):
        names = tuple(str(n) for n in self.variable_names)
        cols = tuple(np.asarray(c, dtype=float) for c in self.columns)
        if len(names) != len(cols):
            raise ValidationError("names and columns must align")
        if not cols:
            raise ValidationError("table needs at least one variable")
        T = len(cols[0])
        if T < 1:
            raise ValidationError("table needs at least one sample")
        for name, col in zip(names, cols):
            if len(col) != T:
                raise ValidationError(f"column {name!r} has length {len(col)}, expected {T}")
            if not np.all(np.isfinite(col)):
                raise ValidationError(f"column {name!r} contains non-finite values")
        object.__setattr__(self, "variable_names", names)
        object.__setattr__(self, "columns", cols)

    @property
    def num_variables(self) -> int:
        return len(self.columns)

    @property
    def num_samples(self) -> int:
        return len(self.columns[0])


@dataclass(frozen=True)
class JointDistribution:
    """Sparse probability mass function over tuples of finite-alphabet symbols.

    Every stored probability is strictly positive and the total mass is 1
    within ``MASS_TOLERANCE``. Instances are immutable once built.
    """

    num_variables: int
    alphabet_sizes: tuple[int, ...]
    mass: dict[Outcome, float]

    def __post_init__(self):
        sizes = tuple(int(a) for a in self.alphabet_sizes)
        if len(sizes) != self.num_variables or self.num_variables < 1:
            raise ValidationError("alphabet sizes must match the variable count")
        if any(a < 1 for a in sizes):
            raise ValidationError("alphabet sizes must be >= 1")
        if not self.mass:
            raise ValidationError("distribution has empty support")
        clean: dict[Outcome, float] = {}
        for outcome, p in self.mass.items():
            o = tuple(int(v) for v in outcome)
            if len(o) != self.num_variables:
                raise ValidationError(f"outcome {o} has wrong arity")
            if any(v < 0 or v >= s for v, s in zip(o, sizes)):
                raise ValidationError(f"outcome {o} outside the alphabets")
            p = float(p)
            if p <= 0:
                raise ValidationError(f"outcome {o} has non-positive mass {p}")
            clean[o] = p
        total = math.fsum(clean.values())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ValidationError(f"total mass {total} deviates from 1 beyond tolerance")
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "mass", clean)

    def support_size(self) -> int:
        return len(self.mass)

    @functools.cached_property
    def _support_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The support as an (S, V) int64 array and its masses, in ``mass`` order."""
        outcomes = np.array(list(self.mass), dtype=np.int64).reshape(-1, self.num_variables)
        return outcomes, np.fromiter(self.mass.values(), dtype=float, count=len(self.mass))


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian-copula summary: a correlation matrix with unit diagonal."""

    correlation_matrix: np.ndarray
    regularization: float = GAUSSIAN_DIAGONAL_REGULARIZATION

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


def estimate_empirical(table: DiscreteSeriesTable, smoothing: float = 0.0) -> JointDistribution:
    """Empirical joint distribution: the relative frequency of each observed tuple.

    No smoothing is applied by default, so unobserved outcomes stay absent.
    With ``smoothing`` alpha > 0, every outcome in the full product alphabet
    gets mass (count + alpha) / (T + alpha * K); this densifies the support
    and is guarded by ``SMOOTHING_SUPPORT_CAP``.
    """
    T = table.num_samples
    counts: dict[Outcome, int] = {}
    for row in zip(*table.columns):
        outcome = tuple(int(v) for v in row)
        counts[outcome] = counts.get(outcome, 0) + 1
    if smoothing < 0:
        raise ValidationError(f"smoothing must be >= 0, got {smoothing}")
    if smoothing == 0.0:
        mass = {o: c / T for o, c in counts.items()}
    else:
        K = math.prod(table.alphabet_sizes)
        if K > SMOOTHING_SUPPORT_CAP:
            raise CapacityError(
                f"smoothing would materialize {K} outcomes (cap {SMOOTHING_SUPPORT_CAP})"
            )
        denom = T + smoothing * K
        mass = {
            o: (counts.get(o, 0) + smoothing) / denom
            for o in itertools.product(*(range(a) for a in table.alphabet_sizes))
        }
    return JointDistribution(
        num_variables=table.num_variables,
        alphabet_sizes=table.alphabet_sizes,
        mass=mass,
    )


def marginalize(dist: JointDistribution, subset) -> JointDistribution:
    """Marginal distribution of the variables in ``subset`` (sorted indices)."""
    s = validate_simplex(subset, dist.num_variables - 1)
    if len(s) == dist.num_variables:
        return dist
    mass: dict[Outcome, float] = {}
    for outcome, p in dist.mass.items():
        key = tuple(outcome[i] for i in s)
        mass[key] = mass.get(key, 0.0) + p
    return JointDistribution(
        num_variables=len(s),
        alphabet_sizes=tuple(dist.alphabet_sizes[i] for i in s),
        mass=mass,
    )


def entropy_nats(dist: JointDistribution) -> float:
    return -math.fsum(p * math.log(p) for p in dist.mass.values())


def entropy(dist: JointDistribution) -> float:
    """Shannon entropy of the stored outcomes, in bits."""
    return entropy_nats(dist) / math.log(2.0)


def subset_entropies_nats(source, subsets) -> tuple[np.ndarray, np.ndarray]:
    """Joint entropies, in nats, of each row of an (m, k) array of sorted subsets.

    ``source`` is a JointDistribution or a GaussianModel. Returns the entropies
    and a boolean array marking Gaussian subsets whose entropy needed the
    diagonal regularization (all False for discrete sources). Each value
    equals the per-subset ``entropy_nats(marginalize(...))`` or
    ``gaussian_entropy_nats`` result, with the same floating-point operations.
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
    outcomes, masses = dist._support_arrays
    values = np.empty(len(subsets))
    for row, s in enumerate(subsets.tolist()):
        columns = outcomes[:, s]
        sizes = [dist.alphabet_sizes[i] for i in s]
        if math.prod(sizes) <= np.iinfo(np.intp).max:
            _, groups = np.unique(np.ravel_multi_index(columns.T, sizes), return_inverse=True)
        else:  # mixed-radix keys would overflow: group whole rows instead
            _, groups = np.unique(columns, axis=0, return_inverse=True)
        # bincount adds masses in support order, as the dict loop in
        # ``marginalize`` does, and math.log matches ``entropy_nats`` bit for
        # bit where np.log may differ in the last place.
        marginal = np.bincount(groups.reshape(-1), weights=masses).tolist()
        values[row] = -math.fsum(p * math.log(p) for p in marginal)
    return values


def _gaussian_entropies_nats(
    model: GaussianModel, subsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    k = subsets.shape[1]
    sub = model.correlation_matrix[subsets[:, :, None], subsets[:, None, :]]
    sign, logdet = np.linalg.slogdet(sub + model.regularization * np.eye(k))
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


def average_ranks(values) -> np.ndarray:
    """1-based ranks of a 1-D array; tied values share the mean of their ranks.

    Equal to ``scipy.stats.rankdata(values, method="average")``.
    """
    x = np.asarray(values)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(x)]
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def copula_gaussian_fit(table: ContinuousSeriesTable) -> GaussianModel:
    """Fit a Gaussian copula: rank-transform columns, correlate the scores.

    Each column is mapped through rank/(T+1) (average ranks on ties) and the
    standard-normal quantile function; the model is the sample correlation of
    the transformed columns. Depends on the data only through column orderings.
    """
    from scipy.special import ndtri  # deferred: importing scipy.special is slow

    T = table.num_samples
    if T < 3:
        raise ValidationError(f"need at least 3 samples to fit a copula, got {T}")
    scores = []
    for name, col in zip(table.variable_names, table.columns):
        if np.ptp(col) == 0.0:
            raise EstimationError(f"column {name!r} is constant; rank transform undefined")
        scores.append(ndtri(average_ranks(col) / (T + 1)))
    Z = np.column_stack(scores)
    R = np.corrcoef(Z, rowvar=False)
    R = np.atleast_2d(R)
    R = (R + R.T) / 2.0
    np.fill_diagonal(R, 1.0)
    return GaussianModel(correlation_matrix=R)


def gaussian_entropy_nats(model: GaussianModel, subset) -> tuple[float, bool]:
    """Closed-form entropy of a variable subset, plus a flag marking cases
    where the diagonal regularization changed the log-determinant materially."""
    s = validate_simplex(subset, model.num_variables - 1)
    k = len(s)
    sub = model.correlation_matrix[np.ix_(s, s)]
    reg = sub + model.regularization * np.eye(k)
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


def gaussian_subset_entropy(model: GaussianModel, subset) -> float:
    """Entropy of a Gaussian subset, in bits."""
    value, _ = gaussian_entropy_nats(model, subset)
    return value / math.log(2.0)


# ---------------------------------------------------------------------------
# CSV ingestion and JSON persistence
# ---------------------------------------------------------------------------


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [name.strip() for name in rows[0]]
    if not header or any(not name for name in header):
        raise ValidationError(f"{path}: line 1: malformed header")
    return header, rows[1:]


def read_discrete_csv(path, alphabet_sizes=None) -> DiscreteSeriesTable:
    """Read a discrete table: header of names, one sample per row, int cells.

    Alphabet sizes default to one more than each column's maximum value.
    """
    header, body = _read_csv_rows(path)
    if not body:
        raise ValidationError(f"{path}: no data rows")
    columns: list[list[int]] = [[] for _ in header]
    for line_no, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}"
            )
        for j, cell in enumerate(row):
            try:
                value = int(cell)
            except ValueError as exc:
                raise ValidationError(
                    f"{path}: line {line_no}: {cell!r} is not an integer"
                ) from exc
            if value < 0:
                raise ValidationError(f"{path}: line {line_no}: negative symbol {value}")
            columns[j].append(value)
    if alphabet_sizes is None:
        alphabet_sizes = tuple(max(col) + 1 for col in columns)
    return DiscreteSeriesTable(
        variable_names=tuple(header),
        columns=tuple(np.array(c) for c in columns),
        alphabet_sizes=tuple(alphabet_sizes),
    )


def read_continuous_csv(path) -> ContinuousSeriesTable:
    """Read a continuous table: header of names, one sample per row, float cells."""
    header, body = _read_csv_rows(path)
    if not body:
        raise ValidationError(f"{path}: no data rows")
    columns: list[list[float]] = [[] for _ in header]
    for line_no, row in enumerate(body, start=2):
        if len(row) != len(header):
            raise ValidationError(
                f"{path}: line {line_no}: expected {len(header)} cells, got {len(row)}"
            )
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError as exc:
                raise ValidationError(
                    f"{path}: line {line_no}: {cell!r} is not a number"
                ) from exc
            if not math.isfinite(value):
                raise ValidationError(f"{path}: line {line_no}: non-finite value {cell!r}")
            columns[j].append(value)
    return ContinuousSeriesTable(
        variable_names=tuple(header),
        columns=tuple(np.array(c) for c in columns),
    )


def model_to_jsonable(model) -> dict:
    """JSON-ready form of a JointDistribution or GaussianModel."""
    if isinstance(model, JointDistribution):
        return {
            "kind": "discrete",
            "num_variables": model.num_variables,
            "alphabet_sizes": list(model.alphabet_sizes),
            "mass": [[list(o), p] for o, p in sorted(model.mass.items())],
        }
    if isinstance(model, GaussianModel):
        return {
            "kind": "gaussian",
            "num_variables": model.num_variables,
            "correlation": model.correlation_matrix.tolist(),
        }
    raise ValidationError(f"cannot serialize {type(model).__name__}")


_MODEL_FIELDS = {"discrete": ("num_variables", "alphabet_sizes", "mass"), "gaussian": ("correlation",)}


def model_from_jsonable(payload: dict):
    kind = require_keys(payload, ("kind",), "model")["kind"]
    if kind not in ("discrete", "gaussian"):
        raise ValidationError(f"unknown model kind {kind!r}")
    require_keys(payload, _MODEL_FIELDS[kind], f"{kind} model")
    try:
        if kind == "gaussian":
            return GaussianModel(correlation_matrix=np.array(payload["correlation"], dtype=float))
        return JointDistribution(
            num_variables=int(payload["num_variables"]),
            alphabet_sizes=tuple(payload["alphabet_sizes"]),
            mass={tuple(o): float(p) for o, p in payload["mass"]},
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {kind} model: {exc}") from exc


def write_model(path, model) -> None:
    write_json(path, model_to_jsonable(model))


def read_model(path):
    return model_from_jsonable(read_json(path))
