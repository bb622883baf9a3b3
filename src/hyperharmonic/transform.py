"""High-order signals, the spectral change of basis, and compression reports.

A signal is a coefficient vector over the n-simplices in canonical order,
tagged with the basis it is expressed in. ``to_fourier`` takes a signal's
weighted inner products with the eigenvectors of a ``FourierBasis``; as they are
w-orthonormal, the energy of the Fourier coefficients equals the weighted norm
of the canonical signal, which is what makes cumulative explained variance meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import normal_quantile
from .errors import NumericalError, ValidationError
from .infotheory import EntropyOracle, MeasureKind, signal_sweep
from .jsonio import integer, number_array, parsing, read_json, write_json
from .spectral import FourierBasis

CANONICAL = "canonical"
FOURIER = "fourier"

CEV_THRESHOLDS = (0.60, 0.80, 0.90, 0.95, 0.99)


@dataclass(frozen=True)
class HighOrderSignal:
    """Coefficients of an n-signal over a tagged basis."""

    dimension: int
    coefficients: np.ndarray
    basis: str = CANONICAL
    measure: MeasureKind | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValidationError("signal coefficients must form a non-empty vector")
        if not np.all(np.isfinite(coeffs)):
            raise ValidationError("signal coefficients must be finite")
        if self.basis not in (CANONICAL, FOURIER):
            raise ValidationError(f"unknown basis tag {self.basis!r}")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def size(self) -> int:
        return self.coefficients.size


def build_signal(oracle: EntropyOracle, n: int, kind: MeasureKind) -> HighOrderSignal:
    """Sweep a measure over all (n+1)-subsets of the oracle's variables into a canonical signal."""
    values = signal_sweep(oracle, n, kind)
    return HighOrderSignal(dimension=n, coefficients=values, measure=MeasureKind(kind))


def _check_basis_match(signal: HighOrderSignal, basis: FourierBasis, tag: str) -> None:
    if signal.basis != tag:
        raise ValidationError(f"expected a {tag}-basis signal, got {signal.basis!r}")
    if signal.dimension != basis.dimension:
        raise ValidationError(
            f"signal dimension {signal.dimension} != basis dimension {basis.dimension}"
        )
    if signal.size != basis.weights.size:
        raise ValidationError(
            f"signal has {signal.size} coefficients, basis expects {basis.weights.size}"
        )


def to_fourier(signal: HighOrderSignal, basis: FourierBasis) -> HighOrderSignal:
    """Fourier coefficients Q^T W^(1/2) x of a canonical signal x."""
    _check_basis_match(signal, basis, CANONICAL)
    forward = basis.eigenvectors.T * np.sqrt(basis.weights)[None, :]
    return HighOrderSignal(signal.dimension, forward @ signal.coefficients, FOURIER,
                           signal.measure)


def from_fourier(signal: HighOrderSignal, basis: FourierBasis) -> HighOrderSignal:
    """Canonical coefficients W^(-1/2) Q y of a Fourier signal y."""
    _check_basis_match(signal, basis, FOURIER)
    inverse = basis.eigenvectors / np.sqrt(basis.weights)[:, None]
    return HighOrderSignal(signal.dimension, inverse @ signal.coefficients, CANONICAL,
                           signal.measure)


@dataclass(frozen=True)
class CevReport:
    """Explained variance per component, strongest first, with threshold marks.

    ``components_at[t]`` is the smallest k whose cumulative explained variance
    reaches the fraction t.
    """

    sorted_ev: np.ndarray
    cev: np.ndarray
    components_at: dict[float, int]


def cev_report(signal: HighOrderSignal) -> CevReport:
    """Explained variance of each component, strongest first (ties by canonical
    index), and its running sum."""
    sq = signal.coefficients ** 2
    total = sq.sum()
    if total <= 0.0:
        raise NumericalError("all-zero signal: explained variance undefined")
    order = np.argsort(-sq, kind="stable")
    sorted_ev = sq[order] / total
    return _counted(sorted_ev, np.cumsum(sorted_ev))


def _counted(sorted_ev: np.ndarray, cev: np.ndarray) -> CevReport:
    components_at = {
        t: int(np.searchsorted(cev, t - 1e-12) + 1) for t in CEV_THRESHOLDS
    }
    return CevReport(sorted_ev=sorted_ev, cev=cev, components_at=components_at)


def random_null(d: int) -> CevReport:
    """The CEV of a random basis as d grows, counted as ``cev_report`` counts.

    In a Haar-random w-orthonormal basis the coefficients of any nonzero
    signal lie uniformly on a sphere, so they are a standard-normal d-vector up
    to scale, and its top fraction q of squared entries holds
    G(q) = 2 a phi(a) + erfc(a / sqrt 2) of the energy, a = Phi^-1(1 - q/2)
    (Muller 1959; Stigler 1973). The curve is G(k/d) for k = 1..d; it depends
    on d alone.
    """
    if d < 1:
        raise ValidationError(f"a null curve needs d >= 1, got {d}")
    a = -normal_quantile(np.arange(1, d + 1) / (2.0 * d))
    tail = np.fromiter(map(math.erfc, (a / math.sqrt(2.0)).tolist()), float, count=d)
    cev = 2.0 * a * np.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi) + tail
    return _counted(np.diff(cev, prepend=0.0), cev)


def measure_reports(oracle: EntropyOracle, basis: FourierBasis, measures):
    """Yield ``(signal, report)`` per measure, canonical then Fourier in ``basis``;
    ``report`` is the ``CevReport`` or an all-zero signal's ``NumericalError``."""
    for kind in measures:
        canonical = build_signal(oracle, basis.dimension, kind)
        for signal in (canonical, to_fourier(canonical, basis)):
            try:
                report = cev_report(signal)
            except NumericalError as exc:
                report = exc
            yield signal, report


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def cev_to_json(path, report: CevReport) -> None:
    write_json(path, {
        "sorted_ev": report.sorted_ev.tolist(),
        "cev": report.cev.tolist(),
        "components_at": {f"{t:.2f}": k for t, k in sorted(report.components_at.items())},
    })


def write_signal(path, signal: HighOrderSignal, num_vertices: int | None = None) -> None:
    payload = {
        "dimension": signal.dimension,
        "basis": signal.basis,
        "measure": signal.measure.value if signal.measure is not None else None,
        "coefficients": signal.coefficients.tolist(),
    }
    if num_vertices is not None:
        payload["num_vertices"] = num_vertices
    write_json(path, payload)


def read_signal(path) -> HighOrderSignal:
    payload = read_json(path)
    with parsing(f"{path}: malformed signal file"):
        measure = payload.get("measure")
        return HighOrderSignal(
            dimension=integer(payload["dimension"], "dimension"),
            coefficients=number_array(payload["coefficients"], "coefficients"),
            basis=payload.get("basis", CANONICAL),
            measure=None if measure is None else MeasureKind(measure),
        )
