"""High-order signals, the spectral change of basis, and compression reports.

A signal is a coefficient vector over the n-simplices in canonical order,
tagged with the basis it is expressed in. ``to_fourier`` takes a signal's
weighted inner products with the eigenvectors of a ``FourierBasis``; as they are
w-orthonormal, the energy of the Fourier coefficients equals the weighted norm
of the canonical signal, which is what makes cumulative explained variance meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NumericalError, ValidationError
from .infotheory import EntropyOracle, MeasureKind, signal_sweep
from .jsonio import csv_writer, integer, number_array, parsing, read_json, write_json
from .seeding import derive_rng
from .simplices import DENSE_DIMENSION_CAP
from .spectral import FourierBasis

CANONICAL = "canonical"
FOURIER = "fourier"

CEV_THRESHOLDS = (0.60, 0.80, 0.90, 0.95, 0.99)

DEFAULT_RANDOM_BASES = 80

# Two-sided 95% normal quantile, for the confidence band over replicates.
_Z_95 = 1.959963984540054


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


def mean_with_band(curves: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointwise mean over the rows of ``curves`` and its 95% normal-approximation
    band (``_Z_95 * std / sqrt(m)`` over m rows; zero width when m = 1)."""
    mean = curves.mean(axis=0)
    m = curves.shape[0]
    if m > 1:
        half = _Z_95 * curves.std(axis=0, ddof=1) / np.sqrt(m)
    else:
        half = np.zeros_like(mean)
    return mean, mean - half, mean + half


def cev_report(signal: HighOrderSignal) -> CevReport:
    """Explained variance of each component, strongest first (ties by canonical
    index), and its running sum."""
    sq = signal.coefficients ** 2
    total = sq.sum()
    if total <= 0.0:
        raise NumericalError("all-zero signal: explained variance undefined")
    order = np.argsort(-sq, kind="stable")
    sorted_ev = sq[order] / total
    cev = np.cumsum(sorted_ev)
    components_at = {
        t: int(np.searchsorted(cev, t - 1e-12) + 1) for t in CEV_THRESHOLDS
    }
    return CevReport(sorted_ev=sorted_ev, cev=cev, components_at=components_at)


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


@dataclass(frozen=True)
class ControlComparison:
    """Fourier-basis CEV next to the spread of randomly generated bases.

    ``random_cev`` holds one CEV curve per replicate basis; the mean and its
    95% confidence band use a normal approximation across replicates.
    """

    fourier_cev: np.ndarray
    random_cev: np.ndarray
    random_mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray


def control_comparison(signal: HighOrderSignal, basis: FourierBasis,
                       num_random: int = DEFAULT_RANDOM_BASES, seed: int = 0) -> ControlComparison:
    """Compare the Fourier CEV curve against ``num_random`` random bases.

    In a Haar-random w-orthonormal basis the coefficients of any nonzero signal
    lie uniformly on a sphere, so each random curve is drawn as the CEV of a
    standard-normal d-vector from ``derive_rng(seed, k)``: it depends on d alone.
    """
    d = signal.size
    if num_random < 1:
        raise ValidationError(f"need at least one random basis, got {num_random}")
    if num_random * d > DENSE_DIMENSION_CAP**2:
        raise CapacityError(f"{num_random} curves of {d} entries exceed {DENSE_DIMENSION_CAP}**2")
    fourier_cev = cev_report(to_fourier(signal, basis)).cev
    curves = np.empty((num_random, d))
    for k in range(num_random):
        draw = derive_rng(seed, k).standard_normal(d)
        curves[k] = cev_report(HighOrderSignal(signal.dimension, draw, FOURIER)).cev
    return ControlComparison(fourier_cev, curves, *mean_with_band(curves))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def cev_to_json(path, report: CevReport) -> None:
    write_json(path, {
        "sorted_ev": report.sorted_ev.tolist(),
        "cev": report.cev.tolist(),
        "components_at": {f"{t:.2f}": k for t, k in sorted(report.components_at.items())},
    })


def control_to_csv(path, comparison: ControlComparison) -> None:
    """Long-format CSV (basis_kind, replicate, k, cev), plot-ready."""
    with csv_writer(path) as writer:
        writer.writerow(["basis_kind", "replicate", "k", "cev"])
        for k, value in enumerate(comparison.fourier_cev, start=1):
            writer.writerow(["fourier", 0, k, repr(float(value))])
        for rep, curve in enumerate(comparison.random_cev, start=1):
            for k, value in enumerate(curve, start=1):
                writer.writerow(["random", rep, k, repr(float(value))])


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
