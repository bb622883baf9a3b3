"""Benchmark workloads: seeded input generation, CLI command, output check.

Each workload writes its inputs to files before any timing starts and hands
the program only those files (or plain arguments) through the
``hyperharmonic`` CLI. The checks read the output tree with NumPy and the
standard library only; they never import the program under test.

Sizes come from a ``Scale``: ``FULL`` is what the benchmark measures, ``TINY``
is what ``selftest.py`` runs. Why each workload exists is in README.md.
"""

from __future__ import annotations

import csv
import itertools
import json
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RESIDUAL_LIMIT = 1e-10
MEASURE_TOLERANCE_BITS = 1e-10
PARSEVAL_RTOL = 1e-9
CEV_MONOTONE_SLACK = 1e-12
CEV_END_TOLERANCE = 1e-9
MEASURES = ("o_information", "s_information")


@dataclass(frozen=True)
class Scale:
    discrete_vars: int
    discrete_samples: int
    discrete_dims: tuple[int, ...]
    synth_replicates: int
    synth_samples: int


FULL = Scale(discrete_vars=11, discrete_samples=2000, discrete_dims=(2, 3),
             synth_replicates=10, synth_samples=10_000)
TINY = Scale(discrete_vars=8, discrete_samples=300, discrete_dims=(2, 3),
             synth_replicates=3, synth_samples=2000)


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _coefficients(path: Path) -> np.ndarray:
    return np.asarray(_read_json(path)["coefficients"], dtype=float)


def check_basis(outdir: Path, n: int) -> tuple[float, float]:
    """Residuals, kernel and Parseval of one dimension's eigenbasis and signals."""
    dim_dir = outdir / f"dim_{n}"
    diagnostics = _read_json(dim_dir / "diagnostics.json")
    residuals = {key: float(diagnostics[key]) for key in
                 ("self_adjointness", "diagonalization", "orthonormality", "inversion")}
    for key, value in residuals.items():
        if not value <= RESIDUAL_LIMIT:
            raise CheckFailed(f"dim {n}: {key} residual {value:.3e} above {RESIDUAL_LIMIT}")
    if diagnostics["kernel_dimension"] != 0:
        raise CheckFailed(f"dim {n}: kernel dimension {diagnostics['kernel_dimension']}, not 0")
    weights = np.asarray(_read_json(outdir / "weights.json")["weights"][str(n)], dtype=float)
    worst = 0.0
    for measure in MEASURES:
        canonical = _coefficients(dim_dir / f"signal_{measure}_canonical.json")
        fourier = _coefficients(dim_dir / f"signal_{measure}_fourier.json")
        energy = float(np.sum(weights * canonical**2))
        rel = abs(float(np.sum(fourier**2)) - energy) / energy
        if not rel <= PARSEVAL_RTOL:
            raise CheckFailed(f"{measure} dim {n}: Parseval off by {rel:.3e} (relative)")
        worst = max(worst, rel)
    return max(residuals.values()), worst


# ---------------------------------------------------------------------------
# discrete: entropy marginalization over a sparse empirical pmf
# ---------------------------------------------------------------------------


def discrete_table(seed: int, scale: Scale) -> np.ndarray:
    """Ternary samples: X2 = (X0 + X1) mod 3 is a pure-synergy triple, X3..X6
    are noisy copies of one latent (redundancy), the rest are independent."""
    rng = np.random.default_rng(seed)
    T, V = scale.discrete_samples, scale.discrete_vars
    X = rng.integers(0, 3, size=(T, V))
    X[:, 2] = (X[:, 0] + X[:, 1]) % 3
    latent = rng.integers(0, 3, size=T)
    for j in range(3, 7):
        keep = rng.random(T) < 0.85
        X[:, j] = np.where(keep, latent, rng.integers(0, 3, size=T))
    return X


def _entropy_bits(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log2(p)))


def dense_o_s_information(X: np.ndarray, triple) -> tuple[float, float]:
    """O- and S-information of three columns from a dense 3x3x3 empirical pmf."""
    a, b, c = (X[:, i] for i in triple)
    joint = np.bincount(a * 9 + b * 3 + c, minlength=27).reshape(3, 3, 3).astype(float)
    h_joint = _entropy_bits(joint)
    h_single = [_entropy_bits(joint.sum(axis=tuple(k for k in range(3) if k != i)))
                for i in range(3)]
    h_pair_without = [_entropy_bits(joint.sum(axis=i)) for i in range(3)]
    tc = max(sum(h_single) - h_joint, 0.0)
    dtc = max(sum(h_pair_without) - 2.0 * h_joint, 0.0)
    return tc - dtc, tc + dtc


def discrete_prepare(workdir: Path, seed: int, scale: Scale) -> dict:
    X = discrete_table(seed, scale)
    path = workdir / "discrete.csv"
    header = ",".join(f"X{i}" for i in range(X.shape[1]))
    np.savetxt(path, X, fmt="%d", delimiter=",", header=header, comments="")
    dims = ",".join(map(str, scale.discrete_dims))
    return {
        "args": ["run", "--input", str(path), "--kind", "discrete", "--dimensions", dims],
        "table": X,
        "dims": scale.discrete_dims,
    }


def discrete_check(outdir: Path, ctx: dict) -> dict:
    X = ctx["table"]
    triples = list(itertools.combinations(range(X.shape[1]), 3))
    expected = np.array([dense_o_s_information(X, t) for t in triples])
    worst = 0.0
    for column, measure in enumerate(MEASURES):
        got = _coefficients(outdir / "dim_2" / f"signal_{measure}_canonical.json")
        if got.shape != (len(triples),):
            raise CheckFailed(f"{measure} dim 2: {got.shape[0]} entries, expected {len(triples)}")
        err = float(np.max(np.abs(got - expected[:, column])))
        if not err <= MEASURE_TOLERANCE_BITS:
            raise CheckFailed(f"{measure} dim 2 is off the dense enumerator by {err:.3e} bits")
        worst = max(worst, err)
    o_xor = float(_coefficients(outdir / "dim_2" / "signal_o_information_canonical.json")[0])
    if not o_xor < 0.0:
        raise CheckFailed(f"O-information of the synergy triple (0,1,2) is {o_xor}, expected < 0")
    residuals, parseval = zip(*(check_basis(outdir, n) for n in ctx["dims"]))
    return {"max_abs_err_bits": worst, "o_information_012": o_xor,
            "max_residual": max(residuals), "parseval_rel_err": max(parseval)}


# ---------------------------------------------------------------------------
# rank-synth: many small pipelines, call overhead of the entropy oracle
# ---------------------------------------------------------------------------


def synth_prepare(workdir: Path, seed: int, scale: Scale) -> dict:
    return {
        "args": ["control-synth", "--ranks", "2,9", "--replicates", str(scale.synth_replicates),
                 "--samples", str(scale.synth_samples), "--size", "9", "--seed", str(seed)],
    }


def _o_margin(curves: dict, n: int) -> float:
    low = curves[(2, n, "o_information")][:10]
    full = curves[(9, n, "o_information")][:10]
    return float(np.min(low - full))


def synth_check(outdir: Path, ctx: dict) -> dict:
    rows: dict[tuple[int, int, str], list[tuple[int, float]]] = {}
    with open(outdir / "rank_cev.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (int(row["rank"]), int(row["dimension"]), row["measure"])
            rows.setdefault(key, []).append((int(row["k"]), float(row["mean_cev"])))
    expected_keys = {(r, n, m) for r in (2, 9) for n in (2, 3, 4, 5) for m in MEASURES}
    if set(rows) != expected_keys:
        raise CheckFailed(f"rank_cev.csv covers {sorted(rows)}, expected {sorted(expected_keys)}")
    curves = {}
    for key, points in rows.items():
        points.sort()
        curve = np.array([value for _, value in points])
        if np.any(np.diff(curve) < -CEV_MONOTONE_SLACK):
            raise CheckFailed(f"mean CEV {key} decreases")
        if not abs(curve[-1] - 1.0) <= CEV_END_TOLERANCE:
            raise CheckFailed(f"mean CEV {key} ends at {curve[-1]!r}, expected 1")
        curves[key] = curve
    margin3 = _o_margin(curves, 3)
    if not margin3 > 0.0:
        raise CheckFailed(f"O-information dim-3 rank-2 minus rank-9 margin {margin3:+.4f} <= 0")
    # The dim-4 margin is recorded only: it sits within replicate noise of a
    # tie (acceptance criterion 7's known-red clause) and is never gated.
    return {"o_margin_dim3": margin3, "o_margin_dim4": _o_margin(curves, 4)}


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[Path, int, Scale], dict]
    check: Callable[[Path, dict], dict]


WORKLOADS = {
    "discrete-v11": Workload(discrete_prepare, discrete_check),
    "rank-synth-10": Workload(synth_prepare, synth_check),
}
