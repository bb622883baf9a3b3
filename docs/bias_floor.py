"""Bias floor of the plug-in entropies, and the Fourier counts across T.

Every signal is built from plug-in joint entropies, which are biased low by
about (m - 1) / 2T nats for a subset whose marginal occupies m cells of the
sample table (Miller 1955). This script prints two tables for ROADMAP item 8.

1. The bias floor. Each column of a table is shuffled on its own, so every
   true O- and S-information is 0 and what the surrogate's signal still holds
   is estimator bias. Each cell is the RMS of the surrogate's signal over the
   RMS of the true table's signal, at dimensions n = 2, 3, 4, under plug-in
   entropies and under Miller-Madow (H + (m - 1) / 2T per subset).
2. The Fourier components needed for 60/80/90/95/99% of O- and
   S-information at n = 2, 3, 4, under plug-in and under Miller-Madow, for
   the discrete-v11 generator at T = 500, 1000, 2000, 5000 and 20,000. The
   basis is the one a ``run`` builds from the table (mutual information,
   mean aggregator); both estimators are counted in it, so only the signal
   changes.

Both estimators share the plug-in signal of ``hh.signal_sweep``. O and S are
linear in the entropies, so the Miller-Madow signal is that signal plus the
same combination of the per-subset corrections:
O = sum_i H(i) - sum_i H(s minus i) + (n - 1) H(s) and
S = sum_i H(i) + sum_i H(s minus i) - (n + 1) H(s) on an n-simplex s.
The script checks that combination against ``hh.signal_sweep`` on the true
table before it prints anything.

Tables and seeds. Every table is ``bench/workloads.discrete_table`` at
seed 1: discrete-v11 is 11 variables and 2,000 samples, the reference is 14
variables and 20,000 samples, and the T sweep keeps 11 variables. The
surrogate permutes column j of the table with the j-th call of
``Generator.permutation`` on one ``np.random.default_rng(7)``, j = 0..V-1.

Run from the root of a checkout (about 7 s on 2 cores):

    PYTHONPATH=src python docs/bias_floor.py
"""

import math
import pathlib
import sys

import numpy as np

import hyperharmonic as hh

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from bench.workloads import Scale, discrete_table  # noqa: E402

DIMENSIONS = (2, 3, 4)
MEASURES = (("O", hh.MeasureKind.O_INFORMATION), ("S", hh.MeasureKind.S_INFORMATION))
ESTIMATORS = ("plug-in", "Miller-Madow")
SWEEP_T = (500, 1_000, 2_000, 5_000, 20_000)
SHUFFLE_SEED = 7


def table(V: int, T: int) -> np.ndarray:
    return discrete_table(1, Scale(discrete_vars=V, discrete_samples=T,
                                   discrete_dims=DIMENSIONS, synth_replicates=0,
                                   synth_samples=0))


def shuffled(X: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(SHUFFLE_SEED)
    return np.column_stack([rng.permutation(X[:, j]) for j in range(X.shape[1])])


def oracle(X: np.ndarray) -> hh.EntropyOracle:
    names = tuple(f"x{j}" for j in range(X.shape[1]))
    samples = hh.DiscreteSeriesTable(names, X, (3,) * len(names))
    return hh.EntropyOracle(hh.estimate_empirical(samples))


def miller_madow_bits(X: np.ndarray) -> dict:
    """{size: (m - 1) / 2T in bits for every subset of that size}, subsets in
    ``enumerate_simplices`` order, for the sizes the dimensions read."""
    T, V = X.shape
    out = {}
    for size in range(1, max(DIMENSIONS) + 2):
        radix = 3 ** np.arange(size)
        occupied = [np.count_nonzero(np.bincount(X[:, s] @ radix, minlength=3**size))
                    for s in hh.enumerate_simplices(V - 1, size - 1)]
        out[size] = (np.array(occupied) - 1) / (2 * T * math.log(2))
    return out


def combination(kind: hh.MeasureKind, N: int, n: int, level) -> np.ndarray:
    """O or S on every n-simplex from per-subset values ``level(size)``."""
    simplices = hh.enumerate_simplices(N, n)
    singles = level(1)[simplices].sum(axis=1)
    faces = level(n)[hh.boundary_faces(N, n)].sum(axis=1)
    joint = level(n + 1)
    if kind is hh.MeasureKind.O_INFORMATION:
        return singles - faces + (n - 1) * joint
    return singles + faces - (n + 1) * joint


def signals(X: np.ndarray, orc: hh.EntropyOracle):
    """{(measure, n, estimator): canonical signal} of table X."""
    N = X.shape[1] - 1
    corrections = miller_madow_bits(X)
    out = {}
    for n in DIMENSIONS:
        for name, kind in MEASURES:
            plug_in = hh.signal_sweep(orc, n, kind)
            out[name, n, "plug-in"] = plug_in
            out[name, n, "Miller-Madow"] = plug_in + combination(kind, N, n, corrections.get)
    return out


def check_combination(X: np.ndarray, orc: hh.EntropyOracle) -> None:
    N = X.shape[1] - 1
    for n in DIMENSIONS:
        for _, kind in MEASURES:
            rebuilt = combination(kind, N, n, lambda size: orc.table(size) / math.log(2))
            assert np.allclose(rebuilt, hh.signal_sweep(orc, n, kind), rtol=0, atol=1e-9), n


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x * x)))


def bias_floor_rows(label: str, X: np.ndarray):
    orc, null = oracle(X), shuffled(X)
    check_combination(X, orc)
    true, surrogate = signals(X, orc), signals(null, oracle(null))
    for estimator in ESTIMATORS:
        cells = [rms(surrogate[name, n, estimator]) / rms(true[name, n, estimator])
                 for n in DIMENSIONS for name, _ in MEASURES]
        yield f"| {label}, {estimator} | " + " | ".join(f"{c:.3f}" for c in cells) + " |"


def counts(X: np.ndarray):
    """{(measure, n, estimator): Fourier counts at the CEV thresholds}."""
    orc = oracle(X)
    similarity = hh.similarity_matrix(orc, hh.SimilarityMetric.MUTUAL_INFORMATION)
    simplex = hh.structural_weights(similarity, hh.WeightAggregator.MEAN)
    bases = {n: hh.fourier_basis(simplex, n) for n in DIMENSIONS}
    out = {}
    for (name, n, estimator), values in signals(X, orc).items():
        report = hh.cev_report(hh.to_fourier(hh.HighOrderSignal(n, values), bases[n]))
        out[name, n, estimator] = [k for _, k in sorted(report.components_at.items())]
    return out


def main() -> None:
    print("Bias floor: RMS of the column-shuffled surrogate's signal over the RMS of the")
    print("true signal.\n")
    print("| table | " + " | ".join(f"{name} n={n}" for n in DIMENSIONS for name, _ in MEASURES)
          + " |")
    print("|---" * (1 + len(DIMENSIONS) * len(MEASURES)) + "|")
    for label, V, T in (("discrete-v11 (T=2000)", 11, 2_000),
                        ("reference (V=14, T=20,000)", 14, 20_000),
                        ("discrete-v11 generator at T=500", 11, 500)):
        for row in bias_floor_rows(label, table(V, T)):
            print(row)

    print("\nFourier components at 60/80/90/95/99%, discrete-v11 generator (V=11),")
    print("plug-in -> Miller-Madow, in the basis of each table's own weights.\n")
    print("| T | " + " | ".join(f"{name} n={n}" for n in DIMENSIONS for name, _ in MEASURES)
          + " |")
    print("|---" * (1 + len(DIMENSIONS) * len(MEASURES)) + "|")
    for T in SWEEP_T:
        found = counts(table(11, T))
        cells = [f"{found[name, n, 'plug-in']} -> {found[name, n, 'Miller-Madow']}"
                 for n in DIMENSIONS for name, _ in MEASURES]
        print(f"| {T} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
