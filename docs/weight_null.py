"""Weight-shuffle control: does the eigenbasis compress because of the data's weights?

For three tables it builds the weighted simplex a ``run`` builds (mutual
information, mean aggregator) and counts the Fourier components needed for
90% and 99% of O- and S-information at dimensions 2 and 3, under three
weightings of the same operator:

- the true weights;
- 20 shuffles, each permuting the weights within every dimension, printed as
  min-median-max; shuffle s draws from ``np.random.default_rng(s)``,
  s = 0..19, and permutes the weight vectors of dimensions 0..N in turn;
- uniform weights, all 1.

Each weighting is diagonalized with two operators: the package's signed one
(``hh.fourier_basis``) and an unsigned one, the same assembly with every
boundary sign +1, built here from ``hh.boundary_faces``. The script checks
its own signed assembly against ``hh.laplacian`` before it counts anything.

Tables, each with its seeds:

- reference: the first 9 columns of ``bench/workloads.discrete_table`` at
  seed 1 with 14 variables and 20,000 samples;
- discrete-v11: the same generator at seed 1, 11 variables, 2,000 samples;
- rank-2 synth: replicate 0 of rank 2 at base seed 0 of ``control-synth``
  (size 9, 10,000 samples, covariance seed SeedSequence((0, 2, 0, 0)),
  sample seed SeedSequence((0, 2, 0, 1))), fitted by the Gaussian copula.

Run from the root of a checkout (about 2 s on 2 cores):

    PYTHONPATH=src python docs/weight_null.py
"""

import pathlib
import sys

import numpy as np

import hyperharmonic as hh

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))
from bench.workloads import Scale, discrete_table  # noqa: E402

DIMENSIONS = (2, 3)
THRESHOLDS = (0.90, 0.99)
SHUFFLES = 20
MEASURES = (("O", hh.MeasureKind.O_INFORMATION), ("S", hh.MeasureKind.S_INFORMATION))


def tables():
    """(name, model) of each table, in the order of the module docstring."""
    def discrete(V, T, columns):
        X = discrete_table(1, Scale(discrete_vars=V, discrete_samples=T, discrete_dims=DIMENSIONS,
                                    synth_replicates=0, synth_samples=0))[:, :columns]
        names = tuple(f"x{j}" for j in range(columns))
        return hh.estimate_empirical(hh.DiscreteSeriesTable(names, X, (3,) * columns))

    cov = hh.random_rank_covariance(9, 2, np.random.SeedSequence((0, 2, 0, 0)))
    synth = hh.sample_gaussian(cov, 10_000, np.random.SeedSequence((0, 2, 0, 1)))
    return [("reference[:9]", discrete(14, 20_000, 9)),
            ("discrete-v11", discrete(11, 2_000, 11)),
            ("rank-2 synth", hh.copula_gaussian_fit(synth))]


def boundary(N: int, n: int, signed: bool) -> np.ndarray:
    """The dense (d_{n-1}, d_n) boundary matrix, or its absolute value."""
    faces = hh.boundary_faces(N, n)
    P = np.zeros((hh.simplex_count(N, n - 1), len(faces)))
    signs = np.where(np.arange(n + 1) % 2, -1.0, 1.0) if signed else np.ones(n + 1)
    P[faces, np.arange(len(faces))[:, None]] = signs
    return P


def laplacian(simplex, n: int, signed: bool) -> np.ndarray:
    """L_up + L_down of ``hh.spectral``'s module docstring, with or without signs."""
    N, w = simplex.N, simplex.weight_vector
    L = np.zeros((hh.simplex_count(N, n),) * 2)
    if n < N:
        up = boundary(N, n + 1, signed)
        L += (up / w(n + 1)) @ up.T * w(n)[None, :]
    if n > 0:
        down = boundary(N, n, signed)
        L += (down.T * w(n - 1)) @ down / w(n)[:, None]
    return L


def unsigned_basis(simplex, n: int):
    """The unsigned operator's w-orthonormal eigenbasis, whitened as in ``hh.fourier_basis``."""
    root = np.sqrt(simplex.weight_vector(n))
    S = laplacian(simplex, n, signed=False) * root[:, None] / root[None, :]
    eigenvalues, Q = np.linalg.eigh((S + S.T) / 2)
    return hh.FourierBasis(n, eigenvalues, Q, simplex.weight_vector(n))


def counts(simplex, signals) -> dict:
    """{(operator, measure, n, threshold): components} for one weighting."""
    out = {}
    for n in DIMENSIONS:
        for operator, basis in (("signed", hh.fourier_basis(simplex, n)),
                                ("unsigned", unsigned_basis(simplex, n))):
            for label, _ in MEASURES:
                report = hh.cev_report(hh.to_fourier(signals[label, n], basis))
                for t in THRESHOLDS:
                    out[operator, label, n, t] = report.components_at[t]
    return out


def main() -> None:
    for name, model in tables():
        oracle = hh.EntropyOracle(model)
        true = hh.structural_weights(hh.similarity_matrix(oracle, "mutual_information"), "mean")
        for n in DIMENSIONS:
            gap = np.abs(laplacian(true, n, signed=True) - hh.laplacian(true, n)).max()
            assert gap <= 1e-9 * np.abs(hh.laplacian(true, n)).max(), gap
        signals = {(label, n): hh.build_signal(oracle, n, kind)
                   for label, kind in MEASURES for n in DIMENSIONS}
        shuffled = []
        for s in range(SHUFFLES):
            rng = np.random.default_rng(s)
            weights = tuple(rng.permutation(w) for w in true.weights)
            shuffled.append(counts(hh.StructuralSimplex(true.N, weights), signals))
        uniform = counts(hh.StructuralSimplex(true.N, tuple(map(np.ones_like, true.weights))),
                         signals)
        truth = counts(true, signals)

        print(f"\n{name}, {model.num_variables} variables. Components needed, as true weights; "
              f"{SHUFFLES} shuffles min-median-max; uniform weights")
        print(f"{'measure':<8}{'n':<3}{'operator':<10}"
              + "".join(f"{t:<21.0%}" for t in THRESHOLDS).rstrip())
        for label, _ in MEASURES:
            for n in DIMENSIONS:
                for operator in ("signed", "unsigned"):
                    cells = []
                    for t in THRESHOLDS:
                        key = operator, label, n, t
                        spread = np.array([c[key] for c in shuffled])
                        cells.append(f"{truth[key]}; {spread.min()}-{np.median(spread):g}-"
                                     f"{spread.max()}; {uniform[key]}")
                    print(f"{label:<8}{n:<3}{operator:<10}"
                          + "".join(f"{c:<21}" for c in cells).rstrip())


if __name__ == "__main__":
    main()
