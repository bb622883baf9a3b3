"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them) and enforcing its stated
tolerance and runtime budget."""

import itertools
import json
import math
import os
import time

import numpy as np
import pytest

import hyperharmonic as hh
from hyperharmonic.cli import main as cli_main
from hyperharmonic.seeding import derive_rng
from hyperharmonic.spectral import _down_part, _up_part

import bruteforce as bf
from boundary_reference import boundary_matrix
from conftest import (
    bit_copy,
    correlated_pair,
    independent_bits,
    product_distribution,
    random_pmf,
    xor_triple,
)
from reference import forward_matrix, inverse_matrix
from test_cli import tree_bytes, write_xor_csv


def report(number: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail} ({elapsed:.2f}s)")


B1_PRINTED = np.array([
    [-1, -1, -1, 0, 0, 0],
    [1, 0, 0, -1, -1, 0],
    [0, 1, 0, 1, 0, -1],
    [0, 0, 1, 0, 1, 1],
], dtype=float)
B2_PRINTED = np.array([
    [1, 1, 0, 0],
    [-1, 0, 1, 0],
    [0, -1, -1, 0],
    [1, 0, 0, 1],
    [0, 1, 0, -1],
    [0, 0, 1, 1],
], dtype=float)
B3_PRINTED = np.array([[-1], [1], [-1], [1]], dtype=float)


def test_criterion_1_boundary_exactness():
    start = time.perf_counter()
    failures = []
    if not np.array_equal(boundary_matrix(3, 0).toarray(), np.zeros((1, 4))):
        failures.append("B0 mismatch")
    for name, n, expected in (("B1", 1, B1_PRINTED), ("B2", 2, B2_PRINTED), ("B3", 3, B3_PRINTED)):
        if not np.array_equal(boundary_matrix(3, n).toarray(), expected):
            failures.append(f"{name} mismatch")
    for N in range(1, 9):
        for n in range(1, N):
            product = (boundary_matrix(N, n) @ boundary_matrix(N, n + 1)).toarray()
            if np.max(np.abs(product)) != 0.0:
                failures.append(f"boundary-of-boundary nonzero at N={N}, n={n}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    report(1, ok, "boundary matrices exact, composition vanishes for N<=8", elapsed)
    assert not failures, failures
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s budget"


def _acceptance_distributions():
    rng = np.random.default_rng(424242)
    cases = [
        ("xor", *xor_triple()),
        ("copy3", *bit_copy(3)),
        ("copy4", *bit_copy(4)),
        ("independent3", *independent_bits(3)),
        ("independent4", *independent_bits(4)),
        ("pair_product", *product_distribution(
            correlated_pair(), correlated_pair(0.3, 0.2, 0.2, 0.3)
        )),
    ]
    for trial in range(20):
        shape = (2,) * int(rng.integers(3, 5))
        dist, dense = random_pmf(rng, shape)
        cases.append((f"random{trial}", dist, dense))
    return cases


def test_criterion_2_measure_oracle_suite():
    start = time.perf_counter()
    pairs = [
        (hh.total_correlation, bf.tc_bits, 2),
        (hh.dual_total_correlation, bf.dtc_bits, 2),
        (hh.o_information, bf.o_information_bits, 3),
        (hh.s_information, bf.s_information_bits, 2),
        (hh.interaction_information, bf.interaction_information_bits, 2),
    ]
    failures = []
    for name, dist, dense in _acceptance_distributions():
        oracle = hh.EntropyOracle(dist)
        k = dense.ndim
        for fn, ref, min_size in pairs:
            for size in range(min_size, k + 1):
                for subset in itertools.combinations(range(k), size):
                    got = fn(oracle, subset)
                    want = ref(dense, subset)
                    if abs(got - want) > 1e-10:
                        failures.append(
                            f"{name}/{fn.__name__}{subset}: {got} vs {want}"
                        )
    xor_omega = hh.o_information(hh.EntropyOracle(xor_triple()[0]), (0, 1, 2))
    copy_omega = hh.o_information(hh.EntropyOracle(bit_copy(3)[0]), (0, 1, 2))
    if xor_omega != -1.0:
        failures.append(f"xor omega {xor_omega!r} != -1.0 exactly")
    if copy_omega != 1.0:
        failures.append(f"3-bit copy omega {copy_omega!r} != 1.0 exactly")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(2, ok, "26 distributions match brute force within 1e-10; pinned omegas exact", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s budget"


def test_criterion_3_o_information_axioms():
    start = time.perf_counter()
    failures = []

    def omega(dist, subset):
        return hh.o_information(hh.EntropyOracle(dist), subset)

    xor_dense = xor_triple()[1]
    copy3_dense = bit_copy(3)[1]
    copy4_dense = bit_copy(4)[1]
    additive_cases = [
        ("xor*copy3", product_distribution(xor_dense, copy3_dense)[0], 6, -1.0 + 1.0),
        ("xor*copy4", product_distribution(xor_dense, copy4_dense)[0], 7, -1.0 + 2.0),
        ("copy3*copy4", product_distribution(copy3_dense, copy4_dense)[0], 7, 1.0 + 2.0),
    ]
    for name, dist, total, expected in additive_cases:
        got = omega(dist, tuple(range(total)))
        if abs(got - expected) > 1e-10:
            failures.append(f"additivity {name}: {got} vs {expected}")

    pair_a = correlated_pair()
    pair_b = correlated_pair(0.25, 0.25, 0.1, 0.4)
    pair_c = correlated_pair(0.5, 0.1, 0.1, 0.3)
    coin = np.array([0.5, 0.5])
    nullity_cases = [
        ("two pairs", product_distribution(pair_a, pair_b)[0], 4),
        ("three pairs", product_distribution(pair_a, pair_b, pair_c)[0], 6),
        ("two pairs + coin", product_distribution(pair_a, pair_b, coin)[0], 5),
    ]
    for name, dist, total in nullity_cases:
        got = omega(dist, tuple(range(total)))
        if abs(got) > 1e-10:
            failures.append(f"nullity {name}: {got}")
    elapsed = time.perf_counter() - start
    ok = not failures
    report(3, ok, "additivity over products and pairwise-factorised nullity up to 7 variables", elapsed)
    assert not failures, failures


def test_criterion_4_spectral_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    failures = []
    for N in range(1, 7):
        for draw in range(50):
            weights = tuple(
                rng.uniform(0.05, 20.0, size=hh.simplex_count(N, n))
                for n in range(N + 1)
            )
            simplex = hh.StructuralSimplex(N=N, weights=weights)
            for n in range(N + 1):
                L = hh.laplacian(simplex, n)
                tag = f"N={N} draw={draw} n={n}"
                root = np.sqrt(simplex.weight_vector(n))
                d = L.shape[0]
                up, down = _up_part(simplex, n, d), _down_part(simplex, n, d)
                for part_name, part in (("up", up), ("down", down), ("L", L)):
                    sym = (part * root[:, None]) / root[None, :]
                    eigs = np.linalg.eigvalsh((sym + sym.T) / 2)
                    top = max(eigs.max(initial=0.0), 0.0)
                    if eigs.min(initial=0.0) < -1e-10 * max(top, 1e-300):
                        failures.append(f"{tag}: {part_name} not PSD ({eigs.min():.2e})")
                basis = hh.fourier_basis(simplex, n)
                diagnostics = hh.basis_diagnostics(simplex, basis)
                if diagnostics["self_adjointness"] > 1e-10:
                    failures.append(f"{tag}: self-adjointness")
                if diagnostics["diagonalization"] > 1e-8:
                    failures.append(f"{tag}: diagonalization residual")
                if diagnostics["orthonormality"] > 1e-8:
                    failures.append(f"{tag}: orthonormality residual")
                expected_kernel = 1 if n == 0 else 0
                if hh.kernel_dimension(basis.eigenvalues) != expected_kernel:
                    failures.append(f"{tag}: kernel dimension")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(4, ok, "50 random weightings per N<=6: self-adjoint, PSD, residuals, Betti kernels", elapsed)
    assert not failures, failures[:5]
    assert elapsed < 60.0, f"runtime {elapsed:.2f}s exceeds 60s budget"


def test_criterion_5_parseval_and_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    failures = []
    for N in range(1, 7):
        weights = tuple(
            rng.uniform(0.05, 20.0, size=hh.simplex_count(N, n)) for n in range(N + 1)
        )
        simplex = hh.StructuralSimplex(N=N, weights=weights)
        for n in range(1, N + 1):
            w = simplex.weight_vector(n)
            basis = hh.fourier_basis(simplex, n)
            d = w.size
            signals = rng.standard_normal((d, 100))
            hats = forward_matrix(basis) @ signals
            back = inverse_matrix(basis) @ hats
            energy = np.sum(hats**2, axis=0)
            reference = np.einsum("ij,i,ij->j", signals, w, signals)
            rel = np.max(np.abs(energy - reference) / np.maximum(reference, 1e-300))
            if rel > 1e-8:
                failures.append(f"N={N} n={n}: parseval residual {rel:.2e}")
            scale = np.maximum(np.max(np.abs(signals), axis=0), 1.0)
            round_trip = np.max(np.max(np.abs(back - signals), axis=0) / scale)
            if round_trip > 1e-8:
                failures.append(f"N={N} n={n}: round-trip residual {round_trip:.2e}")
    elapsed = time.perf_counter() - start
    ok = not failures
    report(5, ok, "100 random signals per (N, n), N<=6: energy preserved, inverse exact", elapsed)
    assert not failures, failures


def test_criterion_6_gaussian_analytic_check():
    start = time.perf_counter()
    rho = 0.5
    analytic = -0.5 * math.log2(1 - rho * rho)
    estimates = []
    for seed in range(20):
        rng = derive_rng(100, seed)
        z = rng.standard_normal((10_000, 2))
        x = z[:, 0]
        y = rho * z[:, 0] + math.sqrt(1 - rho * rho) * z[:, 1]
        table = hh.ContinuousSeriesTable(variable_names=("x", "y"),
                                         samples=np.column_stack([x, y]))
        model = hh.copula_gaussian_fit(table)
        estimates.append(hh.total_correlation(hh.EntropyOracle(model), (0, 1)))
    mean_estimate = float(np.mean(estimates))
    rel_err = abs(mean_estimate - analytic) / analytic
    elapsed = time.perf_counter() - start
    ok = rel_err <= 0.05 and elapsed < 30.0
    report(6, ok, f"copula TC {mean_estimate:.5f} vs analytic {analytic:.5f} ({rel_err:.2%} off)", elapsed)
    assert rel_err <= 0.05, f"relative error {rel_err:.4f} above 5%"
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s exceeds 30s budget"


def test_criterion_7_synthetic_rank_experiment():
    """Size 9, ranks {2, 9}, T = 10^4, 10 replicates, default seed 0: the
    mean Fourier-basis CEV of the O-information signal for rank 2 must exceed
    rank 9 at every k <= 10 for dimensions 3 and 4.

    The dimension-4 clause fails at k = 1 because of the pipeline, not the
    sample: at n = 4 the rank-2 O-information signal is close to a constant
    (about +6 bits, 96-99% of its energy), and no eigenvector of the signed
    Laplacian on the full simplex is constant, so the Fourier basis spreads
    that offset and the rank-2 curve ties rank 9. See the decisions ledger
    for the measured evidence. The criterion is asserted as written, with the
    package-wide default seed, rather than tuned until green.
    """
    start = time.perf_counter()
    kind = hh.MeasureKind.O_INFORMATION
    result = hh.rank_experiment(
        ranks=(2, 9),
        replicates=10,
        num_samples=10_000,
        base_seed=0,
        size=9,
        dimensions=(3, 4),
        measures=(kind,),
    )
    failures = []
    margins = {}
    for n in (3, 4):
        low = result.mean_cev[(2, n, kind)][:10]
        full = result.mean_cev[(9, n, kind)][:10]
        margins[n] = float(np.min(low - full))
        if not np.all(low > full):
            failures.append(
                f"dimension {n}: rank-2 CEV does not dominate rank-9 at k<=10 "
                f"(worst margin {margins[n]:+.4f})"
            )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 900.0
    report(
        7,
        ok,
        f"rank-2 vs rank-9 dominance margins: n=3 {margins[3]:+.4f}, n=4 {margins[4]:+.4f}",
        elapsed,
    )
    assert elapsed < 900.0, f"runtime {elapsed:.2f}s exceeds 15min budget"
    assert not failures, failures


def test_criterion_8_random_basis_control():
    start = time.perf_counter()
    cov = hh.random_rank_covariance(9, 2, derive_rng(0, 2, 0, 0))
    table = hh.sample_gaussian(cov, 10_000, derive_rng(0, 2, 0, 1))
    model = hh.copula_gaussian_fit(table)
    oracle = hh.EntropyOracle(model)
    mi = hh.similarity_matrix(oracle, hh.SimilarityMetric.MUTUAL_INFORMATION)
    simplex = hh.structural_weights(mi)
    failures = []
    for n in (2, 3, 4):
        basis = hh.fourier_basis(simplex, n)
        for kind in (hh.MeasureKind.O_INFORMATION, hh.MeasureKind.S_INFORMATION):
            signal = hh.build_signal(oracle, n, kind)
            comparison = hh.control_comparison(signal, basis, num_random=20, seed=0)
            quartile = max(1, signal.size // 4)
            gap = comparison.fourier_cev[:quartile] - comparison.random_mean[:quartile]
            if not np.all(gap > 0):
                failures.append(f"n={n} {kind.value}: random mean wins somewhere "
                                f"in the first quartile (min gap {gap.min():+.4f})")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 600.0
    report(8, ok, "fourier CEV beats 20-random-basis mean in first quartile, dims 2-4", elapsed)
    assert not failures, failures
    assert elapsed < 600.0, f"runtime {elapsed:.2f}s exceeds 10min budget"


def test_criterion_9_end_to_end_determinism(tmp_path):
    start = time.perf_counter()
    data = tmp_path / "xor.csv"
    write_xor_csv(data)
    first = tmp_path / "first"
    code = cli_main([
        "run", "--input", str(data), "--kind", "discrete",
        "--dimensions", "2", "--output-dir", str(first),
    ])
    assert code == 0
    second = tmp_path / "second"
    code = cli_main([
        "run", "--manifest", str(first / "manifest.json"), "--output-dir", str(second),
    ])
    assert code == 0
    first_tree = tree_bytes(first)
    second_tree = tree_bytes(second)
    identical = first_tree == second_tree
    elapsed = time.perf_counter() - start
    report(9, identical, f"{len(first_tree)} files byte-identical across replayed runs", elapsed)
    assert identical, "output trees differ between identical-manifest runs"
