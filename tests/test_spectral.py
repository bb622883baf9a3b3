import numpy as np
import pytest

from hyperharmonic import (
    CapacityError,
    StructuralSimplex,
    ValidationError,
    basis_diagnostics,
    boundary_faces,
    fourier_basis,
    kernel_dimension,
    laplacian,
    simplex_count,
)
from hyperharmonic.spectral import FourierBasis, _down_part, _up_part

import reference
from boundary_reference import adjoint_matrix, boundary_matrix


def random_structural_simplex(N, rng, low=0.05, high=20.0):
    weights = tuple(
        rng.uniform(low, high, size=simplex_count(N, n)) for n in range(N + 1)
    )
    return StructuralSimplex(N=N, weights=weights)


def loop_sign_fixed_basis(L, weights):
    """Reference (forward, inverse): eigh of the whitened operator, then the
    per-column sign loop that ``fourier_basis`` replaced with array operations."""
    root = np.sqrt(weights)
    sym = (L * root[:, None]) / root[None, :]
    sym = (sym + sym.T) / 2.0
    _, Q = np.linalg.eigh(sym)
    inverse = Q / root[:, None]
    for j in range(inverse.shape[1]):
        col = inverse[:, j]
        nonzero = np.nonzero(np.abs(col) > 1e-12 * np.max(np.abs(col)))[0]
        if nonzero.size and col[nonzero[0]] < 0:
            Q[:, j] = -Q[:, j]
            inverse[:, j] = -col
    return Q.T * root[None, :], inverse


def sparse_reference_laplacian(simplex, n):
    """Reference (up, down): the scipy Gram products that ``laplacian`` replaced."""
    import scipy.sparse as sp

    N, d = simplex.N, simplex_count(simplex.N, n)
    w_n = simplex.weight_vector(n)
    up = down = np.zeros((d, d))
    if n < N:
        P = boundary_matrix(N, n + 1)
        up = (P @ sp.diags(1.0 / simplex.weight_vector(n + 1)) @ P.T).toarray() * w_n[None, :]
    if n > 0:
        P = boundary_matrix(N, n)
        down = (P.T @ sp.diags(simplex.weight_vector(n - 1)) @ P).toarray() / w_n[:, None]
    return up, down


def unit_simplex(N):
    return StructuralSimplex(
        N=N, weights=tuple(np.ones(simplex_count(N, n)) for n in range(N + 1))
    )


class TestAdjoint:
    def test_unit_weights_reduce_to_transpose(self):
        S = unit_simplex(3)
        for n in range(3):
            expected = boundary_matrix(3, n + 1).toarray().T
            assert np.allclose(adjoint_matrix(S, n), expected)

    def test_adjointness_identity_on_random_vectors(self):
        rng = np.random.default_rng(17)
        S = random_structural_simplex(4, rng)
        for n in range(4):
            P = boundary_matrix(4, n + 1).toarray()
            delta = adjoint_matrix(S, n)
            w_n = S.weight_vector(n)
            w_up = S.weight_vector(n + 1)
            for _ in range(100):
                a = rng.standard_normal(P.shape[1])
                b = rng.standard_normal(P.shape[0])
                lhs = np.dot((P @ a) * w_n, b)
                rhs = np.dot(a * w_up, delta @ b)
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_top_dimension_rejected(self):
        S = unit_simplex(3)
        with pytest.raises(ValidationError):
            adjoint_matrix(S, 3)


class TestLaplacian:
    def test_vertex_laplacian_of_complete_graph(self):
        N = 4
        L = laplacian(unit_simplex(N), 0)
        expected = N * np.eye(N + 1) - (np.ones((N + 1, N + 1)) - np.eye(N + 1))
        assert np.allclose(L, expected)
        assert np.max(np.abs(_down_part(unit_simplex(N), 0, N + 1))) == 0.0

    def test_top_dimension_has_no_up_component(self):
        rng = np.random.default_rng(3)
        S = random_structural_simplex(3, rng)
        assert np.max(np.abs(_up_part(S, 3, 1))) == 0.0
        assert np.max(np.abs(_down_part(S, 3, 1))) > 0.0
        assert np.array_equal(laplacian(S, 3), _down_part(S, 3, 1))

    def test_unit_weight_reduction_is_exact(self):
        S = unit_simplex(4)
        for n in range(5):
            L = laplacian(S, n)
            expected = np.zeros_like(L)
            if n < 4:
                P = boundary_matrix(4, n + 1).toarray()
                expected += P @ P.T
            if n > 0:
                P = boundary_matrix(4, n).toarray()
                expected += P.T @ P
            assert np.array_equal(L, expected)

    def test_assembly_matches_sparse_reference_bit_for_bit(self):
        rng = np.random.default_rng(41)
        for N in range(11):
            log_uniform = StructuralSimplex(N=N, weights=tuple(
                np.exp(rng.uniform(-20.0, 7.0, size=simplex_count(N, n))) for n in range(N + 1)
            ))
            for S in (random_structural_simplex(N, rng), log_uniform):
                for n in range(N + 1):
                    L = laplacian(S, n)
                    up, down = sparse_reference_laplacian(S, n)
                    d = L.shape[0]
                    assert np.array_equal(_up_part(S, n, d), up), (N, n)
                    assert np.array_equal(_down_part(S, n, d), down), (N, n)
                    assert np.array_equal(L, up + down), (N, n)

    def test_only_the_matrix_is_stored(self):
        rng = np.random.default_rng(43)
        for N in range(1, 7):
            S = random_structural_simplex(N, rng)
            for n in range(N + 1):
                L = laplacian(S, n)
                assert type(L) is np.ndarray, (N, n)
                d = L.shape[0]
                assert np.array_equal(L, _up_part(S, n, d) + _down_part(S, n, d)), (N, n)

    def test_self_adjointness_for_random_weights(self):
        rng = np.random.default_rng(5)
        for N in range(1, 6):
            S = random_structural_simplex(N, rng)
            for n in range(N + 1):
                basis = fourier_basis(S, n)
                assert basis_diagnostics(S, basis)["self_adjointness"] <= 1e-10

    def test_kernel_dimensions_are_betti_numbers(self):
        rng = np.random.default_rng(11)
        for N in range(1, 7):
            S = random_structural_simplex(N, rng)
            for n in range(N + 1):
                basis = fourier_basis(S, n)
                expected = 1 if n == 0 else 0
                assert kernel_dimension(basis.eigenvalues) == expected, (N, n)

    def test_capacity_error_on_huge_dimension(self):
        mi = np.ones((17, 17)) - np.eye(17)
        from hyperharmonic import structural_weights

        S = structural_weights(mi)
        with pytest.raises(CapacityError):
            laplacian(S, 8)


class TestFourierBasis:
    def test_single_edge_graph(self):
        basis = fourier_basis(unit_simplex(1), 0)
        assert np.allclose(basis.eigenvalues, [0.0, 2.0])
        kernel = reference.inverse_matrix(basis)[:, 0]
        assert np.allclose(kernel / kernel[0], [1.0, 1.0])

    def test_residuals_under_random_weights(self):
        rng = np.random.default_rng(13)
        N = 5
        S = random_structural_simplex(N, rng)
        for n in range(N + 1):
            basis = fourier_basis(S, n)
            diagnostics = basis_diagnostics(S, basis)
            assert diagnostics["diagonalization"] < 1e-8
            assert diagnostics["orthonormality"] < 1e-8
            assert diagnostics["inversion"] < 1e-10
            assert np.all(basis.eigenvalues >= 0.0)
            assert np.all(np.diff(basis.eigenvalues) >= 0.0)

    def test_eigenvalues_match_numpy_on_whitened_matrix(self):
        rng = np.random.default_rng(19)
        S = random_structural_simplex(4, rng)
        L = laplacian(S, 2)
        w = S.weight_vector(2)
        sym = np.diag(np.sqrt(w)) @ L @ np.diag(1 / np.sqrt(w))
        reference = np.linalg.eigvalsh((sym + sym.T) / 2)
        basis = fourier_basis(S, 2)
        assert np.allclose(basis.eigenvalues, np.clip(reference, 0, None), atol=1e-12)

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(23)
        S = random_structural_simplex(4, rng)
        first = fourier_basis(S, 1)
        second = fourier_basis(S, 1)
        assert np.array_equal(reference.forward_matrix(first), reference.forward_matrix(second))
        first_inverse = reference.inverse_matrix(first)
        assert np.array_equal(first_inverse, reference.inverse_matrix(second))
        for j in range(first_inverse.shape[1]):
            col = first_inverse[:, j]
            lead = col[np.abs(col) > 1e-12 * np.max(np.abs(col))][0]
            assert lead > 0

    def test_sign_fix_matches_loop_reference(self, monkeypatch):
        import hyperharmonic.spectral as spectral_mod

        rng = np.random.default_rng(29)
        cases = []
        for N in (3, 4, 5):
            S = random_structural_simplex(N, rng)
            cases += [(S, n) for n in range(N + 1)]
        # Two decoupled blocks joined by a 1e-14 coupling: the eigenvectors of
        # the second block lead with entries far below 1e-12 of their largest.
        blocks = [rng.standard_normal((k, k)) for k in (2, 5)]
        matrix = np.zeros((7, 7))
        matrix[:2, :2] = blocks[0] @ blocks[0].T + np.eye(2)
        matrix[2:, 2:] = blocks[1] @ blocks[1].T + 3 * np.eye(5)
        coupling = 1e-14 * rng.standard_normal((2, 5))
        matrix[:2, 2:] = coupling
        matrix[2:, :2] = coupling.T
        for S, n in cases:
            forward, inverse = loop_sign_fixed_basis(laplacian(S, n), S.weight_vector(n))
            basis = fourier_basis(S, n)
            assert np.array_equal(reference.forward_matrix(basis), forward)
            assert np.array_equal(reference.inverse_matrix(basis), inverse)
        # unit_simplex(6) has seven 0-simplices, all of weight 1.
        monkeypatch.setattr(spectral_mod, "laplacian", lambda simplex, n: matrix.copy())
        forward, inverse = loop_sign_fixed_basis(matrix, np.ones(7))
        basis = fourier_basis(unit_simplex(6), 0)
        assert np.array_equal(reference.forward_matrix(basis), forward)
        assert np.array_equal(reference.inverse_matrix(basis), inverse)
        inverse = reference.inverse_matrix(basis)
        tiny_lead = np.abs(inverse[0]) <= 1e-12 * np.max(np.abs(inverse), axis=0)
        assert np.any(tiny_lead & (inverse[0] != 0.0))

    def test_shared_boundary_matrices_leave_outputs_unchanged(self, monkeypatch):
        import hyperharmonic.spectral as spectral_mod

        S = random_structural_simplex(5, np.random.default_rng(37))

        def outputs():
            result = []
            for n in range(6):
                L = laplacian(S, n)
                d = L.shape[0]
                basis = fourier_basis(S, n)
                result.append((L, _up_part(S, n, d), _down_part(S, n, d),
                               basis.eigenvalues, reference.forward_matrix(basis),
                               reference.inverse_matrix(basis),
                               basis_diagnostics(S, basis)))
            return result

        cached = outputs()
        monkeypatch.setattr(spectral_mod, "boundary_faces", boundary_faces.__wrapped__)
        fresh = outputs()
        for got, want in zip(cached, fresh):
            for a, b in zip(got[:-1], want[:-1]):
                assert np.array_equal(a, b)
            assert got[-1] == want[-1]

    def test_dense_arrays_alive_at_d_1001(self):
        """tracemalloc counts, in float64 d x d arrays: the operator is one, and
        the eigensolve plus its diagnostics, each assembling the operator
        itself, peak at 3.13 (six with the dense reference diagnostics)."""
        import tracemalloc

        N, n = 13, 3
        S = random_structural_simplex(N, np.random.default_rng(53))
        laplacian(S, n)  # fill the face-array caches before tracing
        unit = 8.0 * simplex_count(N, n) ** 2
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            L = laplacian(S, n)
            alive = (tracemalloc.get_traced_memory()[0] - base) / unit
            del L
            tracemalloc.reset_peak()
            basis = fourier_basis(S, n)
            basis_diagnostics(S, basis)
            peak = (tracemalloc.get_traced_memory()[1] - base) / unit
        finally:
            tracemalloc.stop()
        assert 1.0 <= alive < 1.01
        assert peak <= 3.24
        assert set(vars(basis)) == {"dimension", "eigenvalues", "eigenvectors", "weights"}

    def test_inner_product_validation(self):
        for weight in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite and > 0"):
                FourierBasis(1, np.zeros(2), np.eye(2), np.array([1.0, weight]))

    def test_shape_validation(self):
        weights = np.ones(3)
        with pytest.raises(ValidationError, match="non-empty vector"):
            FourierBasis(1, np.zeros(0), np.eye(0), np.ones(0))
        with pytest.raises(ValidationError, match="got \\(2,\\) and \\(3, 3\\)"):
            FourierBasis(1, np.zeros(2), np.eye(3), weights)
        with pytest.raises(ValidationError, match="got \\(3,\\) and \\(3, 2\\)"):
            FourierBasis(1, np.zeros(3), np.eye(3)[:, :2], weights)

    def test_kernel_dimension_of_zero_matrix(self):
        assert kernel_dimension(np.zeros(4)) == 4
        # d * eps * max is 6.7e-16 here, np.linalg.matrix_rank's tolerance.
        assert kernel_dimension(np.array([0.0, 6e-16, 1.0])) == 2
        assert kernel_dimension(np.array([0.0, 1e-12, 1.0])) == 1


class TestDiagnosticsAgainstDenseReference:
    """``basis_diagnostics`` against the four-product check it replaced."""

    def test_both_pass_on_random_weights(self):
        rng = np.random.default_rng(59)
        for N in range(1, 9):
            S = random_structural_simplex(N, rng)
            for n in range(1, N + 1):
                basis = fourier_basis(S, n)
                for check in (basis_diagnostics, reference.basis_diagnostics):
                    residuals = check(S, basis)
                    assert max(residuals.values()) <= 1e-13, (N, n, check, residuals)

    @staticmethod
    def shifted_eigenvalue(basis):
        eigenvalues = basis.eigenvalues.copy()
        eigenvalues[1] += 1e-8 * eigenvalues.max()
        return eigenvalues, basis.eigenvectors

    @staticmethod
    def scaled(basis):
        return basis.eigenvalues, basis.eigenvectors * (1 + 1e-9)

    @staticmethod
    def rotated_pair(basis):
        Q, angle = basis.eigenvectors.copy(), 1e-6
        first, last = Q[:, 0].copy(), Q[:, -1].copy()
        Q[:, 0] = np.cos(angle) * first - np.sin(angle) * last
        Q[:, -1] = np.sin(angle) * first + np.cos(angle) * last
        return basis.eigenvalues, Q

    @pytest.mark.parametrize("corrupt, keys", [
        ("shifted_eigenvalue", {"diagonalization"}),
        ("scaled", {"orthonormality", "inversion"}),
        ("rotated_pair", {"diagonalization"}),
    ])
    def test_both_fail_in_the_same_key_on_corrupted_bases(self, corrupt, keys):
        rng = np.random.default_rng(61)
        for N, n in ((5, 2), (7, 3), (8, 1)):
            S = random_structural_simplex(N, rng)
            basis = fourier_basis(S, n)
            eigenvalues, Q = getattr(self, corrupt)(basis)
            bad = FourierBasis(n, eigenvalues, Q, basis.weights)
            for check in (basis_diagnostics, reference.basis_diagnostics):
                residuals = check(S, bad)
                assert all(residuals[key] > 1e-10 for key in keys), (N, n, check, residuals)
