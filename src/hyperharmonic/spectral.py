"""Simplex Laplace operators and their Fourier bases.

The n-Laplace operator acts on n-signals over the standard simplex. With
``P_n`` the boundary matrix of dimension n and ``W_n`` the diagonal matrix of
positive simplex weights, the assembly is

    L_up   = P_{n+1} W_{n+1}^{-1} P_{n+1}^T W_n      (zero for n = N)
    L_down = W_n^{-1} P_n^T W_{n-1} P_n              (zero for n = 0)

which is the unique matrix of the operator "boundary of the weighted adjoint
plus weighted adjoint of the boundary": ``W_n L_n`` is symmetric, so L_n is
self-adjoint for the weighted inner product and diagonalizable with real
non-negative spectrum. The Fourier basis is obtained by whitening with
``W^(1/2)`` and running a symmetric eigensolver, which yields w-orthonormal
eigenvectors by construction. A weighted simplex and a dimension n determine
the operator, so ``fourier_basis`` and ``basis_diagnostics`` take those two and
assemble it themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .simplices import StructuralSimplex, boundary_faces, check_dense_dimension

# Relative threshold under which a tiny negative eigenvalue is treated as zero.
EIGENVALUE_NOISE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FourierBasis:
    """Eigenvalues and the eigenvectors of the whitened operator W^(1/2) L W^(-1/2).

    ``eigenvectors`` is the orthonormal matrix Q. With the weights it fixes
    both changes of basis: Q^T W^(1/2) takes canonical coefficients to Fourier
    ones and W^(-1/2) Q takes them back. The columns of W^(-1/2) Q are the
    eigenvectors of L, orthonormal for the inner product <x, y> = sum_i w_i x_i y_i.
    """

    dimension: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        w, d = self.weights, self.weights.size
        if w.ndim != 1 or d == 0 or not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise ValidationError("weights must be a non-empty vector, finite and > 0")
        if self.eigenvalues.shape != (d,) or self.eigenvectors.shape != (d, d):
            raise ValidationError(f"{d} weights need {d} eigenvalues and a {(d, d)} matrix, got "
                                  f"{self.eigenvalues.shape} and {self.eigenvectors.shape}")


def _signed_gram(index: np.ndarray, sign: np.ndarray, weight: np.ndarray, size: int) -> np.ndarray:
    """Dense sum over rows r of ``weight[r] * v_r v_r^T``.

    v_r is the (size,) vector with ``sign[r, p]`` (+-1) at ``index[r, p]`` and
    zeros elsewhere. The indices of a row are distinct and two rows share at
    most one pair of them, so each off-diagonal entry is one exact product.
    Each diagonal entry adds its weights up in row order.
    """
    gram = np.zeros((size, size))
    k = index.shape[1]
    p, q = np.nonzero(~np.eye(k, dtype=bool))
    gram[index[:, p], index[:, q]] = sign[:, p] * sign[:, q] * weight[:, None]
    diagonal = np.zeros(size)
    np.add.at(diagonal, index.ravel(), np.repeat(weight, k))
    gram[np.diag_indices(size)] = diagonal
    return gram


def _up_part(simplex: StructuralSimplex, n: int, d: int) -> np.ndarray:
    """``P_{n+1} W_{n+1}^{-1} P_{n+1}^T W_n``; zero for n = N."""
    if n == simplex.N:
        return np.zeros((d, d))
    # Rows: the (n+1)-simplices, listing their n-faces.
    faces = boundary_faces(simplex.N, n + 1)
    sign = np.broadcast_to(np.where(np.arange(n + 2) % 2, -1.0, 1.0), faces.shape)
    inv_up = 1.0 / simplex.weight_vector(n + 1)
    up = _signed_gram(faces[::-1], sign, inv_up[::-1], d)
    up *= simplex.weight_vector(n)[None, :]
    return up


def _down_part(simplex: StructuralSimplex, n: int, d: int) -> np.ndarray:
    """``W_n^{-1} P_n^T W_{n-1} P_n``; zero for n = 0."""
    if n == 0:
        return np.zeros((d, d))
    # Rows: the (n-1)-faces, listing the n-simplices that contain them.
    faces = boundary_faces(simplex.N, n)
    order = np.argsort(faces, axis=None, kind="stable")
    cofaces = (order // (n + 1)).reshape(-1, simplex.N + 1 - n)
    sign = np.where(order % (n + 1) % 2, -1.0, 1.0).reshape(cofaces.shape)
    down = _signed_gram(cofaces, sign, simplex.weight_vector(n - 1), d)
    down /= simplex.weight_vector(n)[:, None]
    return down


def laplacian(simplex: StructuralSimplex, n: int) -> np.ndarray:
    """Assemble the dense n-Laplace operator of a structural simplex.

    This is the self-adjoint assembly described in the module docstring. Both
    Gram products are scattered straight from the face arrays of
    ``boundary_faces``: two n-simplices share at most one face and two
    (n-1)-faces at most one coface. A diagonal entry of ``up`` adds its
    cofaces in descending rank order, one of ``down`` its faces in ascending
    order. Those are the orders of scipy's CSR products, so every entry equals
    the sparse products ``P diag(.) P^T`` bit for bit; the tests keep them as
    the reference.
    """
    N = simplex.N
    if not 0 <= n <= N:
        raise ValidationError(f"simplex dimension n={n} out of range [0, {N}]")
    d = check_dense_dimension(N, n)
    matrix = _up_part(simplex, n, d)
    matrix += _down_part(simplex, n, d)
    return matrix


def fourier_basis(simplex: StructuralSimplex, n: int) -> FourierBasis:
    """Diagonalize the n-Laplace operator of ``simplex`` into a w-orthonormal eigenbasis.

    The whitened matrix ``W^(1/2) L W^(-1/2)`` is symmetric, so a symmetric
    eigensolver applies; eigenvalues come out real and ascending, and the
    eigenvector sign is fixed so each one's first nonzero component in the
    canonical order is positive. ``basis_diagnostics`` measures the result.
    """
    sym = laplacian(simplex, n)
    w = simplex.weight_vector(n)
    root = np.sqrt(w)
    sym *= root[:, None]
    sym /= root[None, :]
    sym = sym + sym.T
    sym /= 2.0
    try:
        eigenvalues, Q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    del sym

    scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    floor = -EIGENVALUE_NOISE_TOLERANCE * scale
    if np.any(eigenvalues < floor):
        raise NumericalError(
            f"negative eigenvalue {eigenvalues.min():.3e} below the noise floor {floor:.3e}"
        )
    eigenvalues = np.where(eigenvalues < 0.0, 0.0, eigenvalues)

    # Flip each column of W^(-1/2) Q whose first entry above 1e-12 of its largest
    # magnitude is negative; root > 0 keeps signs, and negation is exact.
    magnitude = Q / root[:, None]
    np.abs(magnitude, out=magnitude)
    lead = np.argmax(magnitude > 1e-12 * magnitude.max(axis=0), axis=0)
    flip = Q[lead, np.arange(w.size)] < 0
    np.negative(Q, out=Q, where=flip[None, :])
    return FourierBasis(n, eigenvalues, Q, w)


def basis_diagnostics(simplex: StructuralSimplex, basis: FourierBasis) -> dict:
    """The four residuals of ``basis`` as an eigenbasis of the Laplacian of
    ``simplex``, and its ``kernel_dimension``.

    ``self_adjointness`` is the relative asymmetry of W L, zero for a
    self-adjoint L. With S = W^(1/2) L W^(-1/2), ``diagonalization`` is
    |S Q - Q diag(eigenvalues)| / |L| and ``orthonormality`` the largest
    entry of |Q^T Q - I|, which ``inversion`` repeats: the two changes of basis
    multiply to Q^T Q in exact arithmetic. Besides Q, only the operator buffer
    (L, then W L, then S) and one product buffer are alive.
    """
    Q, w = basis.eigenvectors, basis.weights
    operator = laplacian(simplex, basis.dimension)
    denom = max(float(np.linalg.norm(operator)), np.finfo(float).tiny)
    operator *= w[:, None]
    scale = np.linalg.norm(operator)
    rows = max(1, 2**16 // w.size)  # row blocks keep the asymmetry free of a d x d temporary
    asymmetry = np.linalg.norm([np.linalg.norm(operator[i:i + rows] - operator[:, i:i + rows].T)
                                for i in range(0, w.size, rows)])
    self_adjointness = float(asymmetry / scale) if scale else 0.0
    root = np.sqrt(w)
    operator /= root[:, None]
    operator /= root[None, :]

    product = np.matmul(operator, Q)
    product -= np.multiply(Q, basis.eigenvalues[None, :], out=operator)
    diagonalization = float(np.linalg.norm(product) / denom)
    np.matmul(Q.T, Q, out=product)
    product[np.diag_indices(w.size)] -= 1.0
    orthonormality = float(np.max(np.abs(product, out=product)))
    return {"self_adjointness": self_adjointness, "diagonalization": diagonalization,
            "orthonormality": orthonormality, "inversion": orthonormality,
            "kernel_dimension": kernel_dimension(basis.eigenvalues)}


def kernel_dimension(eigenvalues: np.ndarray) -> int:
    """Count the d eigenvalues at most ``d * eps * max(eigenvalues)``, the rule of
    ``np.linalg.matrix_rank``: they are the singular values of this PSD operator.
    On the full simplex the kernel is 0 for n >= 1 whatever the weights."""
    lam = np.asarray(eigenvalues, dtype=float)
    return int(np.count_nonzero(lam <= lam.size * np.finfo(float).eps * lam.max(initial=0.0)))
