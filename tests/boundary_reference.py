"""The scipy boundary-matrix code that the face arrays replaced.

The library once built each signed boundary map as a scipy CSR matrix, took
the weighted adjoint from it and wrote the boundary CSV files from its COO
triplets. Those functions are kept here, unchanged, as references:
``boundary_faces``, ``laplacian`` and ``boundary_to_csv`` must give the same
matrices, entries and bytes.
"""

import functools

import numpy as np
import scipy.sparse as sp

from hyperharmonic import ValidationError, simplex_count
from hyperharmonic.jsonio import csv_writer
from hyperharmonic.simplices import boundary_faces, check_dense_dimension


@functools.lru_cache(maxsize=64)
def boundary_matrix(N: int, n: int):
    """Signed incidence matrix of the n-boundary map, as a read-only scipy CSR.

    Shape is C(N+1, n) x C(N+1, n+1): rows are (n-1)-simplices, columns are
    n-simplices, both in lexicographic order. Column j carries (-1)**i at row
    ``boundary_faces(N, n)[j, i]``. For n = 0 the map is the 1 x (N+1) zero
    matrix.
    """
    if not 0 <= n <= N:
        raise ValidationError(f"simplex dimension n={n} out of range [0, {N}]")
    cols = simplex_count(N, n)
    if n == 0:
        return _read_only_csr(sp.csr_matrix((1, cols)))
    faces = boundary_faces(N, n)
    signs = np.tile(np.where(np.arange(n + 1) % 2, -1.0, 1.0), cols)
    coo = sp.coo_matrix(
        (signs, (faces.ravel(), np.repeat(np.arange(cols), n + 1))),
        shape=(simplex_count(N, n - 1), cols),
    )
    return _read_only_csr(coo.tocsr())


def _read_only_csr(matrix):
    for array in (matrix.data, matrix.indices, matrix.indptr):
        array.flags.writeable = False
    return matrix


def boundary_to_csv(path, matrix) -> None:
    """Dump a boundary matrix as (row, col, value) triplets."""
    coo = matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with csv_writer(path) as writer:
        writer.writerow(["row", "col", "value"])
        for k in order:
            writer.writerow([int(coo.row[k]), int(coo.col[k]), int(coo.data[k])])


def adjoint_matrix(simplex, n: int) -> np.ndarray:
    """Matrix of the weighted adjoint of the (n+1)-boundary, mapping n-signals up.

    Equals ``W_{n+1}^{-1} P_{n+1}^T W_n`` and satisfies
    <P_{n+1} a, b>_{w_n} = <a, adjoint b>_{w_{n+1}} for all vectors a, b.
    """
    if not 0 <= n < simplex.N:
        raise ValidationError(f"adjoint needs 0 <= n < N, got n={n}, N={simplex.N}")
    check_dense_dimension(simplex.N, n + 1)
    P = boundary_matrix(simplex.N, n + 1)
    w_n = simplex.weight_vector(n)
    w_up = simplex.weight_vector(n + 1)
    return (P.T.toarray() * w_n[None, :]) / w_up[:, None]
