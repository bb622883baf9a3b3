"""Combinatorics of the standard simplex on N+1 vertices.

A simplex is a strictly increasing sequence of vertex indices; an n-simplex
has n+1 vertices. All vector and matrix representations use the lexicographic
order of these sequences. ``enumerate_simplices`` holds that order as one
cached array per dimension and defines the canonical basis shared by every
other module; ``simplex_rank`` and ``simplex_ranks`` are its inverse.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CapacityError, ValidationError
from .jsonio import csv_writer

Simplex = tuple[int, ...]

# Largest supported N; weight tables hold 2^(N+1) - 1 entries in total.
MAX_N = 16

# Dense eigendecomposition cap; larger dimensions fail fast instead of thrashing.
DENSE_DIMENSION_CAP = 5000

WEIGHT_FLOOR = 1e-9


def simplex_count(num_vertices_minus_one: int, n: int) -> int:
    """Number of n-simplices of the standard simplex, C(N+1, n+1)."""
    return math.comb(num_vertices_minus_one + 1, n + 1)


def _check_dimensions(N: int, n: int) -> None:
    if N < 0:
        raise ValidationError(f"vertex count must be positive, got N={N}")
    if not 0 <= n <= N:
        raise ValidationError(f"simplex dimension n={n} out of range [0, {N}]")


@functools.lru_cache(maxsize=64)
def enumerate_simplices(N: int, n: int) -> np.ndarray:
    """All sorted (n+1)-subsets of {0, ..., N} in lexicographic order, one per row.

    A read-only (C(N+1, n+1), n+1) int64 array, built once per (N, n) and shared."""
    _check_dimensions(N, n)
    flat = itertools.chain.from_iterable(itertools.combinations(range(N + 1), n + 1))
    simplices = np.fromiter(flat, dtype=np.int64).reshape(-1, n + 1)
    simplices.flags.writeable = False
    return simplices


def validate_simplex(simplex: Simplex, N: int) -> Simplex:
    """The simplex as a tuple; ValidationError unless non-empty, increasing, in [0, N]."""
    s = tuple(int(v) for v in simplex)
    if not s:
        raise ValidationError("a simplex needs at least one vertex")
    if any(b <= a for a, b in zip(s, s[1:])):
        raise ValidationError(f"vertices must be strictly increasing, got {s}")
    if s[0] < 0 or s[-1] > N:
        raise ValidationError(f"vertex out of range [0, {N}] in {s}")
    return s


def simplex_rank(simplex: Simplex, N: int) -> int:
    """Position of a simplex in the lexicographic enumeration of its dimension."""
    s = validate_simplex(simplex, N)
    return int(simplex_ranks(np.array([s]), N)[0])


def simplex_ranks(simplices, N: int) -> np.ndarray:
    """``simplex_rank`` of each row of an (m, k) array of sorted simplices.

    Uses the combinatorial number system: with n = N + 1 vertices, the
    lexicographic rank of c_0 < ... < c_{k-1} is
    C(n, k) - 1 - sum_i C(n - 1 - c_i, k - i). Rows are not validated.
    """
    s = np.asarray(simplices, dtype=np.int64)
    k = s.shape[1]
    binomials = _binomial_table(N + 1, k)
    return math.comb(N + 1, k) - 1 - binomials[N - s, np.arange(k, 0, -1)].sum(axis=1)


@functools.cache
def _binomial_table(n: int, k: int) -> np.ndarray:
    """Read-only table of C(a, b) for 0 <= a < n, 0 <= b <= k.

    Holds Python integers once a coefficient no longer fits in int64, so
    ranks stay exact for any N.
    """
    rows = [[math.comb(a, b) for b in range(k + 1)] for a in range(n)]
    largest = max(math.comb(n, k), *map(max, rows))
    dtype = np.int64 if largest <= np.iinfo(np.int64).max else object
    table = np.array(rows, dtype=dtype)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def boundary_faces(N: int, n: int) -> np.ndarray:
    """Ranks of the faces of every n-simplex, for 1 <= n <= N.

    Row j lists the faces of n-simplex j as (n-1)-simplex ranks: column i is
    the face that drops vertex i, which enters the boundary with sign (-1)**i.
    Dropping an earlier vertex gives a later face, so each row is strictly
    decreasing. The array depends only on (N, n), so it is built once per pair
    and shared by every caller; it is read-only so that no caller can alter it.
    """
    _check_dimensions(N, n)
    if n == 0:
        raise ValidationError("a vertex has no faces: the 0-boundary map is zero")
    cofaces = enumerate_simplices(N, n)
    faces = np.stack(
        [simplex_ranks(np.delete(cofaces, i, axis=1), N) for i in range(n + 1)], axis=1
    ).astype(np.int64)
    faces.flags.writeable = False
    return faces


def boundary_to_csv(path, N: int, n: int) -> None:
    """Write the n-boundary map as (row, col, value) triplets, by row then column.

    Rows are the face ranks of ``boundary_faces``, columns the n-simplex ranks
    and values the signs (-1)**i. For n = 0 the map is zero: the header only.
    """
    _check_dimensions(N, n)
    with csv_writer(path) as writer:
        writer.writerow(["row", "col", "value"])
        if n > 0:
            faces = boundary_faces(N, n)
            rows = faces.ravel()
            cols = np.repeat(np.arange(len(faces)), n + 1)
            signs = np.tile(np.where(np.arange(n + 1) % 2, -1, 1), len(faces))
            order = np.lexsort((cols, rows))
            writer.writerows(np.stack((rows, cols, signs), axis=1)[order].tolist())


class WeightAggregator(Enum):
    """Rule that propagates pairwise edge values to higher simplices."""

    MEAN = "mean"
    MAX = "max"
    MIN = "min"


@dataclass(frozen=True)
class StructuralSimplex:
    """The standard simplex with one positive weight per simplex.

    ``weights[n]`` is the weight vector of the n-simplices in canonical
    order, length C(N+1, n+1).
    """

    N: int
    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.N < 0 or len(self.weights) != self.N + 1:
            raise ValidationError(f"need N >= 0 and N + 1 weight vectors, got N = {self.N} "
                                  f"and {len(self.weights)} vectors")
        converted = []
        for n, w in enumerate(self.weights):
            w = np.asarray(w, dtype=float)
            expected = simplex_count(self.N, n)
            if w.shape != (expected,):
                raise ValidationError(
                    f"dimension {n}: expected {expected} weights, got shape {w.shape}"
                )
            if not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValidationError(f"dimension {n}: weights must be finite and > 0")
            converted.append(w)
        object.__setattr__(self, "weights", tuple(converted))

    def weight_vector(self, n: int) -> np.ndarray:
        _check_dimensions(self.N, n)
        return self.weights[n]


def check_vertex_count(N: int) -> None:
    """CapacityError when a simplex on N + 1 vertices exceeds the cap ``MAX_N``."""
    if N > MAX_N:
        raise CapacityError(f"N={N} exceeds the cap of {MAX_N}")


def check_dense_dimension(N: int, n: int) -> int:
    """Number of n-simplices on N + 1 vertices; CapacityError above the dense cap."""
    d = simplex_count(N, n)
    if d > DENSE_DIMENSION_CAP:
        raise CapacityError(f"dimension n={n} has {d} simplices, above the dense cap "
                            f"{DENSE_DIMENSION_CAP}")
    return d


def resolved_dimensions(dimensions, N: int) -> tuple[int, ...]:
    """The signal dimensions analysed on N + 1 vertices, N <= ``MAX_N``: ``dimensions``,
    each in [2, N], none repeated and none over the dense cap, or 2..min(5, N)."""
    check_vertex_count(N)
    dims = tuple(int(n) for n in dimensions) or tuple(range(2, min(5, N) + 1))
    if not dims:
        raise ValidationError(f"no analyzable dimensions: need at least 3 variables, got {N + 1}")
    bad = [n for n in dims if not 2 <= n <= N]
    if bad:
        raise ValidationError(f"dimensions {bad} outside [2, {N}]")
    if len(set(dims)) < len(dims):
        raise ValidationError(f"dimensions must not repeat a value, got {dims}")
    for n in dims:
        check_dense_dimension(N, n)
    return dims


def structural_weights(
    mi_matrix: np.ndarray,
    aggregator: WeightAggregator = WeightAggregator.MEAN,
) -> StructuralSimplex:
    """Build a structural simplex from a symmetric pairwise-similarity matrix.

    Vertices get weight 1. An edge [i, j] gets ``max(mi_matrix[i, j], WEIGHT_FLOOR)``.
    A higher simplex gets the aggregate (mean, max or min) of the raw pairwise
    values of all its vertex pairs, floored the same way. The floor keeps every
    weight strictly positive so the diagonal weight matrices stay invertible.
    """
    mi = np.asarray(mi_matrix, dtype=float)
    if mi.ndim != 2 or mi.shape[0] != mi.shape[1]:
        raise ValidationError(f"similarity matrix must be square, got shape {mi.shape}")
    if mi.shape[0] < 2:
        raise ValidationError("need at least two variables")
    if not np.allclose(mi, mi.T, atol=1e-10, rtol=0.0):
        raise ValidationError("similarity matrix must be symmetric")
    off_diag = mi[~np.eye(mi.shape[0], dtype=bool)]
    if np.any(off_diag < 0) or not np.all(np.isfinite(off_diag)):
        raise ValidationError("similarity matrix entries must be finite and >= 0")
    N = mi.shape[0] - 1
    check_vertex_count(N)

    aggregator = WeightAggregator(aggregator)
    weights: list[np.ndarray] = [np.ones(N + 1)]
    for n in range(1, N + 1):
        rows = enumerate_simplices(N, n)
        a, b = np.triu_indices(n + 1, 1)  # vertex pairs, in itertools.combinations order
        pairs = mi[rows[:, a], rows[:, b]]
        if aggregator is WeightAggregator.MEAN:
            # Column by column from zero, as Python's sum(vals) / len(vals).
            values = functools.reduce(np.add, pairs.T, np.zeros(len(rows))) / len(a)
        elif aggregator is WeightAggregator.MAX:
            values = pairs.max(axis=1)
        else:
            values = pairs.min(axis=1)
        weights.append(np.maximum(values, WEIGHT_FLOOR))
    return StructuralSimplex(N=N, weights=tuple(weights))
