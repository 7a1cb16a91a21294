"""Involutive interferometer transformations for the cube model.

Cubes without two-path coherence form a subspace of dimension
``d = N + (N-1)(N-2)`` spanned by the N diagonal path cubes, the
independent three-path coherence cubes and their conjugates.  A cube
multiport is a d x d matrix acting on coordinate vectors in that
sub-basis; the ones built here are self-adjoint involutions that map each
path cube onto a pure cube with *no* population in that path, the key
ingredient of a perfect interaction-free measurement.

The construction fixes the population block A and the coherence block B
from the required images of the path cubes.  B's rows are copies of the
distinct rows ``[conj(x); x] / (N-1)`` of one slice x of discrete Fourier
rows, whose entries are gathered from the table of the N roots of unity.
The closing block is ``D = sqrt(1 - B B+)``; since ``B B+`` has the
two-point spectrum {0, N(N-2)/(N-1)^2}, this root has the closed form
``D = 1 - ((N-1)/N) B B+`` with spectrum {1, 1/(N-1)}.  B's rows are DFT
rows over N - 1, so ``B B+ = N S / (N-1)^2``, S marking the pairs of rows
on one Fourier row mod N, and D is written exactly as ``1 - S / (N-1)``.
Every cell of the multiport is thus one entry of a small value table, from
which :func:`assemble_multiport` gathers the matrix (see :func:`_cell_table`).

A and B fix the whole multiport, and A and x fix B, so construction checks
two N x N identities on the slice: ``(N-1)^2 B+B = 2 copies Re(x+x) =
(N-2)(N id - ones)`` and ``x 1 = 0``.  They certify ``M M = id`` for ``D
= 1 - k B B+``, k = (N-1)/N (see :func:`_slice_blocks`); the written D
equals that block because B's rows are DFT rows, and the test suite pins
the two to within 1 eps.  :func:`verify_multiport` measures the residuals.

On root-of-unity conventions: the rows of the slice x use
``exp(+i 2 pi / N)`` while the optimal cubes (and hence the assembled
transformations) carry the conjugated phases, as B stacks copies of
``conj(x)``.  The three-path phases of
:func:`cubesim.cubes.nonquantum_cube`, and so of
:func:`cubesim.cubes.optimal_cubes`, are read from x.  Both choices
solve the same orthonormality equations; the conjugated one matches the
tabulated four-path cube family entry for entry.
"""

from __future__ import annotations

import functools
from dataclasses import astuple, dataclass

import numpy as np

from .tensor import (
    _CYCLES, DEFAULT_TOL, HermitianCube, _check_paths, _freeze, _roots, hermitian_complete
)

#: Tolerance of the multiport identities: the fixed construction check of
#: B+B and B 1 (entrywise) and the default pass threshold of the Frobenius
#: residuals that verify_multiport measures.  Looser than the entrywise
#: default because rounding in the matrix products grows with N.
MATRIX_TOL = 1e-9

_SQRT3 = np.sqrt(3.0)


def coherence_pairs(n_paths: int) -> list[tuple[int, int]]:
    """Ordered pairs (v, w) with 1 < v < w <= N, lexicographic."""
    return [
        (v, w)
        for v in range(2, n_paths + 1)
        for w in range(v + 1, n_paths + 1)
    ]


def _phase_slice(n_paths: int) -> tuple[np.ndarray, int]:
    """Distinct rows x of the phase matrix and the number of their copies:
    the Fourier rows q = 1..N-1, (N-2)/2 times, for even N, and q =
    1..(N-1)/2, N-2 times, for odd N.  Row q holds ``w^(q (n-1))`` in
    column n = 1..N, gathered from the N roots at ``q (n-1) mod N``."""
    _check_paths(n_paths, 3)
    if n_paths % 2 == 0:
        rows, copies = np.arange(1, n_paths), (n_paths - 2) // 2
    else:
        rows, copies = np.arange(1, (n_paths - 1) // 2 + 1), n_paths - 2
    return _roots(n_paths)[np.outer(rows, np.arange(n_paths)) % n_paths], copies


@functools.cache
def cell_masks(n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only masks of the N^3 cells outside the multiport domain: those
    with exactly two equal indices (two-path coherence), and those with
    three distinct indices none of which is path 1."""
    j, k, l = np.indices((n_paths,) * 3)
    equal_pairs = (j == k).astype(int) + (k == l) + (j == l)
    masks = (equal_pairs == 1, (equal_pairs == 0) & (j != 0) & (k != 0) & (l != 0))
    for mask in masks:
        mask.setflags(write=False)
    return masks


@dataclass(frozen=True, eq=False)
class SubBasis:
    """Ordered basis of the no-two-path-coherence subspace.

    The ordering is fixed and used everywhere a coordinate vector or an
    assembled matrix is serialized: first the N diagonal path cubes, then
    the coherence cubes for the pairs (v, w) in lexicographic order, then
    their conjugates in the same pair order.  The basis tensors are
    orthonormal under the cube inner product (conjugation on the first
    argument); note the coherence tensors are not individually Hermitian,
    so a coordinate vector represents a Hermitian cube only when its
    diagonal part is real and conjugate-paired coordinates are conjugate.

    Basis cube i holds ``1 / scale[i]`` (1 or 1/sqrt(3)) on the flat cells
    ``cells[i]``, the cyclic images of one index triple, so coordinates are
    an index gather and cubes a scatter; no dense tensors are stored.
    """

    n_paths: int
    labels: tuple[str, ...]
    cells: np.ndarray  # shape (d, 3), flat positions in the N^3 tensor
    scale: np.ndarray  # shape (d,)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def cubes(self) -> np.ndarray:
        """Dense (d, N, N, N) stack of the basis tensors, built on first
        access; O(N^5) in memory and kept as a reference for cross-checks."""
        stack = _scatter(np.eye(self.dim, dtype=complex), self)
        stack.setflags(write=False)
        return stack


def sub_basis(n_paths: int) -> SubBasis:
    """Basis cubes of the multiport subspace for an N-path interferometer."""
    _check_paths(n_paths, 3)
    n = n_paths
    labels = [f"path_{path}" for path in range(1, n + 1)]
    triples = [(path, path, path) for path in range(n)]
    for flipped in (False, True):
        for v, w in coherence_pairs(n):
            first, second = (w, v) if flipped else (v, w)
            labels.append(f"coherence_{first}_{second}")
            triples.append((0, first - 1, second - 1))
    # the cyclic images (j, k, l), (k, l, j), (l, j, k) of each support triple
    slots = np.array(triples).T
    cells = np.stack([np.ravel_multi_index(slots[list(c)], (n,) * 3) for c in _CYCLES], 1)
    scale = np.where(np.arange(len(labels)) < n, 1.0, _SQRT3)
    cells.setflags(write=False)
    scale.setflags(write=False)
    return SubBasis(n_paths, tuple(labels), cells, scale)


def _scatter(coords: np.ndarray, basis: SubBasis) -> np.ndarray:
    """Tensor entries, shape (..., N, N, N), of coordinate vectors (..., d)."""
    n = basis.n_paths
    flat = np.zeros(coords.shape[:-1] + (n**3,), dtype=complex)
    values = coords / basis.scale
    for shift in range(3):
        flat[..., basis.cells[:, shift]] = values
    return flat.reshape(coords.shape[:-1] + (n,) * 3)


def to_coords(cube: HermitianCube, basis: SubBasis) -> np.ndarray:
    """Coordinate vector of a cube in the sub-basis ordering.

    The cube must have no two-path coherence (apply the dephasing map
    first if it does) and no three-path coherence missing path 1; both
    conditions are checked at the fixed ``DEFAULT_TOL`` and violations
    raise.
    """
    if cube.n_paths != basis.n_paths:
        raise ValueError(
            f"path-count mismatch: cube has {cube.n_paths}, basis has {basis.n_paths}"
        )
    entries = cube.entries
    two_path, off_support = cell_masks(basis.n_paths)
    worst = float(np.abs(entries[two_path]).max(initial=0.0))
    if not worst <= DEFAULT_TOL:
        raise ValueError(
            f"cube has two-path coherence up to {worst:.3e} and lies outside "
            "the multiport domain; dephase first"
        )
    stray = float(np.abs(entries[off_support]).max(initial=0.0))
    if not stray <= DEFAULT_TOL:
        raise ValueError(
            f"cube lies outside the multiport subspace (three-path coherence "
            f"{stray:.3e} on a triple without path 1); only three-path "
            "coherences involving path 1 are supported"
        )
    return basis.scale * entries.reshape(-1)[basis.cells[:, 0]]


def from_coords(
    coords: np.ndarray,
    basis: SubBasis,
    *,
    is_state: bool = False,
) -> HermitianCube:
    """Cube with the given sub-basis coordinates.

    Raises when the coordinates violate the Hermiticity pairing
    constraint, since the resulting tensor would not be a valid cube.
    """
    coords = np.asarray(coords, dtype=complex)
    if coords.shape != (basis.dim,):
        raise ValueError(f"expected {basis.dim} coordinates, got shape {coords.shape}")
    entries = _scatter(coords, basis)
    return HermitianCube(basis.n_paths, entries, is_state=is_state)


def _matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``matrix @ vector`` as numpy's pairwise sums along contiguous rows.
    It calls no BLAS, so its bits do not depend on the BLAS thread count."""
    return (np.ascontiguousarray(matrix) * vector).sum(axis=1)


def _matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` column by column through :func:`_matvec`, with no BLAS."""
    x = np.ascontiguousarray(x)
    return np.stack([_matvec(x, column) for column in y.T], axis=1)


def _slice_blocks(n_paths: int) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Population block ``A = (ones - id) / (N - 1)``, phase slice x, copy
    count and the Gram ``G = B+B``.  B stacks the copies of ``conj(x) /
    (N - 1)`` over their conjugates, so ``G = s Re(x+x)`` with ``s = 2
    copies / (N-1)^2``, and ``B 1 = 0`` iff ``x 1 = 0``.

    Raises unless ``2 copies Re(x+x) = (N-2)(N id - ones)`` and ``x 1 = 0``
    hold entrywise within ``MATRIX_TOL``, checked in O(N^3) with no BLAS.
    With ``G0 = (N-2)(N id - ones) / (N-1)^2`` and ``k = (N-1)/N``,
    ``A^2 + G0 = id``, ``A + id - k G0 = (2/N) ones`` and ``(1 - 2k) id +
    k^2 G0 = -((N-2)/N^2) ones``, so ``B+B = G0`` and ``B 1 = 0`` make
    every block of ``M M - id`` vanish for ``M = [[A, B+], [B, id - k B
    B+]]``, whose closing block the assembled ``id - S / (N-1)`` equals.
    """
    n = n_paths
    x, copies = _phase_slice(n)
    target = (n - 2) * (n * np.eye(n) - np.ones((n, n)))
    overlap = _matmul(x.conj().T, x).real
    residual = np.abs(2 * copies * overlap - target).max()
    kernel = np.abs(x.sum(axis=1)).max()
    # written as ``not (residual <= MATRIX_TOL)`` so that a NaN fails
    if not (residual <= MATRIX_TOL and kernel <= MATRIX_TOL):
        raise ValueError(
            f"coherence block for N={n} breaks B+B = G0 or B 1 = 0 "
            f"(Gram residual {residual:.3e}, row-sum residual {kernel:.3e})"
        )
    gram = 2 * copies / (n - 1) ** 2 * overlap
    return (np.ones((n, n)) - np.eye(n)) / (n - 1), x, copies, gram


def _involution_columns(
    a: np.ndarray, x: np.ndarray, gram: np.ndarray, columns: slice | list[int] = slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Columns of ``A A + G - id`` and ``x (A + id - k G)``, ``k = (N-1)/N``,
    from the outputs of :func:`_slice_blocks`, with no BLAS call: the
    population block of ``M M - id`` and its coherence block ``B (A + id -
    k G)``, whose rows are the second's over N - 1 and their conjugates."""
    n = len(a)
    k, eye = (n - 1) / n, np.eye(n)[:, columns]
    a_cols, g_cols = a[:, columns], gram[:, columns]
    return _matmul(a, a_cols) + g_cols - eye, _matmul(x, a_cols + eye - k * g_cols)


@dataclass(frozen=True, eq=False)
class MultiportMatrix:
    """A d x d transformation in sub-basis coordinates; N fixes the basis.

    Block layout (in the fixed basis ordering): the N x N block A maps
    populations to populations, B maps populations to coherences, the
    top-right block is B's adjoint and D closes the coherence sector.
    Construction validates shapes only."""

    n_paths: int
    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=complex)
        d = self.basis.dim
        if arr.shape != (d, d):
            raise ValueError(f"expected a {d} x {d} matrix, got shape {arr.shape}")
        _freeze(self, "matrix", arr)

    @functools.cached_property
    def basis(self) -> SubBasis:
        """The sub-basis of the N-path multiport subspace, built once."""
        return sub_basis(self.n_paths)


def t3_matrix() -> MultiportMatrix:
    """The explicit three-path multiport, written out entry by entry.

    In the five-dimensional sub-basis it reads ``(1/2) [[0,1,1,1,1],
    [1,0,1,w*,w], [1,1,0,w,w*], [1,w,w*,1,0], [1,w*,w,0,1]]`` with
    ``w = exp(-i 2 pi / 3)``; a self-adjoint involution that exchanges the
    path-1 cube with the pure three-path-coherent cube.
    """
    w = np.exp(-2j * np.pi / 3)
    wc = np.conj(w)
    matrix = 0.5 * np.array(
        [
            [0, 1, 1, 1, 1],
            [1, 0, 1, wc, w],
            [1, 1, 0, w, wc],
            [1, w, wc, 1, 0],
            [1, wc, w, 0, 1],
        ],
        dtype=complex,
    )
    return MultiportMatrix(3, matrix)


def _cell_table(n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """The N-path multiport as a value table and a d x d array of codes
    into it, of the smallest unsigned type that indexes the table, so that
    the matrix is ``values[codes]``.

    The values are A's two, then the closing block's three, +0.0, -1/(N-1)
    and (N-2)/(N-1), then the cells of B's distinct rows ``[conj(x); x] /
    (N - 1)`` and of their conjugates.  B picks its rows from the first,
    and B+ its columns from the second.  ``k B B+ = S / (N - 1)``, S
    marking the pairs of B's rows on one Fourier row mod N (-q for
    ``conj(x)``'s row q, q for x's), so the closing block is
    ``id - S / (N - 1)``, with +0.0 off S."""
    n = n_paths
    a, x, copies, _ = _slice_blocks(n)
    rows = np.vstack([x.conj(), x]) / (n - 1)
    index = (np.tile(np.arange(len(x)), (2, copies)) + [[0], [len(x)]]).ravel()
    q = np.arange(1, len(x) + 1)
    fourier_row = np.concatenate([-q, q])[index] % n
    # codes 0-1: A's diagonal and off-diagonal; 2-4: D's 0, off-diagonal on S, diagonal
    fixed = [a[0, 0], a[0, 1], 0.0, -1 / (n - 1), (n - 2) / (n - 1)]
    values = np.concatenate([fixed, rows.ravel(), rows.conj().ravel()])
    d = n + len(index)
    codes = np.empty((d, d), dtype=np.min_scalar_type(len(values)))
    codes[:n, :n] = 1
    np.fill_diagonal(codes[:n, :n], 0)
    b = len(fixed) + n * index[:, None] + np.arange(n)
    codes[n:, :n] = b
    codes[:n, n:] = b.T + rows.size
    closing = codes[n:, n:]
    closing[...] = 2
    np.copyto(closing, 3, where=fourier_row[:, None] == fourier_row)
    np.fill_diagonal(closing, 4)
    return values, codes


def assemble_multiport(n_paths: int) -> MultiportMatrix:
    """Build the N-path cube multiport mapping path cube n to optimal cube n.

    The population block is ``(ones - id) / (N - 1)``; the coherence rows
    are the three-path coordinates of the optimal cubes; the top-right
    block is their adjoint; and the closing block ``sqrt(1 - B B+) = 1 -
    k B B+`` is exactly ``1 - S / (N-1)``.  Every cell is gathered from the
    value table of :func:`_cell_table`, which ``dump-matrix`` formats
    directly.  The matrix is self-adjoint by construction;
    :func:`_slice_blocks` checks ``B+B`` and ``B 1`` at ``MATRIX_TOL``,
    which certifies ``M M = id`` for ``D = 1 - k B B+``, and
    :func:`verify_multiport` measures the residuals of both identities.
    """
    values, codes = _cell_table(n_paths)
    matrix = values[codes]
    matrix.setflags(write=False)  # so that MultiportMatrix adopts it uncopied
    return MultiportMatrix(n_paths, matrix)


def apply_transform(t: MultiportMatrix, cube: HermitianCube) -> HermitianCube:
    """Act on a cube by matrix multiplication on its coordinate vector."""
    coords = to_coords(cube, t.basis)
    return from_coords(t.matrix @ coords, t.basis, is_state=cube.is_state)


@dataclass(frozen=True)
class MultiportReport:
    """Residuals of the defining multiport identities (all should be tiny).

    ``bb_spectrum_deviation`` measures how far the eigenvalues of the
    coherence Gram block stray from the two admissible values {0,
    N(N-2)/(N-1)^2}.
    """

    n_paths: int
    involution_residual: float
    diagonal_sum_drift: float
    bb_spectrum_deviation: float

    def worst(self) -> float:
        # numpy's max, unlike the builtin, propagates a NaN from any field
        return float(np.max(astuple(self)[1:]))

    def passes(self, tol: float = MATRIX_TOL) -> bool:
        return self.worst() <= tol


def _squared_norm(x: np.ndarray) -> float:
    return float((np.abs(x) ** 2).sum())  # np.linalg.norm would sum through BLAS


def verify_multiport(n_paths: int) -> MultiportReport:
    """Measure how well the N-path multiport satisfies its contract: the
    involution residual (Frobenius norm), the population sum, and the
    spectrum of ``B B+``.  Self-adjointness and the Hermiticity pairing hold
    by construction (A is real and symmetric, and B's halves are
    conjugate), and the closing block's spectrum follows from B's; the test
    oracle measures all three on the assembled matrix.

    Every residual is read from A, the phase slice x and the Gram
    ``G = B+B = s Re(x+x)``, ``s = 2 copies / (N-1)^2``, of
    :func:`_slice_blocks` (which may raise), with no d x d matrix, no
    stacked B and no BLAS product; the one LAPACK call is ``eigvalsh`` of
    G, so the bits do not depend on the BLAS thread count.  With ``k =
    (N-1)/N`` the blocks of ``M M - id``, for the multiport ``[[A, B+], [B,
    id - k B B+]]``, are the two of :func:`_involution_columns`, the adjoint
    of the second, and ``W B+`` with ``W = B ((1 - 2k) id + k^2 G)``, of
    squared norm ``tr(W+ W G)``; all are rounding-sized, so nothing
    cancels.  For real Y, ``|B Y|^2 = s |x Y|^2`` and ``(B Y)+ (B Y) = s
    Re((x Y)+ (x Y))``.  Given the pairing, M keeps the population sum iff
    A's column sums are 1 and B's row sums, those of ``x / (N-1)`` up to
    conjugation, 0.  The nonzero eigenvalues of ``B B+`` are those of G,
    and the closing block's are ``1 - k lambda`` over the same lambda.
    """
    n = n_paths
    a, x, copies, gram = _slice_blocks(n)
    eye, k, s = np.eye(n), (n - 1) / n, 2 * copies / (n - 1) ** 2
    populations, cross = _involution_columns(a, x, gram)
    w = _matmul(x, (1 - 2 * k) * eye + k**2 * gram)
    closing = s * float((_matmul(w.conj().T, w).real * gram.T).sum())
    involution = _squared_norm(populations) + 2 * s * _squared_norm(cross) + closing

    drift = max(np.abs(a.sum(axis=0) - 1).max(), np.abs((x / (n - 1)).sum(axis=1)).max())
    eigs = np.linalg.eigvalsh(gram)
    spectrum = np.minimum(np.abs(eigs), np.abs(eigs - n * (n - 2) / (n - 1) ** 2)).max()
    return MultiportReport(
        n_paths=n,
        involution_residual=float(np.sqrt(involution)),
        diagonal_sum_drift=float(drift),
        bb_spectrum_deviation=float(spectrum),
    )


# ---------------------------------------------------------------------------
# Tabulated four-path reference data.  The optimal four-path cubes are kept
# here as literal primary entries (diagonal populations plus the independent
# three-path coherences); the full tensors follow by Hermitian completion.
# They provide a construction-independent cross-check of cubes.optimal_cubes(4)
# and of the assembled transformation.

_N4_UNIT = 1.0 / (3.0 * _SQRT3)

#: Independent three-path phases of the four optimal cubes, one row per
#: coherence pair (2,3), (2,4), (3,4), one column per cube.
_N4_PHASES = np.array(
    [
        [1, -1j, -1, 1j],
        [1, -1, 1, -1],
        [1, 1j, -1, -1j],
    ],
    dtype=complex,
)


def reference_optimal_cubes_n4() -> list[HermitianCube]:
    """The tabulated four-path optimal cubes, entry for entry."""
    cubes = []
    for n in range(1, 5):
        canonical: dict[tuple[int, int, int], complex] = {
            (j, j, j): 1.0 / 3.0 for j in range(1, 5) if j != n
        }
        for row, (v, w) in enumerate(coherence_pairs(4)):
            canonical[(1, v, w)] = _N4_PHASES[row, n - 1] * _N4_UNIT
        cubes.append(hermitian_complete(canonical, 4, is_state=True))
    return cubes
