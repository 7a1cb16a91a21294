"""Cube families, path measurements and the cube-model state update.

Quantum cubes embed density matrices into the cube space with no
three-path coherence and reproduce all quantum statistics.  Nonquantum
cubes extend a quantum state with unimodular three-path phases to path 1,
redistributing the populations.  Measuring a path either collapses the
cube onto the corresponding path cube (found) or erases every entry
carrying that path's index and renormalizes (not found).
"""

from __future__ import annotations

import numpy as np

from .multiport import _SQRT3, _slice_blocks, cell_masks, coherence_pairs
from .quantum import DensityMatrix
from .tensor import (
    DEFAULT_TOL,
    HermitianCube,
    _check_index,
    _check_paths,
    _not_found,
    hermitian_complete,
)

_RE_WEIGHT = np.sqrt(2.0 / 3.0)


def basis_cube(n_paths: int, path: int) -> HermitianCube:
    """Path cube M with a single unit entry at (path, path, path).

    Serves both as the state of a particle definitely in the path and as
    the effect answering "is the particle in this path?".
    """
    _check_index(path, n_paths)
    return hermitian_complete({(path, path, path): 1.0}, n_paths, is_state=True)


def _two_path_embedding(rho: DensityMatrix, diagonal: np.ndarray, scale: float = 1.0) -> dict:
    """Canonical entries: ``diagonal`` on each (j, j, j) and, for j < k, the
    real and imaginary parts of rho[j,k] times ``sqrt(2/3) * scale`` on
    (j, j, k) and (j, k, k)."""
    weight = _RE_WEIGHT * scale
    canonical = {}
    for j in range(1, rho.n_paths + 1):
        canonical[(j, j, j)] = diagonal[j - 1]
        for k in range(j + 1, rho.n_paths + 1):
            canonical[(j, j, k)] = weight * rho.entries[j - 1, k - 1].real
            canonical[(j, k, k)] = weight * rho.entries[j - 1, k - 1].imag
    return canonical


def quantum_to_cube(rho: DensityMatrix) -> HermitianCube:
    """Embed a density matrix as a cube with no three-path coherence.

    Populations map to the diagonal, and for j < k the real and imaginary
    parts of rho[j,k] map (with weight sqrt(2/3)) to the two independent
    two-path entries.  The embedding preserves inner products:
    (cube(rho), cube(sigma)) = Tr(rho sigma).
    """
    canonical = _two_path_embedding(rho, rho.entries.diagonal().real)
    return hermitian_complete(canonical, rho.n_paths, is_state=True)


def nonquantum_cube(rho: DensityMatrix, gamma: int) -> HermitianCube:
    """Cube with genuine three-path coherence built from a quantum state.

    The diagonal is the complement distribution ``(1 - rho[j,j]) / (N-1)``,
    two-path entries carry the (rescaled) coherences of rho, and every
    triple (1, j, k) with 1 < j < k receives the entry for the pair (j, k)
    in column ``gamma`` of the multiport's coherence block B, over sqrt(3):
    the unimodular phase of optimal cube ``gamma`` over ``sqrt(3) (N-1)``.
    Three-path entries not involving path 1 stay zero.
    ``gamma`` in 1..N enumerates the family, so that
    ``nonquantum_cube(path_state(N, n), gamma=n)`` is optimal cube n.
    """
    n = rho.n_paths
    _check_paths(n, 3)  # no three-path slot exists for N = 2
    _check_index(gamma, n, "gamma")
    _, x, copies, _ = _slice_blocks(n)
    scale = 1.0 / (n - 1)
    diagonal = scale * (1.0 - rho.entries.diagonal().real)
    canonical = _two_path_embedding(rho, diagonal, scale)
    # B's first rows, the copies of conj(x), follow the pairs in order
    column = np.tile(np.conj(x[:, gamma - 1]), copies) / (n - 1)
    for (j, k), value in zip(coherence_pairs(n), column):
        canonical[(1, j, k)] = value / _SQRT3
    return hermitian_complete(canonical, n, is_state=True)


def optimal_cubes(n_paths: int) -> list[HermitianCube]:
    """The N orthonormal pure cubes targeted by the multiport: cube n is
    ``nonquantum_cube(path_state(N, n), n)``, with population 1/(N-1) off
    path n, no two-path coherence and the three-path phases of column n of
    ``conj(x)``, the conjugate of the phase slice of
    :func:`cubesim.multiport._slice_blocks`."""
    _check_paths(n_paths, 3)
    paths = range(1, n_paths + 1)
    return [nonquantum_cube(DensityMatrix.path_state(n_paths, n), n) for n in paths]


def measure_path_prob(cube: HermitianCube, path: int) -> float:
    """Probability that a particle described by the cube is found in ``path``.

    Equals the inner product with the path cube, i.e. the real part of the
    diagonal entry C[path, path, path], which is read directly; clamped to
    [0, 1] after a range check.  Construction already bounds the imaginary
    part of a diagonal entry by ``DEFAULT_TOL / 2``.
    """
    _require_state(cube, "path probabilities are")
    _check_index(path, cube.n_paths)
    return _probability(float(cube.entries[(path - 1,) * 3].real))


def _require_state(cube: HermitianCube, what: str) -> None:
    """Raise unless ``cube`` is a state cube; ``what`` names the operation
    and its verb, as in ``"dephasing is"``."""
    if not cube.is_state:
        raise ValueError(f"{what} defined for state cubes only")


def _probability(p: float) -> float:
    """A path population clamped to [0, 1], after a range check at
    ``DEFAULT_TOL``."""
    if not -DEFAULT_TOL <= p <= 1.0 + DEFAULT_TOL:
        raise ValueError(f"invalid state cube: path probability {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def luders_update_cube(cube: HermitianCube, path: int, found: bool) -> HermitianCube:
    """State update after measuring whether the particle is in ``path``.

    Found: the cube collapses to the path cube, discarding all prior
    information.  Not found: every entry carrying the path's index is
    erased and the remainder is renormalized by one minus the path
    population; conditioning on an impossible not-found outcome (path
    population at least ``1 - DEFAULT_TOL``) raises.
    """
    _require_state(cube, "the measurement update is")
    _check_index(path, cube.n_paths)
    if found:
        return basis_cube(cube.n_paths, path)
    weight = _not_found(float(cube.entries[path - 1, path - 1, path - 1].real))
    entries = np.array(cube.entries)
    entries[path - 1, :, :] = 0.0
    entries[:, path - 1, :] = 0.0
    entries[:, :, path - 1] = 0.0
    return HermitianCube(cube.n_paths, entries / weight, is_state=True)


def dephase(cube: HermitianCube) -> HermitianCube:
    """Remove all two-path coherences, keeping populations and three-path terms.

    Zeroes every entry whose index triple has exactly two equal indices.
    Idempotent, and maps any state cube into the multiport domain.
    """
    _require_state(cube, "dephasing is")
    two_path, _ = cell_masks(cube.n_paths)
    entries = np.where(two_path, 0.0, cube.entries)
    return HermitianCube(cube.n_paths, entries, is_state=True)
