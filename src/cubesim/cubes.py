"""Cube families, path measurements and the cube-model state update.

Quantum cubes embed density matrices into the cube space with no
three-path coherence and reproduce all quantum statistics.  Nonquantum
cubes extend a quantum state with unimodular three-path phases to path 1,
redistributing the populations.  Measuring a path either collapses the
cube onto the corresponding path cube (found) or erases every entry
carrying that path's index and renormalizes (not found).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .multiport import cell_masks, coherence_pairs, fourier_row_exponents
from .quantum import DensityMatrix
from .tensor import DEFAULT_TOL, HermitianCube, cube_inner, hermitian_complete

#: Assigns the root-of-unity exponent f(gamma, j, k) in {1..N} to the
#: three-path coherence of a nonquantum cube, for 1 < j < k <= N.
PhaseFunction = Callable[[int, int, int], int]

_RE_WEIGHT = np.sqrt(2.0 / 3.0)


def basis_cube(n_paths: int, path: int) -> HermitianCube:
    """Path cube M with a single unit entry at (path, path, path).

    Serves both as the state of a particle definitely in the path and as
    the effect answering "is the particle in this path?".
    """
    if not 1 <= path <= n_paths:
        raise ValueError(f"path {path} out of range 1..{n_paths}")
    return hermitian_complete({(path, path, path): 1.0}, n_paths, is_state=True)


def basis_cubes(n_paths: int) -> list[HermitianCube]:
    """All N path cubes, mutually orthonormal under the cube inner product."""
    return [basis_cube(n_paths, path) for path in range(1, n_paths + 1)]


def quantum_to_cube(rho: DensityMatrix) -> HermitianCube:
    """Embed a density matrix as a cube with no three-path coherence.

    Populations map to the diagonal, and for j < k the real and imaginary
    parts of rho[j,k] map (with weight sqrt(2/3)) to the two independent
    two-path entries.  The embedding preserves inner products:
    (cube(rho), cube(sigma)) = Tr(rho sigma).
    """
    canonical: dict[tuple[int, int, int], complex] = {}
    entries = rho.entries
    for j in range(1, rho.n_paths + 1):
        canonical[(j, j, j)] = entries[j - 1, j - 1].real
        for k in range(j + 1, rho.n_paths + 1):
            canonical[(j, j, k)] = _RE_WEIGHT * entries[j - 1, k - 1].real
            canonical[(j, k, k)] = _RE_WEIGHT * entries[j - 1, k - 1].imag
    return hermitian_complete(canonical, rho.n_paths, is_state=True)


def default_phase_function(n_paths: int) -> PhaseFunction:
    """Exponent assignment whose cubes are the optimal multiport targets.

    With the stacked-Fourier row q for the pair (j, k), the exponent is
    ``q (gamma - 1) mod N`` (with 0 mapped to N), so that
    ``nonquantum_cube(path_state(N, n), gamma=n)`` equals
    ``optimal_cubes(N)[n - 1]`` entry for entry.
    """
    rows = {
        pair: q
        for pair, q in zip(coherence_pairs(n_paths), fourier_row_exponents(n_paths))
    }

    def phase(gamma: int, j: int, k: int) -> int:
        if not 1 <= gamma <= n_paths:
            raise ValueError(f"gamma {gamma} out of range 1..{n_paths}")
        exponent = (rows[(j, k)] * (gamma - 1)) % n_paths
        return exponent if exponent else n_paths

    return phase


def nonquantum_cube(
    rho: DensityMatrix,
    gamma: int,
    phases: PhaseFunction | None = None,
) -> HermitianCube:
    """Cube with genuine three-path coherence built from a quantum state.

    The diagonal is the complement distribution ``(1 - rho[j,j]) / (N-1)``,
    two-path entries carry the (rescaled) coherences of rho, and every
    triple (1, j, k) with 1 < j < k receives the unimodular phase
    ``w^f(gamma, j, k) / (sqrt(3) (N-1))`` with ``w = exp(-i 2 pi / N)``.
    Three-path entries not involving path 1 stay zero.  ``gamma`` in 1..N
    enumerates the family; ``phases`` defaults to
    :func:`default_phase_function`.
    """
    n = rho.n_paths
    if n < 3:
        raise ValueError(
            f"nonquantum cubes need at least 3 paths (no three-path slot exists "
            f"for N={n})"
        )
    if phases is None:
        phases = default_phase_function(n)
    omega = np.exp(-2j * np.pi / n)
    scale = 1.0 / (n - 1)
    canonical: dict[tuple[int, int, int], complex] = {}
    entries = rho.entries
    for j in range(1, n + 1):
        canonical[(j, j, j)] = scale * (1.0 - entries[j - 1, j - 1].real)
        for k in range(j + 1, n + 1):
            canonical[(j, j, k)] = _RE_WEIGHT * scale * entries[j - 1, k - 1].real
            canonical[(j, k, k)] = _RE_WEIGHT * scale * entries[j - 1, k - 1].imag
    for j, k in coherence_pairs(n):
        canonical[(1, j, k)] = omega ** phases(gamma, j, k) * scale / np.sqrt(3.0)
    return hermitian_complete(canonical, n, is_state=True)


def measure_path_prob(cube: HermitianCube, path: int, tol: float = DEFAULT_TOL) -> float:
    """Probability that a particle described by the cube is found in ``path``.

    Equals the inner product with the path cube, i.e. the diagonal entry
    C[path, path, path]; clamped to [0, 1] after a sanity check.
    """
    if not cube.is_state:
        raise ValueError("path probabilities are defined for state cubes only")
    p = cube_inner(basis_cube(cube.n_paths, path), cube, tol=tol)
    if p < -tol or p > 1.0 + tol:
        raise ValueError(f"invalid state cube: path probability {p} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def luders_update_cube(
    cube: HermitianCube, path: int, found: bool, tol: float = DEFAULT_TOL
) -> HermitianCube:
    """State update after measuring whether the particle is in ``path``.

    Found: the cube collapses to the path cube, discarding all prior
    information.  Not found: every entry carrying the path's index is
    erased and the remainder is renormalized by one minus the path
    population; conditioning on an impossible not-found outcome raises.
    """
    if not cube.is_state:
        raise ValueError("the measurement update is defined for state cubes only")
    if not 1 <= path <= cube.n_paths:
        raise ValueError(f"path {path} out of range 1..{cube.n_paths}")
    if found:
        return basis_cube(cube.n_paths, path)
    p = float(cube.entries[path - 1, path - 1, path - 1].real)
    if p >= 1.0 - tol:
        raise ValueError(
            "conditioning on a zero-probability event: the particle is certainly "
            "in the measured path"
        )
    entries = np.array(cube.entries)
    entries[path - 1, :, :] = 0.0
    entries[:, path - 1, :] = 0.0
    entries[:, :, path - 1] = 0.0
    return HermitianCube(cube.n_paths, entries / (1.0 - p), is_state=True)


def dephase(cube: HermitianCube) -> HermitianCube:
    """Remove all two-path coherences, keeping populations and three-path terms.

    Zeroes every entry whose index triple has exactly two equal indices.
    Idempotent, and maps any state cube into the multiport domain.
    """
    if not cube.is_state:
        raise ValueError("dephasing is defined for state cubes only")
    two_path, _ = cell_masks(cube.n_paths)
    entries = np.where(two_path, 0.0, cube.entries)
    return HermitianCube(cube.n_paths, entries, is_state=True)
