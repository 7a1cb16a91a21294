"""End-to-end interferometer experiments and interference-order analysis.

All pipelines are deterministic probability computations; the optional
click sampler exists for demonstration output only and requires an
explicit seed.
"""

from __future__ import annotations

import math

import numpy as np

from .cubes import _probability
from .multiport import _SQRT3, MultiportMatrix, _involution_columns, _slice_blocks, to_coords
from .quantum import UnitaryMatrix, fourier_unitary, inject_first_path, quantum_ifm
from .results import IFMResult, _csv
from .tensor import DEFAULT_TOL, HermitianCube, _check_index, _check_paths, _not_found


def cube_tradeoff_bound(p_trigger: float, n_paths: int) -> float:
    """Cube-model lower bound ``(1 - P)^2 / (N - 1)`` on the inconclusive
    probability.  For N = 2 it coincides with the quantum pure-state bound."""
    if not 0.0 <= p_trigger <= 1.0:
        raise ValueError(f"p_trigger must lie in [0, 1], got {p_trigger}")
    _check_paths(n_paths, 2)
    return (1.0 - p_trigger) ** 2 / (n_paths - 1)


def run_cube_ifm(n_paths: int, tol: float = DEFAULT_TOL) -> IFMResult:
    """Perfect interaction-free measurement in the cube model.

    Pipeline: inject the particle into path 1, apply the assembled
    multiport, read the bomb-path population, apply the not-found update,
    apply the multiport again and read the population of port 1 -- the
    only port the particle can reach with no bomb present, which is
    asserted at runtime by checking that the no-bomb output cube is the
    path-1 cube to within ``tol``, the only comparison ``tol`` sets.

    Every step reads the outputs of :func:`_slice_blocks`, in O(N^2)
    memory with no BLAS call; no stacked B, no d x d matrix and no cube is
    built.  Path cube 1 has coordinates e_1, so the inside cube is column
    1, ``(a_1, B e_1)``, of ``[A; B]`` and the no-bomb gap is the largest
    entry of column 1 of ``M M - id``, read from
    :func:`_involution_columns`; a coherence coordinate counts sqrt(3)
    times its cube entries.  Every coherence cube of the sub-basis
    involves path 1, so the not-found update keeps populations 2..N and
    renormalizes them, and P_? is A's row 1 times them, summed by
    ``math.fsum`` with one rounding.
    """
    n = n_paths
    a, x, _, gram = _slice_blocks(n)
    populations, coherences = _involution_columns(a, x, gram, [0])
    gap = float(max(np.abs(populations).max(), np.abs(coherences / (n - 1)).max() / _SQRT3))
    if not gap <= tol:
        raise ValueError(
            f"no-bomb output deviates from the injected path cube by {gap:.3e}; "
            "the single-port readout assumption does not hold"
        )

    bomb_population = float(a[0, 0])
    p_trigger = _probability(bomb_population)
    updated = a[1:, 0] / _not_found(bomb_population)
    p_inconclusive = (1.0 - p_trigger) * _probability(math.fsum(a[0, 1:] * updated))
    p_success = 1.0 - p_trigger - p_inconclusive

    return IFMResult(
        model="cube",
        n_paths=n_paths,
        p_trigger=p_trigger,
        p_inconclusive=p_inconclusive,
        p_success=p_success,
        bound_value=cube_tradeoff_bound(p_trigger, n_paths),
        label=f"cube_multiport_{n_paths}",
    )


def fourier_preset(n_paths: int) -> IFMResult:
    """Quantum run of the N-path Fourier interferometer: the Fourier transform
    in, the bomb in path 1, the inverse transform out.  Presets exist for
    N = 2..8."""
    if not 2 <= n_paths <= 8:
        raise ValueError(f"no quantum preset for N={n_paths}; available N: 2..8")
    f = fourier_unitary(n_paths)
    inverse = UnitaryMatrix(n_paths, f.entries.conj().T)
    return quantum_ifm(inject_first_path(f), inverse, bomb_path=1, label=f"fourier_{n_paths}")


def run_quantum_presets() -> list[IFMResult]:
    """Reference quantum runs: the two-path bomb tester and Fourier
    interferometers for N = 2..8, each with its trade-off bound attached."""
    beam_splitter = fourier_unitary(2)
    bomb_tester = quantum_ifm(
        inject_first_path(beam_splitter),
        beam_splitter,
        bomb_path=1,
        label="elitzur_vaidman",
    )
    return [bomb_tester] + [fourier_preset(n) for n in range(2, 9)]


def region_scan(
    n_list: list[int], grid_points: int
) -> list[tuple[int, float, float]]:
    """Trade-off region boundaries on a uniform trigger-probability grid.

    One row (n, p_trigger, bound) per path count and grid node.  The n = 2
    rows reproduce the quantum pure-state curve, and for fixed trigger
    probability the bound decreases with n (nested regions).
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be at least 2, got {grid_points}")
    grid = np.linspace(0.0, 1.0, grid_points)
    rows = []
    for n in n_list:
        for p in grid:
            rows.append((n, float(p), cube_tradeoff_bound(float(p), n)))
    return rows


REGION_CSV_HEADER = "n_paths,p_trigger,bound"


def region_scan_csv(rows: list[tuple[int, float, float]]) -> str:
    return _csv(REGION_CSV_HEADER, rows)


def sorkin_term(cube: HermitianCube, t2: MultiportMatrix, port: int) -> float:
    """Third-order interference term at an output port of a 3-path setup.

    Sorkin's term is ``I_123 - I_12 - I_13 - I_23 + I_1 + I_2 + I_3``,
    where I_S is the intensity at ``port`` of the cube truncated to the
    paths in S (entries with an index outside S zeroed, no
    renormalization) and propagated through ``t2``.  It vanishes for every
    quantum cube and is nonzero with genuine three-path coherence.  I_S
    sums ``t2[port, i] * c_i`` over the basis cubes i supported inside S,
    so the term weights c_i by the sum of ``(-1)^(3 - |S|)`` over the S
    containing cube i's support: 1 for the two coherence cubes, which
    touch all three paths, and 0 for the one-path population cubes.
    """
    if cube.n_paths != 3 or t2.n_paths != 3:
        raise ValueError("the third-order term is defined for 3-path setups only")
    _check_index(port, 3, "port")
    coords = to_coords(cube, t2.basis)
    return float((t2.matrix[port - 1, 3:] @ coords[3:]).real)


def sample_clicks(result: IFMResult, shots: int, seed: int) -> dict[str, int]:
    """Multinomial detector-click counts for a result record (demo output only)."""
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    rng = np.random.default_rng(seed)
    probs = np.clip(
        [result.p_trigger, result.p_inconclusive, result.p_success], 0.0, None
    )
    probs = probs / probs.sum()
    trigger, inconclusive, success = rng.multinomial(shots, probs)
    return {
        "trigger": int(trigger),
        "inconclusive": int(inconclusive),
        "success": int(success),
        "shots": shots,
    }
