"""End-to-end interferometer experiments and interference-order analysis.

All pipelines are deterministic probability computations; the optional
click sampler exists for demonstration output only and requires an
explicit seed.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .cubes import basis_cube, luders_update_cube, measure_path_prob
from .multiport import (
    MultiportMatrix,
    apply_transform,
    assemble_multiport,
    to_coords,
)
from .quantum import UnitaryMatrix, fourier_unitary, inject_first_path, quantum_ifm
from .results import IFMResult
from .tensor import DEFAULT_TOL, HermitianCube


def cube_tradeoff_bound(p_trigger: float, n_paths: int) -> float:
    """Cube-model lower bound ``(1 - P)^2 / (N - 1)`` on the inconclusive
    probability.  For N = 2 it coincides with the quantum pure-state bound."""
    if not 0.0 <= p_trigger <= 1.0:
        raise ValueError(f"p_trigger must lie in [0, 1], got {p_trigger}")
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2, got {n_paths}")
    return (1.0 - p_trigger) ** 2 / (n_paths - 1)


def run_cube_ifm(n_paths: int, tol: float = DEFAULT_TOL) -> IFMResult:
    """Perfect interaction-free measurement in the cube model.

    Pipeline: inject the particle into path 1, apply the assembled
    multiport, read the bomb-path population, apply the not-found update,
    apply the multiport again and read the population of port 1 -- the
    only port the particle can reach with no bomb present, which is
    asserted at runtime by checking that the no-bomb output cube is the
    path-1 cube to within ``tol``, the only comparison ``tol`` sets.
    None of these cubes carries two-path coherence, which
    ``apply_transform`` checks.
    """
    transform = assemble_multiport(n_paths)
    injected = basis_cube(n_paths, 1)
    inside = apply_transform(transform, injected)

    no_bomb = apply_transform(transform, inside)
    gap = float(np.abs(no_bomb.entries - injected.entries).max())
    if gap > tol:
        raise ValueError(
            f"no-bomb output deviates from the injected path cube by {gap:.3e}; "
            "the single-port readout assumption does not hold"
        )

    p_trigger = measure_path_prob(inside, 1)
    updated = luders_update_cube(inside, 1, found=False)
    out = apply_transform(transform, updated)
    p_inconclusive = (1.0 - p_trigger) * measure_path_prob(out, 1)
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
    lines = [REGION_CSV_HEADER]
    for n, p, bound in rows:
        lines.append(f"{n},{p!r},{bound!r}")
    return "\n".join(lines) + "\n"


def sorkin_term(cube: HermitianCube, t2: MultiportMatrix, port: int) -> float:
    """Third-order interference term at an output port of a 3-path setup.

    For each nonempty subset S of {1, 2, 3} the cube is truncated by
    zeroing every entry carrying an index outside S (no renormalization,
    so the intensities behave additively), propagated through ``t2``, and
    the intensity I_S is read at ``port``.  Returns
    ``I_123 - I_12 - I_13 - I_23 + I_1 + I_2 + I_3``, which vanishes for
    every quantum cube and is nonzero in the presence of genuine
    three-path coherence.  Truncating to S keeps the coordinates of the
    basis cubes supported inside S.
    """
    if cube.n_paths != 3 or t2.n_paths != 3:
        raise ValueError("the third-order term is defined for 3-path setups only")
    if not 1 <= port <= 3:
        raise ValueError(f"port {port} out of range 1..3")

    coords = to_coords(cube, t2.basis)
    row = t2.matrix[port - 1]
    # the (0-based) path indices touched by each basis cube
    support = np.stack(np.unravel_index(t2.basis.cells[:, 0], (3, 3, 3)), axis=1)

    def intensity(subset: tuple[int, ...]) -> float:
        inside = np.isin(support, [p - 1 for p in subset]).all(axis=1)
        return float((row @ np.where(inside, coords, 0.0)).real)

    term = intensity((1, 2, 3))
    for pair in combinations((1, 2, 3), 2):
        term -= intensity(pair)
    for single in combinations((1, 2, 3), 1):
        term += intensity(single)
    return term


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
