"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines (a line is printed only after its assertions pass; a
failing criterion shows up as an ordinary pytest failure).
"""

import numpy as np
import pytest

from cubesim.cubes import basis_cube, luders_update_cube, optimal_cubes, quantum_to_cube
from cubesim.experiments import (
    cube_tradeoff_bound,
    region_scan,
    run_cube_ifm,
    run_quantum_presets,
    sorkin_term,
)
from cubesim.multiport import (
    apply_transform,
    assemble_multiport,
    t3_matrix,
)
from cubesim.quantum import (
    DensityMatrix,
    luders_remove_path,
    quantum_ifm,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)
from cubesim.tensor import cube_inner
from oracles import SQRT3, oracle_complete


def report(number: int, message: str) -> None:
    print(f"criterion {number:2d}: PASS - {message}")


def test_criterion_1_three_path_perfect_ifm():
    result = run_cube_ifm(3)
    assert abs(result.p_trigger) < 1e-10
    assert abs(result.p_inconclusive - 0.5) < 1e-10
    assert abs(result.p_inconclusive - cube_tradeoff_bound(result.p_trigger, 3)) < 1e-10
    report(1, "3-path run gives P_trigger=0, P_inconclusive=1/2, saturating the bound")


def test_criterion_2_general_n_saturation():
    inconclusive = []
    for n in range(3, 13):
        result = run_cube_ifm(n)
        assert result.p_trigger < 1e-10, f"N={n}"
        assert abs(result.p_inconclusive - 1.0 / (n - 1)) < 1e-9, f"N={n}"
        inconclusive.append(result.p_inconclusive)
    assert all(a > b for a, b in zip(inconclusive, inconclusive[1:]))
    report(2, "P_inconclusive = 1/(N-1) for N=3..12 and strictly decreasing")


def test_criterion_3_four_path_cubes():
    phases = np.array(
        [[1, -1j, -1, 1j], [1, -1, 1, -1], [1, 1j, -1, -1j]], dtype=complex
    )
    built = optimal_cubes(4)
    for n in range(1, 5):
        canonical = {(j, j, j): 1.0 / 3.0 for j in range(1, 5) if j != n}
        for row, (v, w) in enumerate([(2, 3), (2, 4), (3, 4)]):
            canonical[(1, v, w)] = phases[row, n - 1] / (3.0 * SQRT3)
        tabulated = oracle_complete(canonical, 4)
        assert np.abs(built[n - 1].entries - tabulated).max() < 1e-12, f"cube {n}"
    gram = np.array([[cube_inner(a, b) for b in built] for a in built])
    assert np.abs(gram - np.eye(4)).max() < 1e-12
    report(3, "4-path optimal cubes match the tabulated entries, Gram matrix is the identity")


def test_criterion_4_three_path_matrix():
    w = np.exp(-2j * np.pi / 3)
    printed = 0.5 * np.array(
        [
            [0, 1, 1, 1, 1],
            [1, 0, 1, np.conj(w), w],
            [1, 1, 0, w, np.conj(w)],
            [1, w, np.conj(w), 1, 0],
            [1, np.conj(w), w, 0, 1],
        ],
        dtype=complex,
    )
    assembled = assemble_multiport(3).matrix
    assert np.abs(assembled - printed).max() < 1e-12
    t3 = t3_matrix().matrix
    assert np.abs(t3 @ t3 - np.eye(5)).max() < 1e-12
    assert np.abs(t3 - t3.conj().T).max() < 1e-12
    report(4, "assembled 3-path multiport equals the tabulated matrix; involution and self-adjoint")


def test_criterion_5_block_spectra():
    for n in range(3, 13):
        t = assemble_multiport(n)
        block_b = t.matrix[n:, :n]
        bb = block_b @ block_b.conj().T
        eigs = np.linalg.eigvalsh(bb)
        target = n * (n - 2) / (n - 1) ** 2
        assert np.minimum(np.abs(eigs), np.abs(eigs - target)).max() < 1e-9, f"N={n}"
        d_eigs = np.linalg.eigvalsh(t.matrix[n:, n:])
        assert (
            np.minimum(np.abs(d_eigs - 1.0), np.abs(d_eigs - 1.0 / (n - 1))).max()
            < 1e-9
        ), f"N={n}"
    report(5, "coherence-Gram and closing-block spectra lie in their two-point sets for N=3..12")


def test_criterion_6_quantum_tradeoff():
    trials_per_n = 10_000
    for n in range(2, 9):
        rng = np.random.default_rng(1000 + n)
        for trial in range(trials_per_n):
            rho = (
                random_pure_state(n, rng)
                if trial % 2
                else random_density_matrix(n, rng)
            )
            u2 = random_unitary(n, rng)
            bomb = int(rng.integers(1, n + 1))
            result = quantum_ifm(rho, u2, bomb)
            slack = result.p_inconclusive - result.bound_value
            assert slack >= -1e-9, f"N={n} trial={trial}"
            assert (
                result.p_inconclusive - (1.0 - result.p_trigger) ** 2 >= -1e-9
            ), f"N={n} trial={trial}"
            total = result.p_trigger + result.p_inconclusive + result.p_success
            assert abs(total - 1.0) <= 1e-10, f"N={n} trial={trial}"
    for result in run_quantum_presets():
        if result.label.startswith("fourier"):
            n = result.n_paths
            assert abs(result.p_inconclusive - (1.0 - 1.0 / n) ** 2) < 1e-10
    report(6, "trade-off and normalization hold over 10^4 seeded trials per N=2..8; Fourier presets saturate")


def test_criterion_7_pure_to_mixed_signature():
    inside = apply_transform(assemble_multiport(3), basis_cube(3, 1))
    updated = luders_update_cube(inside, 1, found=False)
    assert abs(updated.purity() - 0.5) < 1e-12
    rng = np.random.default_rng(77)
    for _ in range(100):
        rho = random_pure_state(4, rng)
        if rho.probability(1) >= 1 - 1e-6:
            continue
        _, tilde = luders_remove_path(rho, 1)
        assert abs(tilde.purity() - 1.0) < 1e-10
    report(7, "cube pipeline turns a pure cube into a purity-1/2 mixture; quantum updates keep purity 1")


def test_criterion_8_sorkin_hierarchy():
    t3 = t3_matrix()
    rng = np.random.default_rng(88)
    for _ in range(1000):
        weights = rng.dirichlet(np.ones(3))
        cube = quantum_to_cube(DensityMatrix(3, np.diag(weights.astype(complex))))
        assert abs(sorkin_term(cube, t3, port=int(rng.integers(1, 4)))) < 1e-10
    coherent = apply_transform(t3, basis_cube(3, 1))
    assert abs(sorkin_term(coherent, t3, port=1) - 0.5) < 1e-10
    report(8, "third-order term < 1e-10 for 10^3 quantum cubes, = 1/2 for the coherent cube at port 1")


def test_criterion_9_embedding_preserves_inner_products():
    for n in range(2, 7):
        rng = np.random.default_rng(900 + n)
        for _ in range(1000):
            rho = random_density_matrix(n, rng)
            sigma = random_density_matrix(n, rng)
            lhs = cube_inner(quantum_to_cube(rho), quantum_to_cube(sigma))
            rhs = float(np.trace(rho.entries @ sigma.entries).real)
            assert abs(lhs - rhs) < 1e-10
    report(9, "cube embedding preserves inner products over 10^3 pairs per N=2..6")


def test_criterion_10_region_data():
    rows = region_scan([2, 3, 4, 6, 10], 101)
    by_n = {}
    for n, p, bound in rows:
        by_n.setdefault(n, []).append((p, bound))
    for p, bound in by_n[2]:
        assert abs(bound - (1.0 - p) ** 2) < 1e-15
    for n, curve in by_n.items():
        assert abs(curve[0][1] - 1.0 / (n - 1)) < 1e-15
    ns = sorted(by_n)
    for a, b in zip(ns, ns[1:]):
        for (_, upper), (_, lower) in zip(by_n[a], by_n[b]):
            assert upper >= lower - 1e-15
    report(10, "region curves nested in N, 2-path row is the quantum curve, intercepts are 1/(N-1)")
