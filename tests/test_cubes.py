import math

import numpy as np
import pytest

from cubesim.cubes import (
    basis_cube,
    dephase,
    luders_update_cube,
    measure_path_prob,
    nonquantum_cube,
    optimal_cubes,
    quantum_to_cube,
)
from cubesim.multiport import assemble_multiport, from_coords, sub_basis
from cubesim.quantum import DensityMatrix, random_density_matrix, random_pure_state
from cubesim.tensor import HermitianCube, cube_inner, hermitian_complete
from oracles import interferometer_cube

SQRT23 = math.sqrt(2.0 / 3.0)


def basis_cubes(n_paths):
    """All N path cubes, mutually orthonormal under the cube inner product."""
    return [basis_cube(n_paths, path) for path in range(1, n_paths + 1)]


# --- basis cubes --------------------------------------------------------------

def test_basis_cubes_orthonormal():
    cubes = basis_cubes(4)
    gram = np.array([[cube_inner(a, b) for b in cubes] for a in cubes])
    np.testing.assert_allclose(gram, np.eye(4), atol=0)


def test_basis_cube_single_unit_entry():
    m2 = basis_cube(3, 2)
    assert m2.entry(2, 2, 2) == 1.0
    assert np.abs(m2.entries).sum() == 1.0


def test_basis_cube_path_range():
    with pytest.raises(ValueError, match="out of range"):
        basis_cube(3, 4)


# --- quantum embedding ---------------------------------------------------------

def test_path_state_maps_to_basis_cube():
    cube = quantum_to_cube(DensityMatrix.path_state(3, 1))
    np.testing.assert_allclose(cube.entries, basis_cube(3, 1).entries, atol=0)


def test_equal_superposition_two_level():
    rho = DensityMatrix.from_state_vector([1.0, 1.0])
    cube = quantum_to_cube(rho)
    assert cube.entry(1, 1, 2) == pytest.approx(SQRT23 * 0.5)
    assert cube.entry(1, 2, 2) == pytest.approx(0.0, abs=1e-15)


def test_embedding_has_no_three_path_coherence(rng):
    cube = quantum_to_cube(random_density_matrix(4, rng))
    for j in range(4):
        for k in range(4):
            for l in range(4):
                if len({j, k, l}) == 3:
                    assert cube.entries[j, k, l] == 0.0


def test_embedding_preserves_inner_product(rng):
    # oracle: the matrix trace computed directly
    for n in (2, 3, 5):
        for _ in range(30):
            rho = random_density_matrix(n, rng)
            sigma = random_pure_state(n, rng)
            lhs = cube_inner(quantum_to_cube(rho), quantum_to_cube(sigma))
            rhs = float(np.trace(rho.entries @ sigma.entries).real)
            assert lhs == pytest.approx(rhs, abs=1e-12)


# --- nonquantum family ----------------------------------------------------------

def test_nonquantum_from_path_state_with_trivial_phases():
    rho = DensityMatrix.path_state(3, 1)
    cube = nonquantum_cube(rho, gamma=1)
    np.testing.assert_allclose(cube.diagonal(), [0.0, 0.5, 0.5], atol=1e-15)
    assert abs(cube.entry(1, 2, 3)) == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)))
    assert cube.entry(1, 2, 3) == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)))


def test_nonquantum_diagonal_sums_to_one(rng):
    for n in (3, 4, 6):
        rho = random_density_matrix(n, rng)
        cube = nonquantum_cube(rho, gamma=int(rng.integers(1, n + 1)))
        assert cube.diagonal().sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(3, 13))
def test_nonquantum_with_default_phases_matches_optimal_cubes(n):
    # optimal_cubes is nonquantum_cube(path_state(N, n), n); the oracle is
    # column n of the assembled multiport, the sub-basis coordinates of the
    # image of path cube n, scattered into a cube.  The two agree value for
    # value (array_equal ignores the sign of a zero).
    basis = sub_basis(n)
    columns = assemble_multiport(n).matrix[:, :n].T
    for column, cube in zip(columns, optimal_cubes(n), strict=True):
        image = from_coords(column, basis, is_state=True)
        assert np.array_equal(image.entries, cube.entries)


def test_nonquantum_keeps_two_path_part_of_rho(rng):
    rho = random_density_matrix(4, rng)
    cube = nonquantum_cube(rho, gamma=2)
    for j in range(1, 5):
        for k in range(j + 1, 5):
            expected_re = SQRT23 * rho.entries[j - 1, k - 1].real / 3.0
            expected_im = SQRT23 * rho.entries[j - 1, k - 1].imag / 3.0
            assert cube.entry(j, j, k).real == pytest.approx(expected_re, abs=1e-12)
            assert cube.entry(j, k, k).real == pytest.approx(expected_im, abs=1e-12)


def test_nonquantum_three_path_terms_touch_path_one_only():
    cube = nonquantum_cube(DensityMatrix.maximally_mixed(4), gamma=1)
    assert cube.entry(2, 3, 4) == 0.0
    assert abs(cube.entry(1, 2, 3)) == pytest.approx(1.0 / (3.0 * math.sqrt(3.0)))


def test_nonquantum_needs_three_paths():
    with pytest.raises(ValueError, match="at least 3"):
        nonquantum_cube(DensityMatrix.maximally_mixed(2), gamma=1)


@pytest.mark.parametrize("gamma", [0, 5])
def test_nonquantum_gamma_range(gamma):
    with pytest.raises(ValueError, match="gamma"):
        nonquantum_cube(DensityMatrix.maximally_mixed(4), gamma=gamma)


# --- path measurement ------------------------------------------------------------

def test_measure_path_prob_on_basis_cube():
    assert measure_path_prob(basis_cube(3, 2), 2) == 1.0


def test_measure_interferometer_cube():
    cube = interferometer_cube()
    assert measure_path_prob(cube, 1) == pytest.approx(0.0, abs=1e-15)
    assert measure_path_prob(cube, 2) == pytest.approx(0.5)


def test_measure_path_range():
    with pytest.raises(ValueError, match="path 4 out of range"):
        measure_path_prob(basis_cube(3, 1), 4)


def test_measure_rejects_imaginary_diagonal_like_the_inner_product():
    # oracle: the inner product with the path cube, which the direct read
    # replaces; a diagonal residue that passes construction reads the same
    entries = np.array(basis_cube(3, 1).entries)
    entries[0, 0, 0] += 1e-12j
    cube = HermitianCube(3, entries, is_state=True)
    assert measure_path_prob(cube, 1) == cube_inner(basis_cube(3, 1), cube) == 1.0


# The transposition check of HermitianCube sees twice the imaginary part of a
# diagonal entry, so construction bounds it by DEFAULT_TOL / 2 = 5e-11 and
# measure_path_prob needs no residue check of its own.
def test_diagonal_imaginary_part_is_bounded_at_construction():
    entries = np.array(basis_cube(3, 1).entries)
    entries[0, 0, 0] = 1.0 + 5e-11j
    assert measure_path_prob(HermitianCube(3, entries, is_state=True), 1) == 1.0
    entries[0, 0, 0] = 1.0 + 5.0000001e-11j
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianCube(3, entries, is_state=True)


def test_measure_requires_state_cube():
    effect = hermitian_complete({(1, 1, 1): 1.0, (2, 2, 2): 1.0}, 2)
    with pytest.raises(ValueError, match="state cubes"):
        measure_path_prob(effect, 1)


# --- measurement update -----------------------------------------------------------

def test_not_found_update_of_interferometer_cube():
    updated = luders_update_cube(interferometer_cube(), 1, found=False)
    expected = 0.5 * (basis_cube(3, 2).entries + basis_cube(3, 3).entries)
    np.testing.assert_allclose(updated.entries, expected, atol=1e-15)
    assert updated.purity() == pytest.approx(0.5, abs=1e-15)


def test_found_update_collapses():
    updated = luders_update_cube(interferometer_cube(), 2, found=True)
    np.testing.assert_allclose(updated.entries, basis_cube(3, 2).entries, atol=0)


def test_update_matches_renormalized_pure_state(rng):
    # oracle: renormalize the pure-state amplitudes by hand, then embed
    amplitudes = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amplitudes /= np.linalg.norm(amplitudes)
    cube = quantum_to_cube(DensityMatrix.from_state_vector(amplitudes))
    updated = luders_update_cube(cube, 1, found=False)

    renorm = amplitudes.copy()
    renorm[0] = 0.0
    renorm /= math.sqrt(1.0 - abs(amplitudes[0]) ** 2)
    oracle = quantum_to_cube(DensityMatrix.from_state_vector(renorm))
    np.testing.assert_allclose(updated.entries, oracle.entries, atol=1e-12)


def test_not_found_update_is_idempotent(rng):
    cube = nonquantum_cube(random_density_matrix(4, rng), gamma=3)
    once = luders_update_cube(cube, 1, found=False)
    twice = luders_update_cube(once, 1, found=False)
    np.testing.assert_allclose(twice.entries, once.entries, atol=1e-12)
    assert measure_path_prob(once, 1) == 0.0


def test_update_conditioning_on_impossible_outcome():
    with pytest.raises(ValueError, match="certain detonation"):
        luders_update_cube(basis_cube(3, 1), 1, found=False)


@pytest.mark.parametrize("gap, raises", [(1e-11, True), (1e-9, False)])
def test_update_guard_boundary(gap, raises):
    p = 1.0 - gap
    rho = DensityMatrix(3, np.diag([p, 1.0 - p, 0.0]).astype(complex))
    cube = quantum_to_cube(rho)
    if raises:
        with pytest.raises(ValueError, match="certain detonation"):
            luders_update_cube(cube, 1, found=False)
    else:
        updated = luders_update_cube(cube, 1, found=False)
        np.testing.assert_allclose(updated.entries, basis_cube(3, 2).entries, atol=1e-12)


def test_post_update_nonquantum_cube_is_quantum(rng):
    # after a not-found measurement on path 1 all three-path terms vanish,
    # and the remainder is the embedding of an ordinary density matrix
    for n in (3, 4):
        rho = random_density_matrix(n, rng)
        updated = luders_update_cube(nonquantum_cube(rho, gamma=1), 1, found=False)
        sigma = np.zeros((n, n), dtype=complex)
        for j in range(1, n + 1):
            sigma[j - 1, j - 1] = updated.entry(j, j, j).real
            for k in range(j + 1, n + 1):
                sigma[j - 1, k - 1] = (
                    updated.entry(j, j, k).real + 1j * updated.entry(j, k, k).real
                ) / SQRT23
                sigma[k - 1, j - 1] = np.conj(sigma[j - 1, k - 1])
        back = quantum_to_cube(DensityMatrix(n, sigma))
        np.testing.assert_allclose(back.entries, updated.entries, atol=1e-12)


def test_purity_preserved_for_quantum_pure_updates(rng):
    for _ in range(10):
        cube = quantum_to_cube(random_pure_state(4, rng))
        if cube.entry(2, 2, 2).real >= 1 - 1e-10:
            continue
        updated = luders_update_cube(cube, 2, found=False)
        assert updated.purity() == pytest.approx(1.0, abs=1e-10)


# --- dephasing ---------------------------------------------------------------------

def test_dephase_equal_superposition():
    cube = quantum_to_cube(DensityMatrix.from_state_vector([1.0, 1.0]))
    flattened = dephase(cube)
    expected = np.zeros((2, 2, 2), dtype=complex)
    expected[0, 0, 0] = expected[1, 1, 1] = 0.5
    np.testing.assert_allclose(flattened.entries, expected, atol=1e-15)


def test_dephase_leaves_interferometer_cube_unchanged():
    cube = interferometer_cube()
    np.testing.assert_allclose(dephase(cube).entries, cube.entries, atol=0)


def test_dephase_nonquantum_matches_entrywise_construction(rng):
    # oracle: rebuild the family member with the two-path terms dropped
    rho = random_density_matrix(4, rng)
    gamma = 2
    cube = nonquantum_cube(rho, gamma=gamma)
    zeroed = DensityMatrix(4, np.diag(np.diag(rho.entries)))
    oracle = nonquantum_cube(zeroed, gamma=gamma)
    np.testing.assert_allclose(dephase(cube).entries, oracle.entries, atol=1e-12)


def test_dephase_idempotent_and_population_preserving(rng):
    cube = nonquantum_cube(random_density_matrix(5, rng), gamma=4)
    once = dephase(cube)
    np.testing.assert_allclose(dephase(once).entries, once.entries, atol=0)
    assert once.diagonal().sum() == pytest.approx(cube.diagonal().sum(), abs=1e-12)
