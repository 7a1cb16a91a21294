import math
import tracemalloc
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesim.cubes import basis_cube, nonquantum_cube, optimal_cubes
from cubesim.experiments import run_cube_ifm
from cubesim.multiport import (
    MATRIX_TOL,
    MultiportMatrix,
    MultiportReport,
    _matmul,
    _phase_slice,
    _slice_blocks,
    apply_transform,
    assemble_multiport,
    coherence_pairs,
    from_coords,
    reference_optimal_cubes_n4,
    sub_basis,
    t3_matrix,
    to_coords,
    verify_multiport,
)
from cubesim.quantum import DensityMatrix
from cubesim.tensor import DEFAULT_TOL, cube_inner, hermitian_complete, hermiticity_violation
from oracles import (
    SQRT3,
    dense_report,
    interferometer_cube,
    oracle_complete,
    out_of_place_multiport,
    stacked_phase_matrix,
)


def hermitian_sqrt(matrix, tol=DEFAULT_TOL):
    """Principal square root of a Hermitian positive-semidefinite matrix.

    The eigendecomposition oracle for the closed-form closing block.
    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol
    raises.
    """
    arr = np.asarray(matrix, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if np.abs(arr - arr.conj().T).max() > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    eigenvalues, eigenvectors = np.linalg.eigh(arr)
    if eigenvalues.min() < -tol:
        raise ValueError(
            f"matrix is not positive semidefinite: eigenvalue {eigenvalues.min():.3e}"
        )
    root = np.sqrt(np.clip(eigenvalues, 0.0, None))
    return (eigenvectors * root) @ eigenvectors.conj().T


# --- tabulated reference data -------------------------------------------------
# The three-path transformation written out entry by entry, with
# w = exp(-i 2 pi / 3):

def tabulated_three_path_matrix():
    w = np.exp(-2j * np.pi / 3)
    return 0.5 * np.array(
        [
            [0, 1, 1, 1, 1],
            [1, 0, 1, np.conj(w), w],
            [1, 1, 0, w, np.conj(w)],
            [1, w, np.conj(w), 1, 0],
            [1, np.conj(w), w, 0, 1],
        ],
        dtype=complex,
    )


# The four-path optimal cubes: populations 1/3 away from the excluded path,
# and independent three-path phases (rows: pairs (2,3), (2,4), (3,4);
# columns: cubes 1..4) with overall weight 1/(3 sqrt(3)).  The full tensors
# follow from the index-exchange symmetry; completion is done by the local
# permutation-parity oracle below, independent of the package.

N4_PHASES = np.array(
    [
        [1, -1j, -1, 1j],
        [1, -1, 1, -1],
        [1, 1j, -1, -1j],
    ],
    dtype=complex,
)


def tabulated_four_path_cubes():
    cubes = []
    for n in range(1, 5):
        canonical = {(j, j, j): 1.0 / 3.0 for j in range(1, 5) if j != n}
        for row, (v, w) in enumerate([(2, 3), (2, 4), (3, 4)]):
            canonical[(1, v, w)] = N4_PHASES[row, n - 1] / (3.0 * SQRT3)
        cubes.append(oracle_complete(canonical, 4))
    return cubes


# The full four-path transformation closed with the second alternative D
# block, written out entry by entry:

def tabulated_four_path_matrix_variant2():
    i = 1j
    return (
        np.array(
            [
                [0, 1, 1, 1, 1, 1, 1, 1, 1, 1],
                [1, 0, 1, 1, i, -1, -i, -i, -1, i],
                [1, 1, 0, 1, -1, 1, -1, -1, 1, -1],
                [1, 1, 1, 0, -i, -1, i, i, -1, -i],
                [1, -i, -1, i, 1, -1, -i, i, 1, 0],
                [1, -1, 1, -1, -1, 1, -i, i, 0, 1],
                [1, i, -1, -i, i, i, 1, 0, -i, -i],
                [1, i, -1, -i, -i, -i, 0, 1, i, i],
                [1, -1, 1, -1, 1, 0, i, -i, 1, -1],
                [1, -i, -1, i, 0, 1, i, -i, -1, 1],
            ],
            dtype=complex,
        )
        / 3.0
    )


# Two further tabulated closing blocks for the four-path multiport.  With
# the same A and B blocks, each closes the transformation to a self-adjoint
# involution, but not to an admissible multiport: it breaks the Hermiticity
# pairing and has the eigenvalue -1, outside the two-point set {1, 1/3}.

def alternative_d_blocks_n4():
    i = 1j
    d2 = (
        np.array(
            [
                [1, -i, i, -i, i, 0],
                [i, 1, 1, -1, 0, -i],
                [-i, 1, 1, 0, -1, i],
                [i, -1, 0, 1, 1, -i],
                [-i, 0, -1, 1, 1, i],
                [0, i, -i, i, -i, 1],
            ],
            dtype=complex,
        )
        / 3.0
    )
    d3 = (
        np.array(
            [
                [1, -1, -i, i, 1, 0],
                [-1, 1, -i, i, 0, 1],
                [i, i, 1, 0, -i, -i],
                [-i, -i, 0, 1, i, i],
                [1, 0, i, -i, 1, -1],
                [0, 1, i, -i, -1, 1],
            ],
            dtype=complex,
        )
        / 3.0
    )
    return [d2, d3]


def alternative_multiport_n4(variant):
    """The assembled four-path multiport closed with tabulated D block 1 or 2."""
    base = assemble_multiport(4)
    matrix = np.array(base.matrix)
    matrix[4:, 4:] = alternative_d_blocks_n4()[variant - 1]
    return replace(base, matrix=matrix)


# --- sub-basis ------------------------------------------------------------------

def test_three_path_basis_matches_tabulated_cubes():
    basis = sub_basis(3)
    assert basis.dim == 5
    for path in range(3):
        expected = np.zeros((3, 3, 3), dtype=complex)
        expected[path, path, path] = 1.0
        np.testing.assert_array_equal(basis.cubes[path], expected)
    b4 = np.zeros((3, 3, 3), dtype=complex)
    for pos in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
        b4[pos] = 1.0 / SQRT3
    b5 = np.zeros((3, 3, 3), dtype=complex)
    for pos in [(0, 2, 1), (1, 0, 2), (2, 1, 0)]:
        b5[pos] = 1.0 / SQRT3
    np.testing.assert_allclose(basis.cubes[3], b4, atol=1e-15)
    np.testing.assert_allclose(basis.cubes[4], b5, atol=1e-15)
    assert basis.labels == (
        "path_1",
        "path_2",
        "path_3",
        "coherence_2_3",
        "coherence_3_2",
    )


def test_four_path_basis_dimension():
    assert sub_basis(4).dim == 10


@pytest.mark.parametrize("n", [3, 4, 5])
def test_basis_orthonormal_under_cube_inner(n):
    cubes = sub_basis(n).cubes
    gram = np.einsum("ajkl,bjkl->ab", cubes.conj(), cubes)
    np.testing.assert_allclose(gram, np.eye(len(cubes)), atol=1e-14)


def test_basis_conjugate_pairing_is_involution():
    # coherence cube n + i and its conjugate n + p + i swap under an index
    # transposition with conjugation; path cubes are their own partners
    basis = sub_basis(4)
    n, p = basis.n_paths, (basis.n_paths - 1) * (basis.n_paths - 2) // 2
    partner = list(range(n)) + [n + p + i for i in range(p)] + [n + i for i in range(p)]
    for i in range(basis.dim):
        assert partner[partner[i]] == i
        np.testing.assert_allclose(
            basis.cubes[partner[i]],
            np.conj(basis.cubes[i].transpose(1, 0, 2)),
            atol=1e-15,
        )


def test_basis_needs_three_paths():
    with pytest.raises(ValueError, match="at least 3"):
        sub_basis(2)


# --- coordinates -----------------------------------------------------------------

def test_path_cube_coordinates():
    basis = sub_basis(3)
    np.testing.assert_allclose(
        to_coords(basis_cube(3, 1), basis), [1, 0, 0, 0, 0], atol=0
    )


def test_interferometer_cube_coordinates():
    coords = to_coords(interferometer_cube(), sub_basis(3))
    np.testing.assert_allclose(coords, [0, 0.5, 0.5, 0.5, 0.5], atol=1e-15)


def test_two_path_coherence_rejected():
    from cubesim.cubes import quantum_to_cube

    cube = quantum_to_cube(DensityMatrix.from_state_vector([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="dephase first"):
        to_coords(cube, sub_basis(3))


def test_three_path_coherence_missing_path_one_rejected():
    stray = hermitian_complete(
        {(j, j, j): 0.25 for j in range(1, 5)} | {(2, 3, 4): 0.1}, 4, is_state=True
    )
    with pytest.raises(ValueError, match="outside the multiport subspace"):
        to_coords(stray, sub_basis(4))


def test_coordinate_round_trip(rng):
    basis = sub_basis(4)
    diag = rng.dirichlet(np.ones(4))
    canonical = {(j, j, j): diag[j - 1] for j in range(1, 5)}
    for v, w in coherence_pairs(4):
        canonical[(1, v, w)] = complex(rng.standard_normal(), rng.standard_normal()) / 20
    cube = hermitian_complete(canonical, 4, is_state=True)
    coords = to_coords(cube, basis)
    rebuilt = from_coords(coords, basis, is_state=True)
    np.testing.assert_allclose(rebuilt.entries, cube.entries, atol=1e-14)


def test_from_coords_rejects_pairing_violation():
    basis = sub_basis(3)
    with pytest.raises(ValueError, match="Hermitian"):
        from_coords(np.array([1, 0, 0, 0.5j, 0.5j]), basis)


FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def in_domain_cubes(draw, max_paths):
    """Hermitian cubes with populations and path-1 three-path coherences only."""
    n = draw(st.integers(3, max_paths))
    pairs = coherence_pairs(n)
    diag = draw(st.lists(st.floats(-1.0, 1.0, **FINITE), min_size=n, max_size=n))
    coherences = draw(
        st.lists(
            st.complex_numbers(max_magnitude=1.0, **FINITE),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    canonical = {(j, j, j): diag[j - 1] for j in range(1, n + 1)}
    canonical.update({(1, v, w): c for (v, w), c in zip(pairs, coherences)})
    return hermitian_complete(canonical, n)


@settings(max_examples=60, deadline=None)
@given(in_domain_cubes(max_paths=8))
def test_coordinate_gather_matches_dense_projection(cube):
    basis = sub_basis(cube.n_paths)
    dense = np.einsum("djkl,jkl->d", basis.cubes.conj(), cube.entries)
    np.testing.assert_allclose(to_coords(cube, basis), dense, rtol=0, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(in_domain_cubes(max_paths=32))
def test_coordinate_round_trip_up_to_32_paths(cube):
    basis = sub_basis(cube.n_paths)
    rebuilt = from_coords(to_coords(cube, basis), basis)
    np.testing.assert_allclose(rebuilt.entries, cube.entries, rtol=0, atol=1e-15)


def test_coordinate_maps_leave_the_dense_stack_unbuilt():
    t = assemble_multiport(6)
    apply_transform(t, basis_cube(6, 1))
    assert "cubes" not in vars(t.basis)
    assert t.basis.cubes.shape == (t.basis.dim, 6, 6, 6)
    assert "cubes" in vars(t.basis)


# --- the explicit three-path transformation ----------------------------------------

def test_t3_matches_tabulated_matrix():
    np.testing.assert_allclose(
        t3_matrix().matrix, tabulated_three_path_matrix(), atol=0
    )


def test_t3_is_involution_and_self_adjoint():
    m = t3_matrix().matrix
    np.testing.assert_allclose(m @ m, np.eye(5), atol=1e-12)
    np.testing.assert_allclose(m, m.conj().T, atol=1e-12)


def test_t3_sends_path_one_to_interferometer_cube():
    t3 = t3_matrix()
    np.testing.assert_allclose(
        t3.matrix @ np.array([1, 0, 0, 0, 0]), [0, 0.5, 0.5, 0.5, 0.5], atol=1e-15
    )
    image = apply_transform(t3, basis_cube(3, 1))
    np.testing.assert_allclose(image.entries, interferometer_cube().entries, atol=1e-15)


def test_t3_image_of_post_measurement_cube():
    # the mixed half/half cube maps to diagonal (1/2, 1/4, 1/4) with all
    # six three-path entries equal to -1/(4 sqrt(3))
    half_half = hermitian_complete({(2, 2, 2): 0.5, (3, 3, 3): 0.5}, 3, is_state=True)
    image = apply_transform(t3_matrix(), half_half)
    np.testing.assert_allclose(image.diagonal(), [0.5, 0.25, 0.25], atol=1e-15)
    expected = oracle_complete(
        {
            (1, 1, 1): 0.5,
            (2, 2, 2): 0.25,
            (3, 3, 3): 0.25,
            (1, 2, 3): -1.0 / (4.0 * SQRT3),
        },
        3,
    )
    np.testing.assert_allclose(image.entries, expected, atol=1e-15)


# --- phase matrices ------------------------------------------------------------------

def test_phase_matrix_three_paths():
    w = np.exp(2j * np.pi / 3)
    x, copies = _phase_slice(3)
    np.testing.assert_allclose(x, [[1, w, w**2]], atol=1e-15)
    assert copies == 1
    overlap = 2 * np.real(np.vdot(x[:, 0], x[:, 1]))
    assert overlap == pytest.approx(-1.0, abs=1e-12)


def test_phase_matrix_four_paths_is_deleted_row_fourier():
    w = np.exp(2j * np.pi / 4)
    expected = np.array([[w ** (q * c) for c in range(4)] for q in (1, 2, 3)])
    x, copies = _phase_slice(4)
    np.testing.assert_allclose(x, expected, atol=1e-12)
    assert copies == 1


def test_phase_matrix_five_paths_shape_and_overlaps():
    x, copies = _phase_slice(5)
    assert (len(x) * copies, x.shape[1]) == (6, 5)
    gram = 2.0 * copies * np.real(x.conj().T @ x)
    for m in range(5):
        for n in range(5):
            if m != n:
                assert gram[m, n] == pytest.approx(2.0 - 5.0, abs=1e-10)


@pytest.mark.parametrize("n", range(3, 13))
def test_phase_matrix_invariants(n):
    x, copies = _phase_slice(n)
    assert (len(x) * copies, x.shape[1]) == ((n - 1) * (n - 2) // 2, n)
    np.testing.assert_allclose(np.abs(x), 1.0, atol=1e-12)


@pytest.mark.parametrize("n", range(3, 33))
def test_phase_matrix_is_bit_identical_to_the_stacked_formula(n):
    # the slice tiled by its copies keeps every bit of the stacked table,
    # the B that assemble_multiport gathers and dump-matrix writes
    x, copies = _phase_slice(n)
    expected = stacked_phase_matrix(n)
    assert np.array_equal(np.tile(x, (copies, 1)).view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("n", [32, 128, 256])
def test_phase_slice_roots_are_within_a_few_ulp(n):
    # every entry with exponent q c = m mod N is the same gathered root,
    # exp(i 2 pi m / N), checked against 50 digits
    mpmath = pytest.importorskip("mpmath")
    x, _ = _phase_slice(n)
    exponents = np.outer(np.arange(1, len(x) + 1), np.arange(n)) % n
    with mpmath.workdps(50):
        for m in range(n):
            (root,) = np.unique(x[exponents == m])
            error = abs(mpmath.mpc(root.real, root.imag) - mpmath.expjpi(mpmath.mpf(2 * m) / n))
            assert error <= 4 * np.finfo(float).eps, m


def test_phase_matrix_needs_three_paths():
    with pytest.raises(ValueError, match="at least 3"):
        _phase_slice(2)


# --- optimal cubes ---------------------------------------------------------------------

def test_four_path_cubes_match_tabulated_entries():
    built = optimal_cubes(4)
    for cube, expected in zip(built, tabulated_four_path_cubes()):
        np.testing.assert_allclose(cube.entries, expected, atol=1e-12)
        assert hermiticity_violation(cube.entries) <= 1e-14


def test_reference_constants_agree_with_tabulated_cubes():
    for cube, expected in zip(
        reference_optimal_cubes_n4(), tabulated_four_path_cubes()
    ):
        np.testing.assert_allclose(cube.entries, expected, atol=0)


@pytest.mark.parametrize("n", range(3, 13))
def test_optimal_cubes_orthonormal(n):
    cubes = optimal_cubes(n)
    gram = np.array([[cube_inner(a, b) for b in cubes] for a in cubes])
    np.testing.assert_allclose(gram, np.eye(n), atol=1e-12)


def test_three_path_first_cube_is_the_interferometer_cube():
    np.testing.assert_allclose(
        optimal_cubes(3)[0].entries, interferometer_cube().entries, atol=1e-15
    )


def test_optimal_cubes_zero_population_on_own_path():
    for n, cube in enumerate(optimal_cubes(6), start=1):
        diag = cube.diagonal()
        assert diag[n - 1] == pytest.approx(0.0, abs=1e-15)
        assert cube.purity() == pytest.approx(1.0, abs=1e-12)


# --- matrix square root: the closing-block oracle ------------------------------------------

def test_sqrt_identity():
    np.testing.assert_allclose(hermitian_sqrt(np.eye(3)), np.eye(3), atol=1e-14)


def test_sqrt_diagonal():
    np.testing.assert_allclose(
        hermitian_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]), atol=1e-14
    )


def test_sqrt_of_three_path_coherence_complement():
    # with X = (1, w, w^2) the coherence Gram block is (3/4) id, so the
    # closing block must be id/2
    x, _ = _phase_slice(3)
    b = np.vstack([np.conj(x), x]) / 2.0
    d = hermitian_sqrt(np.eye(2) - b @ b.conj().T)
    np.testing.assert_allclose(d, np.eye(2) / 2.0, atol=1e-12)


def test_sqrt_squares_back(rng):
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    p = g @ g.conj().T
    root = hermitian_sqrt(p)
    np.testing.assert_allclose(root @ root, p, atol=1e-9)
    np.testing.assert_allclose(root, root.conj().T, atol=1e-10)


def test_sqrt_clamps_tolerated_negatives():
    root = hermitian_sqrt(np.diag([1.0, -1e-12]))
    np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-6)


def test_sqrt_rejects_indefinite_matrix():
    with pytest.raises(ValueError, match="positive semidefinite"):
        hermitian_sqrt(np.diag([1.0, -0.5]))


def test_sqrt_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_sqrt(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("n", range(3, 33))
def test_closed_form_closing_block_is_the_principal_root(n):
    t = assemble_multiport(n)
    b = t.matrix[n:, :n]
    root = hermitian_sqrt(np.eye(len(b)) - b @ b.conj().T)
    np.testing.assert_allclose(t.matrix[n:, n:], root, rtol=0, atol=1e-13)


# --- assembly --------------------------------------------------------------------------------

def test_assembled_three_path_matches_tabulated_matrix():
    np.testing.assert_allclose(
        assemble_multiport(3).matrix, tabulated_three_path_matrix(), atol=1e-12
    )


def test_assembled_four_path_closing_block():
    # (1/3) (2 id - antidiagonal ones)
    expected = (2.0 * np.eye(6) - np.fliplr(np.eye(6))) / 3.0
    np.testing.assert_allclose(assemble_multiport(4).matrix[4:, 4:], expected, atol=1e-12)


@pytest.mark.parametrize("n", range(3, 33))
def test_assembled_multiport_is_bit_identical_to_the_out_of_place_formula(n):
    # dump-matrix prints the sign of every zero, which allclose cannot see
    expected = out_of_place_multiport(n)
    actual = assemble_multiport(n).matrix
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


def test_assembly_holds_the_matrix_once():
    tracemalloc.start()
    try:
        t = assemble_multiport(32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * t.matrix.nbytes


def test_writable_matrix_is_copied_and_read_only_owner_adopted():
    matrix = np.array(t3_matrix().matrix)
    t = MultiportMatrix(3, matrix)
    assert not np.shares_memory(t.matrix, matrix) and not t.matrix.flags.writeable
    matrix[0, 0] = 7.0
    assert t.matrix[0, 0] == 0.0
    view = matrix[:, :]
    view.setflags(write=False)
    assert not np.shares_memory(MultiportMatrix(3, view).matrix, matrix)
    matrix.setflags(write=False)
    assert MultiportMatrix(3, matrix).matrix is matrix


@pytest.mark.parametrize("n", range(3, 13))
def test_assembled_identities(n):
    t = assemble_multiport(n)
    d = t.basis.dim
    block_b, block_d = t.matrix[n:, :n], t.matrix[n:, n:]
    assert np.linalg.norm(t.matrix @ t.matrix - np.eye(d)) < 1e-9
    assert np.linalg.norm(t.matrix - t.matrix.conj().T) < 1e-9
    # the intertwining identity behind the principal-root choice
    np.testing.assert_allclose(
        block_d @ block_b, block_b / (n - 1), atol=1e-10
    )
    # coherence Gram spectrum in {0, N(N-2)/(N-1)^2}
    eigs = np.linalg.eigvalsh(block_b @ block_b.conj().T)
    target = n * (n - 2) / (n - 1) ** 2
    assert np.minimum(np.abs(eigs), np.abs(eigs - target)).max() < 1e-9
    # closing-block spectrum in {1, 1/(N-1)}
    d_eigs = np.linalg.eigvalsh(block_d)
    assert np.minimum(np.abs(d_eigs - 1), np.abs(d_eigs - 1 / (n - 1))).max() < 1e-9


@pytest.mark.parametrize("n", [3, 4, 7])
def test_assembled_maps_path_cubes_to_optimal_cubes(n):
    t = assemble_multiport(n)
    targets = optimal_cubes(n)
    for path in range(1, n + 1):
        image = apply_transform(t, basis_cube(n, path))
        np.testing.assert_allclose(
            image.entries, targets[path - 1].entries, atol=1e-12
        )


def test_apply_transform_involution():
    t = assemble_multiport(5)
    once = apply_transform(t, basis_cube(5, 2))
    back = apply_transform(t, once)
    np.testing.assert_allclose(back.entries, basis_cube(5, 2).entries, atol=1e-12)


def test_apply_transform_preserves_population_sum(rng):
    t = assemble_multiport(4)
    diag = rng.dirichlet(np.ones(4))
    cube = hermitian_complete(
        {(j, j, j): diag[j - 1] for j in range(1, 5)}, 4, is_state=True
    )
    image = apply_transform(t, cube)
    assert image.diagonal().sum() == pytest.approx(1.0, abs=1e-12)


# --- verification -----------------------------------------------------------------------------

def test_verify_tabulated_three_path():
    report = dense_report(t3_matrix())
    assert report.adjoint_residual < 1e-12
    assert report.involution_residual < 1e-12
    assert report.pairing_violation < 1e-12
    assert report.diagonal_sum_drift < 1e-12
    assert report.passes(1e-12)


@pytest.mark.parametrize("n", range(3, 33))
def test_verify_assembled_multiport(n):
    report = verify_multiport(n)
    assert report.worst() <= 1e-12
    assert report.passes()


@pytest.mark.parametrize("n", range(3, 33))
def test_block_report_matches_dense_oracle(n):
    report, oracle = verify_multiport(n), dense_report(assemble_multiport(n))
    shared = [getattr(oracle, field.name) for field in fields(MultiportReport)]
    np.testing.assert_allclose(astuple(report)[1:], shared[1:], rtol=0, atol=1e-14)
    assert report.n_paths == oracle.n_paths
    assert report.passes() == oracle.passes()
    # the three residuals that the block form holds by construction
    assert oracle.adjoint_residual <= 1e-14
    assert oracle.pairing_violation <= 1e-14
    assert oracle.d_spectrum_deviation <= 1e-14


def test_verify_holds_no_dense_matrix():
    # half of one d x d complex matrix at N = 32 (d = 962), and one stacked
    # R x N complex block B at N = 128 (R = 127 * 126)
    for n, limit in [(32, 962**2 * 16 / 2), (128, 127 * 126 * 128 * 16)]:
        tracemalloc.start()
        try:
            verify_multiport(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, n


def corrupted_three_path_multiport(entries=((0, 1, 1e-3),)):
    t = assemble_multiport(3)
    corrupted = np.array(t.matrix)
    for row, column, shift in entries:
        corrupted[row, column] += shift
    return replace(t, matrix=corrupted)


def test_verify_detects_corruption():
    report = dense_report(corrupted_three_path_multiport())
    assert report.involution_residual >= 1e-4
    assert report.diagonal_sum_drift >= 1e-4
    assert not report.passes()


@pytest.mark.parametrize(
    "make",
    [
        lambda: assemble_multiport(3),
        lambda: assemble_multiport(6),
        t3_matrix,
        lambda: alternative_multiport_n4(1),
        lambda: alternative_multiport_n4(2),
        corrupted_three_path_multiport,
        # keeps the pairing, but lets coherence 2_3 feed path 1's population
        lambda: corrupted_three_path_multiport(((0, 3, 1e-3j), (0, 4, -1e-3j))),
    ],
    ids=[
        "assembled-3",
        "assembled-6",
        "t3",
        "alternative-1",
        "alternative-2",
        "corrupted",
        "corrupted-coherence-weight",
    ],
)
def test_verify_identities_match_images_of_hermitian_vectors(make, rng):
    # the oracle: apply M to Hermitian coordinate vectors (real populations,
    # conjugate-paired coherences) and inspect the images directly
    t = make()
    n, d = t.n_paths, t.basis.dim
    p = (d - n) // 2
    coherences = rng.normal(size=(20, p)) + 1j * rng.normal(size=(20, p))
    vectors = np.hstack([rng.normal(size=(20, n)), coherences, coherences.conj()])
    images = vectors @ t.matrix.T
    pairing = max(
        np.abs(images[:, :n].imag).max(),
        np.abs(images[:, n : n + p] - images[:, n + p :].conj()).max(),
    )
    drift = np.abs(images[:, :n].sum(axis=1) - vectors[:, :n].sum(axis=1)).max()
    report = dense_report(t)
    assert (pairing > 1e-12) == (report.pairing_violation > 1e-12)
    assert (drift > 1e-12) == (report.diagonal_sum_drift > 1e-12)


@pytest.mark.parametrize("n", [3, 6])
def test_verify_reports_nan_for_a_nan_entry(n):
    t = assemble_multiport(n)
    corrupted = np.array(t.matrix)
    corrupted[0, 1] = np.nan
    report = dense_report(replace(t, matrix=corrupted))
    assert math.isnan(report.pairing_violation)
    assert math.isnan(report.diagonal_sum_drift)
    assert not report.passes()


@pytest.mark.parametrize(
    "cell, field",
    [((5, 5), "d_spectrum_deviation"), ((6, 0), "bb_spectrum_deviation")],
    ids=["closing-block", "coherence-block"],
)
def test_verify_reports_nan_for_a_non_finite_spectrum_block(cell, field):
    # eigvalsh raises on these blocks; the report carries a NaN instead
    t = assemble_multiport(4)
    corrupted = np.array(t.matrix)
    corrupted[cell] = np.nan
    report = dense_report(replace(t, matrix=corrupted))
    assert math.isnan(getattr(report, field))
    assert not report.passes()


RESIDUAL_COUNT = len(fields(MultiportReport)) - 1  # every field but n_paths


@pytest.mark.parametrize("position", range(RESIDUAL_COUNT))
def test_worst_propagates_a_nan_from_any_field(position):
    residuals = [0.0] * RESIDUAL_COUNT
    residuals[position] = math.nan
    report = MultiportReport(3, *residuals)
    assert math.isnan(report.worst())
    assert not report.passes()


def test_alternative_closing_blocks():
    tabulated = tabulated_four_path_matrix_variant2()
    for variant in (1, 2):
        t = alternative_multiport_n4(variant)
        d = t.basis.dim
        assert np.linalg.norm(t.matrix @ t.matrix - np.eye(d)) < 1e-12
        assert np.linalg.norm(t.matrix - t.matrix.conj().T) < 1e-12
    np.testing.assert_allclose(
        alternative_multiport_n4(2).matrix, tabulated, atol=1e-12
    )
    d2, d3 = alternative_d_blocks_n4()
    assert not np.allclose(d2, d3)


@pytest.mark.parametrize("variant", [1, 2])
def test_alternative_closing_blocks_break_the_multiport_contract(variant):
    # self-adjoint involutions, but they break the Hermiticity pairing and
    # have the eigenvalue -1 outside the admissible set {1, 1/3}
    report = dense_report(alternative_multiport_n4(variant))
    assert report.involution_residual <= 1e-12
    assert report.adjoint_residual <= 1e-12
    assert report.pairing_violation > 0.1
    assert report.d_spectrum_deviation > 0.1


# --- construction check ------------------------------------------------------------------------
# With k = (N-1)/N and G0 = (N-2)/(N-1)^2 (N id - ones), B+B = G0 and B 1 = 0
# make every block of M M - id vanish through these closed-form identities.

@pytest.mark.parametrize("n", range(3, 33))
def test_closed_form_identities_behind_the_construction_check(n):
    a = _slice_blocks(n)[0]
    eye, ones, k = np.eye(n), np.ones((n, n)), (n - 1) / n
    g0 = (n - 2) / (n - 1) ** 2 * (n * eye - ones)
    np.testing.assert_allclose(a @ a + g0, eye, rtol=0, atol=1e-13)
    np.testing.assert_allclose(g0 @ np.ones(n), 0.0, rtol=0, atol=1e-13)
    np.testing.assert_allclose(a + eye - k * g0, (2 / n) * ones, rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        (1 - 2 * k) * eye + k**2 * g0, -((n - 2) / n**2) * ones, rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("n", [*range(3, 33), 64, 128, 256])
def test_construction_check_residuals_have_headroom(n):
    # the residuals the check compares, on the phase slice
    x, copies = _phase_slice(n)
    target = (n - 2) * (n * np.eye(n) - np.ones((n, n)))
    assert np.abs(2 * copies * _matmul(x.conj().T, x).real - target).max() <= MATRIX_TOL / 100
    assert np.abs(x.sum(axis=1)).max() <= MATRIX_TOL / 100


BLOCK_READERS = {
    "assemble_multiport": assemble_multiport,
    "optimal_cubes": optimal_cubes,
    "verify_multiport": verify_multiport,
    "nonquantum_cube": lambda n: nonquantum_cube(DensityMatrix.maximally_mixed(n), 1),
    "run_cube_ifm": run_cube_ifm,
}


@pytest.mark.parametrize("reader", sorted(BLOCK_READERS))
@pytest.mark.parametrize("corruption", ["rotated", "nan"])
def test_construction_check_rejects_a_corrupted_phase_table(corruption, reader, monkeypatch):
    # a NaN residual compares false against any tolerance, so a check written
    # as "residual > tol" would let the NaN table through
    x, copies = _phase_slice(5)
    x[1, 2] = np.nan if corruption == "nan" else x[1, 2] * np.exp(1e-4j)
    monkeypatch.setattr("cubesim.multiport._phase_slice", lambda n_paths: (x, copies))
    with pytest.raises(ValueError, match=r"breaks B\+B = G0 or B 1 = 0"):
        BLOCK_READERS[reader](5)


# --- shape validation --------------------------------------------------------------------------

def test_multiport_shape_validation():
    with pytest.raises(ValueError, match="5 x 5"):
        MultiportMatrix(3, np.eye(4, dtype=complex))


def test_multiport_derives_its_basis_once(monkeypatch):
    # the path count fixes the basis, so it is no field; each matrix
    # builds it once, and assembly builds no other
    assert [field.name for field in fields(MultiportMatrix)] == ["n_paths", "matrix"]
    built = []
    monkeypatch.setattr(
        "cubesim.multiport.sub_basis", lambda n: built.append(n) or sub_basis(n)
    )
    for make, n in ((lambda: assemble_multiport(5), 5), (t3_matrix, 3)):
        t = make()
        assert t.basis is t.basis and t.basis.n_paths == n
    assert built == [5, 3]
