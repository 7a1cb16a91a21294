from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesim import cubes, experiments, multiport, quantum, results
from cubesim.quantum import DensityMatrix, UnitaryMatrix, fourier_unitary
from cubesim.tensor import (
    DEFAULT_TOL,
    HermitianCube,
    cube_inner,
    hermitian_complete,
    hermiticity_violation,
)
from oracles import SQRT3, interferometer_cube, oracle_complete


def unit_cube(path, n=3):
    return hermitian_complete({(path, path, path): 1.0}, n, is_state=True)


# --- inner product ----------------------------------------------------------

def test_inner_unit_cube_is_one():
    m1 = unit_cube(1)
    assert cube_inner(m1, m1) == pytest.approx(1.0, abs=1e-15)


def test_inner_with_interferometer_cube_vanishes_on_path_1():
    assert cube_inner(unit_cube(1), interferometer_cube()) == pytest.approx(
        0.0, abs=1e-15
    )


def test_inner_post_measurement_cube_is_mixed():
    half_half = hermitian_complete(
        {(2, 2, 2): 0.5, (3, 3, 3): 0.5}, 3, is_state=True
    )
    assert cube_inner(half_half, half_half) == pytest.approx(0.5, abs=1e-15)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        cube_inner(unit_cube(1, n=3), unit_cube(1, n=4))


def test_inner_imaginary_residue_rejected():
    # each skew is within the construction tolerance, but the C(6, 3) = 20
    # skewed orbits add up to an imaginary residue of 1e-9 in the product
    triples = list(combinations(range(1, 7), 3))
    base = hermitian_complete(dict.fromkeys(triples, 1.0), 6)
    entries = np.array(base.entries)
    for j, k, l in triples:
        entries[j - 1, k - 1, l - 1] += 5e-11j
    skewed = HermitianCube(6, entries)
    assert 0 < hermiticity_violation(skewed.entries) <= DEFAULT_TOL
    with pytest.raises(ValueError, match="imaginary residue"):
        cube_inner(skewed, base)


# --- hermiticity predicate --------------------------------------------------

def test_unit_cube_is_hermitian():
    assert hermiticity_violation(unit_cube(1).entries) <= DEFAULT_TOL


def test_broken_conjugation_detected():
    bad = np.zeros((3, 3, 3), dtype=complex)
    bad[0, 1, 2] = 1j
    bad[1, 0, 2] = 1j  # must be -1j
    assert not hermiticity_violation(bad) <= DEFAULT_TOL
    assert hermiticity_violation(bad) == pytest.approx(2.0)


def test_reference_four_path_cubes_are_hermitian():
    from cubesim.multiport import reference_optimal_cubes_n4

    for cube in reference_optimal_cubes_n4():
        assert hermiticity_violation(cube.entries) <= DEFAULT_TOL


# --- completion -------------------------------------------------------------

def test_complete_interferometer_pattern():
    cube = interferometer_cube()
    value = 1.0 / (2.0 * SQRT3)
    for pos in [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]:
        assert cube.entries[pos] == pytest.approx(value)
    assert cube.entries[1, 1, 1] == pytest.approx(0.5)
    assert cube.purity() == pytest.approx(1.0, abs=1e-14)


def test_complete_diagonal_only():
    cube = hermitian_complete({(1, 1, 1): 0.25, (2, 2, 2): 0.75}, 2, is_state=True)
    expected = np.zeros((2, 2, 2), dtype=complex)
    expected[0, 0, 0] = 0.25
    expected[1, 1, 1] = 0.75
    np.testing.assert_allclose(cube.entries, expected)


def test_complete_matches_permutation_oracle(rng):
    canonical = {
        (1, 2, 3): complex(rng.standard_normal(), rng.standard_normal()),
        (1, 3, 4): complex(rng.standard_normal(), rng.standard_normal()),
    }
    cube = hermitian_complete(canonical, 4)
    np.testing.assert_allclose(cube.entries, oracle_complete(canonical, 4), atol=0)


def test_complete_rejects_complex_diagonal():
    with pytest.raises(ValueError, match="real"):
        hermitian_complete({(1, 1, 1): 1.0 + 1e-3j}, 3)


def test_complete_rejects_complex_two_path_entry():
    # entries with a repeated index are their own odd permutation
    with pytest.raises(ValueError, match="real"):
        hermitian_complete({(1, 1, 2): 0.3j}, 3)


def test_complete_rejects_non_canonical_triple():
    with pytest.raises(ValueError, match="canonical"):
        hermitian_complete({(2, 1, 3): 1.0}, 3)
    with pytest.raises(ValueError, match="canonical"):
        hermitian_complete({(1, 2, 5): 1.0}, 3)


# --- construction invariants ------------------------------------------------

def test_state_cube_diagonal_sum_enforced():
    with pytest.raises(ValueError, match="sums to"):
        hermitian_complete({(1, 1, 1): 0.7}, 2, is_state=True)


def test_state_cube_purity_enforced():
    # diagonal sums to 1 but a huge coherence pushes the purity past 1
    with pytest.raises(ValueError, match="purity"):
        hermitian_complete(
            {(1, 1, 1): 0.5, (2, 2, 2): 0.5, (1, 2, 3): 0.9}, 3, is_state=True
        )


def test_state_cube_diagonal_range_enforced():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        hermitian_complete(
            {(1, 1, 1): 1.5, (2, 2, 2): -0.5}, 2, is_state=True
        )


def test_non_hermitian_entries_rejected():
    bad = np.zeros((3, 3, 3), dtype=complex)
    bad[0, 1, 2] = 1.0
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianCube(3, bad)


def test_minimum_path_count():
    with pytest.raises(ValueError, match="at least 2"):
        HermitianCube(1, np.zeros((1, 1, 1), dtype=complex))


def test_entries_are_frozen():
    cube = unit_cube(1)
    with pytest.raises(ValueError):
        cube.entries[0, 0, 0] = 2.0


# A NaN compares false against every bound, so each validated value type must
# reject it explicitly; one NaN entry and an all-NaN array are both tried.
NAN_CONSTRUCTORS = {
    "HermitianCube": (
        lambda: interferometer_cube().entries,
        lambda arr: HermitianCube(3, arr, is_state=True),
    ),
    "DensityMatrix": (
        lambda: DensityMatrix.maximally_mixed(2).entries,
        lambda arr: DensityMatrix(2, arr),
    ),
    "UnitaryMatrix": (
        lambda: fourier_unitary(2).entries,
        lambda arr: UnitaryMatrix(2, arr),
    ),
}


@pytest.mark.parametrize("everywhere", [False, True], ids=["one-entry", "all-entries"])
@pytest.mark.parametrize("name", sorted(NAN_CONSTRUCTORS))
def test_constructors_reject_nan(name, everywhere):
    valid, construct = NAN_CONSTRUCTORS[name]
    arr = np.array(valid())
    construct(arr)
    if everywhere:
        arr[...] = np.nan
    else:
        arr.flat[1] = np.nan
    with pytest.raises(ValueError):
        construct(arr)


# --- property tests ---------------------------------------------------------

reals = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def canonical_maps(draw, n_max=4):
    n = draw(st.integers(3, n_max))
    canonical = {}
    for triple in combinations_with_replacement(range(1, n + 1), 3):
        if not draw(st.booleans()):
            continue
        if len(set(triple)) < 3:
            canonical[triple] = complex(draw(reals))
        else:
            canonical[triple] = complex(draw(reals), draw(reals))
    return n, canonical


@given(canonical_maps())
@settings(max_examples=60, deadline=None)
def test_completion_always_hermitian(case):
    n, canonical = case
    assert hermiticity_violation(hermitian_complete(canonical, n).entries) <= 1e-14


@given(canonical_maps(), canonical_maps())
@settings(max_examples=60, deadline=None)
def test_cauchy_schwarz(case_a, case_b):
    n = max(case_a[0], case_b[0])
    a = hermitian_complete(case_a[1], case_a[0])
    b = hermitian_complete(case_b[1], case_b[0])
    if a.n_paths != n:
        a = hermitian_complete(case_a[1], n)
    if b.n_paths != n:
        b = hermitian_complete(case_b[1], n)
    cross = cube_inner(a, b)
    assert cross**2 <= cube_inner(a, a) * cube_inner(b, b) + 1e-9


@given(canonical_maps(), canonical_maps(), reals, reals)
@settings(max_examples=40, deadline=None)
def test_inner_symmetric_and_bilinear(case_a, case_b, alpha, beta):
    n = 4
    a = hermitian_complete(case_a[1], n)
    b = hermitian_complete(case_b[1], n)
    assert cube_inner(a, b) == pytest.approx(cube_inner(b, a), abs=1e-12)
    combo = HermitianCube(n, alpha * a.entries + beta * b.entries)
    target = alpha * cube_inner(a, a) + beta * cube_inner(b, a)
    assert cube_inner(combo, a) == pytest.approx(target, abs=1e-9)


# --- accessors ----------------------------------------------------------------

def test_entry_accessor_is_one_based():
    cube = interferometer_cube()
    assert cube.entry(2, 2, 2) == pytest.approx(0.5)
    assert cube.entry(1, 2, 3) == pytest.approx(1.0 / (2.0 * SQRT3))
    with pytest.raises(ValueError, match="out of range"):
        cube.entry(0, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        cube.entry(1, 2, 4)


# Every 1-based index check, with the message it raises for a value outside
# 1..N; quantum_ifm's bomb path is checked by DensityMatrix.probability.
INDEX_SITES = {
    "basis_cube": (lambda: cubes.basis_cube(3, 4), "path 4 out of range 1..3"),
    "measure_path_prob": (
        lambda: cubes.measure_path_prob(interferometer_cube(), 0),
        "path 0 out of range 1..3",
    ),
    "luders_update_cube": (
        lambda: cubes.luders_update_cube(interferometer_cube(), 4, found=False),
        "path 4 out of range 1..3",
    ),
    "nonquantum_cube": (
        lambda: cubes.nonquantum_cube(DensityMatrix.maximally_mixed(3), 0),
        "gamma 0 out of range 1..3",
    ),
    "DensityMatrix.path_state": (
        lambda: DensityMatrix.path_state(3, 0),
        "path 0 out of range 1..3",
    ),
    "DensityMatrix.probability": (
        lambda: DensityMatrix.maximally_mixed(2).probability(3),
        "path 3 out of range 1..2",
    ),
    "quantum_tradeoff_bounds": (
        lambda: quantum.quantum_tradeoff_bounds(DensityMatrix.maximally_mixed(3), 5),
        "bomb_path 5 out of range 1..3",
    ),
    "quantum_ifm": (
        lambda: quantum.quantum_ifm(
            DensityMatrix.maximally_mixed(3), fourier_unitary(3), bomb_path=0
        ),
        "path 0 out of range 1..3",
    ),
    "sorkin_term": (
        lambda: experiments.sorkin_term(interferometer_cube(), multiport.t3_matrix(), 4),
        "port 4 out of range 1..3",
    ),
    "HermitianCube.entry": (
        lambda: interferometer_cube().entry(1, 2, 4),
        "index 4 out of range 1..3",
    ),
}


@pytest.mark.parametrize("site", sorted(INDEX_SITES))
def test_index_checks_share_one_message(site):
    call, message = INDEX_SITES[site]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# Every path-count check, with the message it raises for too few paths.
PATH_COUNT_SITES = {
    "HermitianCube": (lambda: HermitianCube(1, np.zeros((1, 1, 1))), 2, 1),
    "IFMResult": (lambda: results.IFMResult("cube", 1, 0.0, 1.0, 0.0, 0.0), 2, 1),
    "cube_tradeoff_bound": (lambda: experiments.cube_tradeoff_bound(0.5, 1), 2, 1),
    "fourier_unitary": (lambda: fourier_unitary(1), 2, 1),
    "DensityMatrix": (lambda: DensityMatrix(1, [[1.0]]), 2, 1),
    "UnitaryMatrix": (lambda: UnitaryMatrix(1, [[1.0]]), 2, 1),
    "_phase_slice": (lambda: multiport._phase_slice(2), 3, 2),
    "sub_basis": (lambda: multiport.sub_basis(2), 3, 2),
    "nonquantum_cube": (lambda: cubes.nonquantum_cube(DensityMatrix.maximally_mixed(2), 1), 3, 2),
    "optimal_cubes(0)": (lambda: cubes.optimal_cubes(0), 3, 0),
    "optimal_cubes(1)": (lambda: cubes.optimal_cubes(1), 3, 1),
}


@pytest.mark.parametrize("site", sorted(PATH_COUNT_SITES))
def test_path_count_checks_share_one_message(site):
    call, minimum, n_paths = PATH_COUNT_SITES[site]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == f"need at least {minimum} paths, got {n_paths}"


def test_empty_canonical_map_yields_zero_cube():
    cube = hermitian_complete({}, 3)
    assert np.abs(cube.entries).max() == 0.0
