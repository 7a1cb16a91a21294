import json
import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesim.tensor import (
    HermitianCube,
    canonical_triples,
    cube_from_json_dict,
    cube_inner,
    cube_to_json_dict,
    extract_canonical,
    hermitian_complete,
    hermiticity_violation,
    is_hermitian,
)

SQRT3 = math.sqrt(3.0)


# --- independent oracle -----------------------------------------------------
# Completes a canonical-entry map by enumerating all index permutations and
# conjugating according to the sign of the permutation, computed by counting
# inversions (no shared code with the implementation's fixed table).

def oracle_complete(canonical, n):
    out = np.zeros((n, n, n), dtype=complex)
    for (j, k, l), value in canonical.items():
        base = (j - 1, k - 1, l - 1)
        for perm in permutations(range(3)):
            inversions = sum(
                1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
            )
            pos = tuple(base[p] for p in perm)
            out[pos] = value if inversions % 2 == 0 else np.conj(value)
    return out


def unit_cube(path, n=3):
    return hermitian_complete({(path, path, path): 1.0}, n, is_state=True)


def interferometer_cube():
    # pure 3-path cube: populations 1/2 on paths 2 and 3, all six
    # three-distinct-index entries equal to 1/(2 sqrt(3))
    return hermitian_complete(
        {(2, 2, 2): 0.5, (3, 3, 3): 0.5, (1, 2, 3): 1.0 / (2.0 * SQRT3)},
        3,
        is_state=True,
    )


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
    base = interferometer_cube()
    entries = np.array(base.entries)
    entries[0, 1, 2] += 5e-11j  # within construction tolerance, not exact
    skewed = HermitianCube(3, entries)
    with pytest.raises(ValueError, match="imaginary residue"):
        cube_inner(skewed, base, tol=1e-13)


# --- hermiticity predicate --------------------------------------------------

def test_unit_cube_is_hermitian():
    assert is_hermitian(unit_cube(1).entries)


def test_broken_conjugation_detected():
    bad = np.zeros((3, 3, 3), dtype=complex)
    bad[0, 1, 2] = 1j
    bad[1, 0, 2] = 1j  # must be -1j
    assert not is_hermitian(bad)
    assert hermiticity_violation(bad) == pytest.approx(2.0)


def test_reference_four_path_cubes_are_hermitian():
    from cubesim.multiport import reference_optimal_cubes_n4

    for cube in reference_optimal_cubes_n4():
        assert is_hermitian(cube.entries)


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


# --- property tests ---------------------------------------------------------

reals = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def canonical_maps(draw, n_max=4):
    n = draw(st.integers(3, n_max))
    canonical = {}
    for triple in canonical_triples(n):
        if not draw(st.booleans()):
            continue
        if len(set(triple)) < 3:
            canonical[triple] = complex(draw(reals))
        else:
            canonical[triple] = complex(draw(reals), draw(reals))
    return n, canonical


@given(canonical_maps())
@settings(max_examples=60, deadline=None)
def test_round_trip_complete_extract(case):
    n, canonical = case
    cube = hermitian_complete(canonical, n)
    rebuilt = hermitian_complete(extract_canonical(cube), n)
    np.testing.assert_allclose(rebuilt.entries, cube.entries, atol=0)


@given(canonical_maps())
@settings(max_examples=60, deadline=None)
def test_completion_always_hermitian(case):
    n, canonical = case
    assert is_hermitian(hermitian_complete(canonical, n).entries, tol=1e-14)


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


# --- serialization ----------------------------------------------------------

def test_json_round_trip_full_precision(rng):
    canonical = {
        (1, 1, 1): 0.3,
        (2, 2, 2): 0.7,
        (1, 2, 3): complex(rng.standard_normal(), rng.standard_normal()) / 10,
        (1, 1, 2): 0.1,
    }
    cube = hermitian_complete(canonical, 3)
    payload = json.loads(json.dumps(cube_to_json_dict(cube)))
    loaded = cube_from_json_dict(payload)
    np.testing.assert_array_equal(loaded.entries, cube.entries)


def test_json_layout_lists_canonical_triples_only():
    data = cube_to_json_dict(interferometer_cube())
    assert data["n_paths"] == 3
    triples = [(rec["j"], rec["k"], rec["l"]) for rec in data["entries"]]
    assert triples == [(1, 2, 3), (2, 2, 2), (3, 3, 3)]
    assert all(j <= k <= l for j, k, l in triples)


def test_entry_accessor_is_one_based():
    cube = interferometer_cube()
    assert cube.entry(2, 2, 2) == pytest.approx(0.5)
    assert cube.entry(1, 2, 3) == pytest.approx(1.0 / (2.0 * SQRT3))
    with pytest.raises(ValueError, match="out of range"):
        cube.entry(0, 1, 1)
    with pytest.raises(ValueError, match="out of range"):
        cube.entry(1, 2, 4)


def test_empty_canonical_map_yields_zero_cube():
    cube = hermitian_complete({}, 3)
    assert np.abs(cube.entries).max() == 0.0


def test_json_loader_can_validate_state_cubes():
    payload = cube_to_json_dict(interferometer_cube())
    loaded = cube_from_json_dict(payload, is_state=True)
    assert loaded.is_state
    bad = {"n_paths": 2, "entries": [{"j": 1, "k": 1, "l": 1, "re": 0.4, "im": 0.0}]}
    with pytest.raises(ValueError, match="sums to"):
        cube_from_json_dict(bad, is_state=True)
