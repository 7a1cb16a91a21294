import json
import math
import tracemalloc
from dataclasses import astuple
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubesim.cubes import (
    basis_cube,
    dephase,
    luders_update_cube,
    measure_path_prob,
    quantum_to_cube,
)
from cubesim.experiments import (
    cube_tradeoff_bound,
    region_scan,
    region_scan_csv,
    run_cube_ifm,
    run_quantum_presets,
    sample_clicks,
    sorkin_term,
)
from cubesim.multiport import (
    MultiportMatrix,
    _matvec,
    _slice_blocks,
    apply_transform,
    assemble_multiport,
    from_coords,
    sub_basis,
    t3_matrix,
    verify_multiport,
)
from cubesim.quantum import DensityMatrix
from cubesim.results import IFMResult, results_to_csv
from cubesim.tensor import DEFAULT_TOL, HermitianCube, hermitian_complete
from oracles import interferometer_cube


# --- independent oracles ------------------------------------------------------
# Closed form for the cube pipeline: the multiport sends the injected path
# cube to a cube with zero population in path 1 and 1/(N-1) elsewhere.  A
# not-found measurement erases all coherences, leaving the uniform mixture
# over paths 2..N, and the second multiport pass returns each of those path
# cubes to port 1 with amplitude-coordinate 1/(N-1), so
# P_inconclusive = sum_{n>=2} (1/(N-1)) * (1/(N-1)) = 1/(N-1).

def pipeline_oracle(n):
    return 0.0, 1.0 / (n - 1), 1.0 - 1.0 / (n - 1)


def dense_cube_ifm(n):
    """The cube pipeline on dense cubes and the assembled d x d matrix:
    (result, no-bomb gap).  ``run_cube_ifm`` runs the same steps on the
    block A and the phase slice x."""
    transform = assemble_multiport(n)
    injected = basis_cube(n, 1)
    inside = apply_transform(transform, injected)
    no_bomb = apply_transform(transform, inside)
    gap = float(np.abs(no_bomb.entries - injected.entries).max())
    p_trigger = measure_path_prob(inside, 1)
    updated = luders_update_cube(inside, 1, found=False)
    out = apply_transform(transform, updated)
    p_inconclusive = (1.0 - p_trigger) * measure_path_prob(out, 1)
    result = IFMResult(
        model="cube",
        n_paths=n,
        p_trigger=p_trigger,
        p_inconclusive=p_inconclusive,
        p_success=1.0 - p_trigger - p_inconclusive,
        bound_value=cube_tradeoff_bound(p_trigger, n),
        label=f"cube_multiport_{n}",
    )
    return result, gap


def sorkin_oracle(cube, transform, port):
    """Subset enumeration written from scratch on raw tensors."""
    n = cube.n_paths
    basis = transform.basis

    def truncated(subset):
        keep = np.zeros(n, dtype=bool)
        keep[[p - 1 for p in subset]] = True
        mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
        return np.where(mask, cube.entries, 0.0)

    def intensity(subset):
        coords = np.einsum("djkl,jkl->d", basis.cubes.conj(), truncated(subset))
        return float((transform.matrix @ coords)[port - 1].real)

    total = intensity((1, 2, 3))
    for pair in combinations((1, 2, 3), 2):
        total -= intensity(pair)
    for single in combinations((1, 2, 3), 1):
        total += intensity(single)
    return total


# --- cube pipeline --------------------------------------------------------------

def test_three_path_run_is_perfect_and_saturating():
    result = run_cube_ifm(3)
    assert result.p_trigger == pytest.approx(0.0, abs=1e-14)
    assert result.p_inconclusive == pytest.approx(0.5, abs=1e-14)
    assert result.p_success == pytest.approx(0.5, abs=1e-14)
    assert result.bound_value == pytest.approx(0.5, abs=1e-14)
    assert result.model == "cube"
    assert result.is_perfect()


@pytest.mark.parametrize("n", [4, 7, 11])
def test_general_run_matches_closed_form_oracle(n):
    expected = pipeline_oracle(n)
    result = run_cube_ifm(n)
    assert result.p_trigger == pytest.approx(expected[0], abs=1e-12)
    assert result.p_inconclusive == pytest.approx(expected[1], abs=1e-12)
    assert result.p_success == pytest.approx(expected[2], abs=1e-12)
    assert result.p_inconclusive == pytest.approx(result.bound_value, abs=1e-12)


def assert_within_one_and_a_half_ulp(result):
    # P_? and P_v are 1/(N-1) and (N-2)/(N-1) in exact arithmetic; the dense
    # pipeline's N x d product misses P_? by 1.83 ulp at N = 24
    n = result.n_paths
    for value, exact in [
        (result.p_inconclusive, Fraction(1, n - 1)),
        (result.p_success, Fraction(n - 2, n - 1)),
    ]:
        ulp = Fraction(math.ulp(float(exact)))
        assert abs(Fraction(value) - exact) <= ulp * 3 / 2, (n, value)


@pytest.mark.parametrize("n", range(3, 33))
def test_block_pipeline_matches_the_dense_oracle(n):
    result = run_cube_ifm(n)
    expected, dense_gap = dense_cube_ifm(n)
    # json.dumps tells -0.0 from 0.0 and spells every float exactly; P_? is
    # summed in another order, so it and P_v are held to the exact values
    got, want = result.to_json_dict(), expected.to_json_dict()
    for key in ("p_inconclusive", "p_success"):
        del got[key], want[key]
    assert json.dumps(got) == json.dumps(want)
    assert_within_one_and_a_half_ulp(result)
    assert all(type(value) is float for value in astuple(result)[2:6])
    # the block gap is computed in another order, so it may differ at the
    # rounding level; it accepts what the dense gap accepted
    run_cube_ifm(n, tol=dense_gap + 1e-14)


def column_one_gap(n):
    """The no-bomb gap, column 1 of M M - id, written out from the outputs
    of ``_slice_blocks``: populations ``A a_1 + G e_1 - e_1``, coherences
    ``x (a_1 + e_1 - k G e_1) / (N-1)`` over sqrt(3), ``k = (N-1)/N``."""
    a, x, _, gram = _slice_blocks(n)
    e1, k, g1 = np.eye(n)[0], (n - 1) / n, gram[:, 0]
    populations = _matvec(a, a[:, 0]) + g1 - e1
    coherences = _matvec(x, a[:, 0] + e1 - k * g1) / (n - 1)
    return float(max(np.abs(populations).max(), np.abs(coherences).max() / np.sqrt(3.0)))


@pytest.mark.parametrize("n", [*range(3, 33), 64, 128])
def test_tol_accepts_the_exact_no_bomb_gap_and_nothing_below(n):
    # which --tol values exit 1 depends on every rounding of the gap
    gap = column_one_gap(n)
    assert 0.0 < gap < 1e-14
    run_cube_ifm(n, tol=gap)
    with pytest.raises(ValueError, match="no-bomb output deviates"):
        run_cube_ifm(n, tol=np.nextafter(gap, 0.0))


def test_cube_run_above_the_cli_cap_is_within_one_and_a_half_ulp():
    # the dense oracle's d x d matrix is 4 GB at N = 128
    for n in [*range(33, 129), 256]:
        assert_within_one_and_a_half_ulp(run_cube_ifm(n))
    assert verify_multiport(256).passes()


def test_cube_run_builds_no_cube(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cube pipeline built a dense object")

    monkeypatch.setattr(HermitianCube, "__post_init__", refuse)
    monkeypatch.setattr(MultiportMatrix, "__post_init__", refuse)
    assert run_cube_ifm(7).p_inconclusive == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_cube_run_guards_apply_to_the_block_readout(monkeypatch):
    # population 1 of the inside cube is A[0, 0]; make it certain, then
    # out of range, to reach the guards that the dense pipeline ran (an
    # infinite tolerance lets the run past the no-bomb gap)
    def blocks(population):
        def patched(n):
            a, *rest = _slice_blocks(n)
            a = a.copy()
            a[0, 0] = population
            return a, *rest

        return patched

    monkeypatch.setattr("cubesim.experiments._slice_blocks", blocks(1.0))
    with pytest.raises(ValueError, match="certainly"):
        run_cube_ifm(3, tol=math.inf)
    monkeypatch.setattr("cubesim.experiments._slice_blocks", blocks(1.0 + 2 * DEFAULT_TOL))
    with pytest.raises(ValueError, match="outside"):
        run_cube_ifm(3, tol=math.inf)


def test_no_bomb_output_is_the_injected_cube():
    # the single-port readout rests on this; check it directly
    t = assemble_multiport(5)
    inside = apply_transform(t, basis_cube(5, 1))
    back = apply_transform(t, inside)
    np.testing.assert_allclose(back.entries, basis_cube(5, 1).entries, atol=1e-12)


def test_pure_to_mixed_signature():
    from cubesim.cubes import luders_update_cube

    t = assemble_multiport(3)
    inside = apply_transform(t, basis_cube(3, 1))
    assert inside.purity() == pytest.approx(1.0, abs=1e-14)
    updated = luders_update_cube(inside, 1, found=False)
    assert updated.purity() == pytest.approx(0.5, abs=1e-14)


# --- trade-off bound -------------------------------------------------------------

def test_bound_values():
    assert cube_tradeoff_bound(0.0, 3) == pytest.approx(0.5)
    assert cube_tradeoff_bound(0.0, 2) == pytest.approx(1.0)
    assert cube_tradeoff_bound(1.0, 7) == 0.0


def test_bound_argument_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        cube_tradeoff_bound(1.5, 3)
    with pytest.raises(ValueError, match="at least 2"):
        cube_tradeoff_bound(0.5, 1)


# --- region scan ------------------------------------------------------------------

def test_scan_two_path_row_is_the_quantum_curve():
    rows = region_scan([2], 11)
    for _, p, bound in rows:
        assert bound == pytest.approx((1.0 - p) ** 2, abs=1e-15)


def test_scan_intercepts():
    rows = region_scan([2, 3, 4, 5], 3)
    intercepts = {n: bound for n, p, bound in rows if p == 0.0}
    assert intercepts == pytest.approx({2: 1.0, 3: 0.5, 4: 1.0 / 3.0, 5: 0.25})


def test_scan_regions_nested_and_monotone():
    rows = region_scan([2, 3, 4, 10], 101)
    assert len(rows) == 404
    by_n = {}
    for n, p, bound in rows:
        by_n.setdefault(n, []).append(bound)
    for n, bounds in by_n.items():
        assert all(a >= b - 1e-15 for a, b in zip(bounds, bounds[1:]))
    for a, b in ((2, 3), (3, 4), (4, 10)):
        assert all(
            x >= y - 1e-15 for x, y in zip(by_n[a], by_n[b])
        )


def test_scan_grid_validation():
    with pytest.raises(ValueError, match="grid_points"):
        region_scan([3], 1)


def test_scan_csv_shape():
    text = region_scan_csv(region_scan([2, 3], 5))
    lines = text.strip().split("\n")
    assert lines[0] == "n_paths,p_trigger,bound"
    assert len(lines) == 11
    assert lines[1] == "2,0.0,1.0"


# --- third-order interference -------------------------------------------------------

def test_sorkin_vanishes_without_any_coherence():
    cube = quantum_to_cube(DensityMatrix(3, np.diag([0.2, 0.3, 0.5]).astype(complex)))
    assert sorkin_term(cube, t3_matrix(), 1) == pytest.approx(0.0, abs=1e-14)


def test_sorkin_vanishes_for_dephased_quantum_cubes(rng):
    t3 = t3_matrix()
    for _ in range(50):
        weights = rng.dirichlet(np.ones(3))
        cube = dephase(
            quantum_to_cube(DensityMatrix(3, np.diag(weights.astype(complex))))
        )
        term = sorkin_term(cube, t3, port=int(rng.integers(1, 4)))
        assert abs(term) < 1e-12
        assert term == pytest.approx(sorkin_oracle(cube, t3, 1), abs=1e-12)


def test_sorkin_of_interferometer_cube_matches_oracle():
    cube = interferometer_cube()
    t3 = t3_matrix()
    oracle_value = sorkin_oracle(cube, t3, 1)
    assert oracle_value == pytest.approx(0.5, abs=1e-14)
    assert sorkin_term(cube, t3, 1) == pytest.approx(oracle_value, abs=1e-14)


FINITE = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.complex_numbers(max_magnitude=10.0, **FINITE), min_size=25, max_size=25),
    st.lists(st.floats(-10.0, 10.0, **FINITE), min_size=3, max_size=3),
    st.complex_numbers(max_magnitude=10.0, **FINITE),
    st.integers(1, 3),
)
def test_sorkin_term_matches_oracle_for_any_matrix_and_cube(entries, populations, coherence, port):
    # the identity behind sorkin_term needs neither t3 nor a state
    basis = sub_basis(3)
    m = np.array(entries).reshape(5, 5)
    v = np.array([*populations, coherence, np.conj(coherence)])
    cube = from_coords(v, basis)
    transform = MultiportMatrix(3, m)
    slack = 1e-12 * (1.0 + np.linalg.norm(m) * np.linalg.norm(v))
    assert abs(sorkin_term(cube, transform, port) - sorkin_oracle(cube, transform, port)) <= slack


def test_sorkin_intensities_behind_the_oracle():
    # the subset intensities themselves, frozen from the oracle run:
    # I_123 = 1, I_23 = 1/2, I_12 = I_13 = I_2 = I_3 = 1/4, I_1 = 0
    cube = interferometer_cube()
    t3 = t3_matrix()
    basis = t3.basis

    def intensity(subset):
        keep = np.zeros(3, dtype=bool)
        keep[[p - 1 for p in subset]] = True
        mask = keep[:, None, None] & keep[None, :, None] & keep[None, None, :]
        coords = np.einsum(
            "djkl,jkl->d", basis.cubes.conj(), np.where(mask, cube.entries, 0.0)
        )
        return float((t3.matrix @ coords)[0].real)

    assert intensity((1, 2, 3)) == pytest.approx(1.0, abs=1e-14)
    assert intensity((2, 3)) == pytest.approx(0.5, abs=1e-14)
    assert intensity((1, 2)) == pytest.approx(0.25, abs=1e-14)
    assert intensity((1, 3)) == pytest.approx(0.25, abs=1e-14)
    assert intensity((1,)) == pytest.approx(0.0, abs=1e-14)
    assert intensity((2,)) == pytest.approx(0.25, abs=1e-14)
    assert intensity((3,)) == pytest.approx(0.25, abs=1e-14)


def test_sorkin_argument_validation():
    cube = interferometer_cube()
    with pytest.raises(ValueError, match="port"):
        sorkin_term(cube, t3_matrix(), 4)
    four_path = hermitian_complete(
        {(j, j, j): 0.25 for j in range(1, 5)}, 4, is_state=True
    )
    with pytest.raises(ValueError, match="3-path"):
        sorkin_term(four_path, t3_matrix(), 1)


def test_sorkin_rejects_two_path_coherence():
    cube = quantum_to_cube(DensityMatrix.from_state_vector([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="dephase"):
        sorkin_term(cube, t3_matrix(), 1)


def test_large_cube_run_stays_small_in_memory():
    # the pipeline works on A and the phase slice x, never on the d x d
    # matrix (14.8 MB at N = 32, d = 962), on dense N^3 cubes or on one
    # stacked R x N complex block B (32 MB at N = 128, R = 127 * 126)
    for n, limit in [(32, 962**2 * 16), (128, 127 * 126 * 128 * 16)]:
        tracemalloc.start()
        try:
            result = run_cube_ifm(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.p_inconclusive == pytest.approx(1.0 / (n - 1), abs=1e-12)
        assert peak < limit, n


# --- quantum presets ------------------------------------------------------------------

def test_preset_list_shape_and_labels():
    presets = run_quantum_presets()
    assert [r.label for r in presets] == ["elitzur_vaidman"] + [
        f"fourier_{n}" for n in range(2, 9)
    ]
    assert all(r.model == "quantum" for r in presets)


def test_preset_bomb_tester_values():
    ev = run_quantum_presets()[0]
    assert ev.p_trigger == pytest.approx(0.5, abs=1e-12)
    assert ev.p_inconclusive == pytest.approx(0.25, abs=1e-12)
    assert ev.p_success == pytest.approx(0.25, abs=1e-12)


def test_preset_fourier_values():
    for r in run_quantum_presets():
        if not r.label.startswith("fourier"):
            continue
        n = r.n_paths
        assert r.p_trigger == pytest.approx(1.0 / n, abs=1e-12)
        assert r.p_inconclusive == pytest.approx((1.0 - 1.0 / n) ** 2, abs=1e-12)


def test_presets_never_perfect():
    for r in run_quantum_presets():
        assert not r.is_perfect()


def test_cube_runs_are_perfect():
    for n in range(3, 9):
        assert run_cube_ifm(n).is_perfect()


# --- result records ----------------------------------------------------------------------

def test_result_validation():
    with pytest.raises(ValueError, match="model"):
        IFMResult("classical", 3, 0.0, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="sum to"):
        IFMResult("cube", 3, 0.0, 0.5, 0.2, 0.5)
    with pytest.raises(ValueError, match="outside"):
        IFMResult("cube", 3, -0.5, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError, match="lower bound"):
        IFMResult("cube", 3, 0.0, 0.2, 0.8, 0.5)
    with pytest.raises(ValueError, match="lower bound nan"):
        IFMResult("cube", 3, 0.0, 0.5, 0.5, float("nan"))


def test_result_json_keys():
    payload = run_cube_ifm(3).to_json_dict()
    assert payload["bound"] == pytest.approx(0.5)
    assert set(payload) == {
        "model",
        "n_paths",
        "p_trigger",
        "p_inconclusive",
        "p_success",
        "bound",
        "label",
        "support_sensitive",
    }


def test_results_csv():
    text = results_to_csv([run_cube_ifm(3)])
    lines = text.strip().split("\n")
    assert lines[0] == "model,n_paths,p_trigger,p_inconclusive,p_success,bound"
    assert lines[1].startswith("cube,3,0.0,0.5,0.5,0.5")


def test_results_csv_prints_numpy_floats_as_plain_numbers():
    # numpy 2's repr of a float64 is "np.float64(0.5)"; a CSV cell is "0.5"
    half = np.float64(0.5)
    record = IFMResult("cube", 3, np.float64(0.0), half, half, half)
    assert results_to_csv([record]).split("\n")[1] == "cube,3,0.0,0.5,0.5,0.5"


# --- click sampler -------------------------------------------------------------------------

def test_click_sampler_deterministic():
    result = run_cube_ifm(3)
    a = sample_clicks(result, shots=1000, seed=5)
    b = sample_clicks(result, shots=1000, seed=5)
    assert a == b
    assert a["trigger"] + a["inconclusive"] + a["success"] == 1000
    assert a["trigger"] == 0  # perfect run never detonates


def test_click_sampler_validation():
    with pytest.raises(ValueError, match="shots"):
        sample_clicks(run_cube_ifm(3), shots=0, seed=1)
