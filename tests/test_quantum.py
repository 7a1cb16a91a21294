import math
import re

import numpy as np
import pytest

from cubesim.quantum import (
    SUPPORT_TOL,
    DensityMatrix,
    UnitaryMatrix,
    fourier_unitary,
    inject_first_path,
    luders_remove_path,
    quantum_ifm,
    quantum_tradeoff_bounds,
    random_density_matrix,
    random_pure_state,
    random_unitary,
    support_projector,
)
from cubesim.cubes import luders_update_cube, quantum_to_cube
from cubesim.experiments import fourier_preset
from cubesim.tensor import DEFAULT_TOL


# --- independent oracle -----------------------------------------------------
# Two-path bomb tester worked out by hand: the beam splitter sends the
# incoming particle into (|1> + |2>)/sqrt(2).  The bomb in path 1 triggers
# with probability 1/2; otherwise the particle is in path 2 and the second
# beam splitter routes it to the two output ports with probability 1/2
# each.  Only the bright port (port 1) is inconclusive, hence
# (P_trigger, P_inconclusive, P_success) = (1/2, 1/4, 1/4).

EV_ORACLE = (0.5, 0.25, 0.25)


def test_validation_rejects_bad_density_matrices():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(2, np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(2, 0.7 * np.eye(2, dtype=complex))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(2, np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex))


def test_validation_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        UnitaryMatrix(2, np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex))


def test_nan_unitary_fails_at_construction_not_in_the_bound_check():
    # NaN port probabilities would fall out of the support set and surface
    # as a spurious "violates the lower bound" instead
    with pytest.raises(ValueError, match="not unitary: residual nan"):
        quantum_ifm(
            DensityMatrix.maximally_mixed(2), UnitaryMatrix(2, np.full((2, 2), np.nan)), 1
        )


def test_fourier_two_paths_is_balanced():
    f = fourier_unitary(2).entries
    np.testing.assert_allclose(np.abs(f), np.full((2, 2), 1 / math.sqrt(2)), atol=1e-12)
    np.testing.assert_allclose(f[1, 1], -1 / math.sqrt(2), atol=1e-12)


def test_fourier_three_paths_columns_orthonormal():
    f = fourier_unitary(3).entries
    np.testing.assert_allclose(f.conj().T @ f, np.eye(3), atol=1e-12)


def test_fourier_four_paths_second_row():
    f = fourier_unitary(4).entries
    np.testing.assert_allclose(f[1], np.array([1, 1j, -1, -1j]) / 2.0, atol=1e-12)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_fourier_unitary_is_unitary_to_a_few_ulp(n):
    # its entries are gathered from one table of the n roots of unity, so
    # no phase carries the rounding of a large angle j k 2 pi / n
    f = fourier_unitary(n).entries
    assert np.abs(f.conj().T @ f - np.eye(n)).max() <= 4 * np.finfo(float).eps


def test_fourier_needs_two_paths():
    with pytest.raises(ValueError, match="at least 2"):
        fourier_unitary(1)


# --- path removal -----------------------------------------------------------

def test_remove_path_equal_superposition():
    rho = DensityMatrix.from_state_vector([1.0, 1.0])
    p, tilde = luders_remove_path(rho, 1)
    assert p == pytest.approx(0.5)
    np.testing.assert_allclose(
        tilde.entries, np.array([[0.0, 0.0], [0.0, 1.0]]), atol=1e-12
    )
    assert tilde.purity() == pytest.approx(1.0, abs=1e-12)


def test_remove_path_maximally_mixed():
    p, tilde = luders_remove_path(DensityMatrix.maximally_mixed(3), 1)
    assert p == pytest.approx(1.0 / 3.0)
    np.testing.assert_allclose(
        tilde.entries, np.diag([0.0, 0.5, 0.5]).astype(complex), atol=1e-12
    )


def test_remove_path_certain_detonation():
    with pytest.raises(ValueError, match="certain detonation"):
        luders_remove_path(DensityMatrix.path_state(2, 1), 1)


# the guard sits at the fixed 1 - DEFAULT_TOL on both sides, and p = 1 -
# DEFAULT_TOL itself counts as certain detonation
@pytest.mark.parametrize("gap, raises", [(1e-11, True), (1e-9, False), (DEFAULT_TOL, True)])
def test_certain_detonation_boundary(gap, raises):
    p = 1.0 - gap
    rho = DensityMatrix(2, np.diag([p, 1.0 - p]).astype(complex))
    calls = (
        lambda: luders_remove_path(rho, 1)[0],
        lambda: quantum_ifm(rho, fourier_unitary(2), bomb_path=1).p_trigger,
    )
    for call in calls:
        if raises:
            with pytest.raises(ValueError, match="certain detonation"):
                call()
        else:
            assert call() == p


# strict, so the change that fixes this band must flip these cases
_NEAR_CERTAIN_BAND = (
    "luders_remove_path, quantum_ifm and luders_update_cube raise a trace or "
    "diagonal-sum error for bomb-path populations between about 1 - 1e-6 and "
    "1 - 1e-10, although only p >= 1 - 1e-10 is refused: dividing by 1 - p "
    "scales rho's rounding-level trace drift by 1/(1 - p)"
)


@pytest.mark.xfail(strict=True, raises=ValueError, reason=_NEAR_CERTAIN_BAND)
@pytest.mark.parametrize(
    "call",
    [
        lambda rho: luders_remove_path(rho, 1),
        lambda rho: quantum_ifm(rho, fourier_unitary(3), 1),
        lambda rho: luders_update_cube(quantum_to_cube(rho), 1, found=False),
    ],
    ids=["luders_remove_path", "quantum_ifm", "luders_update_cube"],
)
def test_bomb_path_population_just_below_certain_detonation(call):
    theta = math.asin(math.sqrt(1e-7))
    call(DensityMatrix.from_state_vector([math.cos(theta), math.sin(theta), 0.0]))


def test_remove_path_zeroes_row_and_column(rng):
    rho = random_density_matrix(4, rng)
    _, tilde = luders_remove_path(rho, 2)
    assert np.abs(tilde.entries[1, :]).max() == 0.0
    assert np.abs(tilde.entries[:, 1]).max() == 0.0


def test_pure_states_stay_pure_after_removal(rng):
    for _ in range(25):
        rho = random_pure_state(5, rng)
        path = int(rng.integers(1, 6))
        if rho.probability(path) >= 1 - 1e-10:
            continue
        _, tilde = luders_remove_path(rho, path)
        assert tilde.purity() == pytest.approx(1.0, abs=1e-10)


# --- support projector --------------------------------------------------------

def test_support_of_pure_state_is_its_projector():
    rho = DensityMatrix.from_state_vector([1.0, 1.0j, 0.0])
    np.testing.assert_allclose(support_projector(rho), rho.entries, atol=1e-12)


def test_support_of_full_rank_state_is_identity(rng):
    rho = random_density_matrix(4, rng)
    np.testing.assert_allclose(support_projector(rho), np.eye(4), atol=1e-10)


def test_support_of_rank_two_mixture_matches_span_oracle():
    # oracle: the projector onto the span of two known orthonormal vectors,
    # built directly from them with no eigendecomposition
    v1 = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    v2 = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    rho = DensityMatrix(3, 0.6 * np.outer(v1, v1) + 0.4 * np.outer(v2, v2))
    oracle = np.outer(v1, v1) + np.outer(v2, v2)
    proj = support_projector(rho)
    np.testing.assert_allclose(proj, oracle, atol=1e-10)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)
    np.testing.assert_allclose(proj, proj.conj().T, atol=1e-12)


# --- trade-off bounds ---------------------------------------------------------

def test_bounds_coincide_for_pure_states(rng):
    for _ in range(20):
        rho = random_pure_state(4, rng)
        support, pure = quantum_tradeoff_bounds(rho, 1)
        assert support == pytest.approx(pure, abs=1e-10)


def test_bound_when_bomb_path_is_an_eigenvector():
    rho = DensityMatrix(3, np.diag([0.3, 0.45, 0.25]).astype(complex))
    support, _ = quantum_tradeoff_bounds(rho, 1)
    assert support == pytest.approx(1.0 - 0.3)


def test_bound_when_support_avoids_bomb_path():
    rho = DensityMatrix(3, np.diag([0.0, 0.5, 0.5]).astype(complex))
    support, pure = quantum_tradeoff_bounds(rho, 1)
    assert support == pytest.approx(1.0)
    assert support >= pure - 1e-12


def test_support_bound_dominates_pure_bound(rng):
    for _ in range(50):
        rho = random_density_matrix(3, rng)
        support, pure = quantum_tradeoff_bounds(rho, 2)
        assert support >= pure - 1e-10


# --- full pipeline ------------------------------------------------------------

def test_bomb_tester_matches_hand_oracle():
    bs = fourier_unitary(2)
    result = quantum_ifm(inject_first_path(bs), bs, bomb_path=1)
    assert result.p_trigger == pytest.approx(EV_ORACLE[0], abs=1e-12)
    assert result.p_inconclusive == pytest.approx(EV_ORACLE[1], abs=1e-12)
    assert result.p_success == pytest.approx(EV_ORACLE[2], abs=1e-12)
    assert result.model == "quantum"


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_fourier_interferometer_saturates_pure_bound(n):
    f = fourier_unitary(n)
    inverse = UnitaryMatrix(n, f.entries.conj().T)
    result = quantum_ifm(inject_first_path(f), inverse, bomb_path=1)
    assert result.p_trigger == pytest.approx(1.0 / n, abs=1e-12)
    assert result.p_inconclusive == pytest.approx((1.0 - 1.0 / n) ** 2, abs=1e-12)
    assert result.p_inconclusive == pytest.approx(result.bound_value, abs=1e-10)


def test_diagonal_state_leaves_no_room_for_success():
    rho = DensityMatrix(2, np.diag([0.5, 0.5]).astype(complex))
    result = quantum_ifm(rho, fourier_unitary(2), bomb_path=1)
    assert result.p_success == pytest.approx(0.0, abs=1e-12)
    assert result.p_inconclusive == pytest.approx(result.bound_value, abs=1e-12)


def test_pipeline_propagates_certain_detonation():
    with pytest.raises(ValueError, match="certain detonation"):
        quantum_ifm(DensityMatrix.path_state(2, 1), fourier_unitary(2), bomb_path=1)


def test_pipeline_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        quantum_ifm(DensityMatrix.maximally_mixed(3), fourier_unitary(2), bomb_path=1)


def test_support_sensitivity_flagged_near_threshold():
    eps = 5 * SUPPORT_TOL
    rho = DensityMatrix(2, np.diag([1.0 - eps, eps]).astype(complex))
    result = quantum_ifm(rho, UnitaryMatrix(2, np.eye(2, dtype=complex)), bomb_path=2)
    assert result.support_sensitive


def test_port_between_support_tol_and_ten_times_it_joins_the_support():
    # u2 rotates (1, 1, 0)/sqrt(2) onto no-bomb port probabilities (1 - 5e-9,
    # 5e-9, 0); port 2 counts at SUPPORT_TOL = 1e-9, and the not-found state
    # (0, 1, 0) leaves the probe in ports 1 and 2 only, so P_? is 1/2 (a
    # threshold of 1e-8 would drop port 2 and give about 1/4)
    angle = math.pi / 4 - math.asin(math.sqrt(5e-9))
    c, s = math.cos(angle), math.sin(angle)
    u2 = UnitaryMatrix(3, np.array([[c, s, 0], [-s, c, 0], [0, 0, 1]], dtype=complex))
    result = quantum_ifm(DensityMatrix.from_state_vector([1, 1, 0]), u2, bomb_path=1)
    assert result.p_inconclusive == pytest.approx(0.5, abs=1e-12)
    assert result.support_sensitive


def test_support_sensitivity_not_flagged_for_balanced_ports():
    rho = DensityMatrix(2, np.diag([0.5, 0.5]).astype(complex))
    result = quantum_ifm(rho, UnitaryMatrix(2, np.eye(2, dtype=complex)), bomb_path=1)
    assert not result.support_sensitive


def test_rounding_level_dark_ports_are_not_support_sensitive():
    eps = 1e-17  # below the N * eps rounding floor, like a tuned dark port
    rho = DensityMatrix(2, np.diag([1.0 - eps, eps]).astype(complex))
    result = quantum_ifm(rho, UnitaryMatrix(2, np.eye(2, dtype=complex)), bomb_path=2)
    assert not result.support_sensitive


def test_dark_port_exactly_at_the_rounding_floor_is_not_support_sensitive():
    # only a port probability above N eps is flagged; port 3 holds exactly 3 eps
    floor = 3 * np.finfo(float).eps
    rho = DensityMatrix(3, np.diag([0.5, 0.5 - floor, floor]).astype(complex))
    result = quantum_ifm(rho, UnitaryMatrix(3, np.eye(3, dtype=complex)), bomb_path=1)
    assert not result.support_sensitive


@pytest.mark.parametrize("n", range(2, 9))
def test_fourier_presets_are_not_support_sensitive(n):
    assert not fourier_preset(n).support_sensitive


def test_probability_accessor_validates_path():
    with pytest.raises(ValueError, match="out of range"):
        DensityMatrix.maximally_mixed(3).probability(4)


def test_random_trials_respect_tradeoff(rng):
    # a slice of the large randomized suite in the acceptance tests
    for n in (2, 4, 6):
        for trial in range(200):
            rho = (
                random_pure_state(n, rng)
                if trial % 2
                else random_density_matrix(n, rng)
            )
            u2 = random_unitary(n, rng)
            bomb = int(rng.integers(1, n + 1))
            result = quantum_ifm(rho, u2, bomb)
            total = result.p_trigger + result.p_inconclusive + result.p_success
            assert abs(total - 1.0) <= 1e-10
            assert result.p_inconclusive >= result.bound_value - 1e-9
            assert (
                result.p_inconclusive
                >= (1.0 - result.p_trigger) ** 2 - 1e-9
            )


# --- sampling ----------------------------------------------------------------

def test_random_unitary_with_fixed_seed_is_reproducible():
    a = random_unitary(4, np.random.default_rng(11)).entries
    b = random_unitary(4, np.random.default_rng(11)).entries
    np.testing.assert_array_equal(a, b)


# --- reference composition ------------------------------------------------------
# quantum_ifm solves one eigenproblem per trial.  The oracle below is the
# straightforward composition: projector sandwich for the Lueders update,
# one einsum per state, and a fresh eigh for the support projector.

def reference_ifm(rho, u2, bomb):
    n, b = rho.n_paths, bomb - 1
    p = float(rho.entries[b, b].real)
    keep = np.eye(n, dtype=complex)
    keep[b, b] = 0.0
    tilde = DensityMatrix(n, keep @ rho.entries @ keep / (1.0 - p))
    u = u2.entries
    no_bomb = np.einsum("sj,jk,sk->s", u, rho.entries, u.conj()).real
    with_bomb = np.einsum("sj,jk,sk->s", u, tilde.entries, u.conj()).real
    p_inconclusive = float((1.0 - p) * with_bomb[no_bomb > SUPPORT_TOL].sum())
    values, vectors = np.linalg.eigh(rho.entries)
    support = vectors[:, values > DEFAULT_TOL]
    overlap = float((support @ support.conj().T)[b, b].real)
    floor = n * np.finfo(float).eps
    return tilde, {
        "model": "quantum",
        "n_paths": n,
        "p_trigger": p,
        "p_inconclusive": p_inconclusive,
        "p_success": 1.0 - p - p_inconclusive,
        "bound": 1.0 - 2.0 * p + p * overlap,
        "label": "",
        "support_sensitive": bool(
            np.any((no_bomb > floor) & (no_bomb < 10 * SUPPORT_TOL))
        ),
    }


@pytest.mark.parametrize("n", range(2, 9))
def test_ifm_matches_reference_composition_bit_for_bit(n):
    rng = np.random.default_rng(640 + n)
    for trial in range(60):
        if trial % 3 == 0:
            rho = random_pure_state(n, rng)
        else:
            rho = random_density_matrix(n, rng, rank=int(rng.integers(1, n + 1)))
        u2 = random_unitary(n, rng)
        bomb = int(rng.integers(1, n + 1))
        tilde, expected = reference_ifm(rho, u2, bomb)
        got = quantum_ifm(rho, u2, bomb).to_json_dict()
        assert got == expected, f"N={n} trial={trial}"
        _, got_tilde = luders_remove_path(rho, bomb)
        np.testing.assert_array_equal(got_tilde.entries, tilde.entries)


# Each input passes DensityMatrix, but its not-found state for bomb path 1
# (p = 1/2, so every defect doubles) misses one invariant.
LUEDERS_DEFECTS = {
    "eigenvalue": (
        np.diag([0.5, 0.5 + 9e-11, -9e-11]),
        "density matrix has negative eigenvalue -1.800e-10",
    ),
    "trace": (
        np.diag([0.5, 0.25 + 9e-11, 0.25]),
        "density matrix trace is (1.00000000018+0j), expected 1",
    ),
    "hermiticity": (
        np.array([[0.5, 0.0, 0.0], [0.0, 0.25, 0.1 + 9e-11], [0.0, 0.1, 0.25]]),
        "density matrix is not Hermitian within tolerance",
    ),
}


@pytest.mark.parametrize("defect", LUEDERS_DEFECTS)
def test_not_found_state_is_validated_like_a_density_matrix(defect):
    entries, message = LUEDERS_DEFECTS[defect]
    rho = DensityMatrix(3, entries.astype(complex))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        luders_remove_path(rho, 1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        quantum_ifm(rho, fourier_unitary(3), bomb_path=1)


@pytest.fixture
def eigensolver_calls(monkeypatch):
    calls = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls.append(_name)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_validated_spectrum_serves_every_later_step(rng, eigensolver_calls):
    rho = random_density_matrix(5, rng, rank=3)
    assert eigensolver_calls == ["eigh"]
    support_projector(rho)
    quantum_tradeoff_bounds(rho, 2)
    quantum_ifm(rho, random_unitary(5, rng), bomb_path=2)
    assert eigensolver_calls == ["eigh"]


def test_uncertified_not_found_state_is_validated_by_one_eigh(eigensolver_calls):
    # rho's residual 4e-11 exceeds 1/2 * 1e-10 * (1 - p) at p = 1/2, so the
    # not-found state is validated as a DensityMatrix; its -8e-11 passes.
    # luders_remove_path returns that validated state
    rho = DensityMatrix(3, np.diag([0.5, 0.5 + 4e-11, -4e-11]).astype(complex))
    del eigensolver_calls[:]
    quantum_ifm(rho, fourier_unitary(3), bomb_path=1)
    assert eigensolver_calls == ["eigh"]
    del eigensolver_calls[:]
    _, tilde = luders_remove_path(rho, 1)
    assert eigensolver_calls == ["eigh"]
    np.testing.assert_array_equal(tilde.entries, np.diag([0, 1 + 8e-11, -8e-11]))


def test_certified_trial_on_an_exactly_hermitian_state_runs_no_eigensolver(
    eigensolver_calls,
):
    rho = inject_first_path(fourier_unitary(5))
    np.testing.assert_array_equal(rho.entries, rho.entries.conj().T)
    del eigensolver_calls[:]
    quantum_ifm(rho, fourier_unitary(5), bomb_path=2)
    assert eigensolver_calls == []


# --- certification of the not-found state -------------------------------------
# _lueders skips validating the not-found state when rho's residual r obeys
# r + (N + 2) eps <= DEFAULT_TOL (1 - p) / 2.  These inputs put r just below
# and just above that line at N = 3, p = 1/2 (where it sits near 2.5e-11),
# one invariant at a time.

_CERTIFY_LINE = 0.25 * DEFAULT_TOL
BOUNDARY_INPUTS = {
    f"{invariant}-{side}": build(_CERTIFY_LINE * (1 + shift))
    for side, shift in (("below", -1e-3), ("above", 1e-3))
    for invariant, build in (
        ("eigenvalue", lambda d: np.diag([0.5, 0.5 + d, -d])),
        ("trace", lambda d: np.diag([0.5, 0.25 + d, 0.25])),
        ("hermiticity", lambda d: np.array([[0.5, 0, 0], [0, 0.25, 0.1 + d], [0, 0.1, 0.25]])),
    )
}


def _not_found_entries(rho, bomb):
    """rho's not-found state, by the same arithmetic as the pipeline."""
    tilde = rho.entries.copy()
    tilde[bomb - 1, :] = 0.0
    tilde[:, bomb - 1] = 0.0
    tilde /= 1.0 - rho.probability(bomb)
    return tilde


def _error(call):
    try:
        call()
    except ValueError as err:
        return str(err)
    return None


def _assert_certification_agrees(rho, u2, bomb):
    expected = _error(lambda: DensityMatrix(rho.n_paths, _not_found_entries(rho, bomb)))
    assert _error(lambda: luders_remove_path(rho, bomb)) == expected
    assert _error(lambda: quantum_ifm(rho, u2, bomb)) == expected


@pytest.mark.parametrize("case", BOUNDARY_INPUTS)
def test_certification_boundary_decides_whether_to_validate(case, eigensolver_calls):
    rho = DensityMatrix(3, BOUNDARY_INPUTS[case].astype(complex))
    certified = case.endswith("below")
    assert (rho._residual + 5 * np.finfo(float).eps <= 0.5 * DEFAULT_TOL * 0.5) == certified
    del eigensolver_calls[:]
    quantum_ifm(rho, fourier_unitary(3), bomb_path=1)
    assert eigensolver_calls == ([] if certified else ["eigh"])


@pytest.mark.parametrize("case", [*BOUNDARY_INPUTS, *LUEDERS_DEFECTS])
def test_certification_agrees_with_full_validation(case):
    entries = BOUNDARY_INPUTS[case] if case in BOUNDARY_INPUTS else LUEDERS_DEFECTS[case][0]
    _assert_certification_agrees(DensityMatrix(3, entries.astype(complex)), fourier_unitary(3), 1)


@pytest.mark.parametrize("n", range(2, 9))
def test_certification_agrees_with_full_validation_on_random_states(n):
    rng = np.random.default_rng(2200 + n)
    states = [random_pure_state(n, rng)]
    states += [random_density_matrix(n, rng, rank=rank) for rank in range(1, n + 1)]
    for rho in states:
        u2 = random_unitary(n, rng)
        for bomb in range(1, n + 1):
            _assert_certification_agrees(rho, u2, bomb)


def test_kept_spectrum_is_read_only(rng):
    rho = random_density_matrix(4, rng)
    assert not rho._support.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rho._support[0] = 0.0
