"""Standard quantum description of the N-path interferometer.

The particle inside the interferometer is a density matrix; the second
transformation is unitary.  A detector ("bomb") in one path acts as a
projective path measurement, and the pipeline here computes the trigger,
inconclusive and success probabilities of a single-shot interaction-free
measurement together with the quantum trade-off lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .results import IFMResult
from .tensor import DEFAULT_TOL, _check_index, _check_paths, _freeze, _not_found, _roots

#: Threshold above which an output-port probability of the no-bomb run
#: counts as part of the inconclusive support set.  Deliberately distinct
#: from the entrywise tolerance: it must absorb floating-point leakage of
#: tuned (destructive-interference) interferometers.
SUPPORT_TOL = 1e-9

_EPS = float(np.finfo(float).eps)


def _as_square(entries: object, n_paths: int, what: str) -> np.ndarray:
    arr = np.asarray(entries, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {arr.shape}")
    _check_paths(n_paths, 2)
    if arr.shape[0] != n_paths:
        raise ValueError(f"entries shape {arr.shape} does not match n_paths={n_paths}")
    return arr


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """N x N density matrix: Hermitian, unit trace, positive semidefinite."""

    n_paths: int
    entries: np.ndarray
    # kept from validation: the ascending spectrum and eigenvectors (columns)
    # of ``entries``, so later steps need no eigensolver, and the largest residual
    _eigenvalues: np.ndarray = field(init=False, repr=False)
    _eigenvectors: np.ndarray = field(init=False, repr=False)
    _residual: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        arr = _as_square(self.entries, self.n_paths, "density matrix")
        # each check reads ``not (value <= bound)`` so that a NaN fails it
        hermiticity = float(np.abs(arr - arr.conj().T).max())
        if not hermiticity <= DEFAULT_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        trace = complex(arr.trace())
        trace_drift = abs(trace - 1.0)
        if not trace_drift <= DEFAULT_TOL:
            raise ValueError(f"density matrix trace is {trace}, expected 1")
        eigenvalues, eigenvectors = np.linalg.eigh(arr)
        lowest = float(eigenvalues[0])
        if not lowest >= -DEFAULT_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")
        _freeze(self, "entries", arr)
        object.__setattr__(self, "_residual", max(hermiticity, trace_drift, -lowest))
        for name, fresh in (("_eigenvalues", eigenvalues), ("_eigenvectors", eigenvectors)):
            fresh.setflags(write=False)  # so that _freeze adopts it
            _freeze(self, name, fresh)

    @classmethod
    def from_state_vector(cls, amplitudes: object) -> "DensityMatrix":
        """Rank-1 density matrix of a pure state; the vector is normalized."""
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        vec = vec / norm
        return cls(vec.size, np.outer(vec, vec.conj()))

    @classmethod
    def path_state(cls, n_paths: int, path: int) -> "DensityMatrix":
        """Particle definitely in the given 1-based path."""
        _check_index(path, n_paths)
        vec = np.zeros(n_paths)
        vec[path - 1] = 1.0
        return cls.from_state_vector(vec)

    @classmethod
    def maximally_mixed(cls, n_paths: int) -> "DensityMatrix":
        return cls(n_paths, np.eye(n_paths, dtype=complex) / n_paths)

    def probability(self, path: int) -> float:
        """Population of the 1-based path."""
        _check_index(path, self.n_paths)
        return float(self.entries[path - 1, path - 1].real)

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


@dataclass(frozen=True, eq=False)
class UnitaryMatrix:
    """N x N interferometer transformation with U U+ = 1."""

    n_paths: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_square(self.entries, self.n_paths, "unitary")
        gram = arr @ arr.conj().T
        gram.reshape(-1)[:: self.n_paths + 1] -= 1  # subtract the identity in place
        residual = np.abs(gram).max()
        if not residual <= DEFAULT_TOL:
            raise ValueError(f"matrix is not unitary: residual {residual:.3e}")
        _freeze(self, "entries", arr)


def fourier_unitary(n: int) -> UnitaryMatrix:
    """Discrete Fourier transform on n paths, entries ``w^(jk) / sqrt(n)``
    with ``w = exp(i 2 pi / n)`` and 0-based exponents."""
    _check_paths(n, 2)
    j = np.arange(n)
    return UnitaryMatrix(n, _roots(n)[np.outer(j, j) % n] / np.sqrt(n))


def inject_first_path(u1: UnitaryMatrix) -> DensityMatrix:
    """State inside the interferometer after the first transformation acts
    on a particle entering through path 1."""
    return DensityMatrix.from_state_vector(u1.entries[:, 0])


def _lueders(rho: DensityMatrix, path: int) -> tuple[float, np.ndarray, DensityMatrix | None]:
    """Trigger probability, the stack of the entries of ``rho`` and of the
    not-found state ``rho_tilde``, which quantum_ifm's einsum reads, and
    ``rho_tilde`` as a ``DensityMatrix`` if it had to be validated.

    ``rho_tilde`` is rho with row and column ``b = path`` zeroed, over
    ``kept = 1 - p``.  Its Hermiticity residual is rho's over ``kept``; its
    trace drift is at most rho's plus ``|Im rho[b, b]|``, half the
    Hermiticity residual, over ``kept``; by Cauchy interlacing on the
    triangle that ``eigh`` reads, its lowest eigenvalue is at least
    ``min(0, lambda_min(rho)) / kept``.  So if rho's largest residual r
    obeys ``r + (N + 2) eps <= DEFAULT_TOL kept / 2``, with eps covering
    rounding, all three stay within ``3/4 DEFAULT_TOL`` and ``rho_tilde``
    needs no check.  Otherwise it is validated as a ``DensityMatrix``,
    which raises with its messages.
    """
    p_trigger = rho.probability(path)
    kept = _not_found(p_trigger)
    states = np.empty((2,) + rho.entries.shape, dtype=complex)
    states[:] = rho.entries
    tilde = states[1]
    tilde[path - 1, :] = 0.0
    tilde[:, path - 1] = 0.0
    tilde /= kept
    certified = rho._residual + (rho.n_paths + 2) * _EPS <= 0.5 * DEFAULT_TOL * kept
    return p_trigger, states, None if certified else DensityMatrix(rho.n_paths, tilde)


def luders_remove_path(rho: DensityMatrix, path: int) -> tuple[float, DensityMatrix]:
    """Projective update after the particle was *not* found in ``path``.

    Returns ``(p_trigger, rho_tilde)`` where ``p_trigger`` is the
    population of the measured path and ``rho_tilde`` the renormalized
    state with that path projected out.  Raises when the particle is
    certainly in the path (population at least ``1 - DEFAULT_TOL``),
    because the post-measurement state is then undefined.
    """
    p_trigger, states, checked = _lueders(rho, path)
    return p_trigger, checked or DensityMatrix(rho.n_paths, states[1])


def support_projector(rho: DensityMatrix) -> np.ndarray:
    """Orthogonal projector onto the eigenvectors of rho with eigenvalue
    above ``DEFAULT_TOL``, the rank cutoff of its validation."""
    keep = rho._eigenvectors[:, rho._eigenvalues > DEFAULT_TOL]
    return keep @ keep.conj().T


def quantum_tradeoff_bounds(rho: DensityMatrix, bomb_path: int) -> tuple[float, float]:
    """Lower bounds on the inconclusive probability for a given inside state.

    Returns ``(bound_support, bound_pure)`` with

    * ``bound_support = 1 - 2 P + P <b| E(rho) |b>`` where ``E`` projects
      onto the support of rho and ``P`` is the bomb-path population, and
    * ``bound_pure = (1 - P)^2``, the weaker convexity consequence that is
      tight for pure states.
    """
    _check_index(bomb_path, rho.n_paths, "bomb_path")
    p = rho.probability(bomb_path)
    overlap = float(support_projector(rho)[bomb_path - 1, bomb_path - 1].real)
    bound_support = 1.0 - 2.0 * p + p * overlap
    bound_pure = (1.0 - p) ** 2
    return bound_support, bound_pure


def quantum_ifm(
    rho_inside: DensityMatrix,
    u2: UnitaryMatrix,
    bomb_path: int,
    *,
    label: str = "",
) -> IFMResult:
    """Single-shot interaction-free measurement with the bomb in ``bomb_path``.

    ``rho_inside`` describes the particle inside the interferometer, right
    after the first transformation.  The inconclusive support set consists
    of the output ports where the particle could emerge with no bomb
    present, i.e. ports whose no-bomb probability exceeds ``SUPPORT_TOL``.
    The result is flagged ``support_sensitive`` when a no-bomb port
    probability above the rounding floor ``N * eps`` falls within
    ``10 * SUPPORT_TOL`` of zero, since the support set could then depend
    on the threshold choice.  Certain detonation raises, as in
    :func:`luders_remove_path`.
    """
    if rho_inside.n_paths != u2.n_paths:
        raise ValueError(
            f"dimension mismatch: state has {rho_inside.n_paths} paths, "
            f"unitary has {u2.n_paths}"
        )
    p_trigger, states, _ = _lueders(rho_inside, bomb_path)

    u = u2.entries
    # one einsum for both states; a matmul form rounds differently
    no_bomb_probs, with_bomb_probs = np.einsum("sj,cjk,sk->cs", u, states, u.conj()).real
    support = no_bomb_probs > SUPPORT_TOL
    floor = rho_inside.n_paths * _EPS
    sensitive = any(floor < p < 10 * SUPPORT_TOL for p in no_bomb_probs.tolist())
    p_inconclusive = float((1.0 - p_trigger) * with_bomb_probs[support].sum())
    p_success = 1.0 - p_trigger - p_inconclusive

    bound_support, _ = quantum_tradeoff_bounds(rho_inside, bomb_path)
    return IFMResult(
        model="quantum",
        n_paths=rho_inside.n_paths,
        p_trigger=p_trigger,
        p_inconclusive=p_inconclusive,
        p_success=p_success,
        bound_value=bound_support,
        label=label,
        support_sensitive=sensitive,
    )


# ---------------------------------------------------------------------------
# Random sampling for the property suites.  Pure states are normalized
# complex Gaussian vectors; mixed states are normalized Wishart products.

def random_pure_state(n_paths: int, rng: np.random.Generator) -> DensityMatrix:
    vec = rng.standard_normal(n_paths) + 1j * rng.standard_normal(n_paths)
    return DensityMatrix.from_state_vector(vec)


def random_density_matrix(
    n_paths: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    rank = n_paths if rank is None else rank
    g = rng.standard_normal((n_paths, rank)) + 1j * rng.standard_normal((n_paths, rank))
    w = g @ g.conj().T
    return DensityMatrix(n_paths, w / np.trace(w).real)


def random_unitary(n_paths: int, rng: np.random.Generator) -> UnitaryMatrix:
    z = rng.standard_normal((n_paths, n_paths)) + 1j * rng.standard_normal(
        (n_paths, n_paths)
    )
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return UnitaryMatrix(n_paths, q * phases.conj())
