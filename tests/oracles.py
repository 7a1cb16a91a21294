"""Reference objects shared by the test modules, written independently of
the implementation."""

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from cubesim.multiport import MultiportReport
from cubesim.tensor import hermitian_complete

SQRT3 = math.sqrt(3.0)


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


def interferometer_cube():
    # pure 3-path cube: populations 1/2 on paths 2 and 3, all six
    # three-distinct-index entries equal to 1/(2 sqrt(3))
    return hermitian_complete(
        {(2, 2, 2): 0.5, (3, 3, 3): 0.5, (1, 2, 3): 1.0 / (2.0 * SQRT3)},
        3,
        is_state=True,
    )


# The d x d residual report of an explicit multiport matrix, the oracle for
# the block forms of cubesim.multiport.verify_multiport.

@dataclass(frozen=True)
class DenseReport(MultiportReport):
    """The residuals of :class:`MultiportReport` plus the three that the
    block form holds by construction, the closing block's spectrum among
    them; ``worst`` and ``passes`` read all six."""

    adjoint_residual: float
    pairing_violation: float
    d_spectrum_deviation: float


def spectrum_deviation(block, admissible):
    """Largest distance from an eigenvalue of the Hermitian ``block`` to the
    nearer of the two ``admissible`` values; NaN, with no eigensolver call,
    when the block has a non-finite entry."""
    if not np.isfinite(block).all():
        return float("nan")
    eigs = np.linalg.eigvalsh(block)
    return float(np.minimum(*(np.abs(eigs - value) for value in admissible)).max())


def dense_report(t):
    """Residuals of the multiport contract measured on the d x d matrix of
    ``t``; never raises.

    A coordinate vector v is Hermitian iff ``v = S conj(v)``, where the
    permutation S swaps each coherence coordinate with its conjugate, and
    Hermitian vectors span all coordinate vectors.  So M keeps the pairing
    iff ``M = S conj(M) S``, and, given that, keeps the population sum iff
    the column sums of its N population rows are 1 on the populations and
    0 on the coherences.  The nonzero eigenvalues of ``B B+`` are those of
    the N x N matrix ``B+ B``.
    """
    m, n, d = t.matrix, t.n_paths, t.basis.dim
    involution = float(np.linalg.norm(m @ m - np.eye(d)))
    adjoint = float(np.linalg.norm(m - m.conj().T))

    mid = (n + d) // 2
    swap = np.r_[:n, mid:d, n:mid]
    # numpy's max, unlike the builtin, propagates a NaN
    pairing = np.abs(m - np.conj(m[np.ix_(swap, swap)])).max()
    drift = np.abs(m[:n].sum(axis=0) - (np.arange(d) < n)).max()

    d_dev = spectrum_deviation(m[n:, n:], (1.0, 1.0 / (n - 1)))
    gram = m[n:, :n].conj().T @ m[n:, :n]
    bb_dev = spectrum_deviation(gram, (0.0, n * (n - 2) / (n - 1) ** 2))

    return DenseReport(
        n_paths=n,
        involution_residual=involution,
        diagonal_sum_drift=float(drift),
        bb_spectrum_deviation=bb_dev,
        adjoint_residual=adjoint,
        pairing_violation=float(pairing),
        d_spectrum_deviation=d_dev,
    )


def out_of_place_multiport(n):
    """The d x d multiport ``[[A, B+], [B, I - k B B+]]`` with k = (N-1)/N,
    ``d = N + (N-1)(N-2)``, ``A = (ones - id) / (N-1)`` and ``B = [conj(P);
    P] / (N-1)`` for the stacked phase matrix P, each block written into a
    fresh zero matrix.  The rows of B are the Fourier rows -q and q mod N
    over N - 1, so ``k B B+`` is 1/(N-1) where two rows share q and 0
    elsewhere, and the closing block is written from the exponent list."""
    phases = stacked_phase_matrix(n)
    a = (np.ones((n, n)) - np.eye(n)) / (n - 1)
    b = np.vstack([np.conj(phases), phases]) / (n - 1)
    d = n + (n - 1) * (n - 2)
    expected = np.zeros((d, d), dtype=complex)
    expected[:n, :n] = a
    expected[n:, :n] = b
    expected[:n, n:] = b.conj().T
    exponents = np.array(phase_exponents(n))
    fourier_rows = np.concatenate([-exponents, exponents]) % n
    closing = np.where(fourier_rows[:, None] == fourier_rows, -1 / (n - 1), 0.0)
    np.fill_diagonal(closing, (n - 2) / (n - 1))
    expected[n:, n:] = closing
    return expected


def phase_exponents(n):
    """The repeated list of Fourier row exponents of the stacked phase
    matrix: (N-2)/2 copies of q = 1..N-1 for even N, N-2 copies of
    q = 1..(N-1)/2 for odd N."""
    if n % 2 == 0:
        return list(range(1, n)) * ((n - 2) // 2)
    return list(range(1, (n - 1) // 2 + 1)) * (n - 2)


def stacked_phase_matrix(n):
    """The stacked Fourier phase matrix, row ``exp(i 2 pi q c / N)`` for
    each exponent q of :func:`phase_exponents` over the columns c =
    0..N-1, read from a table of the N roots of unity at ``q c mod N``."""
    roots = np.exp(1j * (2.0 * np.pi * np.arange(n) / n))
    return roots[np.outer(phase_exponents(n), np.arange(n)) % n]
