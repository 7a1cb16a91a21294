"""Dense rank-3 Hermitian tensors: the state and effect objects of the cube model.

A density cube generalizes the density matrix by one tensor rank.  It is an
N x N x N complex tensor whose entries are equal under even permutations of
the index triple and complex-conjugated under odd ones.  Diagonal entries
C[n,n,n] play the role of path populations, entries with exactly two equal
indices carry ordinary two-path coherence (and are forced real by the
symmetry), and entries with three distinct indices carry genuine three-path
coherence, which no density matrix can represent.

Semantic indices are 1-based throughout the public API; the storage
layout is an internal detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

#: Default entrywise comparison tolerance, and the fixed slack of every
#: construction-time invariant check.  Constructions involve roots of unity
#: and matrix square roots, so exact equality is never required.
DEFAULT_TOL = 1e-10

# Slot permutations of an index triple, identity first.  An entry's value
# sits on the cyclic images of (j, k, l), its conjugate on those of the
# swapped triple (k, j, l), the odd permutations; completion writes the
# conjugate last, so a nearly real repeated-index value ends conjugated.
_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
# Checking the transpositions suffices: even permutations are products of two.
_TRANSPOSITIONS = ((1, 0, 2), (0, 2, 1), (2, 1, 0))


def _freeze(obj: object, name: str, arr: np.ndarray) -> None:
    """Store ``arr`` read-only as field ``name`` of the frozen dataclass
    ``obj``; the validated value types call this last.  An array that is
    read-only and owns its data is adopted; anything else is copied."""
    if arr.flags.writeable or not arr.flags.owndata:
        arr = arr.copy()
        arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


def _check_paths(n_paths: int, minimum: int) -> None:
    """Raise unless the path count ``n_paths`` is at least ``minimum``."""
    if n_paths < minimum:
        raise ValueError(f"need at least {minimum} paths, got {n_paths}")


def _roots(n: int) -> np.ndarray:
    """The N-th roots of unity ``exp(i 2 pi m / N)``, m = 0..N-1.  Every
    Fourier phase is gathered from this one table at its exponent mod N."""
    return np.exp(1j * (2.0 * np.pi * np.arange(n) / n))


def _check_index(value: int, n: int, name: str = "path") -> None:
    """Raise unless the 1-based index ``value`` lies in 1..n."""
    if not 1 <= value <= n:
        raise ValueError(f"{name} {value} out of range 1..{n}")


def _not_found(p: float) -> float:
    """Probability ``1 - p`` of not finding the particle in a path with
    population ``p``; raises when the particle is certainly there, that is
    when ``p`` is at least ``1 - DEFAULT_TOL``."""
    if p >= 1.0 - DEFAULT_TOL:
        raise ValueError(
            "certain detonation: the particle is certainly in the measured path, "
            "so the not-found state is undefined"
        )
    return 1.0 - p


def _as_cube_array(tensor: object) -> np.ndarray:
    arr = np.asarray(tensor, dtype=complex)
    if arr.ndim != 3 or len(set(arr.shape)) != 1:
        raise ValueError(f"expected an N x N x N tensor, got shape {arr.shape}")
    return arr


def hermiticity_violation(tensor: object) -> float:
    """Largest deviation from the index-exchange conjugation symmetry.

    For every transposition of two index slots the entry must equal the
    complex conjugate of the original entry; the return value is the
    maximum absolute mismatch over all entries and all three
    transpositions (0.0 for an exactly Hermitian tensor, NaN when an entry
    is not finite).
    """
    arr = _as_cube_array(tensor)
    # numpy's max, unlike the builtin, propagates a NaN
    return float(
        np.max([np.abs(arr - np.conj(arr.transpose(axes))).max() for axes in _TRANSPOSITIONS])
    )


@dataclass(frozen=True, eq=False)
class HermitianCube:
    """An N-path density cube (state or effect).

    Parameters
    ----------
    n_paths : int
        Number of interferometer paths N, at least 2.
    entries : np.ndarray
        Dense N x N x N complex tensor.  ``entries[j-1, k-1, l-1]`` holds
        the entry with semantic indices (j, k, l).
    is_state : bool
        State cubes additionally satisfy the normalization
        ``sum_n C[n,n,n] = 1`` with each diagonal entry in [0, 1] and
        purity ``(C, C) <= 1``.  Effect cubes (e.g. the path measurement
        cubes) skip those checks.

    Every invariant is checked with the fixed slack ``DEFAULT_TOL``, which
    absorbs rounding in the constructions.  The checks are written as
    ``not (value <= bound)`` so that a NaN fails them.
    """

    n_paths: int
    entries: np.ndarray
    is_state: bool = False

    def __post_init__(self) -> None:
        arr = _as_cube_array(self.entries)
        _check_paths(self.n_paths, 2)
        if arr.shape != (self.n_paths,) * 3:
            raise ValueError(
                f"entries shape {arr.shape} does not match n_paths={self.n_paths}"
            )
        violation = hermiticity_violation(arr)
        if not violation <= DEFAULT_TOL:
            raise ValueError(
                f"tensor is not Hermitian: max conjugation mismatch {violation:.3e}"
            )
        if self.is_state:
            diag = np.einsum("jjj->j", arr)
            total = float(diag.real.sum())
            if not abs(total - 1.0) <= DEFAULT_TOL:
                raise ValueError(f"state cube diagonal sums to {total}, expected 1")
            if not -DEFAULT_TOL <= diag.real.min() <= diag.real.max() <= 1.0 + DEFAULT_TOL:
                raise ValueError("state cube diagonal entries must lie in [0, 1]")
            pur = float(np.vdot(arr, arr).real)
            if not pur <= 1.0 + DEFAULT_TOL:
                raise ValueError(f"state cube purity {pur} exceeds 1")
        _freeze(self, "entries", arr)

    def entry(self, j: int, k: int, l: int) -> complex:
        """Entry at 1-based semantic indices (j, k, l)."""
        for index in (j, k, l):
            _check_index(index, self.n_paths, "index")
        return complex(self.entries[j - 1, k - 1, l - 1])

    def diagonal(self) -> np.ndarray:
        """Real vector of the N diagonal entries C[n,n,n]."""
        return np.einsum("jjj->j", self.entries).real.copy()

    def purity(self) -> float:
        """Self inner product (C, C); 1 for pure cubes, below 1 for mixed."""
        return cube_inner(self, self)


def cube_inner(m: HermitianCube, c: HermitianCube) -> float:
    """Inner product ``(M, C) = sum_{jkl} conj(M[jkl]) C[jkl]``.

    Hermitian cubes form a real vector space under this product, so the
    imaginary part of the raw sum must vanish; a residue above
    ``DEFAULT_TOL`` signals a non-Hermitian input and raises.
    """
    if m.n_paths != c.n_paths:
        raise ValueError(
            f"path-count mismatch: {m.n_paths} vs {c.n_paths}"
        )
    raw = complex(np.vdot(m.entries, c.entries))
    if not abs(raw.imag) <= DEFAULT_TOL:
        raise ValueError(
            f"inner product has imaginary residue {raw.imag:.3e}; inputs are "
            "not Hermitian to within tolerance"
        )
    return raw.real


def hermitian_complete(
    canonical: Mapping[tuple[int, int, int], complex],
    n_paths: int,
    *,
    is_state: bool = False,
) -> HermitianCube:
    """Build a full Hermitian cube from values on canonical index triples.

    Keys are 1-based triples (j, k, l) with j <= k <= l; missing triples
    default to zero.  The stated value goes on the cyclic images of
    (j, k, l), then its conjugate on those of the swapped triple (k, j, l),
    the odd permutations.  A triple with a repeated index is its own odd
    permutation, so its value must be real (within ``DEFAULT_TOL``) for the
    completion to be consistent; complex values there raise, and a value
    within the slack ends conjugated because the conjugate is written last.
    """
    entries = np.zeros((n_paths,) * 3, dtype=complex)
    for triple, value in canonical.items():
        j, k, l = triple
        if not (1 <= j <= k <= l <= n_paths):
            raise ValueError(
                f"non-canonical or out-of-range index triple {triple} for N={n_paths}"
            )
        value = complex(value)
        if len({j, k, l}) < 3 and abs(value.imag) > DEFAULT_TOL:
            raise ValueError(
                f"value at repeated-index triple {triple} must be real, "
                f"got imaginary part {value.imag:.3e}"
            )
        base, swapped = (j - 1, k - 1, l - 1), (k - 1, j - 1, l - 1)
        for slots, entry in ((base, value), (swapped, np.conj(value))):
            for a, b, c in _CYCLES:
                entries[slots[a], slots[b], slots[c]] = entry
    return HermitianCube(n_paths, entries, is_state=is_state)
