"""Reference objects shared by the test modules, written independently of
the implementation."""

import math
from itertools import permutations

import numpy as np

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
