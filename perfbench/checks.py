"""Independent checks of cubesim outputs, recomputed with plain numpy.

Each checker takes what the program produced and returns ``None`` when
the output is right, or a one-line reason when it is not.  Checks use
parsed values, never golden bytes, so that output gaining extra fields
or columns does not count as a failure.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

#: Slack for identities that hold exactly in exact arithmetic.
EXACT_TOL = 1e-9


def check_ifm_cube(stdout: str | bytes, n: int, shots: int | None = None) -> str | None:
    """Cube-model IFM: never triggers, inconclusive with probability 1/(N-1)."""
    out = json.loads(stdout)
    if out["n_paths"] != n or out["model"] != "cube":
        return f"wrong run: model={out['model']} n_paths={out['n_paths']}"
    if not out["p_trigger"] <= EXACT_TOL:
        return f"p_trigger={out['p_trigger']} is not 0"
    if abs(out["p_inconclusive"] - 1.0 / (n - 1)) > EXACT_TOL:
        return f"p_inconclusive={out['p_inconclusive']} differs from 1/(N-1)"
    if shots is not None:
        clicks = out.get("clicks", {})
        counted = sum(clicks.get(k, 0) for k in ("trigger", "inconclusive", "success"))
        if counted != shots or clicks.get("trigger") != 0:
            return f"click counts {clicks} do not fit {shots} shots with P_*=0"
    return None


def check_ifm_quantum_fourier(stdout: str | bytes, n: int) -> str | None:
    """Fourier preset: P_* = 1/N and the pure-state bound is saturated."""
    out = json.loads(stdout)
    if out["n_paths"] != n or out["model"] != "quantum":
        return f"wrong run: model={out['model']} n_paths={out['n_paths']}"
    if abs(out["p_trigger"] - 1.0 / n) > EXACT_TOL:
        return f"p_trigger={out['p_trigger']} differs from 1/N"
    if abs(out["p_inconclusive"] - (1.0 - 1.0 / n) ** 2) > EXACT_TOL:
        return f"p_inconclusive={out['p_inconclusive']} differs from (1-1/N)^2"
    return None


def check_dump_matrix(stdout: str | bytes, n: int) -> str | None:
    """Dumped multiport: d x d with d = N + (N-1)(N-2), and an involution."""
    out = json.loads(stdout)
    d = n + (n - 1) * (n - 2)
    pairs = np.asarray(out["matrix"], dtype=float)
    if out["n_paths"] != n or pairs.shape != (d, d, 2) or len(out["basis_order"]) != d:
        return f"matrix has shape {pairs.shape}, expected ({d}, {d}, 2)"
    m = pairs[..., 0] + 1j * pairs[..., 1]
    residual = float(np.linalg.norm(m @ m - np.eye(d)))
    if residual > EXACT_TOL:
        return f"M M - I has Frobenius norm {residual:.3e}"
    return None


def check_reproduce(stdout: str | bytes) -> str | None:
    """Every reference check passes, judged from the parsed rows."""
    rows = json.loads(stdout)
    if not rows:
        return "no checks reported"
    failed = [row["name"] for row in rows if row["passed"] is not True]
    if failed:
        return f"{len(failed)} reference checks failed, first: {failed[0]}"
    return None


def check_verify(stdout: str | bytes, n_values: list[int]) -> str | None:
    """One passing residual row per requested N."""
    rows = json.loads(stdout)
    if [row["n_paths"] for row in rows] != n_values:
        return f"rows for N={[row['n_paths'] for row in rows]}, expected {n_values}"
    failed = [row["n_paths"] for row in rows if row["passed"] is not True]
    if failed:
        return f"verify failed for N={failed}"
    return None


def check_sorkin(stdout: str | bytes) -> str | None:
    """Third-order term: 1/2 for the coherent cube, 0 for the quantum one."""
    out = json.loads(stdout)
    if abs(out["three_path_coherent_cube"] - 0.5) > EXACT_TOL:
        return f"coherent term {out['three_path_coherent_cube']} is not 1/2"
    if abs(out["dephased_quantum_cube"]) > EXACT_TOL:
        return f"quantum term {out['dephased_quantum_cube']} is not 0"
    return None


def check_scan(stdout: str, n_values: list[int], grid: int) -> str | None:
    """Region scan CSV: every grid node carries (1 - P)^2 / (N - 1)."""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    expected = [(n, p) for n in n_values for p in np.linspace(0.0, 1.0, grid)]
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for row, (n, p) in zip(rows, expected):
        got_p, bound = float(row["p_trigger"]), float(row["bound"])
        if int(row["n_paths"]) != n or abs(got_p - p) > EXACT_TOL:
            return f"row {row} is not grid node (N={n}, P={p})"
        if abs(bound - (1.0 - p) ** 2 / (n - 1)) > EXACT_TOL:
            return f"bound {bound} wrong at N={n}, P={p}"
    return None


def check_quantum_trial(
    rho: np.ndarray,
    u: np.ndarray,
    bomb: int,
    result,
    support_tol: float = 1e-9,
    tol: float = 1e-10,
) -> str | None:
    """Recompute a ``quantum_ifm`` result from its inputs.

    ``bomb`` is 1-based.  The trigger probability must equal the bomb-path
    population ``rho[b, b]``; the inconclusive probability, its support
    bound and the pure-state bound are recomputed from scratch, and the
    trade-off ``P_? >= (1 - P_*)^2`` is checked.
    """
    b = bomb - 1
    p = float(rho[b, b].real)
    if abs(result.p_trigger - p) > 1e-12:
        return f"p_trigger={result.p_trigger} differs from rho[b,b]={p}"
    no_bomb = np.einsum("sj,jk,sk->s", u, rho, u.conj()).real
    keep = np.ones(len(rho))
    keep[b] = 0.0
    projected = keep[:, None] * rho * keep[None, :] / (1.0 - p)
    with_bomb = np.einsum("sj,jk,sk->s", u, projected, u.conj()).real
    p_inconclusive = (1.0 - p) * float(with_bomb[no_bomb > support_tol].sum())
    if abs(result.p_inconclusive - p_inconclusive) > EXACT_TOL:
        return f"p_inconclusive={result.p_inconclusive}, recomputed {p_inconclusive}"
    values, vectors = np.linalg.eigh(rho)
    support = vectors[:, values > tol]
    overlap = float(np.sum(np.abs(support[b]) ** 2))
    bound = 1.0 - 2.0 * p + p * overlap
    if abs(result.bound_value - bound) > EXACT_TOL:
        return f"bound={result.bound_value}, recomputed {bound}"
    if result.p_inconclusive < bound - EXACT_TOL:
        return f"p_inconclusive={result.p_inconclusive} below its bound {bound}"
    if result.p_inconclusive < (1.0 - p) ** 2 - EXACT_TOL:
        return f"p_inconclusive={result.p_inconclusive} below (1 - P_*)^2"
    total = result.p_trigger + result.p_inconclusive + result.p_success
    if abs(total - 1.0) > tol:
        return f"probabilities sum to {total}"
    return None
