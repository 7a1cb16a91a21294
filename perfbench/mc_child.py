"""Quantum Monte-Carlo loop of the ``quantum-mc`` workload, run as a child.

Usage: ``python perfbench/mc_child.py SEED SECONDS TRACE``

Generates the trial inputs from ``SEED`` with plain numpy (Wishart and
pure states alternating, Haar unitaries, a uniform bomb path, for
N = 2..8), then times ``quantum_ifm(DensityMatrix(n, rho),
UnitaryMatrix(n, u), bomb)`` one trial at a time for about ``SECONDS``
seconds, in passes over the whole input set.  Every result is checked
against a recomputation outside the timed region.  With ``TRACE`` 1 the
passes alternate traced and untraced, starting traced.  Prints one JSON
object on stdout.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from checks import check_quantum_trial
from tracer import Tracer, Totals, install, uninstall

N_VALUES = range(2, 9)
TRIALS_PER_N = 200


def make_inputs(seed: int) -> list[tuple[int, np.ndarray, np.ndarray, int]]:
    rng = np.random.default_rng(seed)
    inputs = []
    for n in N_VALUES:
        for trial in range(TRIALS_PER_N):
            if trial % 2:
                vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                vec /= np.linalg.norm(vec)
                rho = np.outer(vec, vec.conj())
            else:
                g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                w = g @ g.conj().T
                rho = w / np.trace(w).real
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, r = np.linalg.qr(z)
            u = q * (np.diag(r) / np.abs(np.diag(r))).conj()
            inputs.append((n, rho, u, int(rng.integers(1, n + 1))))
    return inputs


def run_pass(quantum, inputs, latencies: np.ndarray) -> tuple[int, str | None]:
    """One timed pass over the inputs; returns (failures, first reason)."""
    results = []
    clock = time.perf_counter_ns
    for k, (n, rho, u, bomb) in enumerate(inputs):
        start = clock()
        try:
            result = quantum.quantum_ifm(
                quantum.DensityMatrix(n, rho), quantum.UnitaryMatrix(n, u), bomb
            )
        except Exception as exc:  # a failed trial is counted, not fatal
            result = exc
        latencies[k] = clock() - start
        results.append(result)
    failed, reason = 0, None
    for (n, rho, u, bomb), result in zip(inputs, results):
        if isinstance(result, Exception):
            problem = f"quantum_ifm raised {result!r}"
        else:
            problem = check_quantum_trial(rho, u, bomb, result)
        if problem is not None:
            failed += 1
            reason = reason or f"N={n}: {problem}"
    return failed, reason


def main(seed: int, seconds: float, trace: bool) -> dict:
    from cubesim import quantum

    inputs = make_inputs(seed)
    latencies = np.empty(len(inputs), dtype=np.int64)
    run_pass(quantum, inputs, latencies)  # warm-up, not reported

    tracer = Tracer("mc")
    totals = Totals()
    untraced: list[np.ndarray] = []
    pass_s = {"traced": [], "untraced": []}
    attempted = failed = 0
    first_error = None
    deadline = time.perf_counter() + seconds
    estimate = 0.0
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() + estimate <= deadline:
        traced = trace and index % 2 == 0
        patches = install(tracer) if traced else []
        started = time.perf_counter()
        try:
            bad, reason = run_pass(quantum, inputs, latencies)
        finally:
            uninstall(patches)
        estimate = max(estimate, time.perf_counter() - started)
        if traced:
            totals.add(tracer.take())
        else:
            untraced.append(latencies.copy())
        pass_s["traced" if traced else "untraced"].append(latencies.sum() / 1e9)
        attempted += len(inputs)
        failed += bad
        first_error = first_error or reason
        index += 1

    trial_ns = np.concatenate(untraced)
    return {
        "attempted": attempted,
        "failed": failed,
        "first_error": first_error,
        "trials_per_pass": len(inputs),
        "pass_s": pass_s,
        "trial_us": {
            "p50": float(np.percentile(trial_ns, 50)) / 1e3,
            "p99": float(np.percentile(trial_ns, 99)) / 1e3,
            "n": int(trial_ns.size),
        },
        "totals": totals.to_json(),
        "traced_passes": len(pass_s["traced"]),
    }


if __name__ == "__main__":
    seed_arg, seconds_arg, trace_arg = sys.argv[1:]
    report = main(int(seed_arg), float(seconds_arg), trace_arg == "1")
    sys.stdout.write(json.dumps(report) + "\n")
