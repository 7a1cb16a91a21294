"""cubesim benchmark: end-to-end metrics, or per-layer metrics when traced.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark measures from outside the
program, in a closed loop: one caller, one operation at a time, each in a
fresh child process (``python -m cubesim.cli`` with ``src`` on
``PYTHONPATH``, or a library loop for ``quantum-mc``).  Children get
``min(2, nproc)`` BLAS threads.  Workloads:

``cube-large-n``
    cold CLI runs of ``ifm --model cube --n N`` for N in {16, 24, 32} and
    ``dump-matrix --n 32``: the dense basis stack, the closing-block
    square root, coordinate einsums and serialising the dense matrix.
``reference-small-n``
    cold CLI runs of ``reproduce``, ``verify --n 3..12``, ``sorkin``,
    ``scan``, ``ifm --model quantum --n 8`` and a seeded cube ``ifm``:
    many small-N calls, where import and per-object validation dominate
    and ``reproduce`` assembles each N twice.
``quantum-mc``
    seeded random ``quantum_ifm`` trials for N = 2..8 in one process; it
    touches only the ``quantum`` and ``results`` layers.

The CLI workloads run passes over their commands in an order shuffled by
the seed; ``quantum-mc`` draws its inputs from the seed.  Every output
is checked (see ``checks.py``).  Set-up is a fresh-interpreter
``import cubesim.cli``, timed several times before the measured window
and as many times after it.

With ``--trace 0`` the last line carries the end-to-end metrics:

``setup_s``      median wall time of a fresh ``import cubesim.cli``;
``wall_s``       one full pass: the sum of the per-command medians, or
                 the median pass over the ``quantum-mc`` input set;
``ops_per_s``    commands (or trials) per pass over ``wall_s``;
``peak_rss_mb``  the largest peak RSS of any measured child.

With ``--trace 1`` the passes alternate traced and untraced, and the last
line carries per-layer metrics: calls and self time of each traced
function, busy time and errors of each layer (all per traced pass), the
computed counters ``multiport.basis_bytes`` (bytes of the dense basis
stacks built) and ``multiport.assemble_multiport.calls_per_n`` (calls
over distinct N per process), the ``-X importtime`` split of set-up, and
``trace.overhead_frac``, traced over untraced time minus one.  Lines
before the last one hold a report with every timing's median, spread and
sample count, the operations that failed, and the environment of the
run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import checks
from tracer import LAYERS, Totals

HERE = os.path.dirname(os.path.abspath(__file__))

WORK_DIR = ".perfbench_work"
#: Set-up is sampled this many times before the measured window and as
#: many times after it, so that its median spans the whole run.
SETUP_REPEATS = 4
BLAS_THREADS = str(min(2, os.cpu_count() or 1))
#: A run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
}

#: Functions whose calls and self time are reported per layer.
TRACED = (
    "multiport.sub_basis",
    "multiport.assemble_multiport",
    "multiport.hermitian_sqrt",
    "multiport.verify_multiport",
    "multiport.to_coords",
    "multiport.from_coords",
    "multiport.apply_transform",
    "multiport.MultiportMatrix.to_json_dict",
    "tensor.HermitianCube",
    "tensor.hermitian_complete",
    "cubes.dephase",
    "cubes.luders_update_cube",
    "cubes.measure_path_prob",
    "cubes.quantum_to_cube",
    "experiments.run_cube_ifm",
    "experiments.sorkin_term",
    "quantum.DensityMatrix",
    "quantum.UnitaryMatrix",
    "quantum.quantum_ifm",
    "quantum.luders_remove_path",
    "quantum.support_projector",
    "quantum.quantum_tradeoff_bounds",
    "results.IFMResult",
)


def per_layer_spec() -> dict[str, tuple[str, str]]:
    spec: dict[str, tuple[str, str]] = {}
    for name in TRACED:
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
    for layer in LAYERS:
        spec[f"{layer}.busy_s"] = ("s", "lower")
        spec[f"{layer}.errors"] = ("count", "lower")
    spec["multiport.basis_bytes"] = ("B", "lower")
    spec["multiport.assemble_multiport.calls_per_n"] = ("ratio", "lower")
    spec["setup.import_numpy_s"] = ("s", "lower")
    spec["setup.import_cubesim_s"] = ("s", "lower")
    spec["trace.overhead_frac"] = ("ratio", "lower")
    return spec


# ---------------------------------------------------------------------------
# child processes


class SetupError(RuntimeError):
    """The program could not be started; the run reports no result."""


@dataclass
class Child:
    seconds: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], timeout: float) -> Child:
    """Run a child to completion, timing it and taking its own peak RSS.

    ``os.wait4`` reports the resources of this child alone, unlike
    ``RUSAGE_CHILDREN``, which keeps the largest child seen so far.
    """
    err_path = os.path.join(WORK_DIR, "stderr.txt")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=child_env()
        )
        timer = threading.Timer(max(timeout, 1.0), os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        reaped = False
        try:
            stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            timer.cancel()
            proc.stdout.close()
            if not reaped:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - start
    # the pid is reaped; keep Popen from waiting on it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Child(seconds, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr)


def run_setup_child(argv: list[str], deadline: float) -> Child:
    child = run_child(argv, deadline - time.perf_counter())
    if child.code != 0:
        raise SetupError(f"{' '.join(argv)} exited {child.code}: {child.stderr.strip()}")
    return child


def measure_setup(deadline: float) -> list[float]:
    """Wall times of fresh interpreters importing ``cubesim.cli``."""
    argv = [sys.executable, "-c", "import cubesim.cli"]
    return [run_setup_child(argv, deadline).seconds for _ in range(SETUP_REPEATS)]


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy cumulative, cubesim self) import seconds from ``-X importtime``."""
    numpy_us = cubesim_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        name = name.strip()
        if not own.strip().isdigit():  # the column header
            continue
        if name == "numpy":
            numpy_us = int(cumulative)
        elif name == "cubesim" or name.startswith("cubesim."):
            cubesim_us += int(own)
    return numpy_us / 1e6, cubesim_us / 1e6


def measure_imports(deadline: float) -> list[tuple[float, float]]:
    argv = [sys.executable, "-X", "importtime", "-c", "import cubesim.cli"]
    return [
        parse_importtime(run_setup_child(argv, deadline).stderr)
        for _ in range(SETUP_REPEATS)
    ]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple[str, ...]
    check: Callable[[bytes], str | None]


def cube_large_n_ops(seed: int) -> list[Op]:
    ops = [
        Op(f"ifm_cube_n{n}", ("ifm", "--model", "cube", "--n", str(n)),
           lambda out, n=n: checks.check_ifm_cube(out, n))
        for n in (16, 24, 32)
    ]
    ops.append(Op("dump_matrix_n32", ("dump-matrix", "--n", "32"),
                  lambda out: checks.check_dump_matrix(out, 32)))
    return ops


def reference_small_n_ops(seed: int) -> list[Op]:
    return [
        Op("reproduce", ("reproduce", "--format", "json"), checks.check_reproduce),
        Op("verify_small", ("verify", "--n", "3..12", "--format", "json"),
           lambda out: checks.check_verify(out, list(range(3, 13)))),
        Op("sorkin", ("sorkin", "--port", "1"), checks.check_sorkin),
        Op("scan", ("scan", "--n", "2,3,4,10", "--grid", "101"),
           lambda out: checks.check_scan(out.decode(), [2, 3, 4, 10], 101)),
        Op("ifm_quantum_n8", ("ifm", "--model", "quantum", "--n", "8"),
           lambda out: checks.check_ifm_quantum_fourier(out, 8)),
        Op("ifm_cube_n3_shots",
           ("ifm", "--model", "cube", "--n", "3", "--seed", str(seed), "--shots", "10000"),
           lambda out: checks.check_ifm_cube(out, 3, shots=10_000)),
    ]


CLI_WORKLOADS = {
    "cube-large-n": cube_large_n_ops,
    "reference-small-n": reference_small_n_ops,
}
WORKLOADS = (*CLI_WORKLOADS, "quantum-mc")


def check_op(op: Op, child: Child) -> str | None:
    if child.code != 0:
        return f"exit code {child.code}: {child.stderr.strip()[-300:]}"
    try:
        return op.check(child.stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    first_error: str | None = None

    def record(self, problem: str | None, what: str) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.first_error = self.first_error or f"{what}: {problem}"


def run_cli_workload(ops: list[Op], seed: int, seconds: float, trace: bool,
                     hard_deadline: float) -> dict:
    """Closed loop over the commands, pass after pass, for ``seconds``.

    A pass runs every command once, in a seeded order.  The first pass
    (two when traced) always completes; after that a command starts only
    if its median time so far still fits before the deadline.  Traced
    runs alternate traced and untraced passes, starting traced, and only
    complete traced passes count towards the per-layer totals.
    """
    rng = random.Random(seed)
    deadline = time.perf_counter() + seconds
    times: dict[str, dict[bool, list[float]]] = {op.name: {False: [], True: []} for op in ops}
    rss_mb: list[float] = []
    outcome = Outcome()
    totals = Totals()
    traced_passes = 0
    trace_path = os.path.abspath(os.path.join(WORK_DIR, "trace.json"))
    index = 0
    while True:
        traced = trace and index % 2 == 0
        order = list(ops)
        rng.shuffle(order)
        pass_totals = Totals()
        complete = True
        for op in order:
            seen = times[op.name][False] + times[op.name][True]
            estimate = statistics.median(seen) if seen else 0.0
            if index >= (2 if trace else 1) and time.perf_counter() + estimate > deadline:
                complete = False
                break
            if traced:
                argv = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                        trace_path, f"{index}:{op.name}", *op.argv]
            else:
                argv = [sys.executable, "-m", "cubesim.cli", *op.argv]
            child = run_child(argv, hard_deadline - time.perf_counter())
            times[op.name][traced].append(child.seconds)
            outcome.record(check_op(op, child), op.name)
            if traced:
                if child.code == 0:
                    with open(trace_path, encoding="utf-8") as handle:
                        pass_totals.add(Totals.from_json(json.load(handle)))
                else:
                    complete = False
            else:
                rss_mb.append(child.rss_mb)
        if not complete:
            break
        if traced:
            totals.add(pass_totals)
            traced_passes += 1
        index += 1

    op_s = {name: summarize(by_mode[False]) for name, by_mode in times.items()}
    pass_medians = {
        mode: sum(statistics.median(t[mode]) for t in times.values() if t[False] and t[True])
        for mode in (False, True)
    }
    wall_s = sum(stat["median"] for stat in op_s.values() if stat["n"])
    return {
        "outcome": outcome,
        "wall_s": wall_s,
        "ops_per_s": len(ops) / wall_s if wall_s else 0.0,
        "peak_rss_mb": max(rss_mb, default=0.0),
        "timings": {f"{name}_s": stat for name, stat in op_s.items()},
        "totals": totals,
        "traced_passes": traced_passes,
        "overhead_frac": (
            pass_medians[True] / pass_medians[False] - 1.0 if pass_medians[False] else 0.0
        ),
    }


def run_quantum_mc(seed: int, seconds: float, trace: bool, hard_deadline: float) -> dict:
    argv = [sys.executable, os.path.join(HERE, "mc_child.py"), str(seed), str(seconds),
            "1" if trace else "0"]
    child = run_child(argv, hard_deadline - time.perf_counter())
    if child.code != 0:
        raise SetupError(f"quantum-mc child exited {child.code}: {child.stderr.strip()}")
    data = json.loads(child.stdout)
    outcome = Outcome(data["attempted"], data["failed"], data["first_error"])
    untraced = data["pass_s"]["untraced"]
    traced = data["pass_s"]["traced"]
    wall_s = statistics.median(untraced)
    trial_us = data["trial_us"]
    return {
        "outcome": outcome,
        "wall_s": wall_s,
        "ops_per_s": data["trials_per_pass"] / wall_s,
        "peak_rss_mb": child.rss_mb,
        "timings": {
            "pass_s": summarize(untraced),
            "trials_per_s": {"median": data["trials_per_pass"] / wall_s,
                             "n": len(untraced), "unit": "1/s"},
            "trial_us.p50": {"value": trial_us["p50"], "n": trial_us["n"], "unit": "us"},
            "trial_us.p99": {"value": trial_us["p99"], "n": trial_us["n"], "unit": "us"},
        },
        "totals": Totals.from_json(data["totals"]),
        "traced_passes": data["traced_passes"],
        "overhead_frac": statistics.median(traced) / wall_s - 1.0 if traced else 0.0,
    }


# ---------------------------------------------------------------------------
# reporting


def summarize(values: list[float]) -> dict:
    """Median, quartiles, extremes and count of a list of seconds."""
    if not values:
        return {"n": 0}
    stat = {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "unit": "s"}
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        stat.update(q1=q1, q3=q3)
    return stat


def per_layer_metrics(result: dict, imports: tuple[float, float]) -> dict[str, float]:
    totals: Totals = result["totals"]
    passes = max(result["traced_passes"], 1)
    values: dict[str, float] = {}
    for name in TRACED:
        values[f"{name}.calls"] = totals.calls[name] / passes
        values[f"{name}.self_s"] = totals.self_ns[name] / 1e9 / passes
    for layer in LAYERS:
        busy = sum(ns for name, ns in totals.self_ns.items() if name.startswith(layer + "."))
        values[f"{layer}.busy_s"] = busy / 1e9 / passes
        values[f"{layer}.errors"] = totals.errors[layer] / passes
    values["multiport.basis_bytes"] = totals.basis_bytes / passes
    assembled = totals.calls["multiport.assemble_multiport"]
    values["multiport.assemble_multiport.calls_per_n"] = (
        assembled / len(totals.assembled) if totals.assembled else 0.0
    )
    values["setup.import_numpy_s"], values["setup.import_cubesim_s"] = imports
    values["trace.overhead_frac"] = result["overhead_frac"]
    return values


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` when there is one."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        try:
            with open(os.path.join(".git", ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip("\n").endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int, seconds: int, trace: bool,
                deadline: float) -> dict:
    """Where and how the run was made; the numerical stack is probed in a
    child, so that it is what the measured children saw."""
    probe = run_setup_child([sys.executable, os.path.join(HERE, "probe_env.py")], deadline)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": git_commit(),
        **json.loads(probe.stdout),
        "nproc": os.cpu_count(),
        "loop": "closed, one caller, one operation at a time",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    if not os.path.isfile(os.path.join("src", "cubesim", "cli.py")):
        print("error: run from the repository root; src/cubesim is missing", file=sys.stderr)
        return 2
    hard_deadline = time.perf_counter() + RUN_LIMIT_S
    os.makedirs(WORK_DIR, exist_ok=True)
    measure_set_up = measure_imports if trace else measure_setup
    try:
        set_up = measure_set_up(hard_deadline)
        if args.workload == "quantum-mc":
            result = run_quantum_mc(args.seed, args.seconds, trace, hard_deadline)
        else:
            ops = CLI_WORKLOADS[args.workload](args.seed)
            result = run_cli_workload(ops, args.seed, args.seconds, trace, hard_deadline)
        set_up += measure_set_up(hard_deadline)
        env = environment(args.workload, args.seed, args.seconds, trace, hard_deadline)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in os.listdir(WORK_DIR):
            os.remove(os.path.join(WORK_DIR, name))
        os.rmdir(WORK_DIR)

    outcome: Outcome = result["outcome"]
    if trace:
        spec = per_layer_spec()
        values = per_layer_metrics(result, (
            statistics.median(numpy_s for numpy_s, _ in set_up),
            statistics.median(cubesim_s for _, cubesim_s in set_up),
        ))
    else:
        spec = END_TO_END
        result["timings"]["setup_s"] = summarize(set_up)
        values = {
            "setup_s": statistics.median(set_up),
            "wall_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
            "ops_per_s": result["ops_per_s"],
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in spec.items()}
    report = {
        "environment": env,
        "failed_frac": outcome.failed / outcome.attempted,
        "first_error": outcome.first_error,
        "timings": result["timings"],
        "traced_passes": result["traced_passes"],
        "metrics": metrics,
    }
    print(json.dumps(report, indent=2))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
