"""Tests of the benchmark's own arithmetic and checkers.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
from tracer import Span, Tracer, install, self_times, uninstall

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span("root", 0, 100, -1),
        Span("a", 10, 30, 0),
        Span("b", 25, 50, 0),  # overlaps a: the union [10, 50] counts once
        Span("a.inner", 12, 20, 1),
        Span("c", 90, 120, 0),  # runs past its parent: only [90, 100] counts
        Span("other_root", 200, 210, -1),
    ]
    assert self_times(spans) == [100 - 40 - 10, 20 - 8, 25, 8, 30, 10]


def test_tracer_nests_spans_and_counts_an_error_once_per_layer():
    tracer = Tracer()

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced_leaf = tracer.wrap("tensor.leaf", leaf)
    traced_mid = tracer.wrap("multiport.mid", lambda x: traced_leaf(x) + traced_leaf(x))
    assert traced_mid(2) == 4
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    with pytest.raises(ValueError):
        traced_mid(-1)
    totals = tracer.take()
    assert totals.calls == {"multiport.mid": 2, "tensor.leaf": 3}
    assert totals.errors == {"tensor": 1}
    assert tracer.spans == [] and not tracer.totals.calls


def test_install_wraps_cross_module_bindings_and_uninstall_restores():
    cubesim = pytest.importorskip("cubesim")
    from cubesim import experiments, multiport, quantum

    original = multiport.apply_transform
    tracer = Tracer("test")
    patches = install(tracer)
    try:
        assert experiments.apply_transform is multiport.apply_transform
        assert experiments.apply_transform is not original
        experiments.run_cube_ifm(3)
        quantum.DensityMatrix.maximally_mixed(3)
    finally:
        uninstall(patches)
    assert multiport.apply_transform is original is experiments.apply_transform
    totals = tracer.take()
    assert totals.calls["multiport.assemble_multiport"] == 1
    assert totals.calls["multiport.apply_transform"] == 3
    assert totals.calls["quantum.DensityMatrix"] == 1
    assert totals.assembled == {("test", 3)}
    basis = cubesim.sub_basis(3)
    assert totals.basis_bytes == basis.cubes.nbytes == basis.dim * 3**3 * 16


# ---------------------------------------------------------------------------
# output checkers reject known-bad output


def _ifm(**fields):
    base = {"model": "cube", "n_paths": 4, "p_trigger": 0.0,
            "p_inconclusive": 1 / 3, "p_success": 2 / 3}
    base.update(fields)
    return json.dumps(base)


def test_ifm_cube_checker():
    assert checks.check_ifm_cube(_ifm(), 4) is None
    assert "p_trigger" in checks.check_ifm_cube(_ifm(p_trigger=1e-6), 4)
    assert "1/(N-1)" in checks.check_ifm_cube(_ifm(p_inconclusive=0.3), 4)
    clicks = {"trigger": 1, "inconclusive": 3, "success": 6}
    assert "click" in checks.check_ifm_cube(_ifm(clicks=clicks), 4, shots=10)


def test_dump_matrix_checker():
    n, d = 3, 5

    def dump(m):
        pairs = np.stack([m.real, m.imag], axis=-1).tolist()
        return json.dumps({"n_paths": n, "basis_order": ["x"] * d, "matrix": pairs})

    flip = np.eye(d)[::-1].astype(complex)
    assert checks.check_dump_matrix(dump(flip), n) is None
    assert "Frobenius" in checks.check_dump_matrix(dump(flip * 1.001), n)
    assert "shape" in checks.check_dump_matrix(dump(np.eye(4, dtype=complex)), n)


def test_reproduce_and_verify_checkers():
    good = [{"name": "a", "passed": True}, {"name": "b", "passed": True}]
    assert checks.check_reproduce(json.dumps(good)) is None
    bad = good + [{"name": "c", "passed": False, "headroom": 1.0}]
    assert "c" in checks.check_reproduce(json.dumps(bad))
    rows = [{"n_paths": n, "passed": n != 4} for n in (3, 4)]
    assert "[4]" in checks.check_verify(json.dumps(rows), [3, 4])
    assert "expected" in checks.check_verify(json.dumps(rows[:1]), [3, 4])


def test_sorkin_and_scan_checkers():
    good = {"three_path_coherent_cube": 0.5, "dephased_quantum_cube": 0.0}
    assert checks.check_sorkin(json.dumps(good)) is None
    assert checks.check_sorkin(json.dumps({**good, "dephased_quantum_cube": 1e-6}))
    lines = ["n_paths,p_trigger,bound"] + [
        f"{n},{p!r},{(1 - p) ** 2 / (n - 1)!r}"
        for n in (2, 3) for p in (float(x) for x in np.linspace(0, 1, 3))
    ]
    assert checks.check_scan("\n".join(lines), [2, 3], 3) is None
    lines[2] = "2,0.5,0.3"
    assert "bound" in checks.check_scan("\n".join(lines), [2, 3], 3)


def test_quantum_trial_checker():
    rho = np.diag([0.25, 0.75]).astype(complex)
    u = (np.array([[1, 1], [1, -1]]) / np.sqrt(2)).astype(complex)
    # both no-bomb ports are in the support, so every no-trigger outcome is
    # inconclusive; rho has full rank, so its support bound is 1 - P_*
    good = SimpleNamespace(p_trigger=0.25, p_inconclusive=0.75, p_success=0.0,
                           bound_value=0.75)
    assert checks.check_quantum_trial(rho, u, 1, good) is None
    wrong_inconclusive = SimpleNamespace(**{**vars(good), "p_inconclusive": 0.5,
                                            "p_success": 0.25})
    assert "recomputed" in checks.check_quantum_trial(rho, u, 1, wrong_inconclusive)
    wrong_trigger = SimpleNamespace(**{**vars(good), "p_trigger": 0.75})
    assert "rho[b,b]" in checks.check_quantum_trial(rho, u, 1, wrong_trigger)
    wrong_bound = SimpleNamespace(**{**vars(good), "bound_value": 0.5})
    assert "bound" in checks.check_quantum_trial(rho, u, 1, wrong_bound)


# ---------------------------------------------------------------------------
# benchmark definition


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |     150000 | numpy",
        "import time:       300 |       9000 |   cubesim.tensor",
        "import time:       200 |     170000 | cubesim",
        "import time:        50 |         50 |   cubesim.cli",
    ])
    assert run.parse_importtime(stderr) == (0.15, 550 / 1e6)


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, emitted in (("end_to_end", run.END_TO_END), ("per_layer", run.per_layer_spec())):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == emitted
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
