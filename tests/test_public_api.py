"""The documented surface: the export list, README's CLI table and its tour."""

import argparse
import ast
import dataclasses
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import cubesim
from cubesim import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_export_list_resolves_without_duplicates():
    assert len(cubesim.__all__) == len(set(cubesim.__all__))
    for name in cubesim.__all__:
        assert hasattr(cubesim, name), name


def test_readme_cli_table_matches_the_parser():
    rows = re.findall(r"^\| `([a-z-]+)` +\|(.*)\|(.*)\|$", README.read_text(), re.MULTILINE)
    table = {name: (re.findall(r"`(\w+)`", formats), re.findall(r"`(--[\w-]+)", flags))
             for name, formats, flags in rows}
    parser = cli._build_parser()
    subparsers = next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    )
    assert sorted(table) == sorted(subparsers.choices)
    for name, subparser in subparsers.choices.items():
        formats, flags = table[name]
        options = {a.option_strings[0]: a for a in subparser._actions if a.option_strings}
        assert formats == list(options.pop("--format").choices), name
        assert sorted(flags) == sorted(set(options) - {"-h", "--out"}), name


def test_phase_function_knob_is_gone():
    for name in ("PhaseFunction", "default_phase_function"):
        assert not hasattr(cubesim, name) and name not in cubesim.__all__
    assert list(inspect.signature(cubesim.nonquantum_cube).parameters) == ["rho", "gamma"]


def test_basis_cubes_left_the_package():
    assert not hasattr(cubesim, "basis_cubes") and "basis_cubes" not in cubesim.__all__
    assert not hasattr(cubesim.cubes, "basis_cubes")


def test_optimal_cubes_have_one_constructor():
    assert cubesim.optimal_cubes is cubesim.cubes.optimal_cubes
    for name in ("optimal_cubes", "_blocks"):
        assert not hasattr(cubesim.multiport, name)
    # the block algebra of M M - id has one owner, the multiport module
    for name in ("_matvec", "_matmul"):
        assert not hasattr(cubesim.experiments, name)


def test_phase_table_is_a_plain_array():
    removed = ("PhaseMatrix", "alternative_d_blocks_n4", "alternative_multiport_n4", "build_phase_matrix")
    for name in removed:
        assert not hasattr(cubesim, name) and name not in cubesim.__all__
        assert not hasattr(cubesim.multiport, name)
    for n in (3, 4, 7):
        x, copies = cubesim.multiport._phase_slice(n)
        assert isinstance(x, np.ndarray)
        assert (len(x) * copies, x.shape[1]) == ((n - 1) * (n - 2) // 2, n)


def test_multiport_report_holds_only_measured_residuals():
    # self-adjointness, the Hermiticity pairing and the closing block's
    # spectrum, which follows from B B+'s, hold by construction;
    # tests/oracles.py::dense_report measures them on the assembled matrix
    names = [field.name for field in dataclasses.fields(cubesim.MultiportReport)]
    assert names == [
        "n_paths",
        "involution_residual",
        "diagonal_sum_drift",
        "bb_spectrum_deviation",
    ]


def test_fixed_guards_take_no_tolerance():
    for func in (
        cubesim.quantum.quantum_ifm,
        cubesim.experiments.fourier_preset,
        cubesim.cubes.luders_update_cube,
        cubesim.multiport.assemble_multiport,
        cubesim.results.IFMResult.is_perfect,
        cubesim.multiport.to_coords,
        cubesim.multiport.apply_transform,
        cubesim.experiments.sorkin_term,
        cubesim.cubes.measure_path_prob,
        cubesim.tensor.cube_inner,
    ):
        assert "tol" not in inspect.signature(func).parameters, func.__qualname__


def tour_values() -> list[object]:
    """Run README's "A short tour" block; return its bare expressions' values."""
    text = README.read_text()
    block = re.search(r"A short tour:\s*```python\n(.*?)```", text, re.S).group(1)
    namespace: dict[str, object] = {}
    values = []
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), README.name, "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([statement], []), README.name, "exec"), namespace)
    return values


def test_readme_tour_gives_the_commented_values():
    p_found, p_inconclusive, bomb_tester, sorkin = tour_values()
    assert p_found == 0.0
    assert p_inconclusive == pytest.approx(0.25, abs=1e-12)
    outcome = (bomb_tester.p_trigger, bomb_tester.p_inconclusive, bomb_tester.p_success)
    assert outcome == pytest.approx((0.5, 0.25, 0.25), abs=1e-12)
    assert sorkin == pytest.approx(0.5, abs=1e-12)
