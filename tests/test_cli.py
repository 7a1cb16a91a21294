import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubesim import cli, experiments
from cubesim.cli import _multiport_json, main, reference_checks
from cubesim.multiport import MultiportMatrix, assemble_multiport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def multiport_json_dict(t: MultiportMatrix) -> dict:
    """Oracle for ``dump-matrix``: the multiport as a plain dict whose
    ``json.dumps(..., sort_keys=True, indent=2)`` is the expected output."""
    return {
        "n_paths": t.n_paths,
        "basis_order": list(t.basis.labels),
        "matrix": [[[value.real, value.imag] for value in row] for row in t.matrix],
    }


# --- ifm ----------------------------------------------------------------------

def test_ifm_cube_three_paths_json(capsys):
    code, out, _ = run_cli(capsys, "ifm", "--model", "cube", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_trigger"] == 0.0
    assert payload["p_inconclusive"] == 0.5
    assert payload["p_success"] == 0.5
    assert payload["bound"] == 0.5


CUBE_IFM_JSON = """{
  "bound": %s,
  "label": "cube_multiport_%d",
  "model": "cube",
  "n_paths": %d,
  "p_inconclusive": %s,
  "p_success": %s,
  "p_trigger": 0.0,
  "support_sensitive": false
}
"""


# float spellings as printed; p_inconclusive equals the bound at each N
@pytest.mark.parametrize(
    "n, bound, p_inconclusive, p_success",
    [
        (3, "0.5", "0.5", "0.5"),
        (4, "0.3333333333333333", "0.3333333333333333", "0.6666666666666667"),
        (12, "0.09090909090909091", "0.09090909090909091", "0.9090909090909091"),
        (32, "0.03225806451612903", "0.03225806451612903", "0.967741935483871"),
    ],
)
def test_ifm_cube_json_bytes_are_pinned(capsys, n, bound, p_inconclusive, p_success):
    code, out, err = run_cli(capsys, "ifm", "--model", "cube", "--n", str(n))
    assert (code, err) == (0, "")
    assert out == CUBE_IFM_JSON % (bound, n, n, p_inconclusive, p_success)


def test_ifm_quantum_fourier(capsys):
    code, out, _ = run_cli(capsys, "ifm", "--model", "quantum", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["p_trigger"] == pytest.approx(0.25, abs=1e-12)
    assert payload["p_inconclusive"] == pytest.approx(0.5625, abs=1e-12)


def test_ifm_output_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "ifm", "--model", "cube", "--n", "4")
    _, second, _ = run_cli(capsys, "ifm", "--model", "cube", "--n", "4")
    assert first == second


def test_ifm_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "ifm", "--model", "cube", "--n", "3", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "model,n_paths,p_trigger,p_inconclusive,p_success,bound"
    assert lines[1].startswith("cube,3,")


def test_ifm_with_seed_samples_clicks(capsys):
    code, out, _ = run_cli(
        capsys, "ifm", "--model", "cube", "--n", "3", "--seed", "9", "--shots", "500"
    )
    assert code == 0
    payload = json.loads(out)
    clicks = payload["clicks"]
    assert clicks["shots"] == 500
    assert clicks["trigger"] + clicks["inconclusive"] + clicks["success"] == 500
    _, again, _ = run_cli(
        capsys, "ifm", "--model", "cube", "--n", "3", "--seed", "9", "--shots", "500"
    )
    assert json.loads(again) == payload


def test_ifm_quantum_without_preset_fails(capsys):
    code, _, err = run_cli(capsys, "ifm", "--model", "quantum", "--n", "12")
    assert code == 1
    assert "preset" in err


def test_ifm_cube_two_paths_is_a_computation_error(capsys):
    code, _, err = run_cli(capsys, "ifm", "--model", "cube", "--n", "2")
    assert code == 1
    assert "3" in err


def test_ifm_rejects_out_of_range_n(capsys):
    with pytest.raises(SystemExit) as info:
        main(["ifm", "--model", "cube", "--n", "99"])
    assert info.value.code == 2


# --- scan ---------------------------------------------------------------------

def test_scan_row_count(capsys):
    code, out, _ = run_cli(capsys, "scan", "--n", "2,3,4,10", "--grid", "101")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 405  # header + 4 * 101
    assert lines[0] == "n_paths,p_trigger,bound"


def test_scan_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--n", "2", "--grid", "3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"n_paths": 2, "p_trigger": 0.0, "bound": 1.0}


# --- sorkin -------------------------------------------------------------------

def test_sorkin_values(capsys):
    code, out, _ = run_cli(capsys, "sorkin", "--port", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["three_path_coherent_cube"] == pytest.approx(0.5, abs=1e-12)
    assert payload["dephased_quantum_cube"] == pytest.approx(0.0, abs=1e-12)


# --- verify and dump ------------------------------------------------------------

def test_verify_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3..8")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert all("[pass]" in line for line in lines)


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3,4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["n_paths"] for row in rows] == [3, 4]
    assert all(row["passed"] for row in rows)
    assert all(row["involution_residual"] < 1e-9 for row in rows)


VERIFY_PRETTY = """\
N= 3  involution=6.167e-16  diag-drift=2.001e-16  BB-spectrum=3.331e-16  [pass]
N= 4  involution=3.063e-16  diag-drift=8.164e-17  BB-spectrum=2.220e-16  [pass]
N= 5  involution=5.101e-16  diag-drift=6.206e-17  BB-spectrum=7.772e-16  [pass]
"""

VERIFY_JSON = """[
  {
    "bb_spectrum_deviation": 3.3306690738754696e-16,
    "diagonal_sum_drift": 2.0014830212433607e-16,
    "involution_residual": 6.166643069930834e-16,
    "n_paths": 3,
    "passed": true
  },
  {
    "bb_spectrum_deviation": 2.220446049250313e-16,
    "diagonal_sum_drift": 8.164311994315688e-17,
    "involution_residual": 3.0631261756292153e-16,
    "n_paths": 4,
    "passed": true
  },
  {
    "bb_spectrum_deviation": 7.771561172376096e-16,
    "diagonal_sum_drift": 6.206335383118183e-17,
    "involution_residual": 5.101333330812971e-16,
    "n_paths": 5,
    "passed": true
  }
]
"""


@pytest.mark.parametrize(
    "fmt, expected", [("pretty", VERIFY_PRETTY), ("json", VERIFY_JSON)], ids=["pretty", "json"]
)
def test_verify_bytes_are_pinned(capsys, fmt, expected):
    assert run_cli(capsys, "verify", "--n", "3..5", "--format", fmt) == (0, expected, "")


# --matrix-tol is only the report's pass threshold: the assembly check is
# fixed, so a threshold below the residuals prints every row as failed
def test_verify_below_the_residuals_reports_failures(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "3..6", "--matrix-tol", "1e-20")
    assert (code, err) == (1, "")
    lines = out.strip().split("\n")
    assert len(lines) == 4 and all(line.endswith("[FAIL]") for line in lines)
    code, out, err = run_cli(
        capsys, "verify", "--n", "3..6", "--matrix-tol", "1e-20", "--format", "json"
    )
    assert (code, err) == (1, "")
    assert [row["passed"] for row in json.loads(out)] == [False] * 4


# README's byte contract: the commands that write the same bytes at any BLAS
# thread count
BYTE_CONTRACT_ARGV = (
    [["ifm", "--model", "cube", "--n", str(n)] for n in range(3, 33)]
    + [
        ["ifm", "--model", "quantum", "--n", str(n), *fmt]
        for n in range(2, 9)
        for fmt in ([], ["--format", "csv"])
    ]
    + [["reproduce"], ["reproduce", "--format", "json"]]
    + [["sorkin", "--port", str(port)] for port in (1, 2, 3)]
    + [["verify", "--n", "3..32"], ["verify", "--n", "3..32", "--format", "json"]]
    + [["dump-matrix", "--n", "32"]]
)

# Runs each argv through cli.main in one interpreter and prints, as JSON,
# its exit code, stderr and stdout's sha256, for N = 3..32 whether the
# assembled multiport equals the out-of-place formula bit for bit, and,
# above the CLI cap, the verify reports for N = 48, 64 and 128 and the cube
# IFM records for N = 64 and 128.
THREAD_CHILD = """
import contextlib, hashlib, io, json, sys
import numpy as np
from cubesim import cli
from cubesim.experiments import run_cube_ifm
from cubesim.multiport import assemble_multiport, verify_multiport
from oracles import out_of_place_multiport

runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, err.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()])
bits = [
    np.array_equal(
        assemble_multiport(n).matrix.view(np.int64), out_of_place_multiport(n).view(np.int64)
    )
    for n in range(3, 33)
]
reports = [repr(verify_multiport(n)) for n in (48, 64, 128)]
reports += [json.dumps(run_cube_ifm(n).to_json_dict()) for n in (64, 128)]
print(json.dumps({"runs": runs, "bits": bits, "reports": reports}))
"""


def test_cli_bytes_do_not_depend_on_the_blas_thread_count():
    # a product whose summation order follows the BLAS thread split, such as
    # a BLAS `@` of B+B over the stacked B in verify_multiport or of the N x d
    # population rows in run_cube_ifm, moves a bit in some report here
    paths = [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent)]
    pythonpath = os.pathsep.join(filter(None, [*paths, os.environ.get("PYTHONPATH")]))
    reports = {}
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath}
        done = subprocess.run(
            [sys.executable, "-c", THREAD_CHILD, json.dumps(BYTE_CONTRACT_ARGV)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, ""), threads
        reports[threads] = json.loads(done.stdout)
    for threads, report in reports.items():
        assert [run[:2] for run in report["runs"]] == [[0, ""]] * len(BYTE_CONTRACT_ARGV), threads
        assert report["bits"] == [True] * 30, threads
    assert reports["1"] == reports["2"]


def test_dump_matrix(capsys):
    code, out, _ = run_cli(capsys, "dump-matrix", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["n_paths"] == 4
    assert len(payload["basis_order"]) == 10
    matrix = np.array(
        [[complex(re, im) for re, im in row] for row in payload["matrix"]]
    )
    np.testing.assert_allclose(matrix @ matrix, np.eye(10), atol=1e-9)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 32])
def test_dump_matrix_bytes_match_json_dumps(capsys, tmp_path, n):
    expected = json.dumps(
        multiport_json_dict(assemble_multiport(n)), sort_keys=True, indent=2
    ) + "\n"
    code, out, _ = run_cli(capsys, "dump-matrix", "--n", str(n))
    assert code == 0
    assert out == expected
    target = tmp_path / "matrix.json"
    code, out, _ = run_cli(capsys, "dump-matrix", "--n", str(n), "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_bytes() == expected.encode()


def test_multiport_json_keeps_every_float_spelling():
    # -0.0 and 0.0 are equal as values but not as bit patterns
    values = [0.0, -0.0, 1.0, 5e-324, 1 / 3, -1 / 3, -5e-324, 1e300]
    matrix = np.resize(values, 50).view(complex).reshape(5, 5)
    t = MultiportMatrix(3, matrix)
    expected = json.dumps(multiport_json_dict(t), sort_keys=True, indent=2)
    assert "".join(_multiport_json(t)) == expected
    assert "-0.0" in expected and "5e-324" in expected


#: Few floats, so that pairs collide: one re with several ims, each zero
#: sign in either slot, and values whose spellings differ in length.
FLOAT_POOL = [0.0, -0.0, 5e-324, -5e-324, 1 / 3, -1 / 3, 1.0, 1e300]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(FLOAT_POOL), min_size=50, max_size=50))
def test_multiport_json_matches_json_dumps_for_colliding_pairs(floats):
    matrix = np.array(floats).view(complex).reshape(5, 5)
    t = MultiportMatrix(3, matrix)
    expected = json.dumps(multiport_json_dict(t), sort_keys=True, indent=2)
    assert "".join(_multiport_json(t)) == expected


CELLS = st.builds(complex, st.sampled_from(FLOAT_POOL), st.sampled_from(FLOAT_POOL))
#: columns where a spliced cell is easy to misplace: the first and the last
#: column, and the first one after the four population columns
EDGE_COLUMNS = st.sampled_from([0, 4, 9]) | st.integers(0, 9)


@st.composite
def grouped_matrices(draw):
    """10 x 10 matrices (N = 4) whose rows copy one of a few base rows and
    then differ from it in a few cells, one row in every cell."""
    bases = draw(st.lists(st.lists(CELLS, min_size=10, max_size=10), min_size=1, max_size=3))
    rows = [list(draw(st.sampled_from(bases))) for _ in range(10)]
    for row in rows:
        for column in draw(st.lists(EDGE_COLUMNS, max_size=3)):
            row[column] = draw(CELLS)
    # negation flips the sign bit of both floats of every cell
    everywhere = draw(st.integers(0, 9))
    rows[everywhere] = [-cell for cell in rows[everywhere]]
    return np.array(rows)


def spliced_edges():
    # rows 1-4 share row 0's population columns, so each is written as row
    # 0's text with its differing cells spliced in
    matrix = np.tile(np.resize([1 / 3, -0.0, 1e300], 10), (10, 1)).astype(complex)
    matrix[1, 4] = -0.0
    matrix[2, 9] = 5e-324j
    matrix[3, [4, 9]] = -5e-324
    matrix[4, 4:] = -matrix[4, 4:]
    matrix[5:] = -matrix[5:]
    return matrix


@settings(max_examples=200, deadline=None)
@given(grouped_matrices())
@example(spliced_edges())
def test_multiport_json_matches_json_dumps_for_spliced_rows(matrix):
    t = MultiportMatrix(4, matrix)
    expected = json.dumps(multiport_json_dict(t), sort_keys=True, indent=2)
    assert "".join(_multiport_json(t)) == expected


def test_dump_matrix_rejects_non_finite_entries(capsys, tmp_path, monkeypatch):
    matrix = np.array(assemble_multiport(3).matrix)
    matrix[1, 2] = np.nan
    monkeypatch.setattr(
        "cubesim.multiport.assemble_multiport",
        lambda n: MultiportMatrix(3, matrix),
    )
    target = tmp_path / "matrix.json"
    code, out, err = run_cli(capsys, "dump-matrix", "--n", "3", "--out", str(target))
    assert code == 1
    assert out == ""
    assert "non-finite" in err
    assert not target.exists()


def test_dump_matrix_memory_is_bounded(tmp_path):
    tracemalloc.start()
    try:
        code = main(["dump-matrix", "--n", "32", "--out", str(tmp_path / "m.json")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 200 * 2**20


@pytest.mark.parametrize(
    "argv", [["sorkin"], ["dump-matrix", "--n", "4"]], ids=["sorkin", "dump-matrix"]
)
def test_json_format_flag_matches_the_default(capsys, argv):
    _, default, _ = run_cli(capsys, *argv)
    code, explicit, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert explicit == default


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "ifm", "--model", "cube", "--n", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["p_inconclusive"] == 0.5


def test_out_into_missing_directory_is_a_clean_error(capsys, tmp_path):
    target = tmp_path / "missing" / "result.json"
    code, out, err = run_cli(
        capsys, "ifm", "--model", "cube", "--n", "3", "--out", str(target)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "message, shown",
    [((), "out of memory"), (("Unable to allocate 7.28 TiB",), "Unable to allocate 7.28 TiB")],
    ids=["bare", "numpy"],
)
def test_out_of_memory_is_a_clean_error(capsys, monkeypatch, message, shown):
    def exhausted(*args, **kwargs):
        raise MemoryError(*message)

    monkeypatch.setattr(experiments, "region_scan", exhausted)
    code, out, err = run_cli(capsys, "scan", "--n", "2", "--grid", "1000000000000")
    assert (code, out, err) == (1, "", f"error: {shown}\n")


# --- reproduce -------------------------------------------------------------------

def test_reproduce_passes(capsys):
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 0
    assert "[pass]" in out
    assert "FAIL" not in out


def test_reproduce_json(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(row["passed"] for row in rows)
    names = [row["name"] for row in rows]
    assert "3-path IFM: inconclusive probability" in names


def test_reproduce_with_corrupted_constant_fails(capsys, monkeypatch):
    run_cube_ifm = experiments.run_cube_ifm

    def skewed(n, *args, **kwargs):
        """The real run, with N = 3's P_? moved 1e-3 from P_success."""
        result = run_cube_ifm(n, *args, **kwargs)
        if n != 3:
            return result
        return replace(
            result,
            p_inconclusive=result.p_inconclusive + 1e-3,
            p_success=result.p_success - 1e-3,
        )

    monkeypatch.setattr(experiments, "run_cube_ifm", skewed)
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 1
    row = next(line for line in out.splitlines() if line.startswith("3-path IFM: inconclusive"))
    assert row.endswith("[FAIL]")


def test_reference_checks_cover_key_values():
    checks = {c.name: c for c in reference_checks()}
    assert checks["3-path IFM: inconclusive probability"].expected == 0.5
    assert checks["3-path post-update cube: purity"].expected == 0.5
    assert checks["2-path bomb tester: trigger probability"].expected == 0.5
    assert checks["third-order term of the 3-path coherent cube"].expected == 0.5
    assert all(c.passed for c in checks.values())


def test_reference_checks_assemble_and_run_each_n_once(monkeypatch):
    calls = []
    for module, name in ((cli.multiport, "assemble_multiport"), (cli.experiments, "run_cube_ifm")):
        def counted(n, _original=getattr(module, name), _name=name):
            calls.append((_name, n))
            return _original(n)

        monkeypatch.setattr(module, name, counted)
    assert all(c.passed for c in reference_checks())
    # only the tabulated three-path comparison needs an assembled matrix
    assert [n for called, n in calls if called == "assemble_multiport"] == [3]
    assert sorted(n for called, n in calls if called == "run_cube_ifm") == list(range(3, 13))


# --- configuration ----------------------------------------------------------------

def test_env_tolerance_must_be_numeric(capsys, monkeypatch):
    monkeypatch.setenv("CUBESIM_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "ifm", "--model", "cube", "--n", "3")
    assert code == 2
    assert "CUBESIM_TOL" in err


def test_flag_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv("CUBESIM_TOL", "-1.0")
    code, _, _ = run_cli(
        capsys, "ifm", "--model", "cube", "--n", "3", "--tol", "1e-10"
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv, env_tol",
    [
        pytest.param(argv, env_tol, id=f"{prefix}{env_tol}")
        for prefix, argv in (
            ("", ("scan", "--n", "3", "--grid", "3")),
            ("sorkin-", ("sorkin", "--port", "2")),
        )
        for env_tol in ("0", "-1.0", "not-a-number")
    ],
)
def test_env_tolerance_is_ignored_without_tol_flag(capsys, monkeypatch, argv, env_tol):
    _, expected, _ = run_cli(capsys, *argv)
    monkeypatch.setenv("CUBESIM_TOL", env_tol)
    assert run_cli(capsys, *argv) == (0, expected, "")


# Construction invariants keep their fixed 1e-10 slack, so a tight --tol
# tightens only the no-bomb gap.
CONSTRUCTION_INVARIANTS = (
    "purity",
    "diagonal sums",
    "trace is",
    "not Hermitian",
    "negative eigenvalue",
    "not unitary",
    "breaks B+B",
)


@pytest.mark.parametrize(
    "argv",
    [["ifm", "--model", "quantum", "--n", str(n)] for n in range(2, 9)],
    ids=[f"quantum-n{n}" for n in range(2, 9)],
)
def test_tight_tolerance_keeps_the_default_output(capsys, argv):
    _, expected, _ = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--tol", "1e-16") == (0, expected, "")


@pytest.mark.parametrize("tol", ["1e-16", "1e-15"])
@pytest.mark.parametrize("n", [3, 4, 12, 32])
def test_tight_tolerance_names_no_construction_invariant(capsys, n, tol):
    code, _, err = run_cli(capsys, "ifm", "--model", "cube", "--n", str(n), "--tol", tol)
    assert code in (0, 1)
    assert not any(word in err for word in CONSTRUCTION_INVARIANTS)


# README's figures: the gap is computed on A and the phase slice, 2.2e-16 at
# N = 3 and 1.110e-16 at N = 32
def test_cube_gap_at_the_rounding_level(capsys):
    assert run_cli(capsys, "ifm", "--model", "cube", "--n", "32", "--tol", "1e-15")[0] == 0
    code, out, err = run_cli(capsys, "ifm", "--model", "cube", "--n", "3", "--tol", "1e-16")
    assert (code, out) == (1, "")
    assert "deviates from the injected path cube by 2.220e-16" in err


TOLERANCE_COMMANDS = pytest.mark.parametrize(
    "argv",
    [
        ["ifm", "--model", "cube", "--n", "3"],
        ["ifm", "--model", "quantum", "--n", "3"],
    ],
    ids=["cube", "quantum"],
)


# At a tolerance of 1 or more the no-bomb gap, the one comparison --tol
# sets, would accept any state cube.
@TOLERANCE_COMMANDS
@pytest.mark.parametrize(
    "flag, env_tol", [("1", None), ("inf", None), (None, "1"), (None, "inf")]
)
def test_tolerance_of_one_or_more_is_usage_error(capsys, monkeypatch, argv, flag, env_tol):
    if env_tol is not None:
        monkeypatch.setenv("CUBESIM_TOL", env_tol)
    extra = [] if flag is None else ["--tol", flag]
    try:
        code = main([*argv, *extra])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "below 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["ifm", "--model", "cube", "--n", "3"],
        ["ifm", "--model", "quantum", "--n", "3"],
        ["ifm", "--model", "cube", "--n", "12"],
        ["ifm", "--model", "cube", "--n", "32"],
    ],
    ids=["cube", "quantum", "cube-n12", "cube-n32"],
)
def test_loose_tolerance_below_one_keeps_the_default_output(capsys, argv):
    _, expected, _ = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--tol", "0.5") == (0, expected, "")


# certain detonation is decided at the fixed 1e-10, so a --tol at or above
# 1 - P_* (P_* = 1/2 and 1/3 here) does not turn the run into an error
@pytest.mark.parametrize("n, tol", [(2, "0.5"), (3, "0.7")])
@pytest.mark.parametrize("via_env", [False, True], ids=["flag", "env"])
def test_quantum_ifm_ignores_the_tolerance(capsys, monkeypatch, n, tol, via_env):
    argv = ["ifm", "--model", "quantum", "--n", str(n)]
    _, expected, _ = run_cli(capsys, *argv)
    if via_env:
        monkeypatch.setenv("CUBESIM_TOL", tol)
    else:
        argv += ["--tol", tol]
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_invalid_env_tolerance_value(capsys, monkeypatch):
    monkeypatch.setenv("CUBESIM_TOL", "-1.0")
    code, _, err = run_cli(capsys, "ifm", "--model", "cube", "--n", "3")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "env_tol, argv",
    [
        (None, ["ifm", "--model", "cube", "--n", "3", "--seed", "1", "--shots", "0"]),
        (None, ["sorkin", "--port", "4"]),
        (None, ["scan", "--n", "3", "--grid", "1"]),
        (None, ["ifm", "--model", "cube", "--n", "3", "--tol", "-1"]),
        ("0", ["ifm", "--model", "cube", "--n", "3"]),
        (None, ["verify", "--n", "3", "--matrix-tol", "-1"]),
        # flags a subcommand would accept and then ignore
        (None, ["reproduce", "--tol", "1e-9"]),
        (None, ["scan", "--n", "3", "--tol", "1e-9"]),
        (None, ["verify", "--n", "3", "--tol", "1e-9"]),
        (None, ["dump-matrix", "--n", "3", "--tol", "1e-9"]),
        (None, ["reproduce", "--format", "csv"]),
        (None, ["scan", "--n", "3", "--format", "pretty"]),
        (None, ["verify", "--n", "3", "--format", "csv"]),
        (None, ["dump-matrix", "--n", "3", "--format", "csv"]),
        (None, ["sorkin", "--format", "pretty"]),
        (None, ["sorkin", "--n", "4"]),
        (None, ["ifm", "--model", "cube", "--n", "3", "--seed", "-1"]),
        (None, ["ifm", "--model", "cube", "--n", "3", "--seed", "1", "--shots", str(2**63)]),
        # sorkin compares nothing against a tolerance
        (None, ["sorkin", "--port", "1", "--tol", "1e-9"]),
        # removed options: a test hook, and a path count with one accepted value
        (None, ["reproduce", "--corrupt"]),
        (None, ["sorkin", "--n", "3"]),
        # the CSV row has no clicks, and only --seed draws them
        (None, ["ifm", "--model", "cube", "--n", "3", "--seed", "7", "--format", "csv"]),
        (None, ["ifm", "--model", "cube", "--n", "3", "--shots", "100"]),
    ],
)
def test_usage_errors_exit_2(capsys, monkeypatch, env_tol, argv):
    if env_tol is not None:
        monkeypatch.setenv("CUBESIM_TOL", env_tol)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, stray",
    [
        (["scan", "--n", "3..2000000"], 33),
        (["scan", "--n=-2000000..3"], -2000000),
    ],
    ids=["high", "low"],
)
def test_wide_n_range_is_rejected_before_it_is_built(capsys, argv, stray):
    tracemalloc.start()
    try:
        with pytest.raises(SystemExit) as info:
            main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.code == 2
    assert f"path count {stray} outside" in capsys.readouterr().err
    assert peak < 2**20


def test_largest_shot_count_is_sampled(capsys):
    argv = ["ifm", "--model", "cube", "--n", "3", "--seed", "1", "--shots", str(2**63 - 1)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    clicks = json.loads(out)["clicks"]
    assert clicks["shots"] == 2**63 - 1
    assert clicks["trigger"] + clicks["inconclusive"] + clicks["success"] == 2**63 - 1


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
