"""Command-line front end.

Subcommands
-----------
reproduce    run the built-in reference checks and print a pass/fail table
ifm          run one interaction-free measurement pipeline
scan         emit the trade-off region boundaries on a grid
sorkin       third-order interference term of the three-path setup
verify       multiport residual report over a range of N
dump-matrix  serialize an assembled multiport as JSON

Results go to stdout or ``--out``.  Exit codes: 0 success, 1 computation
failure or failed checks, 2 usage error.  Two settable tolerances each set
one comparison.  ``ifm --tol``, else the environment variable
``CUBESIM_TOL``, else 1e-10, is the largest no-bomb gap ``ifm --model
cube`` accepts, in (0, 1); ``ifm --model quantum`` compares nothing
against it.  ``verify --matrix-tol`` is the report's pass threshold.
Every other check runs at a fixed tolerance.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from . import experiments, multiport
from .cubes import basis_cube, dephase, luders_update_cube, optimal_cubes, quantum_to_cube
from .quantum import DensityMatrix, random_density_matrix
from .results import results_to_csv
from .tensor import DEFAULT_TOL, cube_inner

_N_RANGE = (2, 32)


def _parse_n_values(text: str) -> list[int]:
    """Parse ``--n`` values: a single integer, an 'a..b' range, or a comma list."""
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = text.split("..")
            # lazy, so the range check below stops at the first stray value
            values = range(int(lo), int(hi) + 1)
        elif "," in text:
            values = [int(part) for part in text.split(",")]
        else:
            values = [int(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"cannot parse path counts from {text!r}"
        ) from exc
    if not values:
        raise argparse.ArgumentTypeError("empty path-count specification")
    for n in values:
        if not _N_RANGE[0] <= n <= _N_RANGE[1]:
            raise argparse.ArgumentTypeError(
                f"path count {n} outside supported range {_N_RANGE[0]}..{_N_RANGE[1]}"
            )
    return list(values)


def _parse_single_n(text: str) -> int:
    values = _parse_n_values(text)
    if len(values) != 1:
        raise argparse.ArgumentTypeError(
            f"expected a single path count, got {len(values)}"
        )
    return values[0]


def _above(convert, bound, below=None):
    """Argument type: ``convert(text)``, which must exceed ``bound`` and,
    if given, stay under ``below``."""

    def parse(text: str):
        value = convert(text)
        if not (value > bound and (below is None or value < below)):
            limit = "" if below is None else f" and be below {below}"
            raise argparse.ArgumentTypeError(f"must exceed {bound}{limit}, got {text}")
        return value

    parse.__name__ = convert.__name__  # names the type in parse errors
    return parse


#: ``ifm --tol`` and ``CUBESIM_TOL``: no state cube is further than 1
#: from the path cube, so a gap tolerance of 1 or above would accept any.
_tolerance = _above(float, 0, below=1)


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write ``text``, a string or an iterable of chunks, ending in a newline."""
    chunks = [text] if isinstance(text, str) else text
    target = nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")
    with target as handle:
        last = ""
        for chunk in chunks:
            handle.write(chunk)
            last = chunk or last
        if not last.endswith("\n"):
            handle.write("\n")


def _json_dump(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _multiport_json(transform: multiport.MultiportMatrix) -> Iterator[str]:
    """``_json_dump`` of the multiport's ``n_paths``, ``basis_order`` and
    ``matrix`` (rows of ``[re, im]`` pairs) in chunks, one matrix row each.

    Rows are grouped by the bit patterns of their N population columns.
    Each group's first row is formatted cell by cell; every other row
    copies that reference row's cell texts and puts in the cells where it
    differs.  An assembled multiport has 94 groups at N = 32, and its
    other rows differ from their reference in 2 cells each (1736 of
    925,444 cells); a matrix without that structure is written just as
    exactly, only slower.  Each distinct ``[re, im]`` pair among the
    reference rows and differing cells is formatted once.  Cells and pairs
    are told apart by the bit patterns of their floats, not by value,
    which keeps ``-0.0`` apart from ``0.0``.  Every check runs before the
    first chunk, so a failure writes nothing.
    """
    placeholder = "@matrix@"
    head, tail = _json_dump(
        {
            "basis_order": list(transform.basis.labels),
            "matrix": placeholder,
            "n_paths": transform.n_paths,
        }
    ).split(json.dumps(placeholder))
    n, d = transform.n_paths, transform.basis.dim
    bits = transform.matrix.view(np.float64).view(np.int64)  # rows of re, im
    firsts: dict[bytes, int] = {}
    reference = [firsts.setdefault(bits[row, : 2 * n].tobytes(), row) for row in range(d)]
    unequal = bits != bits[reference]
    rows, columns = np.nonzero(unequal[:, 0::2] | unequal[:, 1::2])
    cells = bits.reshape(d, d, 2)
    # the cells of the reference rows, in row order, then the differing cells
    sample = np.concatenate(
        [cells[list(firsts.values())].reshape(-1, 2), cells[rows, columns]]
    )
    floats, index = np.unique(sample, return_inverse=True)
    if not np.isfinite(floats.view(np.float64)).all():
        raise ValueError(f"multiport for N={transform.n_paths} has a non-finite entry")
    index = index.reshape(-1, 2)  # numpy 1 returns the inverse flat
    pairs, pair_of = np.unique(index[:, 0] * len(floats) + index[:, 1], return_inverse=True)
    text = [float.__repr__(x) for x in floats.view(np.float64).tolist()]
    # one [re, im] pair in the indent=2 layout, two levels deep
    pair = "\n      [\n        %s,\n        %s\n      ]"
    pair_text = [pair % (text[k // len(floats)], text[k % len(floats)]) for k in pairs.tolist()]
    cell_text = np.array(pair_text, dtype=object)[pair_of].tolist()
    lines = {first: cell_text[i * d : (i + 1) * d] for i, first in enumerate(firsts.values())}
    differing: dict[int, list[tuple[int, str]]] = {}
    for row, column, cell in zip(rows.tolist(), columns.tolist(), cell_text[len(lines) * d :]):
        differing.setdefault(row, []).append((column, cell))

    def row_texts() -> Iterator[str]:
        for row, first in enumerate(reference):
            line = lines[first].copy()
            for column, cell in differing.get(row, ()):
                line[column] = cell
            yield (",\n    [" if row else "\n    [") + ",".join(line) + "\n    ]"

    return itertools.chain([head, "["], row_texts(), ["\n  ]", tail])


# ---------------------------------------------------------------------------
# reproduce: recompute every stored reference value and compare.

@dataclass(frozen=True)
class Check:
    name: str
    computed: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.computed - self.expected) <= self.tolerance


def reference_checks() -> list[Check]:
    """All reference checks backing the ``reproduce`` subcommand."""
    checks: list[Check] = []

    def add(name: str, computed: float, expected: float, tol: float) -> None:
        checks.append(Check(name, float(computed), float(expected), tol))

    # each N = 3..12 is run and verified once, N = 3 for the checks below too
    n_values = range(3, 13)
    runs = {n: experiments.run_cube_ifm(n) for n in n_values}

    # Three-path perfect interaction-free measurement.
    three = runs[3]
    add("3-path IFM: inconclusive probability", three.p_inconclusive, 0.5, 1e-10)
    add("3-path IFM: trigger probability", three.p_trigger, 0.0, 1e-10)
    add(
        "3-path IFM: saturates the trade-off bound",
        three.p_inconclusive - three.bound_value,
        0.0,
        1e-10,
    )

    # Pure-to-mixed signature of the not-found update.
    t3 = multiport.t3_matrix()
    inside = multiport.apply_transform(t3, basis_cube(3, 1))
    add("3-path inside cube: purity", inside.purity(), 1.0, 1e-12)
    add("3-path inside cube: path-1 population", inside.entry(1, 1, 1).real, 0.0, 1e-12)
    updated = luders_update_cube(inside, 1, found=False)
    add("3-path post-update cube: purity", updated.purity(), 0.5, 1e-12)

    # Tabulated four-path cubes against the general construction.
    built = optimal_cubes(4)
    tabulated = multiport.reference_optimal_cubes_n4()
    dev = max(
        float(np.abs(b.entries - t.entries).max()) for b, t in zip(built, tabulated)
    )
    add("4-path optimal cubes match tabulated entries", dev, 0.0, 1e-12)
    gram = np.array(
        [[cube_inner(a, b) for b in built] for a in built]
    )
    add(
        "4-path optimal cubes: orthonormality",
        float(np.abs(gram - np.eye(4)).max()),
        0.0,
        1e-12,
    )

    # Assembled three-path transformation against the tabulated matrix.
    add(
        "3-path multiport matches tabulated matrix",
        float(np.abs(multiport.assemble_multiport(3).matrix - t3.matrix).max()),
        0.0,
        1e-12,
    )
    m = t3.matrix
    add("3-path multiport: involution residual", np.linalg.norm(m @ m - np.eye(5)), 0.0, 1e-12)
    add("3-path multiport: self-adjoint residual", np.linalg.norm(m - m.conj().T), 0.0, 1e-12)

    # Block spectra and saturation across N.
    spectrum_dev = 0.0
    saturation_dev = 0.0
    inconclusive = []
    for n in n_values:
        report = multiport.verify_multiport(n)
        spectrum_dev = max(spectrum_dev, report.bb_spectrum_deviation)
        run = runs[n]
        inconclusive.append(run.p_inconclusive)
        saturation_dev = max(
            saturation_dev, abs(run.p_inconclusive - 1.0 / (n - 1)), run.p_trigger
        )
    add("coherence-block spectra in admissible sets (N=3..12)", spectrum_dev, 0.0, 1e-9)
    add("general-N saturation of the cube bound (N=3..12)", saturation_dev, 0.0, 1e-9)
    drops = [a - b for a, b in zip(inconclusive, inconclusive[1:])]
    # successive drops are 1/(N(N-1)); the smallest is between N=11 and 12
    add("inconclusive probability decreasing in N", min(drops), 1.0 / 110.0, 1e-9)

    # Quantum presets: bomb tester and Fourier interferometers.
    presets = experiments.run_quantum_presets()
    ev = presets[0]
    add("2-path bomb tester: trigger probability", ev.p_trigger, 0.5, 1e-10)
    add("2-path bomb tester: inconclusive probability", ev.p_inconclusive, 0.25, 1e-10)
    add("2-path bomb tester: success probability", ev.p_success, 0.25, 1e-10)
    fourier_dev = max(
        abs(r.p_inconclusive - (1.0 - 1.0 / r.n_paths) ** 2)
        for r in presets
        if r.label.startswith("fourier")
    )
    add("Fourier presets saturate the pure-state bound", fourier_dev, 0.0, 1e-10)

    # Third-order interference.
    add(
        "third-order term of the 3-path coherent cube",
        experiments.sorkin_term(inside, t3, port=1),
        0.5,
        1e-10,
    )
    rng = np.random.default_rng(20_26)
    quantum_dev = 0.0
    for _ in range(50):
        weights = rng.dirichlet(np.ones(3))
        diag_rho = DensityMatrix(3, np.diag(weights.astype(complex)))
        term = experiments.sorkin_term(quantum_to_cube(diag_rho), t3, port=1)
        quantum_dev = max(quantum_dev, abs(term))
    add("third-order term vanishes for quantum cubes", quantum_dev, 0.0, 1e-10)

    # Embedding preserves inner products (seeded sample).
    embed_dev = 0.0
    for n in (2, 3, 4):
        for _ in range(25):
            rho = random_density_matrix(n, rng)
            sigma = random_density_matrix(n, rng)
            lhs = cube_inner(quantum_to_cube(rho), quantum_to_cube(sigma))
            rhs = float(np.trace(rho.entries @ sigma.entries).real)
            embed_dev = max(embed_dev, abs(lhs - rhs))
    add("cube embedding preserves inner products", embed_dev, 0.0, 1e-10)

    # Trade-off region structure.
    rows = experiments.region_scan([2, 3, 4, 10], 51)
    intercept_dev = max(
        abs(b - 1.0 / (n - 1)) for (n, p, b) in rows if p == 0.0
    )
    add("region scan: vertical-axis intercepts", intercept_dev, 0.0, 1e-12)
    quantum_curve_dev = max(
        abs(b - (1.0 - p) ** 2) for (n, p, b) in rows if n == 2
    )
    add("region scan: 2-path row equals the quantum curve", quantum_curve_dev, 0.0, 1e-12)
    by_n = {n: [b for (m, p, b) in rows if m == n] for n in (2, 3, 4, 10)}
    nesting_gap = min(
        min(np.array(by_n[a]) - np.array(by_n[b]))
        for a, b in ((2, 3), (3, 4), (4, 10))
    )
    add("region scan: regions nested across N", min(nesting_gap, 0.0), 0.0, 1e-12)

    return checks


def _format_checks(checks: list[Check], fmt: str) -> str:
    if fmt == "json":
        return _json_dump([{**asdict(c), "passed": c.passed} for c in checks])
    width = max(len(c.name) for c in checks)
    lines = []
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(
            f"{c.name:<{width}}  computed={c.computed: .12g}  "
            f"expected={c.expected: .12g}  tol={c.tolerance:g}  [{status}]"
        )
    n_pass = sum(c.passed for c in checks)
    lines.append(f"{n_pass}/{len(checks)} checks passed")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_reproduce(args: argparse.Namespace) -> int:
    checks = reference_checks()
    _emit(_format_checks(checks, args.output_format), args.out)
    return 0 if all(c.passed for c in checks) else 1


def _cmd_ifm(args: argparse.Namespace) -> int:
    if args.model == "cube":
        result = experiments.run_cube_ifm(args.n, tol=args.tol)
    else:
        result = experiments.fourier_preset(args.n)
    payload = result.to_json_dict()
    if args.seed is not None:
        payload["clicks"] = experiments.sample_clicks(result, args.shots or 10_000, args.seed)
    if args.output_format == "csv":
        _emit(results_to_csv([result]), args.out)
    elif args.output_format == "pretty":
        lines = [f"{key}: {value}" for key, value in sorted(payload.items())]
        _emit("\n".join(lines), args.out)
    else:
        _emit(_json_dump(payload), args.out)
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    rows = experiments.region_scan(args.n, args.grid)
    if args.output_format == "json":
        keys = experiments.REGION_CSV_HEADER.split(",")
        payload = [dict(zip(keys, row)) for row in rows]
        _emit(_json_dump(payload), args.out)
    else:
        _emit(experiments.region_scan_csv(rows), args.out)
    return 0


def _cmd_sorkin(args: argparse.Namespace) -> int:
    t3 = multiport.t3_matrix()
    inside = multiport.apply_transform(t3, basis_cube(3, 1))
    coherent = experiments.sorkin_term(inside, t3, args.port)
    reference = quantum_to_cube(DensityMatrix.maximally_mixed(3))
    quantum = experiments.sorkin_term(dephase(reference), t3, args.port)
    payload = {
        "n_paths": 3,
        "port": args.port,
        "three_path_coherent_cube": coherent,
        "dephased_quantum_cube": quantum,
    }
    _emit(_json_dump(payload), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = [multiport.verify_multiport(n) for n in args.n]
    rows = [{**asdict(r), "passed": r.passes(args.matrix_tol)} for r in reports]
    if args.output_format == "json":
        _emit(_json_dump(rows), args.out)
    else:
        lines = []
        for row in rows:
            status = "pass" if row["passed"] else "FAIL"
            lines.append(
                f"N={row['n_paths']:>2}  involution={row['involution_residual']:.3e}  "
                f"diag-drift={row['diagonal_sum_drift']:.3e}  "
                f"BB-spectrum={row['bb_spectrum_deviation']:.3e}  [{status}]"
            )
        _emit("\n".join(lines), args.out)
    return 0 if all(row["passed"] for row in rows) else 1


def _cmd_dump_matrix(args: argparse.Namespace) -> int:
    _emit(_multiport_json(multiport.assemble_multiport(args.n)), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubesim",
        description=(
            "Single-shot interaction-free measurement simulations in standard "
            "quantum mechanics and in the density-cube model."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        """Add the shared flags a subcommand honours; ``formats[0]`` is the default."""
        p.add_argument("--format", choices=formats, default=formats[0], dest="output_format")
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("reproduce", help="run the built-in reference checks")
    common(p, ("pretty", "json"))
    p.set_defaults(handler=_cmd_reproduce)

    p = sub.add_parser("ifm", help="run one interaction-free measurement")
    p.add_argument("--tol", type=_tolerance, default=None, help="largest accepted no-bomb gap")
    common(p, ("json", "csv", "pretty"))
    p.add_argument("--model", choices=("quantum", "cube"), required=True)
    p.add_argument("--n", type=_parse_single_n, required=True, help="number of paths")
    p.add_argument("--seed", type=_above(int, -1), default=None, help="sample detector clicks")
    p.add_argument("--shots", type=_above(int, 0, below=2**63), help="default 10000")
    p.set_defaults(handler=_cmd_ifm)

    p = sub.add_parser("scan", help="trade-off region boundaries on a grid")
    common(p, ("csv", "json"))
    p.add_argument("--n", type=_parse_n_values, required=True,
                   help="path counts, e.g. 2,3,4 or 3..8")
    p.add_argument("--grid", type=_above(int, 1), default=101, help="grid points on [0, 1]")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("sorkin", help="third-order interference term (N=3)")
    common(p, ("json",))
    p.add_argument("--port", type=int, choices=(1, 2, 3), default=1)
    p.set_defaults(handler=_cmd_sorkin)

    p = sub.add_parser("verify", help="multiport residual report")
    common(p, ("pretty", "json"))
    p.add_argument("--n", type=_parse_n_values, required=True, help="path counts, e.g. 3..8")
    p.add_argument(
        "--matrix-tol",
        type=_above(float, 0),
        default=multiport.MATRIX_TOL,
        help="pass threshold for the reported residuals",
    )
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("dump-matrix", help="serialize an assembled multiport")
    common(p, ("json",))
    p.add_argument("--n", type=_parse_single_n, required=True, help="number of paths")
    p.set_defaults(handler=_cmd_dump_matrix)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "ifm" and args.seed is not None and args.output_format == "csv":
        parser.error("ifm --seed does nothing with --format csv, whose row has no clicks")
    if args.command == "ifm" and args.shots is not None and args.seed is None:
        parser.error("ifm --shots does nothing without --seed")

    # only ifm, the one subcommand that takes --tol, reads CUBESIM_TOL
    if hasattr(args, "tol") and args.tol is None:
        args.tol = DEFAULT_TOL
        env_tol = os.environ.get("CUBESIM_TOL")
        if env_tol is not None:
            try:
                args.tol = _tolerance(env_tol)
            except ValueError:
                print(f"error: CUBESIM_TOL={env_tol!r} is not a number", file=sys.stderr)
                return 2
            except argparse.ArgumentTypeError:
                print(
                    f"error: CUBESIM_TOL={env_tol!r} must be positive and below 1",
                    file=sys.stderr,
                )
                return 2

    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        # a bare MemoryError has no message
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
