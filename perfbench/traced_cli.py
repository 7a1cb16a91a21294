"""Run one cubesim CLI command with span tracing installed.

Usage: ``python perfbench/traced_cli.py TRACE_OUT LABEL CLI_ARG...``

Behaves like ``python -m cubesim.cli CLI_ARG...`` (same output, same exit
code) and also writes the per-function totals of the run to
``TRACE_OUT`` as JSON.  ``LABEL`` names the process in the counters
that are kept per process.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, install


def main(trace_out: str, label: str, argv: list[str]) -> int:
    tracer = Tracer(label)
    install(tracer)
    from cubesim import cli

    try:
        return cli.main(argv)
    finally:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.take().to_json(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
