"""Child processes of the benchmark, each started from a fresh interpreter.

    child.py setup <workload> <seed> <seconds>
        Import kgcoulomb.cli, generate the run's inputs, print "ready"
        and exit. The parent times this as the set-up cost.

    child.py traced <spans.json> <cli argv...>
        Run one CLI command under the span tracer and write the spans
        to spans.json; the exit code is the command's. This is the
        traced form of ``python -m kgcoulomb.cli <argv...>``.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import kgcoulomb.cli  # noqa: F401
        import workloads

        workloads.commands(argv[1], int(argv[2]), float(argv[3]))
        print("ready", flush=True)
        return 0
    if mode == "traced":
        from kgcoulomb import cli
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            return tracer.root(cli.main, argv[2:])
        finally:
            tracer.dump(argv[1])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
