"""Sweep the inputs the CLI accepts for silent wrong numbers.

    python3 tools/domain_sweep.py [--tree TREE] [--seed 7] [--draws 1500] [--worst 5]

The benchmark draws physical inputs in narrow ranges; the CLI accepts far
more. This tool draws ``exponents`` commands over that wider domain and
runs each through ``kgcoulomb.cli.main`` in process, with TREE's ``src``
(by default this repository's) first on the path. The draws come from
``random.Random(seed)``, in this order per command:

- the model, uniform over ordinary, deformed-zero-energy and
  deformed-first-order (``rng.choice``);
- lo, log-uniform on [1.01, 1e3];
- hi = lo times a factor log-uniform on [1.03, 1e3];
- ``--g``, log-uniform on [0.01, 45];
- ``--eta``, uniform on [0.01, 0.99], for the models that take it
  (ordinary and deformed-first-order);
- ``--theta``, then ``--theta-prime``, each log-uniform on [1e-4, 0.1],
  for the two deformed models.

Each number is printed with 6 significant digits, and a log-uniform draw
is exp(rng.uniform(ln lo, ln hi)). Each command falls in one class:

- ``within 1%``: exit 0 and the larger ``deviation`` of its two rows at
  most 1%, warned or not;
- ``warned``: exit 0, past 1%, with a ``kgcoulomb: warning:`` on stderr;
- ``refused``: exit 1 or 2, with its diagnostic;
- ``silent``: exit 0, past 1%, and no warning: a wrong number printed as
  an exponent at infinity;
- ``raised``: an exception escaped ``main``.

The report gives the count of each class, the silent commands with
g < 1, the worst silent commands by ``deviation``, and every command that
raised. Nothing is timed,
so the counts do not depend on the machine's load.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLASSES = ("within 1%", "warned", "refused", "silent", "raised")
MODELS = ("ordinary", "deformed-zero-energy", "deformed-first-order")
BOUND = 0.01


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def draws(seed: int, n: int) -> list[list[str]]:
    """The argv of each of n ``exponents`` commands, in the order above."""
    rng, out = random.Random(seed), []
    for _ in range(n):
        model = rng.choice(MODELS)
        lo = _log_uniform(rng, 1.01, 1e3)
        hi = lo * _log_uniform(rng, 1.03, 1e3)
        argv = ["exponents", "--model", model, "--g", f"{_log_uniform(rng, 0.01, 45.0):.6g}",
                "--window", f"{lo:.6g}:{hi:.6g}"]
        if model != "deformed-zero-energy":
            argv += ["--eta", f"{rng.uniform(0.01, 0.99):.6g}"]
        if model != "ordinary":
            argv += ["--theta", f"{_log_uniform(rng, 1e-4, 0.1):.6g}",
                     "--theta-prime", f"{_log_uniform(rng, 1e-4, 0.1):.6g}"]
        out.append(argv)
    return out


def classify(argv: list[str]) -> tuple[str, float]:
    """(class, larger deviation) of one ``exponents`` command, the
    deviation nan unless it exits 0."""
    from kgcoulomb import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # an escape is its own class
        return "raised", math.nan
    if code:
        return "refused", math.nan
    lines = out.getvalue().splitlines()
    columns = next(line for line in lines if line.startswith("# columns: "))[11:].split(",")
    at = columns.index("deviation")
    deviation = max(float(line.split(",")[at]) for line in lines if not line.startswith("#"))
    if deviation <= BOUND:
        return "within 1%", deviation
    return ("warned" if "kgcoulomb: warning:" in err.getvalue() else "silent"), deviation


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", default=str(ROOT), help="source tree to run (default: this one)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--draws", type=int, default=1500)
    parser.add_argument("--worst", type=int, default=5, help="silent commands listed")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(args.tree).resolve() / "src"))
    results = [(cmd, *classify(cmd)) for cmd in draws(args.seed, args.draws)]
    counts = {name: sum(1 for _, c, _ in results if c == name) for name in CLASSES}
    silent = sorted(((d, cmd) for cmd, c, d in results if c == "silent"), reverse=True)
    weak = sum(1 for _, cmd in silent if float(cmd[cmd.index("--g") + 1]) < 1.0)
    print(f"exponents, seed {args.seed}, {args.draws} draws, tree {args.tree}")
    for name in CLASSES:
        print(f"  {name}: {counts[name]}" + (f" ({weak} with g < 1)" if name == "silent" else ""))
    print("worst silent commands:" + ("" if silent else " none"))
    for deviation, cmd in silent[:args.worst]:
        print(f"  {deviation:.3g}  {' '.join(cmd)}")
    for cmd in (cmd for cmd, c, _ in results if c == "raised"):  # rerun one for its traceback
        print(f"  raised: {' '.join(cmd)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
