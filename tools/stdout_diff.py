"""Compare the CLI output of two source trees over the benchmark's commands.

    python3 tools/stdout_diff.py OLD_TREE NEW_TREE [--seeds 1-10]

Each tree runs the command lists of ``perfbench/workloads.py`` (this
repository's copy, read and not changed), ``commands(w, s, 15)`` for
every workload w in its ``WORKLOADS`` and every seed s, through ``kgcoulomb.cli.main`` in one
fresh interpreter per tree with that tree's ``src`` on the path. For the
first seed and every tenth seed after it (seeds 1, 11, ..., 51 of 1-60),
every command also runs five more times:

- with ``--format json`` appended, and with ``--format gnuplot-dat``;
- with each pair written ``--key=value``;
- with its options in a ``key = value`` file passed by ``--config``;
- with ``--out`` to a file, whose bytes stand in for stdout (after
  anything printed there).

Once per tree (for any nonempty seed range) it also runs the top-level
``--help`` and every subcommand's ``--help``, kind ``help``, and a fixed
list of argv off the plain ``COMMAND --key value ...`` form (``_PROBES``:
``--key=value``, prefixes, a repeated key, stray tokens, missing
values), kind ``refused``. A ``SystemExit`` counts as its exit code.

The config and ``--out`` files have fixed names in a temporary working
directory, so a diagnostic that names them reads the same in both
trees. These runs count toward the exit codes, stdout and stderr
compared below under their own kind (``exponents --format json``,
``exponents --config``, ``help``, ``refused``), not toward the cell
comparisons. The report has eight parts:

- every command whose exit code changed;
- the number of commands whose stdout changed, per kind of command;
- the number of commands whose stderr changed, per kind of command, with
  one example each, so that a diagnostic or warning that appears or goes
  away shows up;
- each ``help`` and ``refused`` run that changed, with its exit code and
  stderr on both sides and whether its stdout changed;
- the meta keys and table columns present on one side only, with the
  number of commands each is missing from on the other side;
- the largest move of each numeric column (and numeric ``# key = value``
  meta line) that changed, in units in the last place: of the larger of
  the two values, or of 1 for the columns compared absolutely, which
  hold relative errors and differences; with the command where it
  occurred, so that a change at rounding level reads as a few ulps;
- the largest change in each numeric column (and numeric ``# key = value``
  meta line) of the commands that kept their exit code, relative to the
  old value, or absolute for the columns that hold errors or
  differences (``_ABSOLUTE``), with the command where it occurred;
- for each of those error columns that changed, its largest cell on
  each side and the number of cells that grew, over every command of
  its kind that kept its exit code, so that an error that only fell
  reads as 0 grown.

Meta lines are paired by key and table cells by (row, column), so a line
that appears or goes away changes no other value.

Nothing is timed, so the comparison does not depend on the machine's
load. Exit status is 0 when every command printed the same bytes on
stdout and stderr with the same exit code, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the variants' files, named relative to the child's temporary working directory
_CONFIG, _OUT = "kgcoulomb.cfg", "out.txt"

# columns (or row labels) that hold errors or differences, compared absolutely
_ABSOLUTE = {"deviation", "abs_diff", "max_abs_diff", "agreement", "residual",
             "fuchsian_residual"}


# the help runs, and argv off the plain form; each runs once per tree
_HELP = [["--help"]] + [[command, "--help"] for command in
                        ("spectrum", "exponents", "wavefunction", "params", "heun-check")]
_PROBES = [
    ["exponents", "--g=0.3"], ["exponents", "--the", "0.1"], ["exponents", "--g", "-1"],
    ["exponents", "--g", "0.3", "--g", "0.4"], ["exponents", "--g", "x"], ["exponents", "--g"],
    ["exponents", "--help"], ["exponents", "--n", "0"], ["nosuch"], ["--g", "0.3"], [],
    ["exponents", "--"], ["exponents", "--", "--g", "0.3"], ["exponents", "--Z", "5", "extra"],
    ["exponents", "--window", "-1:2"], ["exponents", "-g", "0.3"],
    ["exponents", "--wind=100:1000"],
    ["exponents", "--mod", "deformed-zero-energy", "--theta", "0.05"],
    ["spectrum", "--config"], ["exponents", "--g=0.3=4"],
]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _variants(argv: list[str]):
    """(name, flags, argv, config file text or None) of each variant run
    of a plain ``COMMAND --key value ...`` argv."""
    command, pairs = argv[0], list(zip(argv[1::2], argv[2::2]))
    for fmt in ("json", "gnuplot-dat"):
        yield fmt, f"--format {fmt}", argv + ["--format", fmt], None
    yield "key=value", "--key=value", [command, *(f"{k}={v}" for k, v in pairs)], None
    yield ("config", "--config", [command, "--config", _CONFIG],
           "".join(f"{k[2:]} = {v}\n" for k, v in pairs))
    yield "out", "--out", argv + ["--out", _OUT], None


def _runs(seeds: list[int]):
    """(key, kind, argv, config file text or None) of every command run:
    the benchmark's commands, and for each seed congruent to the first
    modulo 10 each once more per variant of _variants, its name added to
    the key and its flags to the kind; before them, given any seed, the
    help runs and _PROBES. Needs ``perfbench`` on the path."""
    import workloads as wl

    for kind, argvs in (("help", _HELP), ("refused", _PROBES)) if seeds else ():
        for i, argv in enumerate(argvs):
            yield [kind, i], kind, argv, None
    for w in wl.WORKLOADS:
        for s in seeds:
            for i, cmd in enumerate(wl.commands(w, s, 15)):
                yield [w, s, i], cmd.kind, list(cmd.argv), None
                for name, flags, argv, config in (
                        _variants(list(cmd.argv)) if (s - seeds[0]) % 10 == 0 else ()):
                    yield [w, s, i, name], f"{cmd.kind} {flags}", argv, config


def _run_tree(tree: str, seeds: list[int]) -> None:
    """Child mode: print one JSON object per command. No bytecode is
    written, so a comparison leaves no ``__pycache__`` in either tree.
    Commands run in a temporary working directory, which holds the
    variants' files."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(Path(tree).resolve() / "src"), str(PERFBENCH)]
    from kgcoulomb import cli

    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        for key, kind, argv, config in _runs(seeds):
            if config is not None:
                Path(_CONFIG).write_text(config, encoding="ascii")
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except SystemExit as exc:  # what the process would exit with
                code = exc.code
            except Exception as exc:  # an escape is its own outcome
                code = f"raised {type(exc).__name__}"
            stdout, written = out.getvalue(), Path(_OUT)
            if written.exists():
                stdout += written.read_bytes().decode("ascii")
                written.unlink()
            print(json.dumps({"key": key, "kind": kind, "argv": argv, "code": code,
                              "stdout": stdout, "stderr": err.getvalue()}))


def _collect(tree: str, seeds: str) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", tree, "--seeds", seeds],
                          capture_output=True, text=True, check=True)
    records = (json.loads(line) for line in proc.stdout.splitlines())
    return {tuple(r["key"]): r for r in records}


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _cells(stdout: str) -> dict:
    """{key: (name, value text)} of every meta line and column cell of a
    table: a meta line keyed by its key, a cell by (row, column). The name
    is the key or the column, or the row's label for a row of _ABSOLUTE."""
    cells, columns, row = {}, [], 0
    for line in stdout.splitlines():
        if line.startswith("# columns: "):
            columns = line[len("# columns: "):].split(",")
        elif line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            cells[key] = key, value
        elif line and not line.startswith("#"):
            values = line.split(",")
            label = values[0] if _number(values[0]) is None else None
            for name, value in zip(columns, values):
                cells[row, name] = (label if label in _ABSOLUTE else name), value
            row += 1
    return cells


def _change(name: str, old: float, new: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if name in _ABSOLUTE:
        return abs(new - old)
    return abs(new - old) / abs(old) if old != 0.0 else math.inf


def _ulps(name: str, old: float, new: float) -> float:
    """|new - old| in units in the last place of the larger of the two, or
    of 1 for a column of _ABSOLUTE."""
    return abs(new - old) / math.ulp(1.0 if name in _ABSOLUTE else max(abs(old), abs(new)))


def compare(old: dict, new: dict) -> bool:
    codes, changed, largest, one_sided, moved = [], Counter(), {}, Counter(), {}
    errors = {}  # error column: [old largest, new largest, cells that grew, cells]
    stderr_changed, stderr_example = Counter(), {}
    for key, a in old.items():
        b = new[key]
        if a["stderr"] != b["stderr"]:
            stderr_changed[a["kind"]] += 1
            stderr_example.setdefault(a["kind"], (a["argv"], a["stderr"], b["stderr"]))
        if a["code"] != b["code"]:
            codes.append((a["argv"], a["code"], b["code"]))
            continue
        if a["stdout"] != b["stdout"]:
            changed[a["kind"]] += 1
        if len(key) != 3:  # a variant, help or probe: compared on its bytes alone
            continue
        cells_a, cells_b = _cells(a["stdout"]), _cells(b["stdout"])
        for side, cells, other in (("old", cells_a, cells_b), ("new", cells_b, cells_a)):
            names = {cells[cell][0] for cell in cells if cell not in other}
            one_sided.update(f"{a['kind']}:{name} ({side} only)" for name in names)
        for cell in cells_a.keys() & cells_b.keys():
            (name, x), (_, y) = cells_a[cell], cells_b[cell]
            x, y = _number(x), _number(y)
            if x is None or y is None:
                continue
            field = f"{a['kind']}:{name}"
            if name in _ABSOLUTE:
                top = errors.setdefault(field, [-math.inf, -math.inf, 0, 0])
                top[:] = max(top[0], x), max(top[1], y), top[2] + (y > x), top[3] + 1
            size = _change(name, x, y)
            if size > largest.get(field, (0.0,))[0]:
                largest[field] = (size, a["argv"])
            if size and (ulps := _ulps(name, x, y)) > moved.get(field, (0.0,))[0]:
                moved[field] = (ulps, a["argv"])
    print(f"{len(old)} commands compared")
    print(f"exit code changes: {len(codes)}")
    for argv, x, y in codes:
        print(f"  {x} -> {y}: {' '.join(argv)}")
    print("changed stdout per kind:" + ("" if changed else " none"))
    for kind, count in sorted(changed.items()):
        print(f"  {kind}: {count}")
    print("changed stderr per kind:" + ("" if stderr_changed else " none"))
    for kind, count in sorted(stderr_changed.items()):
        argv, x, y = stderr_example[kind]
        print(f"  {kind}: {count}  (e.g. {' '.join(argv)}: {x.strip()!r} -> {y.strip()!r})")
    runs = [(a, new[key]) for key, a in old.items() if a["kind"] in ("help", "refused")
            and any(a[field] != new[key][field] for field in ("code", "stdout", "stderr"))]
    print("help and refused runs that changed:" + ("" if runs else " none"))
    for a, b in runs:
        print(f"  {a['kind']} [{' '.join(a['argv'])}]: code {a['code']} -> {b['code']}; "
              f"stdout {'changed' if a['stdout'] != b['stdout'] else 'same'}; "
              f"stderr {a['stderr'].strip()!r} -> {b['stderr'].strip()!r}")
    print("keys on one side only, commands per key:" + ("" if one_sided else " none"))
    for field, count in sorted(one_sided.items()):
        print(f"  {field}: {count}")
    if moved:
        print("largest move per changed column, in ulps (of 1 for "
              + ", ".join(sorted(_ABSOLUTE)) + "; of the larger value otherwise):")
        for field, (ulps, argv) in sorted(moved.items()):
            print(f"  {field}: {ulps:.4g} ulps  ({' '.join(argv)})")
    if largest:
        print("largest change per column (absolute for "
              + ", ".join(sorted(_ABSOLUTE)) + "; relative otherwise):")
        for field, (size, argv) in sorted(largest.items()):
            print(f"  {field}: {size:.3g}  ({' '.join(argv)})")
    grown = sorted(field for field in errors if field in largest)
    if grown:
        print("error columns that changed, largest cell old -> new, cells that grew:")
        for field in grown:
            x, y, grew, cells = errors[field]
            print(f"  {field}: {x:.3g} -> {y:.3g}, {grew} of {cells} grew")
    return not codes and not changed and not stderr_changed


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", help="OLD_TREE NEW_TREE")
    parser.add_argument("--seeds", default="1-10", help="one seed or a range lo-hi")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _run_tree(args.child, _seeds(args.seeds))
        return 0
    if len(args.trees) != 2:
        parser.error("give two source trees, OLD_TREE NEW_TREE")
    old, new = (_collect(tree, args.seeds) for tree in args.trees)
    return 0 if compare(old, new) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
