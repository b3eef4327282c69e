"""tools/stdout_diff.py pairs the tables of two trees by key, not by position,
and its child run leaves no compiled bytecode in the tree it reads."""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path


def _stdout_diff():
    """tools/stdout_diff.py, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "tools" / "stdout_diff.py"
    spec = importlib.util.spec_from_file_location("stdout_diff", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TABLE = """\
# kgcoulomb exponents
# model = deformed-zero-energy
# g = 0.29999999999999999
{eta}# window_lo = 100
# window_hi = 10000
# conventions: u = p / (m c) dimensionless, eta = E / (m c^2)
# columns: branch,re_analytic,im_analytic,fitted,deviation,oscillatory
subdominant,-2,0,{fit},{sub},0
dominant,-5,0,-5.0001,{dom},0
"""


def _records(index=0, sub="0.0001", dom="2e-05", **fields):
    argv = ["exponents", "--model", "deformed-zero-energy", "--theta", "0.05"]
    stdout = _TABLE.format(sub=sub, dom=dom, **fields)
    return {("exponent-fit", 1, index): {"kind": "exponents", "argv": argv, "code": 0,
                                         "stdout": stdout, "stderr": ""}}


def test_removed_meta_line_moves_no_value(capsys):
    # dropping one meta line shifts every later line by one; paired by
    # key, the line is reported missing and no number has changed
    tool = _stdout_diff()
    old = _records(eta="# eta = 0.5\n", fit="-2.0002")
    new = _records(eta="", fit="-2.0002")
    assert tool.compare(old, new) is False
    report = capsys.readouterr().out
    assert "  exponents: 1\n" in report  # stdout changed
    assert "  exponents:eta (old only): 1\n" in report
    assert "largest change" not in report


def test_changed_cell_is_paired_by_row_and_column(capsys):
    tool = _stdout_diff()
    old = _records(eta="", fit="-2.0002")
    new = _records(eta="# eta = 0.5\n", fit="-2.0004")
    tool.compare(old, new)
    report = capsys.readouterr().out
    assert "  exponents:eta (new only): 1\n" in report
    changes = report.split("relative otherwise):\n")[1].splitlines()
    assert [line.split(":")[1] for line in changes] == ["fitted"]
    assert changes[0].startswith("  exponents:fitted: 0.0001  (exponents --model")


def test_error_columns_report_both_maxima_and_the_cells_that_grew(capsys):
    # one deviation falls and one grows; the unchanged command holds the
    # largest on both sides and counts among the cells
    tool = _stdout_diff()
    same = _records(1, eta="", fit="-2.0002", sub="0.01")
    old = {**_records(eta="", fit="-2.0002"), **same}
    new = {**_records(eta="", fit="-2.0002", sub="5e-05", dom="3e-05"), **same}
    assert tool.compare(old, new) is False
    report = capsys.readouterr().out
    assert "  exponents: 1\n" in report  # stdout changed in one command
    errors = report.split("cells that grew:\n")[1].splitlines()
    assert errors == ["  exponents:deviation: 0.01 -> 0.01, 1 of 4 grew"]


def test_moves_are_reported_in_ulps(capsys):
    # -2.0002 moves by two of its ulps, and a deviation, compared
    # absolutely, by three ulps of 1; an unchanged column reports no move
    tool = _stdout_diff()
    fit = -2.0002
    moved = math.nextafter(math.nextafter(fit, 0.0), 0.0)
    old = _records(eta="", fit=repr(fit))
    new = _records(eta="", fit=repr(moved), dom=repr(2e-05 + 3 * 2.0 ** -52))
    assert tool.compare(old, new) is False
    report = capsys.readouterr().out
    lines = report.split("of the larger value otherwise):\n")[1].splitlines()[:3]
    assert [line.split("  (")[0] for line in lines[:2]] == [
        "  exponents:deviation: 3 ulps", "  exponents:fitted: 2 ulps"]
    assert lines[2].startswith("largest change per column")


def test_child_run_writes_no_bytecode(tmp_path):
    # a tree compared once must still be a tree without compiled bytecode
    repo = Path(__file__).resolve().parent.parent
    tree = tmp_path / "tree"
    shutil.copytree(repo / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    # the empty seed range imports the tree and runs no command
    proc = subprocess.run([sys.executable, str(repo / "tools" / "stdout_diff.py"),
                           "--child", str(tree), "--seeds", "1-0"],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == ""
    assert list(tree.rglob("__pycache__")) == []


def test_first_seed_runs_in_every_format(monkeypatch):
    # each command of the first seed, and of every tenth seed after it,
    # runs again with json and gnuplot-dat appended, with its pairs
    # written --key=value, from a --config file and with --out, so that
    # the byte comparison covers every format and every way of passing
    # options and output; any other seed runs its commands once
    tool = _stdout_diff()
    monkeypatch.syspath_prepend(str(tool.PERFBENCH))
    seeds = list(range(3, 25))
    runs = {tuple(key): (kind, argv, config) for key, kind, argv, config in tool._runs(seeds)}
    plain = {key: run for key, run in runs.items() if len(key) == 3}
    assert {key[1] for key in plain} == set(seeds)
    assert all(config is None for _, _, config in plain.values())
    expected = {}
    for key, (kind, argv, _) in plain.items():
        if key[1] not in (3, 13, 23):
            continue
        for fmt in ("json", "gnuplot-dat"):
            expected[key + (fmt,)] = f"{kind} --format {fmt}", argv + ["--format", fmt], None
        pairs = list(zip(argv[1::2], argv[2::2]))
        expected[key + ("key=value",)] = (f"{kind} --key=value",
                                          [argv[0], *(f"{k}={v}" for k, v in pairs)], None)
        expected[key + ("config",)] = (f"{kind} --config", [argv[0], "--config", tool._CONFIG],
                                       "".join(f"{k[2:]} = {v}\n" for k, v in pairs))
        expected[key + ("out",)] = f"{kind} --out", argv + ["--out", tool._OUT], None
    assert {key: run for key, run in runs.items() if len(key) == 4} == expected


def test_option_variants_print_the_plain_bytes():
    # on one tree the --key=value, --config and --out variants of a
    # command read the same options and so print its plain run's bytes;
    # a config file not written, or an --out file not read, would not
    repo = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, str(repo / "tools" / "stdout_diff.py"),
                           "--child", str(repo), "--seeds", "1"],
                          capture_output=True, text=True, check=True)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    plain = {tuple(r["key"]): r for r in records if len(r["key"]) == 3}
    variants = [r for r in records if r["key"][3:] in (["key=value"], ["config"], ["out"])]
    assert len(variants) == 3 * len(plain)
    fields = ("code", "stdout", "stderr")
    for r in variants:
        assert [r[f] for f in fields] == [plain[tuple(r["key"][:3])][f] for f in fields], r["argv"]


def test_help_and_probes_run_once_under_their_own_kinds(capsys, monkeypatch):
    # given any seed, a tree runs the top-level and every subcommand's
    # --help (kind help) and the argv of _PROBES (kind refused) once; each
    # changed run of those kinds is listed with its exit codes and
    # stderr, and its stdout is compared on its bytes alone
    tool = _stdout_diff()
    monkeypatch.syspath_prepend(str(tool.PERFBENCH))
    once = [(key, kind, argv) for key, kind, argv, _ in tool._runs([4, 5])
            if kind in ("help", "refused")]
    assert once == ([(["help", i], "help", argv) for i, argv in enumerate(tool._HELP)]
                    + [(["refused", i], "refused", argv) for i, argv in enumerate(tool._PROBES)])
    assert [argv[0] for argv in tool._HELP] == ["--help", "spectrum", "exponents",
                                                "wavefunction", "params", "heun-check"]
    assert list(tool._runs([])) == []

    def record(kind, argv, code, stdout, stderr):
        return {"kind": kind, "argv": argv, "code": code, "stdout": stdout, "stderr": stderr}

    old = {("help", 0): record("help", ["--help"], 0, "# a = 1\n", ""),
           ("refused", 0): record("refused", ["exponents", "--"], 1, "", "kgcoulomb: x\n"),
           ("refused", 1): record("refused", ["nosuch"], 1, "", "kgcoulomb: z\n")}
    new = {("help", 0): record("help", ["--help"], 0, "# b = 1\n", ""),
           ("refused", 0): record("refused", ["exponents", "--"], 0, "", "kgcoulomb: y\n"),
           ("refused", 1): record("refused", ["nosuch"], 1, "", "kgcoulomb: z\n")}
    assert tool.compare(old, new) is False
    report = capsys.readouterr().out
    assert "  1 -> 0: exponents --\n" in report
    listed = report.split("help and refused runs that changed:\n")[1].splitlines()[:3]
    assert listed == ["  help [--help]: code 0 -> 0; stdout changed; stderr '' -> ''",
                      "  refused [exponents --]: code 1 -> 0; stdout same; "
                      "stderr 'kgcoulomb: x' -> 'kgcoulomb: y'",
                      "keys on one side only, commands per key: none"]


def test_child_counts_a_system_exit_as_its_exit_code(tmp_path):
    # a --help that exits the way argparse does reads as the exit code
    # the process would give, not as an escaped exception
    repo = Path(__file__).resolve().parent.parent
    package = tmp_path / "tree" / "src" / "kgcoulomb"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text("def main(argv):\n"
                                    "    if '--help' in argv:\n"
                                    "        raise SystemExit(0)\n"
                                    "    raise ValueError(argv)\n")
    proc = subprocess.run([sys.executable, str(repo / "tools" / "stdout_diff.py"),
                           "--child", str(tmp_path / "tree"), "--seeds", "1"],
                          capture_output=True, text=True, check=True)
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) > len(_stdout_diff()._HELP)
    for r in records:
        assert r["code"] == (0 if "--help" in r["argv"] else "raised ValueError"), r["argv"]
