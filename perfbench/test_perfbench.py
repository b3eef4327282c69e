"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from kgcoulomb import cli, fuchsian, specialfn  # noqa: E402


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_commands(workload):
    first = workloads.commands(workload, 7, 20)
    assert workloads.commands(workload, 7, 20) == first
    assert workloads.commands(workload, 8, 20) != first
    assert len(set(first)) == len(first)
    longer = workloads.commands(workload, 7, 60)
    assert len(longer) > len(first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_unit_has_the_same_composition(workload):
    cmds = workloads.commands(workload, 3, 40)
    units = workloads.units_for(workload, 40)
    assert len(cmds) % units == 0
    size = len(cmds) // units
    kinds = [[c.kind for c in cmds[i:i + size]] for i in range(0, len(cmds), size)]
    assert all(k == kinds[0] for k in kinds)
    for cmd in cmds:
        assert cmd.region is None or cmd.region in workloads.REGIONS


def test_stratified_draws_cover_every_stratum():
    draws = workloads._Draws(random.Random(1), 10)
    values = draws.lin(0.0, 1.0)
    assert sorted(int(v * 10) for v in values) == list(range(10))
    assert all(1 <= z <= 137 for z in draws.ints(1, 137))


def test_traced_self_times_add_up_to_root():
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in (["heun-check", "--theta", "0.05", "--g", "0.2"],
                     ["exponents", "--model", "deformed-zero-energy", "--theta", "0.05",
                      "--theta-prime", "0.05", "--Z", "10"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert tracer.root(cli.main, argv) == 0
    finally:
        tracer.uninstall()
    own = spans.self_times(tracer.spans)
    roots = [s for s in tracer.spans if s[1] == -1]
    assert [s[2] for s in roots] == [spans.ROOT_SPAN] * 2
    assert sum(own.values()) == pytest.approx(sum(e - b for *_, b, e in roots), abs=1e-9)
    assert min(own.values()) > -1e-9
    layers = spans.aggregate(tracer.spans)
    for name in ("cli.main", "specialfn.heun_local", "fuchsian.frobenius_series",
                 "specialfn.hyp2f1", "asymptotics.integrate", "fuchsian.RationalCoeffODE",
                 "fuchsian.singular_points"):
        assert layers[name]["calls"] > 0, name
    assert tracer.rhs_evals > 0
    assert len(tracer.census_odes) > 0


def test_uninstall_restores_library():
    before = (cli.main, cli.heun_local, specialfn.heun_local, fuchsian.taylor_series,
              fuchsian.RationalCoeffODE.__post_init__, fuchsian.RationalCoeffODE.p0)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.heun_local is specialfn.heun_local is not before[2]
    tracer.uninstall()
    after = (cli.main, cli.heun_local, specialfn.heun_local, fuchsian.taylor_series,
             fuchsian.RationalCoeffODE.__post_init__, fuchsian.RationalCoeffODE.p0)
    assert after == before


def _corrupt(text: str, column: str) -> str:
    """Change the 8th significant digit of `column` in the first data row."""
    lines = text.splitlines(keepends=True)
    columns = next(ln for ln in lines if ln.startswith("# columns: "))[11:].strip().split(",")
    i = columns.index(column)
    row = next(k for k, ln in enumerate(lines) if ln.strip() and not ln.startswith("#"))
    cells = lines[row].rstrip("\n").split(",")
    cells[i] = format(float(cells[i]) * (1.0 + 3e-8), ".17g")
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("kind,argv,column", [
    ("spectrum", ["spectrum", "--Z", "3", "--n", "0..2"], "eta_solver"),
    ("heun-check", ["heun-check", "--theta", "0.2", "--g", "0.3"], "heun"),
    ("wavefunction-ordinary", ["wavefunction", "--model", "ordinary", "--Z", "5",
                               "--n", "1"], "re_psi"),
])
def test_corrupted_output_fails_its_check(kind, argv, column):
    text = _stdout(argv)
    assert checks.passes(kind, checks.check(kind, argv, text))
    assert not checks.passes(kind, checks.check(kind, argv, _corrupt(text, column)))


def test_truncated_output_is_an_error():
    text = _stdout(["params", "--model", "heun", "--theta", "0.05", "--g", "0.2"])
    assert checks.passes("params", checks.check("params", [], text))
    with pytest.raises(checks.CheckError):
        checks.check("params", [], text.split("fuchsian_residual")[0])


def test_parse_importtime_counts_outermost_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:        50 |         50 |       scipy.linalg",
        "import time:        70 |        120 |     scipy",
        "import time:       400 |        400 |     scipy.integrate",
        "import time:        10 |        530 |   kgcoulomb.asymptotics",
        "import time:         5 |        535 | kgcoulomb",
    ])
    got = run.parse_importtime(text)
    assert got == pytest.approx({"kgcoulomb": 535e-6, "scipy": 520e-6, "numpy": 300e-6})


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    pct, value = run.tail_percentile([float(i) for i in range(100)])
    assert pct == 90 and value == 89.0
    pct, _ = run.tail_percentile([float(i) for i in range(40)])
    assert pct == 75


def test_scaled_time_uses_the_bracketing_speed_samples():
    log = speed.SpeedLog()
    ref = speed.REFERENCE_SPIN_S
    log.times, log.spins = [0.0, 10.0, 20.0], [ref, 2 * ref, 4 * ref]
    assert log.scaled(1.0, 3.0) == pytest.approx(2.0 / 1.5)
    assert log.scaled(11.0, 19.0) == pytest.approx(8.0 / 3.0)
