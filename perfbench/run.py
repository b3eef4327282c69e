"""kgcoulomb benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload cold-cli --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``. The load is a closed loop with one client: the commands of
the seeded list (``workloads.py``; its length grows with ``--seconds``)
run one after another. Every output is then checked against an
independent route (``checks.py``), outside the timed region. Times are
reported in reference seconds, scaled by the CPU speed measured between
commands (``speed.py``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
list twice, untraced and then under the span tracer (``spans.py``),
and reports per-layer call counts and self times, the ``import.*``
times from ``python -X importtime``, and the tracing overhead (traced
minus untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed``
counts every command that exited non-zero, raised, or failed its check,
known-failing regions included; ``correct`` is false when a command
outside those regions failed. A readable report comes before the JSON
line, and the details (per-command times, exit codes, digits, stdout
sha256) go to ``.bench_out/<workload>-seed<seed>-trace<k>.json``; a
traced run also writes its spans to ``<workload>-seed<seed>-spans.json``
there.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
IMPORT_PROBES = 3
HOT_LAYERS = ("fuchsian.", "specialfn.")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _child_argv(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), *args]


# ---------------------------------------------------------------------------
# set-up and import probes (fresh interpreters)
# ---------------------------------------------------------------------------


def setup_seconds(workload: str, seed: int, seconds: float, log: speed.SpeedLog) -> float:
    """Fresh interpreter -> kgcoulomb.cli imported and the inputs generated,
    in reference seconds."""
    start = time.perf_counter()
    with subprocess.Popen(_child_argv("setup", workload, str(seed), str(seconds)), cwd=ROOT,
                          env=_child_env(), stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        end = time.perf_counter()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    log.sample()
    return log.scaled(start, end)


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative seconds of kgcoulomb, scipy and numpy from -X importtime.

    Lines come children first, indented by depth. A package's time is
    the sum over its outermost entries, so scipy pulled in under
    kgcoulomb.asymptotics counts once, with everything nested below it.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"kgcoulomb": 0.0, "scipy": 0.0, "numpy": 0.0}
    ancestors: list[str] = []
    for depth, name, seconds in reversed(entries):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top in totals and not any(a.split(".")[0] == top for a in ancestors):
            totals[top] += seconds
        ancestors.append(name)
    return totals


def import_seconds(log: speed.SpeedLog) -> dict[str, float]:
    """parse_importtime of a fresh ``import kgcoulomb``, in reference seconds."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kgcoulomb"],
                          cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          check=True)
    end = time.perf_counter()
    log.sample()
    scale = log.scaled(start, end) / (end - start)
    return {key: seconds * scale for key, seconds in parse_importtime(proc.stderr).items()}


# ---------------------------------------------------------------------------
# running commands
# ---------------------------------------------------------------------------


def run_inprocess(cli, argv, tracer=None) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tracer.root(cli.main, list(argv)) if tracer else cli.main(list(argv))
    except Exception:  # an escaped exception is a failed command, not a crash
        code = None
        err.write(traceback.format_exc())
    end = time.perf_counter()
    return {"start": start, "end": end, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def run_subprocess(argv, tracer=None) -> dict:
    """One cold ``python -m kgcoulomb.cli`` process (or its traced form)."""
    spans_path = OUT / "child-spans.json"
    if tracer is None:
        cmd = [sys.executable, "-m", "kgcoulomb.cli", *argv]
    else:
        cmd = _child_argv("traced", str(spans_path), *argv)
    with open(OUT / "child.stdout", "w+b") as fo, open(OUT / "child.stderr", "w+b") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdout=fo, stderr=fe)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        stdout = fo.read().decode("ascii", "replace")
        stderr = fe.read().decode("ascii", "replace")
    # an escaped exception exits 1 like a usage error; tell them apart
    if code not in (0, 1, 2) or "Traceback (most recent call last)" in stderr:
        code = None
    if tracer is not None and spans_path.exists():
        tracer.merge(spans_path)
        spans_path.unlink()
    return {"start": start, "end": end, "code": code, "stdout": stdout, "stderr": stderr,
            "rss_mb": usage.ru_maxrss / 1024.0}


def run_list(workload: str, cmds, tracer=None) -> tuple[float, list[dict]]:
    """(wall time, per-command results) for the whole list, in reference
    seconds; each result also keeps its raw ``seconds``."""
    if workload == "cold-cli":
        def one(cmd):
            return run_subprocess(cmd.argv, tracer)
    else:
        from kgcoulomb import cli

        def one(cmd):
            return run_inprocess(cli, cmd.argv, tracer)
    log = speed.SpeedLog()
    results = []
    for cmd in cmds:
        log.maybe_sample()
        results.append(one(cmd))
    log.sample()
    for res in results:
        res["seconds"] = res["end"] - res["start"]
        res["scaled"] = log.scaled(res["start"], res["end"])
    return sum(r["scaled"] for r in results), results


# ---------------------------------------------------------------------------
# checks and metrics
# ---------------------------------------------------------------------------


def check_results(cmds, results) -> None:
    """Give each result its checked digits and its verdict, ``ok``."""
    import checks

    for cmd, res in zip(cmds, results):
        res["digits"] = []
        res["ok"] = False
        if res["code"] != 0:
            continue
        try:
            res["digits"] = checks.check(cmd.kind, cmd.argv, res["stdout"])
            res["ok"] = checks.passes(cmd.kind, res["digits"])
        except Exception:  # unreadable or uncheckable output fails the command
            res["stderr"] += "\ncheck: " + traceback.format_exc()


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """(p, value) for the highest whole percentile p with at least ten
    samples above it, or None with fewer than 20 samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return None
    pct = max(p for p in range(50, 100) if n - (p * n + 99) // 100 >= 10)
    return pct, ordered[(pct * n + 99) // 100 - 1]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _verdict(cmds, results) -> dict:
    failed = sum(not r["ok"] for r in results)
    return {"correct": all(r["ok"] for c, r in zip(cmds, results) if c.region is None),
            "attempted": len(results), "failed": failed}


def measure(args, cmds) -> tuple[dict, dict]:
    log = speed.SpeedLog()
    setup = [setup_seconds(args.workload, args.seed, args.seconds, log)
             for _ in range(SETUP_PROBES)]
    wall, results = run_list(args.workload, cmds)
    if args.workload == "cold-cli":
        peak = max(r["rss_mb"] for r in results)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_results(cmds, results)

    summary = _verdict(cmds, results)
    times = [r["scaled"] for r in results]
    digits = [d for r in results if r["ok"] for d in r["digits"]]
    summary["metrics"] = {
        "wall_s": _metric(wall, "s"),
        "cmd_p50_s": _metric(statistics.median(times), "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "min_digits": _metric(min(digits, default=0.0), "digits"),
        "peak_rss_mb": _metric(peak, "MB"),
    }
    regions: dict[str, dict] = {}
    for cmd, res in zip(cmds, results):
        slot = regions.setdefault(cmd.region or "none", {"attempted": 0, "failed": 0})
        slot["attempted"] += 1
        slot["failed"] += not res["ok"]
    stdout = hashlib.sha256("".join(r["stdout"] for r in results).encode("ascii", "replace"))
    extra = {
        "error_rate": summary["failed"] / summary["attempted"],
        "cmd_tail": tail_percentile(times),
        "regions": regions,
        "stdout_sha256": stdout.hexdigest(),
        "setup_scaled_seconds": setup,
        "raw_wall_s": sum(r["seconds"] for r in results),
        "commands": [{"argv": list(c.argv), "kind": c.kind, "region": c.region,
                      "scaled_seconds": r["scaled"], "seconds": r["seconds"],
                      "code": r["code"], "ok": r["ok"],
                      "digits": r["digits"], "stderr": r["stderr"][-400:]}
                     for c, r in zip(cmds, results)],
    }
    return summary, extra


def measure_traced(args, cmds) -> tuple[dict, dict]:
    import spans

    wall, _ = run_list(args.workload, cmds)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_wall, results = run_list(args.workload, cmds, tracer)
    finally:
        tracer.uninstall()
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    check_results(cmds, results)
    log = speed.SpeedLog()
    imports = [import_seconds(log) for _ in range(IMPORT_PROBES)]

    layers = spans.aggregate(tracer.spans)
    metrics = {f"import.{key}_s": _metric(statistics.median(i[key] for i in imports), "s")
               for key in ("kgcoulomb", "scipy", "numpy")}
    for layer in spans.LAYERS:
        slot = layers.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = _metric(slot["calls"], "count")
        metrics[f"{layer}.self_s"] = _metric(slot["self_s"], "s")

    def calls(name):
        return layers.get(name, {"calls": 0})["calls"]

    metrics["fuchsian.census_per_ode"] = _metric(
        calls("fuchsian.singular_points") / tracer.odes_seen if tracer.odes_seen else 0.0,
        "ratio")
    metrics["specialfn.hops_per_point"] = _metric(
        tracer.hops / calls("specialfn.heun_local") if calls("specialfn.heun_local") else 0.0,
        "ratio")
    metrics["asymptotics.rhs_evals"] = _metric(tracer.rhs_evals, "count")
    metrics["trace.overhead_s"] = _metric(traced_wall - wall, "s")
    # span times are raw seconds, so the share is over the raw wall time
    hot = sum(s["self_s"] for k, s in layers.items() if k.startswith(HOT_LAYERS))
    raw_wall = sum(r["seconds"] for r in results)
    metrics["trace.fuchsian_specialfn_share"] = _metric(hot / raw_wall, "ratio")

    summary = {**_verdict(cmds, results), "metrics": metrics}
    own = spans.self_times(tracer.spans)
    root = sum(e - b for _, parent, _, b, e in tracer.spans if parent < 0)
    extra = {"untraced_wall_s": wall, "traced_wall_s": traced_wall, "traced_raw_wall_s": raw_wall,
             "self_time_sum_minus_roots_s": sum(own.values()) - root, "imports": imports}
    return summary, extra


def _print_report(args, summary, extra) -> None:
    print(f"kgcoulomb benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {summary['attempted']} commands")
    for name, m in summary["metrics"].items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    if args.trace == 0:
        print(f"  {'error_rate':42s} {extra['error_rate']:14.6g} ratio")
        tail = extra["cmd_tail"]
        if tail is None:
            print(f"  {'cmd_tail_s':42s} {'n/a':>14s} (fewer than 20 commands)")
        else:
            label = f"cmd_tail_s (p{tail[0]} of {summary['attempted']})"
            print(f"  {label:42s} {tail[1]:14.6g} s")
        for region, slot in extra["regions"].items():
            print(f"  region {region:35s} {slot['failed']:5d} of {slot['attempted']} failed")
        print(f"  stdout sha256 {extra['stdout_sha256']}")
    else:
        print(f"  untraced wall {extra['untraced_wall_s']:.6g} s, traced wall "
              f"{extra['traced_wall_s']:.6g} s")
    print(f"  attempted {summary['attempted']}, failed {summary['failed']}, "
          f"correct outside known-failing regions: {summary['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kgcoulomb" / "cli.py").is_file():
        print(f"perfbench: no kgcoulomb sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kgcoulomb
    if Path(kgcoulomb.__file__).resolve().parent != SRC / "kgcoulomb":
        print(f"perfbench: imported kgcoulomb from {kgcoulomb.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    speed.pin_to_fastest_cpu()
    cmds = workloads.commands(args.workload, args.seed, args.seconds)
    summary, extra = (measure_traced if args.trace else measure)(args, cmds)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="ascii") as fh:
        json.dump({"summary": summary, **extra}, fh, indent=1)
    _print_report(args, summary, extra)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
