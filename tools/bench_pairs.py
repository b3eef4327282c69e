"""Run the benchmark on two source trees in alternating pairs.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workloads exponent-fit cold-cli heun-march --seeds 41-50

For every workload and seed, each tree runs its own ``perfbench/run.py
--workload W --seed S --seconds 15`` from its root, one run after the
other; which side goes first alternates from pair to pair, so a drift in
the machine's speed does not favour one side. Nothing under
``perfbench/`` is changed. The direction and bound of every end-to-end
metric come from this repository's ``BENCHMARK.json``.

Standard output is one JSON object, the skeleton of a ``BENCH_<n>.json``:
per workload the seeds, the side that went first, ``failed`` and
``correct`` pair by pair, ``failed`` per region pair by pair and each
side's runs of the unscaled ``raw_wall_s`` with their median (both read
from each run's ``.bench_out/<workload>-seed<seed>-trace0.json``), and
per end-to-end metric both sides' runs with
their median and quartiles (inclusive method), the pairs the change wins
and loses, the relative worsening of the median and whether it is within
the metric's bound, and whether a gain in the metric can be claimed: the
change better in at least nine of ten pairs, and the medians further
apart than the parent's interquartile range. Progress goes to standard
error.

A tree with a ``__pycache__`` anywhere under ``src/`` is refused before
anything runs: compiled bytecode skips the compile step that a fresh
checkout pays for, so that side would time a different program. The runs
themselves write no bytecode (``PYTHONDONTWRITEBYTECODE``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SECONDS = 15


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(tree: str, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"bench_pairs: {' '.join(argv[1:])} in {tree} exited "
                         f"{proc.returncode} without a JSON line:\n{proc.stderr}")


def _record(tree: str, workload: str, seed: int) -> tuple[dict, float | None]:
    """``failed`` per region of the run just made in tree, and its raw
    wall time in seconds, not scaled to reference seconds (None where the
    record has none), as its ``.bench_out/<workload>-seed<seed>-trace0.json``
    records them (region ``none`` holds the commands outside the
    known-failing regions)."""
    path = Path(tree, ".bench_out", f"{workload}-seed{seed}-trace0.json")
    record = json.loads(path.read_text())
    return ({name: slot["failed"] for name, slot in record["regions"].items()},
            record.get("raw_wall_s"))


def _raw(runs: list[float | None]) -> dict:
    """The raw wall times of one side's runs and their median, over the
    runs that recorded one (None when none did)."""
    known = [x for x in runs if x is not None]
    return {"median": statistics.median(known) if known else None, "runs": runs}


def _spread(runs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1
                      else runs * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def _compare(parent: list[float], change: list[float], metric: dict) -> dict:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    old, new = statistics.median(parent), statistics.median(change)
    worsening = sign * (new - old) / abs(old) if old else 0.0
    before = _spread(parent)
    iqr = before["q3"] - before["q1"]
    return {"unit": metric["unit"], "parent": before, "change": _spread(change),
            "change_wins": wins, "change_losses": losses,
            "relative_worsening_of_median": worsening,
            "bound": metric["bound"], "within_bound": worsening <= metric["bound"],
            "parent_iqr": iqr,
            "gain_claimable": (worsening < 0 and 10 * wins >= 9 * len(parent)
                               and abs(new - old) > iqr)}


def _workload(trees: list[str], workload: str, seeds: list[int], metrics: list[dict]) -> dict:
    results = {side: [] for side in SIDES}
    regions = {side: [] for side in SIDES}
    raw = {side: [] for side in SIDES}
    first = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            print(f"bench_pairs: {workload} seed {seed} {side}", file=sys.stderr)
            tree = trees[SIDES.index(side)]
            results[side].append(_run(tree, workload, seed))
            failed, seconds = _record(tree, workload, seed)
            regions[side].append(failed)
            raw[side].append(seconds)
    return {
        "pairs": len(seeds),
        "seeds": seeds,
        "first_side": first,
        "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
        "failed_by_region": {side: {name: [run.get(name, 0) for run in regions[side]]
                                    for name in sorted(set().union(*regions[side]))}
                             for side in SIDES},
        "correct": {side: all(r["correct"] for r in results[side]) for side in SIDES},
        "raw_wall_s": {side: _raw(raw[side]) for side in SIDES},
        "metrics": {m["name"]: _compare(*([r["metrics"][m["name"]]["value"] for r in results[side]]
                                          for side in SIDES), m)
                    for m in metrics},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs=2, metavar="TREE", help="PARENT_TREE CHANGE_TREE")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="41-50", help="one seed or a range lo-hi")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in bench["workloads"]}
    for name in args.workloads:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {sorted(known)}")
    for tree in args.trees:
        caches = sorted(Path(tree, "src").rglob("__pycache__"))
        if caches:
            parser.error(f"{caches[0]} holds compiled bytecode; remove it so that "
                         "both trees are timed from source")
    seeds = _seeds(args.seeds)
    out = {
        "harness": (f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS}, "
                    "run in each tree's own checkout, alternating which side runs first "
                    "in each pair (tools/bench_pairs.py)"),
        "machine": {"platform": platform.platform(), "python": platform.python_version()},
        "units": "times are reference seconds (perfbench/speed.py)",
        "workloads": {w: _workload(args.trees, w, seeds, bench["end_to_end"])
                      for w in args.workloads},
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
