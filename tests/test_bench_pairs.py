"""tools/bench_pairs.py: the bytecode refusal and the per-region failures."""

import importlib.util
import json
from pathlib import Path

import pytest


def _bench_pairs():
    """tools/bench_pairs.py, loaded by path."""
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("side", [0, 1])
def test_tree_with_bytecode_is_refused_before_any_run(tmp_path, monkeypatch, capsys, side):
    tool = _bench_pairs()
    trees = [tmp_path / "parent", tmp_path / "change"]
    for tree in trees:
        (tree / "src" / "kgcoulomb").mkdir(parents=True)
    cache = trees[side] / "src" / "kgcoulomb" / "__pycache__"
    cache.mkdir()
    (cache / "x.pyc").write_bytes(b"")
    runs = []
    monkeypatch.setattr(tool, "_run", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exc:
        tool.main([str(trees[0]), str(trees[1]), "--workloads", "heun-march", "--seeds", "41"])
    assert exc.value.code == 2 and runs == []
    assert str(cache) in capsys.readouterr().err


def test_failures_are_recorded_per_region_pair_by_pair(tmp_path, monkeypatch):
    tool = _bench_pairs()
    trees = [str(tmp_path / "parent"), str(tmp_path / "change")]
    # each side's run writes its trace0 record into its own tree, as perfbench does
    failed = {trees[0]: {41: 2, 42: 3}, trees[1]: {41: 0, 42: 0}}

    def run(tree, workload, seed):
        out = Path(tree, ".bench_out")
        out.mkdir(parents=True, exist_ok=True)
        regions = {"none": {"attempted": 138, "failed": 0},
                   "near-critical": {"attempted": 6, "failed": failed[tree][seed]}}
        (out / f"{workload}-seed{seed}-trace0.json").write_text(
            json.dumps({"summary": {}, "regions": regions}))
        return {"failed": failed[tree][seed], "correct": True,
                "metrics": {"wall_s": {"value": 1.0 if tree == trees[0] else 0.5}}}

    monkeypatch.setattr(tool, "_run", run)
    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
    got = tool._workload(trees, "exponent-fit", [41, 42], [metric])
    assert got["failed_by_region"] == {
        "parent": {"near-critical": [2, 3], "none": [0, 0]},
        "change": {"near-critical": [0, 0], "none": [0, 0]},
    }
    assert got["failed"] == {"parent": [2, 3], "change": [0, 0]}


def test_raw_wall_time_median_is_reported_per_side(tmp_path, monkeypatch):
    # the unscaled raw_wall_s of each run's trace0 record, next to the
    # scaled metrics; a record without one counts as unknown, not as 0
    tool = _bench_pairs()
    trees = [str(tmp_path / "parent"), str(tmp_path / "change")]
    raw = {trees[0]: {41: 0.040, 42: 0.044, 43: 0.046},
           trees[1]: {41: 0.030, 42: None, 43: 0.034}}

    def run(tree, workload, seed):
        out = Path(tree, ".bench_out")
        out.mkdir(parents=True, exist_ok=True)
        record = {"summary": {}, "regions": {"none": {"attempted": 45, "failed": 0}}}
        if raw[tree][seed] is not None:
            record["raw_wall_s"] = raw[tree][seed]
        (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
        return {"failed": 0, "correct": True,
                "metrics": {"wall_s": {"value": 1.0 if tree == trees[0] else 0.8}}}

    monkeypatch.setattr(tool, "_run", run)
    metric = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
    got = tool._workload(trees, "heun-march", [41, 42, 43], [metric])
    assert got["raw_wall_s"] == {
        "parent": {"median": 0.044, "runs": [0.040, 0.044, 0.046]},
        "change": {"median": 0.032, "runs": [0.030, None, 0.034]},
    }
    assert got["metrics"]["wall_s"]["change_wins"] == 3
    json.dumps(got, allow_nan=False)  # the report stays plain JSON
