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
