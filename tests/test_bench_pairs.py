"""tools/bench_pairs.py refuses a tree that holds compiled bytecode."""

import importlib.util
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
