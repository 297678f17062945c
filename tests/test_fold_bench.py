import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fold_bench.py"
spec = importlib.util.spec_from_file_location("fold_bench", TOOL)
fold_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fold_bench)


def write_result(directory, workload, seed, failed, metrics):
    directory.mkdir(exist_ok=True)
    result = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (directory / f"result-{workload}-{seed}-trace0.json").write_text(json.dumps(result) + "\n")


def test_folds_medians_spreads_seeds_and_commits(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_result(parent, "train_c09", 501, 0, {"train_s": (13.5, "s"), "map50": (0.9, "1")})
    write_result(parent, "train_c09", 502, 1, {"train_s": (14.1, "s"), "map50": (0.8, "1")})
    write_result(change, "train_c09", 501, 0, {"train_s": (8.5, "s"), "map50": (0.9, "1")})
    write_result(change, "train_c09", 502, 0, {"train_s": (9.5, "s"), "map50": (0.8, "1")})
    out = tmp_path / "BENCH.json"
    code = fold_bench.main([
        "--parent", str(parent), "--parent-commit", "aaa",
        "--change", str(change), "--change-commit", "bbb", "--out", str(out),
    ])
    assert code == 0
    folded = json.loads(out.read_text())
    assert (folded["parent_commit"], folded["change_commit"]) == ("aaa", "bbb")
    work = folded["workloads"]["train_c09"]
    assert work["operations"] == {"parent": {"attempted": 20, "failed": 1}, "change": {"attempted": 20, "failed": 0}}
    train_s = work["metrics"]["train_s"]
    assert train_s["unit"] == "s"
    assert train_s["parent"]["median"] == pytest.approx(13.8)
    assert (train_s["parent"]["min"], train_s["parent"]["max"]) == (13.5, 14.1)
    assert train_s["change"]["median"] == pytest.approx(9.0)
    assert train_s["change"]["q1"] == pytest.approx(8.75) and train_s["change"]["q3"] == pytest.approx(9.25)
    assert train_s["change"]["seeds"] == [501, 502]
    assert work["metrics"]["map50"]["parent"]["median"] == pytest.approx(0.85)


def test_empty_directory_is_an_error(tmp_path, capsys):
    (tmp_path / "parent").mkdir()
    write_result(tmp_path / "change", "serve_d64", 1, 0, {"setup_s": (3.0, "s")})
    code = fold_bench.main([
        "--parent", str(tmp_path / "parent"), "--parent-commit", "aaa",
        "--change", str(tmp_path / "change"), "--change-commit", "bbb", "--out", str(tmp_path / "x.json"),
    ])
    assert code == 1
    assert "no result-*.json files" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()
