"""The benchmark's checks catch planted faults, and its metrics match BENCHMARK.json.

    python3 -m pytest perfbench/test_checks.py -q

Each test runs the whole benchmark pipeline on a tiny workload (400 items,
dim 16) in a few seconds.  A fault is planted by wrapping one library
function, the same way a broken library would behave.
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from hashquant import evaluate, retrieval  # noqa: E402

import pipeline  # noqa: E402

TINY = pipeline.Workload(
    dim=16, clusters=4, per_cluster=100, noise=0.5,
    train_items=0, epochs=1, learning_rate=0.01, queries=20,
)
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_tiny(tmp_path, trace=False):
    return pipeline.run(TINY, seed=5, seconds=0.01, trace=trace, out_dir=tmp_path, tag="tiny")


def test_clean_run_reports_every_end_to_end_metric(tmp_path):
    result = run_tiny(tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result = run_tiny(tmp_path, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for spec in SPEC["per_layer"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and np.isfinite(metric["value"])
    assert (tmp_path / "trace-tiny.jsonl").stat().st_size > 0


def _swap_first_two(result):
    indices, scores = result.indices.copy(), result.scores.copy()
    indices[[0, 1]], scores[[0, 1]] = indices[[1, 0]], scores[[1, 0]]
    planted = object.__new__(retrieval.RankedResult)  # skips the ordering validation
    object.__setattr__(planted, "indices", indices)
    object.__setattr__(planted, "scores", scores)
    return planted


def test_swapped_results_fail(tmp_path, monkeypatch):
    query = retrieval.two_stage_query
    monkeypatch.setattr(retrieval, "two_stage_query", lambda *a, **k: _swap_first_two(query(*a, **k)))
    monkeypatch.setattr(evaluate, "two_stage_query", retrieval.two_stage_query)
    result = run_tiny(tmp_path)
    assert result["failed"] > 0 and not result["correct"]


def test_off_by_one_shortlist_fail(tmp_path, monkeypatch):
    select = retrieval.hamming_top_candidates

    def skip_nearest(query, database, candidates):
        return select(query, database, min(candidates + 1, database.count))[1:]

    monkeypatch.setattr(retrieval, "hamming_top_candidates", skip_nearest)
    result = run_tiny(tmp_path)
    assert result["failed"] > 0 and not result["correct"]


def test_wrong_file_size_fail(tmp_path, monkeypatch):
    save = retrieval.save_index

    def save_with_trailing_byte(index, path):
        save(index, path)
        with open(path, "ab") as fh:
            fh.write(b"\0")

    monkeypatch.setattr(retrieval, "save_index", save_with_trailing_byte)
    result = run_tiny(tmp_path)
    assert result["failed"] > 0 and not result["correct"]

