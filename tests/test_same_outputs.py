import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def test_two_runs_of_the_cli_pipeline_give_one_manifest(tmp_path, capsys):
    first = same_outputs.run_pipeline(tmp_path / "first")
    second = same_outputs.run_pipeline(tmp_path / "second")
    assert first == second
    for case in ("dim16", "dim130"):
        for name in ("model.hqm", "index_b.hqx", "query_two_stage.csv", "eval_lossless.csv", "bench_n.csv"):
            assert f"{case}/{name}" in first
        assert f"{case}/stdout/train" in first
    for name in ("index_b.hqx", "query_two_stage.csv", "query_aqd.csv", "query_hash.csv", "query_lossless.csv"):
        assert f"dim16_pooled/{name}" in first
    for name in ("model.hqm", "index_b.hqx", "stdout/train", "stdout/build"):
        assert f"dim512_build/{name}" in first

    paths = []
    for name, manifest in (("a", first), ("b", {**second, "dim16/model.hqm": "0" * 64})):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(manifest))
    assert same_outputs.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert same_outputs.main(["--compare", *map(str, paths)]) == 1
    assert "differs: dim16/model.hqm" in capsys.readouterr().out


def test_timing_columns_are_dropped_before_hashing():
    text = "# m=2\nalpha,map_i2t,mean_query_seconds\n0.0,0.500000,0.000012345\n"
    assert same_outputs._without_timing(text) == "# m=2\nalpha,map_i2t\r\n0.0,0.500000\r\n"
