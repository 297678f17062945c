import csv
import io
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest

from hashquant.cli import main
from hashquant.config import echo_lines, load_run_config, parse_config_text
from hashquant.errors import ConfigError
from hashquant.evaluate import NSweepPoint
from hashquant.trainer import LossWeights, TrainConfig


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth -> train -> build pipeline shared by the command tests."""
    root = tmp_path_factory.mktemp("pipeline")
    paths = {
        "a": str(root / "a.dfm"),
        "b": str(root / "b.dfm"),
        "labels": str(root / "labels.lbl"),
        "model": str(root / "model.hqm"),
        "index_a": str(root / "a.hqx"),
        "index_b": str(root / "b.hqx"),
    }
    code, _, err = run_cli(
        "synth", "--clusters", "4", "--per-cluster", "25", "--dim", "16",
        "--noise-sigma", "0.2", "--seed", "3",
        "--out-a", paths["a"], "--out-b", paths["b"], "--out-labels", paths["labels"],
    )
    assert code == 0, err
    code, _, err = run_cli(
        "train", "--features-a", paths["a"], "--features-b", paths["b"],
        "--labels", paths["labels"], "--out-model", paths["model"],
        "--set", "epochs=3", "--set", "m=2", "--set", "k=8", "--set", "seed=1",
    )
    assert code == 0, err
    for modality, key, feats in (("a", "index_a", "a"), ("b", "index_b", "b")):
        code, _, err = run_cli(
            "build", "--features", paths[feats], "--model", paths["model"],
            "--modality", modality, "--out", paths[key],
        )
        assert code == 0, err
    return paths


def test_synth_rejects_too_many_clusters(tmp_path):
    code, _, err = run_cli(
        "synth", "--clusters", "65", "--per-cluster", "2", "--dim", "4",
        "--out-a", str(tmp_path / "a.dfm"), "--out-b", str(tmp_path / "b.dfm"),
        "--out-labels", str(tmp_path / "l.lbl"),
    )
    assert code == 1
    assert err.startswith("error: TooManyClusters:")


def test_synth_deterministic(tmp_path):
    args = [
        "synth", "--clusters", "3", "--per-cluster", "5", "--dim", "8", "--seed", "9",
    ]
    for suffix in ("one", "two"):
        code, _, _ = run_cli(
            *args,
            "--out-a", str(tmp_path / f"a_{suffix}.dfm"),
            "--out-b", str(tmp_path / f"b_{suffix}.dfm"),
            "--out-labels", str(tmp_path / f"l_{suffix}.lbl"),
        )
        assert code == 0
    assert (tmp_path / "a_one.dfm").read_bytes() == (tmp_path / "a_two.dfm").read_bytes()
    assert (tmp_path / "l_one.lbl").read_bytes() == (tmp_path / "l_two.lbl").read_bytes()


def test_train_rerun_is_byte_identical(workspace, tmp_path):
    rerun = tmp_path / "model2.hqm"
    code, out, _ = run_cli(
        "train", "--features-a", workspace["a"], "--features-b", workspace["b"],
        "--labels", workspace["labels"], "--out-model", str(rerun),
        "--set", "epochs=3", "--set", "m=2", "--set", "k=8", "--set", "seed=1",
    )
    assert code == 0
    assert rerun.read_bytes() == open(workspace["model"], "rb").read()
    assert "epoch=0" in out and "epoch=3" in out


def test_train_epochs_zero_emits_model(workspace, tmp_path):
    path = tmp_path / "init.hqm"
    code, out, _ = run_cli(
        "train", "--features-a", workspace["a"], "--features-b", workspace["b"],
        "--labels", workspace["labels"], "--out-model", str(path),
        "--set", "epochs=0", "--set", "m=2", "--set", "k=8",
    )
    assert code == 0
    assert path.exists()
    assert out.count("epoch=") == 1


def test_train_unknown_config_key(workspace, tmp_path):
    code, _, err = run_cli(
        "train", "--features-a", workspace["a"], "--features-b", workspace["b"],
        "--labels", workspace["labels"], "--out-model", str(tmp_path / "x.hqm"),
        "--set", "optimizer=adam",
    )
    assert code == 1
    assert err.startswith("error: ConfigError:")


def test_train_divergence_names_the_error_and_the_epoch(workspace, tmp_path):
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run_cli(
            "train", "--features-a", workspace["a"], "--features-b", workspace["b"],
            "--labels", workspace["labels"], "--out-model", str(tmp_path / "x.hqm"),
            "--set", "epochs=3", "--set", "m=2", "--set", "k=8", "--set", "learning_rate=1e308",
        )
    assert code == 1
    assert err.startswith("error: NonFiniteValue: training diverged in epoch 1 of 3")
    assert not (tmp_path / "x.hqm").exists()


@pytest.mark.parametrize(
    "setting", ["epochs=-1", "lambda_h=-3", "epochs", "m=0", "k=0", "m=-1", "k=65537", "alternations=-1"]
)
def test_train_rejects_bad_settings_before_echoing(workspace, tmp_path, setting):
    code, out, err = run_cli(
        "train", "--features-a", workspace["a"], "--features-b", workspace["b"],
        "--labels", workspace["labels"], "--out-model", str(tmp_path / "x.hqm"),
        "--set", setting,
    )
    assert code == 1
    assert err.startswith("error: ConfigError:")
    assert out == ""


# at least one value per key that the trainer rejects
REJECTED_SETTINGS = [
    "epochs=-1", "batch_size=0", "learning_rate=0.0", "seed=-1", "depth=3", "lambda_sim=-1.0",
    "lambda_h=-1.0", "lambda_h=nan", "lambda_b=-1.0", "lambda_q=-1.0", "m=0", "k=0", "k=65537",
    "alternations=-1",
]


@pytest.mark.parametrize("setting", REJECTED_SETTINGS)
def test_rejected_setting_names_the_key_the_user_typed(workspace, tmp_path, setting):
    code, out, err = run_cli(
        "train", "--features-a", workspace["a"], "--features-b", workspace["b"],
        "--labels", workspace["labels"], "--out-model", str(tmp_path / "x.hqm"),
        "--set", setting,
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: ConfigError: {setting}: ")


def test_rejected_settings_cover_every_checked_key():
    from hashquant.config import _KEYS

    covered = {setting.split("=")[0] for setting in REJECTED_SETTINGS}
    assert covered == {key for key, _, _ in _KEYS}


def test_repeated_set_key_is_a_config_error(workspace, tmp_path):
    code, out, err = run_cli(
        "train", "--features-a", workspace["a"], "--features-b", workspace["b"],
        "--labels", workspace["labels"], "--out-model", str(tmp_path / "x.hqm"),
        "--set", "epochs=1", "--set", " epochs = 0",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ConfigError:") and "duplicate key 'epochs'" in err
    assert not (tmp_path / "x.hqm").exists()


def test_index_file_with_an_indicator_past_k_names_the_index_error(workspace, tmp_path):
    data = bytearray(open(workspace["index_b"], "rb").read())
    data[-2:] = (8).to_bytes(2, "little")  # the last indicator; the model has k = 8
    bad = tmp_path / "bad.hqx"
    bad.write_bytes(bytes(data))
    code, _, err = run_cli(
        "query", "--queries", workspace["a"], "--index", str(bad),
        "--model", workspace["model"], "--modality", "a", "--mode", "full_aqd",
    )
    assert code == 1
    assert err.startswith("error: IndexOutOfRange:")


def test_build_rejects_dim_mismatch(workspace, tmp_path):
    other = tmp_path / "wrong.dfm"
    code, _, _ = run_cli(
        "synth", "--clusters", "2", "--per-cluster", "4", "--dim", "9",
        "--out-a", str(other), "--out-b", str(tmp_path / "wb.dfm"),
        "--out-labels", str(tmp_path / "wl.lbl"),
    )
    assert code == 0
    code, _, err = run_cli(
        "build", "--features", str(other), "--model", workspace["model"],
        "--modality", "a", "--out", str(tmp_path / "x.hqx"),
    )
    assert code == 1
    assert err.startswith("error: DimMismatch:")


def test_build_output_size_matches_layout(workspace):
    import os

    from hashquant import load_index
    from hashquant.hashing import words_per_code

    index = load_index(workspace["index_b"])
    n, dim = index.count, index.dim
    m, k = index.quantizer.num_books, index.quantizer.book_size
    expected = 24 + 8 * n * words_per_code(dim) + 4 * m * k * dim + 2 * n * m
    assert os.path.getsize(workspace["index_b"]) == expected


def test_query_csv_row_count(workspace, tmp_path):
    out_csv = tmp_path / "hits.csv"
    code, _, err = run_cli(
        "query", "--queries", workspace["a"], "--index", workspace["index_b"],
        "--model", workspace["model"], "--modality", "a",
        "--mode", "two_stage", "--candidates", "30", "--topk", "5",
        "--out", str(out_csv),
    )
    assert code == 0, err
    rows = list(csv.DictReader(out_csv.open()))
    assert len(rows) == 100 * 5
    assert set(rows[0]) == {"query", "rank", "item", "score"}


def test_query_topk_one_emits_one_row_per_query(workspace, tmp_path):
    out_csv = tmp_path / "one.csv"
    code, _, _ = run_cli(
        "query", "--queries", workspace["a"], "--index", workspace["index_b"],
        "--model", workspace["model"], "--modality", "a", "--topk", "1",
        "--candidates", "10", "--out", str(out_csv),
    )
    assert code == 0
    assert len(list(csv.DictReader(out_csv.open()))) == 100


def test_query_full_candidates_matches_aqd_mode(workspace, tmp_path):
    common = [
        "query", "--queries", workspace["a"], "--index", workspace["index_b"],
        "--model", workspace["model"], "--modality", "a", "--topk", "7",
    ]
    two_stage = tmp_path / "two_stage.csv"
    aqd = tmp_path / "aqd.csv"
    assert run_cli(*common, "--mode", "two_stage", "--candidates", "100", "--out", str(two_stage))[0] == 0
    assert run_cli(*common, "--mode", "full_aqd", "--out", str(aqd))[0] == 0
    assert two_stage.read_text() == aqd.read_text()


@pytest.mark.parametrize("mode", ["aqd", "hash"])
def test_query_takes_only_the_library_mode_names(workspace, mode, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["query", "--queries", workspace["a"], "--index", workspace["index_b"], "--mode", mode])
    assert exited.value.code != 0
    assert "invalid choice" in capsys.readouterr().err


def test_query_lossless_needs_database(workspace):
    code, _, err = run_cli(
        "query", "--queries", workspace["a"], "--mode", "lossless", "--topk", "3",
    )
    assert code == 1
    assert "lossless" in err


def test_query_lossless_mode(workspace, tmp_path):
    out_csv = tmp_path / "cosine.csv"
    code, _, _ = run_cli(
        "query", "--queries", workspace["a"], "--database", workspace["b"],
        "--model", workspace["model"], "--modality", "a", "--database-modality", "b",
        "--mode", "lossless", "--topk", "3", "--out", str(out_csv),
    )
    assert code == 0
    assert len(list(csv.DictReader(out_csv.open()))) == 300


def test_query_missing_index_fails_with_error_line(workspace, tmp_path):
    code, _, err = run_cli(
        "query", "--queries", workspace["a"], "--index", str(tmp_path / "nope.hqx"),
    )
    assert code == 1
    assert err.startswith("error: IoFailure:")


def test_eval_reports_all_directions(workspace, tmp_path):
    report = tmp_path / "report.csv"
    code, out, err = run_cli(
        "eval", "--features-a", workspace["a"], "--features-b", workspace["b"],
        "--labels", workspace["labels"], "--model", workspace["model"],
        "--candidates", "50", "--out-csv", str(report),
    )
    assert code == 0, err
    assert "map_i2t=" in out and "map_t2i=" in out and "harmonic_mean=" in out
    text = report.read_text()
    assert "# m=2\n" in text and "# k=8\n" in text and "# dim=16\n" in text  # model echo
    assert "# candidates=50" in text
    rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    assert len(rows) == 200
    values = [float(r["ap"]) for r in rows]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_bench_alpha_endpoints_and_cost_columns(workspace, tmp_path):
    out_csv = tmp_path / "alpha.csv"
    code, _, err = run_cli(
        "bench", "--sweep", "alpha",
        "--features-a", workspace["a"], "--features-b", workspace["b"],
        "--labels", workspace["labels"], "--model", workspace["model"],
        "--alphas", "0,0.25,1.0", "--r", "10", "--out", str(out_csv),
    )
    assert code == 0, err
    rows = list(
        csv.DictReader(line for line in out_csv.read_text().splitlines() if not line.startswith("#"))
    )
    assert [float(r["alpha"]) for r in rows] == [0.0, 0.25, 1.0]
    assert int(rows[-1]["candidates"]) == 100
    # cost columns reproduce the accounting formulas
    from hashquant import CostModel, memory_footprint, op_count

    for row in rows:
        cost = CostModel(count=100, dim=16, num_books=2, book_size=8, candidates=int(row["candidates"]))
        assert int(row["hq_ops"]) == op_count(cost, "hq")
        assert int(row["hq_memory_bits"]) == memory_footprint(cost, "hq")


def test_bench_alpha_cost_columns_follow_the_model(workspace, tmp_path):
    # no --set: the config defaults (m=4, k=256) must not leak into the cost columns
    out_csv = tmp_path / "alpha.csv"
    code, _, err = run_cli(
        "bench", "--sweep", "alpha",
        "--features-a", workspace["a"], "--features-b", workspace["b"],
        "--labels", workspace["labels"], "--model", workspace["model"],
        "--alphas", "0,1.0", "--r", "10", "--repeats", "1", "--out", str(out_csv),
    )
    assert code == 0, err
    from hashquant import CostModel, load_model, memory_footprint, op_count

    _, _, quantizer = load_model(workspace["model"])
    assert (quantizer.num_books, quantizer.book_size) == (2, 8)
    rows = list(
        csv.DictReader(line for line in out_csv.read_text().splitlines() if not line.startswith("#"))
    )
    assert len(rows) == 2
    for row in rows:
        cost = CostModel(
            count=100, dim=16, num_books=quantizer.num_books, book_size=quantizer.book_size,
            candidates=int(row["candidates"]),
        )
        assert int(row["hq_ops"]) == op_count(cost, "hq")
        assert int(row["hq_memory_bits"]) == memory_footprint(cost, "hq")


def test_bench_alpha_echoes_its_run_parameters(workspace, tmp_path):
    out_csv = tmp_path / "alpha.csv"
    code, _, err = run_cli(
        "bench", "--sweep", "alpha",
        "--features-a", workspace["a"], "--features-b", workspace["b"],
        "--labels", workspace["labels"], "--model", workspace["model"],
        "--alphas", "0,1.0", "--r", "10", "--repeats", "1", "--out", str(out_csv),
    )
    assert code == 0, err
    preamble = [line for line in out_csv.read_text().splitlines() if line.startswith("#")]
    assert preamble == ["# m=2", "# k=8", "# dim=16", "# cutoff=10", "# repeats=1"]


def test_bench_n_sweep_writes_table(tmp_path):
    out_csv = tmp_path / "n.csv"
    code, _, err = run_cli(
        "bench", "--sweep", "n", "--dims", "16,32", "--count", "2000",
        "--queries", "4", "--repeats", "1", "--out", str(out_csv),
    )
    assert code == 0, err
    rows = list(csv.DictReader(out_csv.open()))
    assert [int(r["dim"]) for r in rows] == [16, 32]
    for row in rows:
        assert float(row["ratio"]) > 0


# decimals of each float sweep column; every other column but alpha holds an integer
SWEEP_DECIMALS = {
    "map_i2t": 6, "map_t2i": 6, "mean_query_seconds": 9, "hq_seconds": 9, "quant_seconds": 9, "ratio": 4,
}


def check_sweep_cells(rows):
    for row in rows:
        for name, cell in row.items():
            if name in SWEEP_DECIMALS:
                assert re.fullmatch(rf"\d+\.\d{{{SWEEP_DECIMALS[name]}}}", cell), (name, cell)
            elif name != "alpha":
                assert re.fullmatch(r"\d+", cell), (name, cell)


def test_bench_alpha_csv_layout(workspace, tmp_path):
    out_csv = tmp_path / "alpha.csv"
    code, _, err = run_cli(
        "bench", "--sweep", "alpha",
        "--features-a", workspace["a"], "--features-b", workspace["b"],
        "--labels", workspace["labels"], "--model", workspace["model"],
        "--alphas", "0,0.25,1", "--r", "10", "--repeats", "1", "--out", str(out_csv),
    )
    assert code == 0, err
    lines = [line for line in out_csv.read_text().splitlines() if not line.startswith("#")]
    assert lines[0] == "alpha,candidates,map_i2t,map_t2i,mean_query_seconds,hq_ops,hq_memory_bits"
    rows = list(csv.DictReader(lines))
    assert [row["alpha"] for row in rows] == ["0.0", "0.25", "1.0"]  # str(float)
    check_sweep_cells(rows)


def test_bench_n_csv_layout(tmp_path):
    out_csv = tmp_path / "n.csv"
    code, _, err = run_cli(
        "bench", "--sweep", "n", "--dims", "16,32", "--count", "2000",
        "--queries", "2", "--repeats", "1", "--out", str(out_csv),
    )
    assert code == 0, err
    lines = out_csv.read_text().splitlines()
    assert lines[0].split(",") == [field.name for field in fields(NSweepPoint)]
    check_sweep_cells(list(csv.DictReader(lines)))


TRAIN_KEYS = [
    "epochs", "batch_size", "learning_rate", "seed", "depth",
    "lambda_sim", "lambda_h", "lambda_b", "lambda_q", "m", "k", "alternations",
]


class TestConfigParsing:
    def test_round_trip_with_comments(self):
        text = """
        # training setup
        epochs = 7
        learning_rate = 0.5   # overridden lr
        m=2
        """
        parsed = parse_config_text(text)
        assert parsed == {"epochs": 7, "learning_rate": 0.5, "m": 2}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("optimizer = adam")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("epochs = 1\nepochs = 2")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("epochs = many")

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 7\nk = 16\n")
        config, _ = load_run_config(path, {"epochs": "9"})
        assert config.epochs == 9 and config.book_size == 16

    def test_defaults_are_the_trainer_defaults(self):
        assert load_run_config(None, {}) == (TrainConfig(), LossWeights())

    def test_rejected_value_is_config_error(self):
        with pytest.raises(ConfigError, match="epochs"):
            load_run_config(None, {"epochs": "-1"})
        with pytest.raises(ConfigError, match="lambda_q"):
            load_run_config(None, {"lambda_q": "-1e-4"})

    def test_echo_lists_every_field(self):
        lines = echo_lines(*load_run_config(None, {}))
        assert [line.split("=")[0] for line in lines] == TRAIN_KEYS
        assert "lambda_sim=50.0" in lines
        assert "epochs=50" in lines

    def test_key_table_covers_every_trainer_field_once(self):
        defaults = (TrainConfig(), LossWeights())
        covered = []
        for key in TRAIN_KEYS:
            # 2 differs from every default and is valid for every key
            loaded = load_run_config(None, {key: "2"})
            moved = [
                (type(obj).__name__, field.name)
                for obj, default in zip(loaded, defaults)
                for field in fields(obj)
                if getattr(obj, field.name) != getattr(default, field.name)
            ]
            assert len(moved) == 1, (key, moved)
            covered += moved
        every = [(type(obj).__name__, field.name) for obj in defaults for field in fields(obj)]
        assert sorted(covered) == sorted(every)
