"""Hash every output of a seeded CLI pipeline, to check that a change keeps outputs identical.

    python3 tools/same_outputs.py --out DIR         # run; writes DIR/manifest.json
    python3 tools/same_outputs.py --compare A B     # list entries that differ; exit 1 if any

A run calls `hashquant.cli.main` in-process, from the `src/` of the checkout
this script sits in, with BLAS pinned to one thread.  For each case (dim 16
over 6 x 40 items and dim 130 over 4 x 30 items, m = 2, k = 8) it runs
synth -> train -> build, `query` in two_stage, full_aqd and hash_only mode
with candidates = N plus lossless, `eval` in all four modes, and `bench` with
`--sweep alpha` and `--sweep n`.  A last case, `dim16_pooled`, synthesises
a 4 x 16384 = 65536-item database, builds it with the dim-16 model and runs
the dim-16 queries against it in the four `query` modes (100 candidates):
at that size `ranked_results` runs query slices on a thread pool when more
than one CPU is usable.  A case `dim512_build` runs synth -> train -> build
over a 4 x 300 = 1200-item dim-512 database with m = 4, k = 256: with two
or more usable CPUs `encoder_forward` and `assign_indicators` run row slices
on a thread pool there, at the dimension where a product's BLAS kernel
decides how its dot products round.  The manifest holds one sha256 per output file and
per command's stdout.  Timing columns are dropped from CSVs before hashing,
and every path is relative to the run directory, so two runs of the same
code in different directories give the same manifest.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

TIMING_COLUMNS = frozenset({"mean_query_seconds", "hq_seconds", "quant_seconds", "ratio"})
# (name, dim, clusters, items per cluster)
CASES = (("dim16", 16, 6, 40), ("dim130", 130, 4, 30))
# 4 x 16384 = 65536 items: evaluate.PARALLEL_MIN_ITEMS, where batched queries go to threads
POOLED_CASE = ("dim16_pooled", 16, 4, 16384)
POOLED_FROM = "../dim16/"  # the case whose model and queries the pooled case reuses
# 1200 items at dim 512, m = 4, k = 256: two slices of 600 rows each keep
# pool.MIN_SLICE_MACS (2^27 multiply-adds), which takes 256 rows to assign and 512 to encode
BUILD_CASE = ("dim512_build", 512, 4, 300)
DATA = ["--features-a", "a.dfm", "--features-b", "b.dfm", "--labels", "labels.lbl"]


def _synth_and_build(dim: int, clusters: int, per_cluster: int, model: str) -> list[tuple[str, list[str]]]:
    """Synthesise the case's data and index its modality b with `model`."""
    return [
        ("synth", ["synth", "--clusters", str(clusters), "--per-cluster", str(per_cluster),
                   "--dim", str(dim), "--seed", "7", "--out-a", "a.dfm", "--out-b", "b.dfm",
                   "--out-labels", "labels.lbl"]),
        ("build", ["build", "--features", "b.dfm", "--model", model, "--modality", "b",
                   "--out", "index_b.hqx"]),
    ]


def _queries(queries: str, model: str, candidates: str) -> list[tuple[str, list[str]]]:
    """`query` in the four modes against the case's index_b.hqx and b.dfm.

    Entries keep the names of the CLI's former `aqd` and `hash` modes, so a
    manifest compares entry by entry with one written before the rename.
    """
    steps = [
        (f"query_{name}", ["query", "--queries", queries, "--model", model, "--index", "index_b.hqx",
                           "--mode", mode, "--candidates", candidates, "--topk", "20",
                           "--out", f"query_{name}.csv"])
        for name, mode in (("two_stage", "two_stage"), ("aqd", "full_aqd"), ("hash", "hash_only"))
    ]
    steps.append(("query_lossless", ["query", "--queries", queries, "--model", model,
                                     "--database", "b.dfm", "--mode", "lossless", "--topk", "20",
                                     "--out", "query_lossless.csv"]))
    return steps


def _train(num_books: int, book_size: int) -> tuple[str, list[str]]:
    """Two seeded epochs on the case's data, written to model.hqm."""
    return ("train", ["train", *DATA, "--set", f"m={num_books}", "--set", f"k={book_size}",
                      "--set", "epochs=2", "--set", "seed=3", "--out-model", "model.hqm"])


def _commands(dim: int, clusters: int, per_cluster: int) -> list[tuple[str, list[str]]]:
    """(label, argv) of each step of one case, run from the case's directory."""
    synth, build = _synth_and_build(dim, clusters, per_cluster, "model.hqm")
    steps = [synth, _train(2, 8), build, *_queries("a.dfm", "model.hqm", str(clusters * per_cluster))]
    for mode in ("two_stage", "full_aqd", "hash_only", "lossless"):
        steps.append((f"eval_{mode}", ["eval", *DATA, "--model", "model.hqm", "--mode", mode,
                                       "--candidates", "50", "--r", "20", "--out-csv", f"eval_{mode}.csv"]))
    steps.append(("bench_alpha", ["bench", "--sweep", "alpha", *DATA, "--model", "model.hqm",
                                  "--alphas", "0,0.05,1.0", "--r", "20", "--repeats", "1",
                                  "--out", "bench_alpha.csv"]))
    steps.append(("bench_n", ["bench", "--sweep", "n", "--dims", "16,32", "--count", "2000",
                              "--queries", "2", "--repeats", "1", "--out", "bench_n.csv"]))
    return steps


def _without_timing(text: str) -> str:
    """`text` with every TIMING_COLUMNS column removed from its CSV header and rows."""
    lines = text.splitlines(keepends=True)
    preamble = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    if not rows:
        return text
    keep = [col for col, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
    if len(keep) == len(rows[0]):
        return text
    out = io.StringIO()
    csv.writer(out).writerows([row[col] for col in keep] for row in rows)
    return "".join(preamble) + out.getvalue()


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cases() -> list[tuple[str, list[tuple[str, list[str]]]]]:
    """(directory, steps) of every case in run order; the pooled cases run last."""
    cases = [(name, _commands(dim, clusters, per_cluster)) for name, dim, clusters, per_cluster in CASES]
    name, dim, clusters, per_cluster = POOLED_CASE
    model = POOLED_FROM + "model.hqm"
    steps = _synth_and_build(dim, clusters, per_cluster, model) + _queries(POOLED_FROM + "a.dfm", model, "100")
    build_name, dim, clusters, per_cluster = BUILD_CASE
    synth, build = _synth_and_build(dim, clusters, per_cluster, "model.hqm")
    return cases + [(name, steps), (build_name, [synth, _train(4, 256), build])]


def run_pipeline(out_dir) -> dict[str, str]:
    """Run every case under `out_dir`; return {entry: sha256} in run order."""
    from hashquant.cli import main

    out_dir = Path(out_dir)
    manifest = {}
    home = Path.cwd()
    for name, steps in _cases():
        case_dir = out_dir / name
        case_dir.mkdir(parents=True, exist_ok=True)
        os.chdir(case_dir)
        try:
            for label, argv in steps:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(argv)
                if code != 0:
                    raise RuntimeError(f"{name}/{label}: hashquant exited {code}")
                manifest[f"{name}/stdout/{label}"] = _digest(stdout.getvalue().encode())
            for path in sorted(Path(".").iterdir()):
                data = path.read_bytes()
                if path.suffix == ".csv":
                    data = _without_timing(data.decode("utf-8")).encode()
                manifest[f"{name}/{path.name}"] = _digest(data)
        finally:
            os.chdir(home)
    return manifest


def differences(manifest_a: dict, manifest_b: dict) -> list[str]:
    """Entries whose hash differs or that only one manifest has, in name order."""
    keys = manifest_a.keys() | manifest_b.keys()
    return sorted(key for key in keys if manifest_a.get(key) != manifest_b.get(key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="run directory; the manifest goes to OUT/manifest.json")
    group.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two manifest files")
    args = parser.parse_args(argv)
    if args.compare:
        manifest_a, manifest_b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare)
        differing = differences(manifest_a, manifest_b)
        for key in differing:
            print(f"differs: {key}")
        print(f"{len(differing)} of {len(manifest_a.keys() | manifest_b.keys())} entries differ")
        return 1 if differing else 0
    manifest = run_pipeline(args.out)
    path = Path(args.out) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} entries to {path}")
    return 0


if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    sys.exit(main())
