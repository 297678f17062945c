"""Command-line surface: synth, train, build, query, eval, bench.

Each command is deterministic given its config and seed (timing columns
excepted).  Operational failures print one machine-parsable line to stderr
(`error: <Name>: <detail>`) and exit nonzero.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import fnmatch
import sys

import numpy as np

from .config import echo_lines, load_run_config
from .errors import ConfigError, HashQuantError
from .evaluate import (
    MODES,
    AlphaSweepPoint,
    NSweepPoint,
    RetrievalTask,
    evaluate_tasks,
    ranked_results,
    sweep_alpha,
    sweep_n,
)
from .features import (
    LabelSet,
    generate_pairs,
    load_features,
    load_labels,
    save_features,
    save_labels,
    synth_dataset,
)
from .quantizer import assign_indicators
from .retrieval import DEFAULT_CANDIDATES, build_index, load_index, save_index
from .trainer import encoder_forward, load_model, save_model, train


def _parse_overrides(items) -> dict:
    overrides = {}
    for item in items or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        if key in overrides:
            raise ConfigError(f"--set: duplicate key {key!r}")
        overrides[key] = value
    return overrides


def _relevance(labels_q: LabelSet, labels_db: LabelSet) -> np.ndarray:
    """Boolean (num_queries, num_items) matrix of shared-label relevance."""
    return (labels_q.masks[:, None] & labels_db.masks[None, :]) != 0


def _write_csv(path, header, rows, preamble=()):
    out = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        for line in preamble:
            out.write(f"# {line}\n")
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def cmd_synth(args) -> int:
    features_a, features_b, labels = synth_dataset(
        clusters=args.clusters,
        per_cluster=args.per_cluster,
        dim=args.dim,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    save_features(features_a, args.out_a)
    save_features(features_b, args.out_b)
    save_labels(labels, args.out_labels)
    print(f"wrote {features_a.count} items x {features_a.dim} dims per modality")
    return 0


def cmd_train(args) -> int:
    config, weights = load_run_config(args.config, _parse_overrides(args.set))
    features_a = load_features(args.features_a)
    features_b = load_features(args.features_b)
    labels = load_labels(args.labels)
    pairs = generate_pairs(labels, labels, config.seed)
    for line in echo_lines(config, weights):
        print(f"# {line}")
    result = train(features_a, features_b, pairs, config, weights)
    for epoch, loss in enumerate(result.losses):
        print(f"epoch={epoch} loss={loss:.6f}")
    save_model(args.out_model, result.encoder_a, result.encoder_b, result.quantizer)
    print(f"wrote model to {args.out_model}")
    return 0


def _encode(model, features, modality):
    """Run the model's encoder for `modality` over every feature row."""
    encoder_a, encoder_b, _ = model
    return encoder_forward(encoder_a if modality == "a" else encoder_b, features.values)


def _encode_and_index(model, features, modality):
    """encoder_forward -> assign_indicators -> build_index for one modality."""
    encoded = _encode(model, features, modality)
    _, _, quantizer = model
    indicators = assign_indicators(encoded, quantizer)
    return encoded, build_index(encoded, quantizer, indicators, modality=modality)


def _model_echo(index) -> list[str]:
    """Report preamble lines describing the model that produced `index`."""
    return [f"m={index.quantizer.num_books}", f"k={index.quantizer.book_size}", f"dim={index.dim}"]


def cmd_build(args) -> int:
    features = load_features(args.features)
    _, index = _encode_and_index(load_model(args.model), features, args.modality)
    save_index(index, args.out)
    print(f"wrote index of {index.count} items to {args.out}")
    return 0


def _load_encoded(path, model_path, modality):
    features = load_features(path)
    if model_path is None:
        return features.values.astype(np.float64)
    return _encode(load_model(model_path), features, modality)


def cmd_query(args) -> int:
    queries = _load_encoded(args.queries, args.model, args.modality)
    index = database = None
    if args.mode == "lossless":
        if args.database is None:
            raise HashQuantError("--mode lossless needs --database")
        database = _load_encoded(args.database, args.model, args.database_modality)
    else:
        if args.index is None:
            raise HashQuantError(f"--mode {args.mode} needs --index")
        index = load_index(args.index)
    rankings = ranked_results(
        queries, mode=args.mode, index=index, database_features=database,
        top_k=args.topk, candidates=args.candidates,
    )
    rows = [
        (query_id, rank + 1, int(item), float(score))
        for query_id, ranking in enumerate(rankings)
        for rank, (item, score) in enumerate(zip(ranking.indices, ranking.scores))
    ]
    _write_csv(args.out, ("query", "rank", "item", "score"), rows)
    return 0


def _eval_tasks(args):
    features_a = load_features(args.features_a)
    features_b = load_features(args.features_b)
    labels = load_labels(args.labels)
    model = load_model(args.model)
    encoded_a, index_a = _encode_and_index(model, features_a, "a")
    encoded_b, index_b = _encode_and_index(model, features_b, "b")
    relevance = _relevance(labels, labels)
    task_i2t = RetrievalTask(queries=encoded_a, index=index_b, relevant_sets=tuple(relevance), database=encoded_b)
    task_t2i = RetrievalTask(queries=encoded_b, index=index_a, relevant_sets=tuple(relevance.T), database=encoded_a)
    return task_i2t, task_t2i


def cmd_eval(args) -> int:
    task_i2t, task_t2i = _eval_tasks(args)
    echo = _model_echo(task_i2t.index) + [
        f"mode={args.mode}",
        f"candidates={args.candidates}",
        f"cutoff={args.r}",
    ]
    report = evaluate_tasks(task_i2t, task_t2i, mode=args.mode, cutoff=args.r, candidates=args.candidates)
    rows = [
        (direction, query_id, ap)
        for direction, per_query in (("i2t", report.per_query_i2t), ("t2i", report.per_query_t2i))
        for query_id, ap in enumerate(per_query)
    ]
    _write_csv(args.out_csv, ("direction", "query", "ap"), rows, preamble=echo)
    print(
        f"map_i2t={report.map_i2t:.6f} map_t2i={report.map_t2i:.6f} "
        f"harmonic_mean={report.harmonic:.6f}"
    )
    return 0


# decimals of the float sweep columns, by column name pattern; other columns are written by str()
_SWEEP_DECIMALS = (("map_*", 6), ("*_seconds", 9), ("ratio", 4))


def _sweep_cell(name, value) -> str:
    for pattern, decimals in _SWEEP_DECIMALS:
        if fnmatch.fnmatchcase(name, pattern):
            return f"{value:.{decimals}f}"
    return str(value)


def _write_sweep(path, point_type, points, preamble=()):
    """One CSV row per sweep point: its fields in declaration order."""
    names = [field.name for field in dataclasses.fields(point_type)]
    rows = [[_sweep_cell(name, getattr(point, name)) for name in names] for point in points]
    _write_csv(path, names, rows, preamble=preamble)


def cmd_bench(args) -> int:
    if args.sweep == "alpha":
        needed = ("features_a", "features_b", "labels", "model")
        missing = ["--" + name.replace("_", "-") for name in needed if getattr(args, name) is None]
        if missing:
            raise HashQuantError(f"--sweep alpha needs {', '.join(missing)}")
        task_i2t, task_t2i = _eval_tasks(args)
        alphas = [float(a) for a in args.alphas.split(",")]
        points = sweep_alpha(task_i2t, task_t2i, alphas, cutoff=args.r, repeats=args.repeats)
        preamble = _model_echo(task_i2t.index) + [f"cutoff={args.r}", f"repeats={args.repeats}"]
        _write_sweep(args.out, AlphaSweepPoint, points, preamble)
        return 0

    dims = [int(d) for d in args.dims.split(",")]
    points = sweep_n(
        dims,
        count=args.count,
        candidates=args.candidates,
        num_queries=args.queries,
        repeats=args.repeats,
        seed=args.seed,
    )
    _write_sweep(args.out, NSweepPoint, points)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hashquant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate an aligned two-modality cluster dataset")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--per-cluster", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--noise-sigma", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    p.add_argument("--out-labels", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train encoders and quantizer, write a model file")
    p.add_argument("--features-a", required=True)
    p.add_argument("--features-b", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("build", help="encode features and write a retrieval index")
    p.add_argument("--features", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--modality", choices=("a", "b"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("query", help="rank database items for each query row")
    p.add_argument("--queries", required=True)
    p.add_argument("--index", default=None)
    p.add_argument("--model", default=None, help="encode raw queries with this model")
    p.add_argument("--modality", choices=("a", "b"), default="a")
    p.add_argument("--database", default=None, help="feature file for --mode lossless")
    p.add_argument("--database-modality", choices=("a", "b"), default="b")
    p.add_argument("--mode", choices=MODES, default="two_stage")
    p.add_argument("--candidates", type=int, default=DEFAULT_CANDIDATES)
    p.add_argument("--topk", type=int, default=10)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eval", help="MAP in both directions plus harmonic mean")
    p.add_argument("--features-a", required=True)
    p.add_argument("--features-b", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=MODES, default="two_stage")
    p.add_argument("--candidates", type=int, default=DEFAULT_CANDIDATES)
    p.add_argument("--r", type=int, default=50)
    p.add_argument("--out-csv", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="alpha sweep or dimension sweep, written as CSV")
    p.add_argument("--sweep", choices=("alpha", "n"), required=True)
    p.add_argument("--features-a")
    p.add_argument("--features-b")
    p.add_argument("--labels")
    p.add_argument("--model")
    p.add_argument("--alphas", default="0,0.02,0.1,0.3,1.0")
    p.add_argument("--r", type=int, default=50)
    p.add_argument("--dims", default="64,128,256,512")
    p.add_argument("--count", type=int, default=100_000)
    p.add_argument("--candidates", type=int, default=DEFAULT_CANDIDATES)
    p.add_argument("--queries", type=int, default=32)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HashQuantError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: InvalidArgs: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
