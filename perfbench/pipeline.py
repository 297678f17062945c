"""Workloads, the set-up pipeline, the timed query rounds, and their metrics.

One run goes through the public library path a user takes: generate inputs
(`synth_dataset`, `generate_pairs`), `train`, index the modality-b database
(`encoder_forward` -> `assign_indicators` -> `build_index`), `save_index`
then `load_index`, and answer modality-a queries from the loaded index one
at a time (`two_stage_query`, `full_aqd_query`) and as a batch
(`evaluate.ranked_results`).  Library functions are always reached through
their module attribute, so the tracer's wrappers see the benchmark's calls
as well as the calls hashquant modules make into each other.
"""

from __future__ import annotations

import dataclasses
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from hashquant import evaluate, features, hashing, quantizer, retrieval, trainer

import checks
from spans import COUNT, TRACE, Tracer

NUM_BOOKS, BOOK_SIZE = 4, 256
CANDIDATES, TOP_K = 100, 50
# setup_s is the median of this many complete set-ups.  Two, not more: one
# serve_d512 set-up takes about 25 s on a 2-core Xeon, and a serve_d512 run
# should stay near a minute so that ten-seed sweeps of every workload fit
# in an hour.
SETUPS = 2
CHECK_QUERIES = 8  # queries per round checked against the brute-force references
WARMUP_QUERIES = 20
QUERY_BLOCK = 50  # queries per interleaved block; every workload's query count is a multiple
MAP_MARGIN = 0.02  # criterion 09: two-stage MAP may trail hash-only MAP by this much
# The database is encoded and assigned 2000 rows at a time, as a user with
# 100k rows would: one assign_indicators call over 100k rows at dim 512
# peaks near 2.6 GB, and 2000-row chunks keep its working arrays in cache
# (about a quarter faster).  Each row's indicators do not depend on the
# other rows, so the index is the same either way.
INDEX_CHUNK = 2_000
# synth_dataset makes float64 temporaries for both modalities, about 2 GB
# for 100k rows at dim 512, so inputs are generated in calls of whole
# clusters covering at most this many rows.
SYNTH_ROWS = 10_000
MIB = 2**20


@dataclass(frozen=True)
class Workload:
    dim: int
    clusters: int
    per_cluster: int
    noise: float
    train_items: int  # seeded training sample per modality; 0 trains on every item
    epochs: int
    learning_rate: float
    queries: int

    @property
    def count(self) -> int:
        return self.clusters * self.per_cluster


WORKLOADS = {
    "serve_d512": Workload(512, 50, 2000, 1.5, 2000, 3, 0.003, 300),
    "serve_d64": Workload(64, 50, 2000, 0.9, 3000, 3, 0.01, 400),
    "train_c09": Workload(32, 10, 500, 1.2, 0, 50, 2e-4, 1000),
}


class Tally:
    """Operations attempted and failed; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"check failed: {what}", file=sys.stderr)


@dataclass
class Setup:
    index: object
    queries: np.ndarray
    query_clusters: np.ndarray
    item_clusters: np.ndarray
    hqx_bytes: int
    setup_s: float
    train_s: float
    index_s: float


def _call_seed(seed: int, call: int) -> int:
    return int(np.random.SeedSequence([seed, call]).generate_state(1)[0])


def make_inputs(work: Workload, seed: int):
    """Database (modality b), the modality-a rows the run uses, cluster ids.

    synth_dataset runs once per group of clusters, each group with its own
    seed derived from `seed`; only the modality-a rows that are trained on
    or queried are kept.
    """
    rng = np.random.default_rng([seed, 0])
    n_items = work.count
    if work.train_items:
        train_ids = np.sort(rng.choice(n_items, work.train_items, replace=False))
    else:
        train_ids = np.arange(n_items)
    query_ids = np.sort(rng.choice(n_items, work.queries, replace=False))
    kept = np.union1d(train_ids, query_ids)
    values_a = np.empty((kept.shape[0], work.dim), dtype=np.float32)
    values_b = np.empty((n_items, work.dim), dtype=np.float32)
    clusters = np.empty(n_items, dtype=np.int64)
    per_call = max(1, min(work.clusters, SYNTH_ROWS // work.per_cluster))
    rows = per_call * work.per_cluster
    for call in range(-(-work.clusters // per_call)):
        fa, fb, labels = features.synth_dataset(
            min(per_call, work.clusters - call * per_call), work.per_cluster, work.dim, work.noise,
            seed=_call_seed(seed, call),
        )
        lo, hi = call * rows, (call + 1) * rows
        values_b[lo:hi] = fb.values
        # one label bit per cluster: the bit position is the cluster within the call
        clusters[lo:hi] = call * per_call + np.log2(labels.masks.astype(np.float64)).astype(np.int64)
        here = np.flatnonzero((kept >= lo) & (kept < hi))
        values_a[here] = fa.values[kept[here] - lo]
    train_rows = np.searchsorted(kept, train_ids)
    query_rows = np.searchsorted(kept, query_ids)
    return values_a, values_b, clusters, train_ids, train_rows, query_ids, query_rows


def index_database(values_b: np.ndarray, model) -> object:
    """encoder_forward -> assign_indicators -> build_index over the database."""
    encoded = np.empty(values_b.shape, dtype=np.float64)
    indices = np.empty((values_b.shape[0], model.quantizer.num_books), dtype=np.int32)
    for lo in range(0, values_b.shape[0], INDEX_CHUNK):
        hi = lo + INDEX_CHUNK
        encoded[lo:hi] = trainer.encoder_forward(model.encoder_b, values_b[lo:hi])
        indices[lo:hi] = quantizer.assign_indicators(encoded[lo:hi], model.quantizer).indices
    indicators = quantizer.IndicatorSet(book_size=model.quantizer.book_size, indices=indices)
    return retrieval.build_index(encoded, model.quantizer, indicators, "b")


def set_up(work: Workload, seed: int, hqx_path: Path, tracer: Tracer, tally: Tally) -> Setup:
    start = perf_counter()
    values_a, values_b, clusters, train_ids, train_rows, query_ids, query_rows = make_inputs(work, seed)
    labels = features.LabelSet(
        num_labels=work.clusters, masks=np.uint64(1) << clusters[train_ids].astype(np.uint64)
    )
    pairs = features.generate_pairs(labels, labels, shuffle_seed=seed)

    began = perf_counter()
    config = trainer.TrainConfig(
        seed=seed, epochs=work.epochs, learning_rate=work.learning_rate, num_books=NUM_BOOKS, book_size=BOOK_SIZE
    )
    model = trainer.train(values_a[train_rows], values_b[train_ids], pairs, config, trainer.LossWeights())
    train_s = perf_counter() - began

    began = perf_counter()
    with tracer.span("bench.index"):
        built = index_database(values_b, model)
    index_s = perf_counter() - began

    retrieval.save_index(built, hqx_path)
    index = retrieval.load_index(hqx_path)
    queries = trainer.encoder_forward(model.encoder_a, values_a[query_rows])
    setup_s = perf_counter() - start

    hqx_bytes = hqx_path.stat().st_size
    layout_bytes = checks.hqx_bytes(work.count, work.dim, NUM_BOOKS, BOOK_SIZE)
    tally.op(checks.losses_sound(model.losses), "training losses not finite or not decreasing")
    tally.op(hqx_bytes == layout_bytes, f".hqx holds {hqx_bytes} bytes, HQX1 layout gives {layout_bytes}")
    tally.op(
        np.array_equal(index.codes.words, built.codes.words)
        and np.array_equal(index.indicators.indices, built.indicators.indices)
        and np.array_equal(index.quantizer.codebooks, built.quantizer.codebooks.astype(np.float32)),
        "loaded index differs from the saved one",
    )
    return Setup(
        index=index,
        queries=queries,
        query_clusters=clusters[query_ids],
        item_clusters=clusters,
        hqx_bytes=hqx_bytes,
        setup_s=setup_s,
        train_s=train_s,
        index_s=index_s,
    )


def array_bytes(obj, seen: set | None = None) -> int:
    """Bytes of every numpy array reachable from `obj`, each counted once."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(array_bytes(getattr(obj, f.name), seen) for f in dataclasses.fields(obj))
    return 0


@dataclass
class Round:
    """Timings of one pass over the query set."""

    traced: bool
    two_ns: list  # per single query
    aqd_ns: list
    two_qps: list  # per batched block
    aqd_qps: list


@dataclass
class Answers:
    """Results of one pass over the query set, one per query in each list."""

    two: list
    aqd: list
    batch_two: list
    batch_aqd: list


def query_round(index, queries: np.ndarray, traced: bool) -> tuple[Round, Answers]:
    """One pass over the query set, a block of queries at a time.

    Each block is answered one query at a time in each mode and then as one
    `ranked_results` batch in each mode.  Interleaving by block spreads
    every metric's samples over the whole run, so a second or two of
    machine noise moves a few samples of each metric rather than all
    samples of one; throughput is taken per block and its median reported.
    """
    rnd = Round(traced, [], [], [], [])
    answers = Answers([], [], [], [])
    for lo in range(0, queries.shape[0], QUERY_BLOCK):
        block = queries[lo : lo + QUERY_BLOCK]
        for row in block:
            began = perf_counter_ns()
            answers.two.append(retrieval.two_stage_query(row, index, CANDIDATES, TOP_K))
            rnd.two_ns.append(perf_counter_ns() - began)
        for row in block:
            began = perf_counter_ns()
            answers.aqd.append(retrieval.full_aqd_query(row, index, TOP_K))
            rnd.aqd_ns.append(perf_counter_ns() - began)
        began = perf_counter()
        answers.batch_two += evaluate.ranked_results(
            block, mode="two_stage", index=index, top_k=TOP_K, candidates=CANDIDATES
        )
        rnd.two_qps.append(block.shape[0] / (perf_counter() - began))
        began = perf_counter()
        answers.batch_aqd += evaluate.ranked_results(block, mode="full_aqd", index=index, top_k=TOP_K)
        rnd.aqd_qps.append(block.shape[0] / (perf_counter() - began))
    return rnd, answers


@dataclass
class References:
    """Brute-force answers for a seeded sample of queries, computed once per run."""

    sample: np.ndarray
    shortlists: list
    scores: np.ndarray  # (sample, N) reference scores over every item


def make_references(index, queries: np.ndarray, seed: int) -> References:
    rng = np.random.default_rng([seed, 2])
    sample = np.sort(rng.choice(queries.shape[0], CHECK_QUERIES, replace=False))
    bits = checks.unpack_bits(index.codes.words, index.dim)
    shortlists = [checks.shortlist(checks.hamming_to_all(queries[j], bits), CANDIDATES) for j in sample]
    scores = checks.scores_to_all(queries[sample], index.quantizer.codebooks, index.indicators.indices)
    return References(sample=sample, shortlists=shortlists, scores=scores)


def check_round(answers: Answers, index, queries, refs: References, tally: Tally) -> None:
    books, items = index.quantizer.codebooks, index.indicators.indices
    two, aqd = answers.two, answers.aqd
    for j, row in enumerate(queries):
        tally.op(checks.result_sound(two[j], row, books, items, TOP_K), f"two-stage result of query {j}")
        tally.op(checks.result_sound(aqd[j], row, books, items, TOP_K), f"full-AQD result of query {j}")
        tally.op(checks.same_result(answers.batch_two[j], two[j]), f"batched two-stage result of query {j}")
        tally.op(checks.same_result(answers.batch_aqd[j], aqd[j]), f"batched full-AQD result of query {j}")
    everything = np.arange(index.count)
    for pos, j in enumerate(refs.sample):
        reference = refs.shortlists[pos]
        got = retrieval.hamming_top_candidates(
            retrieval.sign_encode(queries[j].reshape(1, -1)), index.codes, CANDIDATES
        )
        tally.op(np.array_equal(got, reference), f"shortlist of query {j}")
        tally.op(
            checks.top_of_pool(two[j], reference, refs.scores[pos][reference], TOP_K),
            f"two-stage top-{TOP_K} of query {j} against the reference shortlist",
        )
        tally.op(
            checks.top_of_pool(aqd[j], everything, refs.scores[pos], TOP_K),
            f"full-AQD top-{TOP_K} of query {j} against brute force over all items",
        )
        whole = retrieval.two_stage_query(queries[j], index, index.count, TOP_K)
        tally.op(checks.same_result(whole, aqd[j]), f"two-stage with candidates=N vs full AQD, query {j}")


def trace_targets() -> list:
    def rows_changed(args, result):
        prev = args[2] if len(args) > 2 else None
        return 0 if prev is None else int((result.indices != prev.indices).any(axis=1).sum())

    plain = [
        (features, "synth_dataset", "features.synth_dataset"),
        (features, "generate_pairs", "features.generate_pairs"),
        (trainer, "train", "trainer.train"),
        (trainer, "loss_gradients", "trainer.loss_gradients"),
        (trainer, "total_loss", "trainer.total_loss"),
        (trainer, "encoder_forward", "trainer.encoder_forward"),
        (trainer, "learn_quantizer", "quantizer.learn_quantizer"),
        (trainer, "update_codebooks", "quantizer.update_codebooks"),
        (quantizer, "assign_indicators", "quantizer.assign_indicators"),
        (retrieval, "build_index", "retrieval.build_index"),
        (retrieval, "save_index", "retrieval.save_index"),
        (retrieval, "load_index", "retrieval.load_index"),
        (retrieval, "two_stage_query", "retrieval.two_stage_query"),
        (retrieval, "full_aqd_query", "retrieval.full_aqd_query"),
        (evaluate, "two_stage_query", "retrieval.two_stage_query"),
        (evaluate, "full_aqd_query", "retrieval.full_aqd_query"),
        (retrieval, "sign_encode", "hashing.sign_encode"),
        (retrieval, "hamming_top_candidates", "hashing.hamming_top_candidates"),
        (hashing, "hamming_distances", "hashing.hamming_distances"),
        (retrieval, "build_lookup_table", "quantizer.build_lookup_table"),
        (retrieval, "aqd_scores", "quantizer.aqd_scores"),
    ]
    return [(module, attr, name, None) for module, attr, name in plain] + [
        (trainer, "assign_indicators", "quantizer.assign_indicators", rows_changed),
        (evaluate, "ranked_results", "evaluate.ranked_results", lambda args, result: len(result)),
    ]


def _p(values_ns: list, q: float) -> float:
    return float(np.percentile(np.asarray(values_ns, dtype=np.float64), q)) / 1e3


def end_to_end(setups: list[Setup], rounds: list[Round], map50: float) -> dict:
    untraced = [rnd for rnd in rounds if not rnd.traced]
    two_ns = [t for rnd in untraced for t in rnd.two_ns]
    aqd_ns = [t for rnd in untraced for t in rnd.aqd_ns]
    return {
        "setup_s": (statistics.median(s.setup_s for s in setups), "s"),
        "train_s": (statistics.median(s.train_s for s in setups), "s"),
        "index_s": (statistics.median(s.index_s for s in setups), "s"),
        "index_mib": (array_bytes(setups[-1].index) / MIB, "MiB"),
        "two_stage_p50_us": (_p(two_ns, 50), "us"),
        "two_stage_p90_us": (_p(two_ns, 90), "us"),
        "two_stage_qps": (statistics.median(q for rnd in untraced for q in rnd.two_qps), "1/s"),
        "aqd_p50_us": (_p(aqd_ns, 50), "us"),
        "aqd_qps": (statistics.median(q for rnd in untraced for q in rnd.aqd_qps), "1/s"),
        "map50": (map50, "1"),
    }


def filter_diagnostics(index, queries: np.ndarray, full_aqd: list) -> tuple[float, float]:
    """Median items tied at the shortlist's cut-off distance, and filter recall.

    Filter recall is the share of the full-AQD top-k that the Hamming
    shortlist keeps, averaged over the query set.
    """
    ties, recall = [], []
    for row, best in zip(queries, full_aqd):
        dists = hashing.hamming_distances(retrieval.sign_encode(row.reshape(1, -1)), index.codes)
        cutoff = np.partition(dists, CANDIDATES - 1)[CANDIDATES - 1]
        below = np.flatnonzero(dists < cutoff)
        tied = np.flatnonzero(dists == cutoff)
        kept = np.concatenate([below, tied[: CANDIDATES - below.shape[0]]])
        ties.append(tied.shape[0])
        recall.append(np.isin(best.indices, kept).sum() / len(best.indices))
    return float(statistics.median(ties)), float(np.mean(recall))


def per_layer(tracer: Tracer, work: Workload, setups: list[Setup], rounds: list[Round],
              index, queries, full_aqd) -> dict:
    own = tracer.self_times()
    setup_traces = [tracer.spans[pos][TRACE] for pos in tracer.select("bench.setup")]

    def per_setup(positions, values=None, scale=1e9) -> float:
        values = tracer.durations_ns(positions) if values is None else values
        sums = tracer.per_trace_sum(positions, values)
        return statistics.median(sums.get(trace, 0) for trace in setup_traces) / scale

    def us(name, parent=None, self_time=False) -> float:
        return tracer.median_us(name, parent, own if self_time else None)

    untraced = [rnd for rnd in rounds if not rnd.traced]
    traced = [rnd for rnd in rounds if rnd.traced]
    two_p50 = _p([t for rnd in untraced for t in rnd.two_ns], 50)
    aqd_p50 = _p([t for rnd in untraced for t in rnd.aqd_ns], 50)
    traced_two_p50 = _p([t for rnd in traced for t in rnd.two_ns], 50)
    cost = evaluate.CostModel(
        count=work.count, dim=work.dim, num_books=NUM_BOOKS, book_size=BOOK_SIZE, candidates=CANDIDATES
    )
    batches = tracer.select("evaluate.ranked_results")
    batch_queries = sum(tracer.spans[pos][COUNT] for pos in batches)
    ties, recall = filter_diagnostics(index, queries, full_aqd)
    changed = tracer.select("quantizer.assign_indicators", "trainer.train")
    scan_us = us("quantizer.aqd_scores", "retrieval.full_aqd_query")
    hamming_us = us("hashing.hamming_distances")
    metrics = {
        "features.synth_s": (
            per_setup(tracer.select("features.synth_dataset") + tracer.select("features.generate_pairs")), "s"),
        "trainer.sgd_s": (per_setup(tracer.select("trainer.loss_gradients")), "s"),
        "trainer.loss_eval_s": (per_setup(tracer.select("trainer.total_loss")), "s"),
        "trainer.encode_s": (per_setup(tracer.select("trainer.encoder_forward")), "s"),
        "trainer.indicators_changed": (
            per_setup(changed, [tracer.spans[pos][COUNT] for pos in changed], scale=1), "count"),
        "quantizer.init_fit_s": (per_setup(tracer.select("quantizer.learn_quantizer")), "s"),
        "quantizer.update_codebooks_s": (per_setup(tracer.select("quantizer.update_codebooks")), "s"),
        "quantizer.assign_train_s": (per_setup(changed), "s"),
        "quantizer.assign_index_s": (
            per_setup(tracer.select("quantizer.assign_indicators", "bench.index")), "s"),
        "quantizer.table_us": (us("quantizer.build_lookup_table"), "us"),
        "quantizer.rerank_us": (us("quantizer.aqd_scores", "retrieval.two_stage_query"), "us"),
        "quantizer.scan_us": (scan_us, "us"),
        "quantizer.scan_ns_per_op": (scan_us * 1e3 / (work.count * NUM_BOOKS), "ns"),
        "hashing.encode_us": (us("hashing.sign_encode", "retrieval.two_stage_query"), "us"),
        "hashing.scan_us": (hamming_us, "us"),
        "hashing.scan_ns_per_op": (hamming_us * 1e3 / (work.count * work.dim), "ns"),
        "hashing.select_us": (us("hashing.hamming_top_candidates", self_time=True), "us"),
        "hashing.cutoff_ties": (ties, "count"),
        "hashing.filter_recall": (recall, "1"),
        "retrieval.two_stage_self_us": (us("retrieval.two_stage_query", self_time=True), "us"),
        "retrieval.aqd_self_us": (us("retrieval.full_aqd_query", self_time=True), "us"),
        "retrieval.build_index_s": (per_setup(tracer.select("retrieval.build_index")), "s"),
        "retrieval.save_index_s": (per_setup(tracer.select("retrieval.save_index")), "s"),
        "retrieval.load_index_s": (per_setup(tracer.select("retrieval.load_index")), "s"),
        "retrieval.hqx_mib": (setups[-1].hqx_bytes / MIB, "MiB"),
        "evaluate.batch_self_us": (sum(own[pos] for pos in batches) / 1e3 / batch_queries, "us"),
        "evaluate.two_stage_ns_per_op": (two_p50 * 1e3 / evaluate.op_count(cost, "hq"), "ns"),
        "evaluate.aqd_ns_per_op": (aqd_p50 * 1e3 / evaluate.op_count(cost, "quantization"), "ns"),
        "trace.overhead_us": (traced_two_p50 - two_p50, "us"),
    }
    return metrics


def run(work: Workload, seed: int, seconds: float, trace: bool, out_dir: Path, tag: str) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    hqx_path = out_dir / f"index-{tag}.hqx"
    tracer = Tracer()
    tally = Tally()

    setups = []
    for _ in range(SETUPS):
        with tracer.patched(trace_targets()) if trace else nullcontext(), tracer.span("bench.setup"):
            setups.append(set_up(work, seed, hqx_path, tracer, tally))
    setup = setups[-1]
    index, queries = setup.index, setup.queries
    refs = make_references(index, queries, seed)

    for row in queries[:WARMUP_QUERIES]:
        retrieval.two_stage_query(row, index, CANDIDATES, TOP_K)
        retrieval.full_aqd_query(row, index, TOP_K)
    evaluate.ranked_results(queries[:WARMUP_QUERIES], mode="two_stage", index=index, top_k=TOP_K,
                            candidates=CANDIDATES)

    rounds: list[Round] = []
    first = None  # answers of the first, untraced round: map50 and filter recall use them
    began = perf_counter()
    while not rounds or perf_counter() - began < seconds or (trace and len(rounds) < 2):
        traced = trace and len(rounds) % 2 == 1
        with tracer.patched(trace_targets()) if traced else nullcontext():
            rnd, answers = query_round(index, queries, traced)
        check_round(answers, index, queries, refs, tally)
        rounds.append(rnd)
        first = first or answers

    map50 = checks.mean_average_precision(first.batch_two, setup.query_clusters, setup.item_clusters, TOP_K)
    hash_only = evaluate.ranked_results(queries, mode="hash_only", index=index, top_k=TOP_K)
    hash_map = checks.mean_average_precision(hash_only, setup.query_clusters, setup.item_clusters, TOP_K)
    tally.op(map50 >= hash_map - MAP_MARGIN, f"two-stage MAP@50 {map50:.4f} below hash-only {hash_map:.4f}")

    if trace:
        metrics = per_layer(tracer, work, setups, rounds, index, queries, first.batch_aqd)
        tracer.write(out_dir / f"trace-{tag}.jsonl")
    else:
        metrics = end_to_end(setups, rounds, map50)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
