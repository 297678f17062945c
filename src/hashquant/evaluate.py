"""Accuracy metrics, cost accounting, and the efficiency sweeps.

MAP@R follows the convention that a perfect ranking scores 1: average
precision is normalized by min(|relevant|, R).  The cost model gives exact
bit and operation counts for the four retrieval variants, and the two
sweeps measure what the model predicts: query time versus the candidate
budget (alpha) and the hash-filtered pipeline versus an equal-memory
quantization-only configuration as the feature dimension grows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import CountMismatch, InfeasibleBudget, KNotPowerOfTwo
from .features import index_array
from .hashing import sign_encode
from .pool import _row_slices, _usable_cpus
from .quantizer import IndicatorSet, QuantizerModel
from .retrieval import (
    RankedResult,
    RetrievalIndex,
    _cosine_database,
    _cosine_ranking,
    full_aqd_query,
    hash_only_query,
    two_stage_query,
)

VARIANTS = ("lossless", "binary_hash", "quantization", "hq")
MODES = ("two_stage", "full_aqd", "hash_only", "lossless")  # ranked_results' modes, the CLI's too
# the two-stage side of the n sweep: m books of k columns
HQ_BOOKS = 4
HQ_BOOK_SIZE = 256
# ranked_results runs query slices on threads from this database size up.  The
# large-index work (Hamming scan, per-book take, partition select, lossless's
# BLAS product) is numpy that releases the GIL; below about 2^16 items a query
# is mostly GIL-held Python overhead, and two threads measured up to 44% slower
# than one loop.  At and above it every mode measured break-even or better,
# lossless also with default BLAS threading (README § Concurrency).
PARALLEL_MIN_ITEMS = 65536


def average_precision_at(ranking, relevant, cutoff: int = 50) -> float:
    """Average precision of one ranking, truncated at `cutoff`.

    Args:
        ranking: RankedResult or sequence of item indices, best first.
        relevant: Relevant database item indices (set/array) or boolean mask.
        cutoff: Rank cutoff R.

    Returns:
        AP@R in [0, 1]: sum of precision-at-hit over the first R ranks,
        divided by min(|relevant|, R); 0 when nothing is relevant.
    """
    if not isinstance(cutoff, (int, np.integer)) or cutoff < 1:
        raise ValueError(f"cutoff must be an integer >= 1, got {cutoff!r}")
    ranked = ranking.indices if isinstance(ranking, RankedResult) else np.asarray(ranking)
    relevant = np.asarray(list(relevant) if isinstance(relevant, (set, frozenset)) else relevant)
    is_mask = relevant.dtype == bool
    indices = index_array(ranked[:cutoff], relevant.shape[0] if is_mask else None)
    if is_mask:
        n_relevant = int(relevant.sum())
        hits = relevant[indices]
    else:
        relevant_set = np.unique(index_array(relevant))
        n_relevant = relevant_set.shape[0]
        hits = np.isin(indices, relevant_set)
    if n_relevant == 0:
        return 0.0
    ranks = np.arange(1, indices.shape[0] + 1, dtype=np.float64)
    precision_at = np.cumsum(hits) / ranks
    return float((precision_at * hits).sum() / min(n_relevant, cutoff))


def map_at(
    query_features: np.ndarray,
    relevant_sets,
    *,
    mode: str,
    index: RetrievalIndex | None = None,
    database_features: np.ndarray | None = None,
    cutoff: int = 50,
    candidates: int = 100,
) -> float:
    """Mean AP@cutoff over all query rows for one retrieval mode.

    `relevant_sets` holds one entry per query (index collection or boolean
    mask over the database).  `candidates` only applies to two_stage and is
    clamped to the database size.
    """
    aps = _per_query_ap(
        query_features, relevant_sets, cutoff,
        mode=mode, index=index, database_features=database_features, candidates=candidates,
    )
    return float(np.mean(aps))


def _per_query_ap(query_features, relevant_sets, cutoff: int, **query_args) -> tuple[float, ...]:
    """AP@cutoff of each query row's ranked_results ranking against its relevant set."""
    rankings = ranked_results(query_features, top_k=cutoff, **query_args)
    return tuple(
        average_precision_at(ranking, relevant, cutoff)
        for ranking, relevant in zip(rankings, relevant_sets)
    )


def ranked_results(
    query_features: np.ndarray,
    *,
    mode: str,
    index: RetrievalIndex | None = None,
    database_features: np.ndarray | None = None,
    top_k: int = 50,
    candidates: int = 100,
) -> list[RankedResult]:
    """Run one retrieval mode over every query row.

    Each row goes through its mode's single-query function, so the results
    are those of a per-row loop; lossless mode prepares its database once,
    so a zero-norm row fails before any query row is checked.  When the
    database holds at least PARALLEL_MIN_ITEMS items, contiguous slices of
    the rows run on a thread pool of up to the usable CPUs, opened and
    closed within the call.
    """
    queries = np.atleast_2d(np.asarray(query_features, dtype=np.float64))
    if mode == "lossless":
        if database_features is None:
            raise ValueError("lossless mode needs database_features")
        database, norms = _cosine_database(database_features)
        n_items = database.shape[0]
        run = partial(_cosine_ranking, database=database, norms=norms, top_k=min(top_k, n_items))
        return _each_row(run, queries, n_items)
    if index is None:
        raise ValueError(f"{mode} mode needs an index")
    n_items = index.count
    if mode == "two_stage":
        budget = min(candidates, n_items)
        run = partial(two_stage_query, index=index, candidates=budget, top_k=min(top_k, budget))
    elif mode == "full_aqd":
        run = partial(full_aqd_query, index=index, top_k=min(top_k, n_items))
    elif mode == "hash_only":
        run = partial(hash_only_query, index=index, top_k=min(top_k, n_items))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _each_row(run, queries, n_items)


def _each_row(run, queries: np.ndarray, n_items: int) -> list[RankedResult]:
    """[run(q) for q in queries], on one contiguous slice of rows per thread at >= PARALLEL_MIN_ITEMS items."""
    workers = min(_usable_cpus(), queries.shape[0]) if n_items >= PARALLEL_MIN_ITEMS else 1
    parts = _row_slices(lambda lo, hi: [run(q) for q in queries[lo:hi]], queries.shape[0], workers)
    return [result for part in parts for result in part]


def harmonic_mean(a: float, b: float) -> float:
    """2ab / (a + b), with the 0/0 case defined as 0."""
    if a + b == 0:
        return 0.0
    return 2.0 * a * b / (a + b)


@dataclass(frozen=True)
class EvalReport:
    """Both directional MAPs, their harmonic mean, and the per-query APs.

    The harmonic field is derived, never caller-supplied, so the invariant
    harmonic = 2ab/(a+b) holds by construction.
    """

    map_i2t: float
    map_t2i: float
    per_query_i2t: tuple[float, ...]
    per_query_t2i: tuple[float, ...]
    harmonic: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "harmonic", harmonic_mean(self.map_i2t, self.map_t2i))


def evaluate_tasks(
    task_i2t: "RetrievalTask",
    task_t2i: "RetrievalTask",
    *,
    mode: str = "two_stage",
    cutoff: int = 50,
    candidates: int = 100,
) -> EvalReport:
    """Per-query AP in both directions, rolled up into one report."""
    per_query = [
        _per_query_ap(
            task.queries, task.relevant_sets, cutoff,
            mode=mode, index=task.index, database_features=task.database, candidates=candidates,
        )
        for task in (task_i2t, task_t2i)
    ]
    return EvalReport(
        map_i2t=float(np.mean(per_query[0])),
        map_t2i=float(np.mean(per_query[1])),
        per_query_i2t=per_query[0],
        per_query_t2i=per_query[1],
    )


@dataclass(frozen=True)
class CostModel:
    """Parameters the accounting formulas need; candidates is the alpha*N count."""

    count: int
    dim: int
    num_books: int
    book_size: int
    candidates: int = 100


def _log2_exact(k: int) -> int:
    if k < 1 or (k & (k - 1)) != 0:
        raise KNotPowerOfTwo(f"bit accounting needs a power-of-two book size, got {k}")
    return k.bit_length() - 1


def memory_footprint(cost: CostModel, variant: str) -> int:
    """Exact storage bits for one retrieval variant.

    lossless: 32 N n          binary_hash: N n
    quantization: 32 m k n + N m log2(k)
    hq: N n + 32 m k n + N m log2(k)
    """
    n_items, dim = cost.count, cost.dim
    if variant == "lossless":
        return 32 * n_items * dim
    if variant == "binary_hash":
        return n_items * dim
    books_bits = 32 * cost.num_books * cost.book_size * dim
    code_bits = n_items * cost.num_books * _log2_exact(cost.book_size)
    if variant == "quantization":
        return books_bits + code_bits
    if variant == "hq":
        return n_items * dim + books_bits + code_bits
    raise ValueError(f"unknown variant {variant!r}")


def op_count(cost: CostModel, variant: str) -> int:
    """Operations per query for one retrieval variant.

    lossless / binary_hash: N n
    quantization: m k n + N m
    hq: N n + m k n + candidates * m
    """
    n_items, dim = cost.count, cost.dim
    table_ops = cost.num_books * cost.book_size * dim
    if variant in ("lossless", "binary_hash"):
        return n_items * dim
    if variant == "quantization":
        return table_ops + n_items * cost.num_books
    if variant == "hq":
        return n_items * dim + table_ops + cost.candidates * cost.num_books
    raise ValueError(f"unknown variant {variant!r}")


@dataclass(frozen=True)
class RetrievalTask:
    """One evaluation direction: queries against an index with ground truth."""

    queries: np.ndarray
    index: RetrievalIndex
    relevant_sets: tuple
    database: np.ndarray | None = None  # the indexed items' features, which lossless mode ranks against


@dataclass(frozen=True)
class AlphaSweepPoint:
    alpha: float
    candidates: int
    map_i2t: float
    map_t2i: float
    mean_query_seconds: float
    hq_ops: int
    hq_memory_bits: int


def _median_seconds(runs, repeats: int) -> list[float]:
    """Median wall time of each run over max(5, repeats) rounds.

    Each round times every run once, and every other round reverses their
    order, so a process-level speed swing lands on all of them alike.
    """
    for run in runs:
        run()  # warm-up: first touch dominates otherwise
    times = [[] for _ in runs]
    for round_index in range(max(5, repeats)):
        order = range(len(runs)) if round_index % 2 == 0 else reversed(range(len(runs)))
        for which in order:
            start = time.perf_counter()
            runs[which]()
            times[which].append(time.perf_counter() - start)
    return [float(np.median(spans)) for spans in times]


def sweep_alpha(
    task_i2t: RetrievalTask,
    task_t2i: RetrievalTask,
    alphas,
    cutoff: int = 50,
    repeats: int = 5,
) -> list[AlphaSweepPoint]:
    """MAP, per-query time and the cost model's hq row as the candidate budget fraction varies.

    alpha = 0 ranks with hash codes only; alpha > 0 runs the two-stage query
    with max(1, round(alpha * N)) candidates, so alpha = 1 matches the
    quantization-only ranking.  One budget serves both directions, so the two
    indexes must hold the same number of items (else CountMismatch).  Each
    point's MAPs are evaluate_tasks' at that mode and budget.  Times are
    medians over >= 5 repetitions of the full query set through
    ranked_results, divided by the query count: mean_query_seconds is
    batched wall time per query, so from PARALLEL_MIN_ITEMS items up it
    reflects every usable core.  The op and memory columns count task_i2t's
    index at each point's candidate budget.
    """
    points = []
    tasks = (task_i2t, task_t2i)
    index = task_i2t.index
    n_items = index.count
    if task_t2i.index.count != n_items:
        raise CountMismatch(f"i2t index holds {n_items} items but t2i index {task_t2i.index.count}")
    total_queries = len(task_i2t.queries) + len(task_t2i.queries)
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
        budget = max(1, round(alpha * n_items)) if alpha else 0
        mode = "two_stage" if budget else "hash_only"
        cost = CostModel(
            count=n_items,
            dim=index.dim,
            num_books=index.quantizer.num_books,
            book_size=index.quantizer.book_size,
            candidates=budget,
        )
        # counted before the queries run, so a book size the accounting rejects fails at once
        hq_ops, hq_memory_bits = op_count(cost, "hq"), memory_footprint(cost, "hq")

        report = evaluate_tasks(task_i2t, task_t2i, mode=mode, cutoff=cutoff, candidates=budget)

        def run_queries():
            for task in tasks:
                ranked_results(task.queries, mode=mode, index=task.index, top_k=cutoff, candidates=budget)

        seconds = _median_seconds([run_queries], repeats)[0] / total_queries
        points.append(
            AlphaSweepPoint(
                alpha=float(alpha),
                candidates=budget,
                map_i2t=report.map_i2t,
                map_t2i=report.map_t2i,
                mean_query_seconds=seconds,
                hq_ops=hq_ops,
                hq_memory_bits=hq_memory_bits,
            )
        )
    return points


def equal_memory_quantizer(dim: int, count: int, tolerance: float = 0.05) -> tuple[int, int]:
    """Pick (m2, k2) so quantization-only memory matches the hq footprint.

    The hq side has HQ_BOOKS books of HQ_BOOK_SIZE columns.  Prefers the
    largest power-of-two k2 whose dictionary storage stays under half of the
    per-book budget (so the budget is spent on per-item code bits, the regime
    the cost model is about), falling back to any shape within tolerance.
    Raises InfeasibleBudget when nothing fits.
    """
    target = memory_footprint(
        CostModel(count=count, dim=dim, num_books=HQ_BOOKS, book_size=HQ_BOOK_SIZE), "hq"
    )
    fitting = []
    for exponent in range(1, 17):
        book_size = 2**exponent
        per_book = count * exponent + 32 * book_size * dim
        for num_books in {max(1, round(target / per_book)), max(1, target // per_book)}:
            footprint = memory_footprint(
                CostModel(count=count, dim=dim, num_books=num_books, book_size=book_size),
                "quantization",
            )
            gap = abs(footprint - target) / target
            if gap <= tolerance:
                capped = 32 * book_size * dim <= 0.5 * count * exponent
                fitting.append((capped, book_size, num_books, gap))
    if not fitting:
        raise InfeasibleBudget(
            f"no (m2, k2) within tolerance {tolerance:g} of {target} bits at dim={dim}, count={count}"
        )
    fitting.sort(key=lambda row: (not row[0], -row[1], row[3]))
    _, book_size, num_books, _ = fitting[0]
    return num_books, book_size


@dataclass(frozen=True)
class NSweepPoint:
    dim: int
    quant_books: int
    quant_book_size: int
    hq_memory_bits: int
    quant_memory_bits: int
    hq_seconds: float
    quant_seconds: float
    ratio: float
    predicted_hq_ops: int
    predicted_quant_ops: int


def sweep_n(
    dims,
    count: int = 100_000,
    candidates: int = 100,
    num_queries: int = 32,
    repeats: int = 7,
    seed: int = 0,
) -> list[NSweepPoint]:
    """Two-stage versus equal-memory quantization-only time across dims.

    Database content is synthetic and seeded; the timed work (word XOR and
    popcount, table gathers, partial selection) does not depend on the code
    values, so codebooks are sampled feature rows and indicators are drawn
    uniformly instead of being learned, which keeps the sweep about the
    query path.  Reported times are per-query medians of max(5, repeats)
    passes over the query set, the two sides' passes interleaved.
    """
    rng = np.random.default_rng(seed)
    points = []
    for dim in dims:
        quant_books, quant_book_size = equal_memory_quantizer(dim, count)
        database = rng.standard_normal((count, dim)).astype(np.float32)
        queries = rng.standard_normal((num_queries, dim))
        codes = sign_encode(database)

        def sampled_index(num_books: int, book_size: int) -> RetrievalIndex:
            picks = rng.choice(count, size=(num_books, book_size))
            return RetrievalIndex(
                codes=codes,
                quantizer=QuantizerModel(codebooks=database[picks].transpose(0, 2, 1)),
                indicators=IndicatorSet(
                    book_size=book_size,
                    indices=rng.integers(0, book_size, size=(count, num_books), dtype=np.int32),
                ),
            )

        hq_index = sampled_index(HQ_BOOKS, HQ_BOOK_SIZE)
        quant_index = sampled_index(quant_books, quant_book_size)

        def run_hq():
            for row in queries:
                two_stage_query(row, hq_index, candidates=candidates, top_k=min(50, candidates))

        def run_quant():
            for row in queries:
                full_aqd_query(row, quant_index, top_k=50)

        hq_seconds, quant_seconds = (
            seconds / num_queries for seconds in _median_seconds([run_hq, run_quant], repeats)
        )
        hq_cost = CostModel(
            count=count, dim=dim, num_books=HQ_BOOKS, book_size=HQ_BOOK_SIZE, candidates=candidates
        )
        quant_cost = CostModel(
            count=count, dim=dim, num_books=quant_books, book_size=quant_book_size
        )
        points.append(
            NSweepPoint(
                dim=dim,
                quant_books=quant_books,
                quant_book_size=quant_book_size,
                hq_memory_bits=memory_footprint(hq_cost, "hq"),
                quant_memory_bits=memory_footprint(quant_cost, "quantization"),
                hq_seconds=hq_seconds,
                quant_seconds=quant_seconds,
                ratio=quant_seconds / hq_seconds,
                predicted_hq_ops=op_count(hq_cost, "hq"),
                predicted_quant_ops=op_count(quant_cost, "quantization"),
            )
        )
    return points
