"""Reference computations the benchmark checks the library's outputs against.

Everything here is plain numpy written apart from hashquant: sign bits come
from `x >= 0` and `np.unpackbits`, scores from the query's dot product with
the sum of the selected codebook columns in float64, rankings from
`np.lexsort`.  Each check returns True when the output is right.
"""

from __future__ import annotations

import numpy as np

# Scores are sums of m float64 dot products; library and reference differ
# only by summation order, far below this relative tolerance.
SCORE_RTOL = 1e-9
CHUNK = 10_000


def unpack_bits(words: np.ndarray, dim: int) -> np.ndarray:
    """(N, dim) uint8 sign bits from packed little-endian uint64 words."""
    as_bytes = np.ascontiguousarray(words).astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :dim]


def hamming_to_all(query: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Bit differences between the query's signs (x >= 0) and every database row."""
    return np.count_nonzero(bits != (query >= 0).astype(np.uint8), axis=1)


def shortlist(distances: np.ndarray, candidates: int) -> np.ndarray:
    """The `candidates` nearest items, ordered by (distance, index)."""
    return np.lexsort((np.arange(distances.shape[0]), distances))[:candidates]


def reconstruct(codebooks: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Sum of the selected columns, (len(indices), dim), in float64."""
    out = np.zeros((indices.shape[0], codebooks.shape[1]))
    for book in range(codebooks.shape[0]):
        out += codebooks[book][:, indices[:, book]].T
    return out


def scores_to_all(queries: np.ndarray, codebooks: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """q . sum(selected columns) for every query row and every item, (Q, N)."""
    out = np.empty((queries.shape[0], indices.shape[0]))
    for start in range(0, indices.shape[0], CHUNK):
        stop = start + CHUNK
        out[:, start:stop] = queries @ reconstruct(codebooks, indices[start:stop]).T
    return out


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return bool((np.abs(got - want) <= SCORE_RTOL * scale).all())


def ranking_ordered(indices: np.ndarray, scores: np.ndarray) -> bool:
    """Strictly ordered by (score desc, index asc), so no item repeats."""
    if indices.shape != scores.shape:
        return False
    if indices.shape[0] < 2:
        return True
    d_score = np.diff(scores)
    d_index = np.diff(indices)
    return bool(((d_score < 0) | ((d_score == 0) & (d_index > 0))).all())


def result_sound(result, query: np.ndarray, codebooks: np.ndarray, item_indices: np.ndarray,
                 top_k: int) -> bool:
    """Length, order, and every score equal to q . sum(selected columns)."""
    indices, scores = np.asarray(result.indices), np.asarray(result.scores)
    if indices.shape[0] != top_k or not ranking_ordered(indices, scores):
        return False
    if indices.min() < 0 or indices.max() >= item_indices.shape[0]:
        return False
    return _close(scores, reconstruct(codebooks, item_indices[indices]) @ query)


def top_of_pool(result, pool: np.ndarray, pool_scores: np.ndarray, top_k: int) -> bool:
    """The result is the exact top-k of `pool` under the reference scores.

    Its items all come from the pool with their reference scores, and no
    pool item left out scores above the lowest one returned.  Equality of
    near-ties is judged within the score tolerance, not bit for bit.
    """
    indices, scores = np.asarray(result.indices), np.asarray(result.scores)
    if indices.shape[0] != min(top_k, pool.shape[0]) or not ranking_ordered(indices, scores):
        return False
    position = {int(item): pos for pos, item in enumerate(pool)}
    if any(int(item) not in position for item in indices):
        return False
    taken = np.array([position[int(item)] for item in indices], dtype=np.int64)
    if not _close(scores, pool_scores[taken]):
        return False
    left_out = np.ones(pool.shape[0], dtype=bool)
    left_out[taken] = False
    if not left_out.any():
        return True
    floor = pool_scores[taken].min()
    scale = max(1.0, float(np.abs(pool_scores).max()))
    return bool(pool_scores[left_out].max() <= floor + SCORE_RTOL * scale)


def same_result(a, b) -> bool:
    return bool(np.array_equal(a.indices, b.indices) and np.array_equal(a.scores, b.scores))


def hqx_bytes(count: int, dim: int, num_books: int, book_size: int) -> int:
    """HQX1 size: 24 + 8 N ceil(n/64) + 4 m k n + 2 N m bytes."""
    return 24 + 8 * count * (-(-dim // 64)) + 4 * num_books * book_size * dim + 2 * count * num_books


def losses_sound(losses) -> bool:
    values = np.asarray(losses, dtype=np.float64)
    return bool(values.shape[0] >= 2 and np.isfinite(values).all() and values[-1] < values[0])


def mean_average_precision(rankings, query_clusters: np.ndarray, item_clusters: np.ndarray,
                           cutoff: int) -> float:
    """MAP@cutoff with 'same cluster' as relevance; AP is normalised by min(|relevant|, cutoff)."""
    sizes = np.bincount(item_clusters, minlength=int(query_clusters.max()) + 1)
    ranks = np.arange(1, cutoff + 1, dtype=np.float64)
    total = 0.0
    for ranking, cluster in zip(rankings, query_clusters):
        hits = item_clusters[np.asarray(ranking.indices)[:cutoff]] == cluster
        precision = np.cumsum(hits) / ranks[: hits.shape[0]]
        total += float((precision * hits).sum()) / min(int(sizes[cluster]), cutoff)
    return total / len(query_clusters)
