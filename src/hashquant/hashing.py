"""Sign-based binary codes, bit packing, and Hamming-distance search.

Codes live in {-1, +1}^n but are stored packed: bit d of an item's code is
1 exactly when component d is +1, with sign(x) = +1 for x >= 0.  Bit d sits
in word d // 64 at position d % 64, and padding bits above n are zero, so
distances reduce to XOR plus population count over whole words.  Distances
are uint16, which bounds the code dimension at MAX_CODE_DIM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NonFiniteValue, TooManyCandidates
from .features import _trusted, feature_values, frozen_copy

WORD_BITS = 64
MAX_CODE_DIM = np.iinfo(np.uint16).max


def words_per_code(dim: int) -> int:
    return -(-dim // WORD_BITS)


def _check_dim(dim: int) -> None:
    if not 1 <= dim <= MAX_CODE_DIM:
        raise ValueError(f"code dimension must be in [1, {MAX_CODE_DIM}], got {dim}")


@dataclass(frozen=True)
class PackedCodes:
    """N packed sign codes of dim bits each, (N, W) uint64 words stored word-major."""

    dim: int
    words: np.ndarray

    def __post_init__(self):
        words = frozen_copy(self.words, np.uint64, order="F")
        if words.ndim != 2:
            raise ValueError(f"packed words must be 2-D, got shape {words.shape}")
        _check_dim(self.dim)
        if words.shape[1] != words_per_code(self.dim):
            raise ValueError(
                f"dim {self.dim} needs {words_per_code(self.dim)} words per code, "
                f"got {words.shape[1]}"
            )
        pad_bits = words.shape[1] * WORD_BITS - self.dim
        if pad_bits and words.shape[0]:
            if (words[:, -1] >> np.uint64(WORD_BITS - pad_bits)).any():
                raise ValueError("padding bits above dim must be zero")
        object.__setattr__(self, "words", words)

    @property
    def count(self) -> int:
        return self.words.shape[0]


def sign_encode(features) -> PackedCodes:
    """Pack the sign pattern of each feature row, with sign(0) = +1."""
    values = feature_values(features)
    if not np.isfinite(values).all():
        raise NonFiniteValue("features contain non-finite values")
    n_items, dim = values.shape
    _check_dim(dim)
    packed = np.packbits(values >= 0, axis=1, bitorder="little")
    n_bytes = words_per_code(dim) * (WORD_BITS // 8)
    if packed.shape[1] < n_bytes:
        # whole words from one zeroed buffer: the bytes past the packed bits are the zero padding
        buffer = np.zeros((n_items, n_bytes), dtype=np.uint8)
        buffer[:, : packed.shape[1]] = packed
        packed = buffer
    # one row, or one word per code, is already word-major; only larger blocks are copied
    words = np.asfortranarray(packed.view("<u8").astype(np.uint64, copy=False))
    return _trusted(PackedCodes, dim=dim, words=words)


def hamming_distances(query: PackedCodes, database: PackedCodes) -> np.ndarray:
    """Hamming distance (uint16) from a single query code to every database code.

    Words are word-major, so each per-column pass reads contiguous memory;
    this is the full-scan first stage, so it must stay close to memory bandwidth.
    """
    if query.dim != database.dim:
        raise DimMismatch(f"code dims differ: {query.dim} vs {database.dim}")
    if query.count != 1:
        raise ValueError(f"expected exactly one query code, got {query.count}")
    words = database.words
    q = query.words[0]
    dists = np.bitwise_count(words[:, 0] ^ q[0]).astype(np.uint16)
    for col in range(1, words.shape[1]):
        dists += np.bitwise_count(words[:, col] ^ q[col])
    return dists


def nearest_first(dists: np.ndarray, count: int) -> np.ndarray:
    """Positions of the `count` smallest keys (distances, or negated scores), by (key, index)."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if 2 * count >= len(dists):
        # keeping half the keys or more, one stable sort costs less than partition, pool and sort
        return np.argsort(dists, kind="stable")[:count]
    cut = np.partition(dists, count - 1)[count - 1]
    # the pool is in index order, so a stable sort by distance breaks ties by index
    pool = np.flatnonzero(dists <= cut)
    return pool[np.argsort(dists[pool], kind="stable")[:count]]


def check_count(name: str, count: int, available: int) -> None:
    """`count` (a `top_k` or `candidates`) is an integer between 0 and `available`."""
    if not isinstance(count, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {count!r}")
    if count < 0:
        raise ValueError(f"{name} must be non-negative, got {count}")
    if count > available:
        raise TooManyCandidates(f"{name} {count} exceeds the {available} items available")


def hamming_top_candidates(query: PackedCodes, database: PackedCodes, candidates: int) -> np.ndarray:
    """Indices of the `candidates` codes closest to the query.

    Selection is exact: ties in distance break by ascending item index, and
    the output is ordered by (distance, index).
    """
    check_count("candidates", candidates, database.count)
    return nearest_first(hamming_distances(query, database), candidates)
