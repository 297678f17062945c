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
    # C order, so that whole rows of bytes can be read as words whatever the input's layout
    packed = np.packbits(np.ascontiguousarray(values >= 0), axis=1, bitorder="little")
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


def _distance_block(query_words: np.ndarray, words: np.ndarray) -> np.ndarray:
    """(Q, N) uint16 Hamming distances from Q packed query codes to N word-major database codes.

    The arithmetic of hamming_distances, a block of query rows at a time;
    one query keeps its own loop, whose scalar operands cost less per call.
    """
    # one XOR buffer for every word column: a second large temporary alive at once costs fresh pages
    xor = np.bitwise_xor(words[:, 0], query_words[:, :1])
    dists = np.bitwise_count(xor).astype(np.uint16)
    for col in range(1, words.shape[1]):
        np.bitwise_xor(words[:, col], query_words[:, col : col + 1], out=xor)
        dists += np.bitwise_count(xor)
    return dists


def nearest_first(dists: np.ndarray, count: int) -> np.ndarray:
    """Positions of the `count` smallest keys (distances, or negated scores), by (key, index).

    A 2-D `dists` is a block of rows: row r of the (rows, count) answer is
    the 1-D answer for row r.
    """
    if dists.ndim == 2:
        return _nearest_rows(dists, count)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    if 2 * count >= len(dists):
        # keeping half the keys or more, one stable sort costs less than partition, pool and sort
        return np.argsort(dists, kind="stable")[:count]
    cut = np.partition(dists, count - 1)[count - 1]
    # the pool is in index order, so a stable sort by distance breaks ties by index
    pool = np.flatnonzero(dists <= cut)
    return pool[np.argsort(dists[pool], kind="stable")[:count]]


def _nearest_rows(dists: np.ndarray, count: int) -> np.ndarray:
    """nearest_first for each row of a 2-D block of keys."""
    rows, n_keys = dists.shape
    if count == 0:
        return np.empty((rows, 0), dtype=np.int64)
    shift = (n_keys - 1).bit_length()
    bits = dists.dtype.itemsize * 8 + shift
    if dists.dtype.kind == "u" and bits <= 64:
        # (key << shift) | index is unique per row and orders by (key, index), so a row-wise partition is exact
        packed = dists.astype(np.uint32 if bits <= 32 else np.uint64)
        packed <<= shift
        packed |= np.arange(n_keys, dtype=packed.dtype)
        packed.partition(count - 1, axis=1)  # in place: a partitioned copy would be a second large temporary
        packed = np.sort(packed[:, :count], axis=1)
        packed &= (1 << shift) - 1
        return packed.astype(np.int64)
    return np.argsort(dists, axis=1, kind="stable")[:, :count]


def check_count(name: str, count: int, available: int) -> None:
    """`count` (a `top_k` or `candidates`) is an integer between 0 and `available`."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):  # np.bool_ is no np.integer
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
