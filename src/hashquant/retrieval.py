"""Immutable retrieval index and the two-stage query plus baseline modes.

A query runs in two stages: its sign code filters the database down to a
small candidate set by Hamming distance, then a per-query lookup table
re-ranks the candidates by asymmetric quantizer similarity against their
codebook reconstructions.  The quantization-only, hash-only, and cosine
(lossless) modes answer the same question with a single stage each, which
makes them both baselines and oracles for the endpoint cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binfile import read_file, write_file
from .errors import CountMismatch, DimMismatch, NonFiniteValue, ZeroNormVector
from .features import _query_rows, _trusted, feature_values, frozen_copy, index_array
from .hashing import (
    PackedCodes,
    _distance_block,
    check_count,
    hamming_distances,
    hamming_top_candidates,
    nearest_first,
    sign_encode,
    words_per_code,
)
from .quantizer import IndicatorSet, QuantizerModel, _table_block, aqd_scores, build_lookup_table

INDEX_MAGIC = b"HQX1"
INDEX_VERSION = 1
DEFAULT_CANDIDATES = 100


@dataclass(frozen=True)
class RetrievalIndex:
    """Hash codes + quantizer + indicators for one modality's database."""

    codes: PackedCodes
    quantizer: QuantizerModel
    indicators: IndicatorSet
    modality: str = ""

    def __post_init__(self):
        if self.codes.count != self.indicators.count:
            raise CountMismatch(
                f"{self.codes.count} hash codes but {self.indicators.count} indicator rows"
            )
        if self.codes.dim != self.quantizer.dim:
            raise DimMismatch(
                f"hash codes have dim {self.codes.dim}, quantizer has dim {self.quantizer.dim}"
            )
        if self.indicators.num_books != self.quantizer.num_books:
            raise DimMismatch("indicators and quantizer disagree on book count")
        if self.indicators.book_size != self.quantizer.book_size:
            raise DimMismatch("indicators and quantizer disagree on book size")

    @property
    def count(self) -> int:
        return self.codes.count

    @property
    def dim(self) -> int:
        return self.codes.dim


@dataclass(frozen=True)
class RankedResult:
    """Item indices with scores, strictly ordered by (score desc, index asc)."""

    indices: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        indices = frozen_copy(index_array(self.indices), np.int64)
        scores = frozen_copy(self.scores, np.float64)
        if indices.shape != scores.shape or indices.ndim != 1:
            raise ValueError("indices and scores must be equal-length 1-D arrays")
        if indices.shape[0] > 1:
            diffs = scores[1:] - scores[:-1]  # np.diff's arithmetic, without its per-call cost
            if (diffs > 0).any():
                raise ValueError("scores must be non-increasing")
            if (indices[1:] <= indices[:-1])[diffs == 0].any():
                raise ValueError("tied scores must keep ascending item order")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return self.indices.shape[0]


def build_index(
    features,
    quantizer: QuantizerModel,
    indicators: IndicatorSet,
    modality: str = "",
) -> RetrievalIndex:
    """Sign-encode the database features and bundle them with their codes."""
    values = feature_values(features)
    if values.shape[1] != quantizer.dim:
        raise DimMismatch(f"features have dim {values.shape[1]}, quantizer has dim {quantizer.dim}")
    if values.shape[0] != indicators.count:
        raise CountMismatch(f"{values.shape[0]} feature rows but {indicators.count} indicator rows")
    return RetrievalIndex(
        codes=sign_encode(values),
        quantizer=quantizer,
        indicators=indicators,
        modality=modality,
    )


def _finite_query_row(query_feature, dim: int) -> np.ndarray:
    """The query row for the modes without a hash stage; sign_encode rejects NaN and inf in the others."""
    row = _query_rows(query_feature, dim, single=True)[0]
    if not np.isfinite(row).all():
        raise NonFiniteValue("query contains non-finite values")
    return row


def two_stage_query(
    query_feature,
    index: RetrievalIndex,
    candidates: int = DEFAULT_CANDIDATES,
    top_k: int = 10,
) -> RankedResult:
    """Hamming filter to `candidates` items, then asymmetric re-ranking.

    Stage one sign-encodes the query and keeps the `candidates` items with
    the smallest Hamming distance (ties by ascending index).  Stage two
    builds one lookup table and returns the `top_k` candidates by descending
    quantizer similarity, again breaking ties by ascending index.
    """
    rows = _query_rows(query_feature, index.dim, single=True)
    query_codes = sign_encode(rows)
    # in index order, the stable select below breaks score ties by index
    shortlist = np.sort(hamming_top_candidates(query_codes, index.codes, candidates))
    check_count("top_k", top_k, candidates)
    table = build_lookup_table(rows[0], index.quantizer)
    scores = aqd_scores(table, index.indicators, items=shortlist)
    chosen = nearest_first(-scores, top_k)
    return _trusted(RankedResult, indices=shortlist[chosen], scores=scores[chosen])


def _two_stage_rows(queries: np.ndarray, index: RetrievalIndex, candidates: int, top_k: int) -> list[RankedResult]:
    """[two_stage_query(q, index, candidates, top_k) for q in queries], bit for bit, a block at a time.

    One sign_encode and one (Q, N) distance block make the first stage;
    the second takes every row's table from one product, each row's the
    same as build_lookup_table's, and gathers the (Q, candidates) scores
    book by book, the additions aqd_scores makes.  The error raised is the
    per-row loop's first: a row's sign code, then the counts, then its table.
    """
    count = queries.shape[0]
    if not count:
        return []
    finite = np.isfinite(queries).all(axis=1)
    good = count if finite.all() else int(finite.argmin())
    if good:
        check_count("candidates", candidates, index.count)
        check_count("top_k", top_k, candidates)
    num_books, book_size = index.quantizer.num_books, index.quantizer.book_size
    tables = _table_block(queries[:good], index.quantizer).reshape(-1)  # row-major (Q, m, k)
    query_codes = sign_encode(queries)  # a non-finite row `good` raises here
    dists = _distance_block(query_codes.words, index.codes.words)
    shortlists = np.sort(nearest_first(dists, candidates), axis=1)
    columns = index.indicators.indices.T  # (m, N), each book's column contiguous
    offsets = np.arange(0, count * num_books * book_size, num_books * book_size)[:, None]
    scores = tables.take(columns[0].take(shortlists) + offsets)
    for book in range(1, num_books):
        scores += tables.take(columns[book].take(shortlists) + (offsets + book * book_size))
    chosen = nearest_first(-scores, top_k)
    indices = np.take_along_axis(shortlists, chosen, axis=1)
    scores = np.take_along_axis(scores, chosen, axis=1)
    for block in (indices, scores):
        block.setflags(write=False)  # each result's arrays are read-only rows of these blocks
    return [_trusted(RankedResult, indices=i, scores=s) for i, s in zip(indices, scores)]


def full_aqd_query(query_feature, index: RetrievalIndex, top_k: int = 10) -> RankedResult:
    """Asymmetric quantizer similarity against every item (no hash filter)."""
    row = _finite_query_row(query_feature, index.dim)
    check_count("top_k", top_k, index.count)
    table = build_lookup_table(row, index.quantizer)
    scores = aqd_scores(table, index.indicators)
    chosen = nearest_first(-scores, top_k)
    return _trusted(RankedResult, indices=chosen, scores=scores[chosen])


def hash_only_query(query_feature, index: RetrievalIndex, top_k: int = 10) -> RankedResult:
    """Rank by ascending Hamming distance only; score is minus the distance."""
    query_codes = sign_encode(_query_rows(query_feature, index.dim, single=True))
    check_count("top_k", top_k, index.count)
    dists = hamming_distances(query_codes, index.codes)
    chosen = nearest_first(dists, top_k)
    return _trusted(RankedResult, indices=chosen, scores=-dists[chosen].astype(np.float64))


def _cosine_database(database_features) -> tuple[np.ndarray, np.ndarray]:
    """The float64 database and its row norms: the query-independent half of a lossless query."""
    database = np.asarray(feature_values(database_features), dtype=np.float64)
    norms = np.linalg.norm(database, axis=1)
    if (norms == 0).any():
        raise ZeroNormVector(f"database row {int(np.flatnonzero(norms == 0)[0])} has zero norm")
    return database, norms


def _cosine_ranking(query_feature, database: np.ndarray, norms: np.ndarray, top_k: int) -> RankedResult:
    """The top_k rows of a _cosine_database by cosine similarity to the query."""
    row = _finite_query_row(query_feature, database.shape[1])
    check_count("top_k", top_k, database.shape[0])
    query_norm = np.linalg.norm(row)
    if query_norm == 0:
        raise ZeroNormVector("query vector has zero norm")
    scores = (database @ row) / (norms * query_norm)
    chosen = nearest_first(-scores, top_k)
    return _trusted(RankedResult, indices=chosen, scores=scores[chosen])


def save_index(index: RetrievalIndex, path) -> None:
    """Write the index in the HQX1 layout.

    Header (magic, version, N, n, m, k as u32 LE), then the packed hash
    words (u64 LE, row-major), the codebooks as float32 (book-major,
    column-major within each book), and the indicators as u16 LE.  The
    float32 codebooks and the absent `modality` are part of the format:
    a loaded index scores with the float32-rounded codebooks.
    """
    quantizer = index.quantizer
    header = (INDEX_VERSION, index.count, index.dim, quantizer.num_books, quantizer.book_size)
    # (m, n, k) -> column-major per book means writing (m, k, n) row-major
    arrays = [
        index.codes.words.astype("<u8", copy=False),
        quantizer.codebooks.transpose(0, 2, 1).astype("<f4"),
        index.indicators.indices.astype("<u2"),
    ]
    write_file(path, INDEX_MAGIC, header, arrays)


def _index_layout(version, count, dim, num_books, book_size):
    return [
        ("<u8", count * words_per_code(dim)),
        ("<f4", num_books * book_size * dim),
        ("<u2", count * num_books),
    ]


def load_index(path) -> RetrievalIndex:
    """Read an HQX1 file back; bit-exact inverse of save_index."""
    header, (words, books, indices) = read_file(path, INDEX_MAGIC, 5, _index_layout, INDEX_VERSION)
    _, count, dim, num_books, book_size = header
    books = books.reshape(num_books, book_size, dim).transpose(0, 2, 1)
    return RetrievalIndex(
        codes=PackedCodes(dim=dim, words=words.reshape(count, words_per_code(dim))),
        quantizer=QuantizerModel(codebooks=books),
        indicators=IndicatorSet(book_size=book_size, indices=indices.reshape(count, num_books)),
    )
