"""Multi-codebook additive quantizer and asymmetric-distance machinery.

Each item is approximated by a sum of one column from each of m codebooks
(n x k each).  Codebooks come from a closed-form least-squares update with
indicators fixed; indicators come from per-book coordinate descent with
codebooks fixed, which is the exact exhaustive search when m = 1.  Queries
never get quantized: a per-query lookup table of query-column dot products
turns each item's similarity into m table additions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CountMismatch, DimMismatch, IndexOutOfRange, NonFiniteValue, NotEnoughItems, SingularSystem
from .features import _trusted, feature_values, frozen_copy, index_array
from .pool import _mac_workers, _row_slices

MAX_BOOK_SIZE = 65536
_RIDGE = 1e-8


@dataclass(frozen=True)
class QuantizerModel:
    """m codebooks of shape (dim, book_size); column j of book l is one atom."""

    codebooks: np.ndarray

    def __post_init__(self):
        books = frozen_copy(self.codebooks, np.float64)
        if books.ndim != 3:
            raise ValueError(f"codebooks must have shape (m, dim, k), got {books.shape}")
        m, _, k = books.shape
        if m < 1:
            raise ValueError("need at least one codebook")
        if not 1 <= k <= MAX_BOOK_SIZE:
            raise ValueError(f"book size must be in [1, {MAX_BOOK_SIZE}], got {k}")
        if not np.isfinite(books).all():
            raise ValueError("codebooks contain non-finite values")
        object.__setattr__(self, "codebooks", books)

    @property
    def num_books(self) -> int:
        return self.codebooks.shape[0]

    @property
    def dim(self) -> int:
        return self.codebooks.shape[1]

    @property
    def book_size(self) -> int:
        return self.codebooks.shape[2]


@dataclass(frozen=True)
class IndicatorSet:
    """One column index per (item, book), held uint16 and column-major (book-contiguous)."""

    book_size: int
    indices: np.ndarray

    def __post_init__(self):
        if not 1 <= self.book_size <= MAX_BOOK_SIZE:
            raise ValueError(f"book size must be in [1, {MAX_BOOK_SIZE}], got {self.book_size}")
        given = np.asarray(self.indices)
        if given.ndim != 2:
            raise ValueError(f"indices must have shape (count, m), got {given.shape}")
        # range-check before the narrowing cast, which would wrap -1 or 65536
        indices = frozen_copy(index_array(given, self.book_size), np.uint16, order="F")
        object.__setattr__(self, "indices", indices)

    @property
    def count(self) -> int:
        return self.indices.shape[0]

    @property
    def num_books(self) -> int:
        return self.indices.shape[1]


@dataclass(frozen=True)
class LookupTable:
    """Per-query dot products with every codebook column, shape (m, k)."""

    values: np.ndarray

    def __post_init__(self):
        values = frozen_copy(self.values, np.float64)
        if values.ndim != 2:
            raise ValueError(f"lookup table must be 2-D, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("lookup table contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def num_books(self) -> int:
        return self.values.shape[0]

    @property
    def book_size(self) -> int:
        return self.values.shape[1]


def _as_float_matrix(features) -> np.ndarray:
    return np.asarray(feature_values(features), dtype=np.float64)


def _column_scores(targets: np.ndarray, book: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """||t - c||^2 - ||t||^2 for every target row t and column c of `book`."""
    # ||t - c||^2 = ||t||^2 - 2 t.c + ||c||^2; the ||t||^2 term is rank-free
    scores = targets @ book
    scores *= -2.0
    scores += norms
    return scores


def _nearest_columns(targets: np.ndarray, book: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Index of the squared-distance-nearest column of `book` per target row."""
    return _column_scores(targets, book, norms).argmin(axis=1)


def _exact_rows(dim: int, book_size: int) -> int:
    """Fewest rows whose product with one (dim, book_size) book rounds like a larger product's rows.

    A row of `targets[rows] @ book` rounds like the same row of the full
    product only when BLAS runs the same kernel for both: numpy sends one row
    to gemv, and OpenBLAS sends products of at most 100**3 multiply-adds to a
    small-matrix kernel, which sums dot products longer than 384 in another
    order.  2**20 multiply-adds clears that cut-off.
    """
    return max(2, -(-(1 << 20) // (dim * book_size)))


def _sweep_rows(active: np.ndarray, n_items: int, dim: int, book_size: int) -> np.ndarray:
    """The sorted `active` rows, padded with low rows up to the fewest an exact product needs.

    Rows outside `active` are at a fixed point, so sweeping them again leaves
    them unchanged.
    """
    floor = min(n_items, _exact_rows(dim, book_size))
    if active.size >= floor:
        return active
    return np.union1d(active, np.arange(floor))


def reconstruct(model: QuantizerModel, indices: np.ndarray) -> np.ndarray:
    """Sum of the selected columns for each row of `indices` (shape (N, m))."""
    indices = np.atleast_2d(index_array(indices, model.book_size))
    if indices.shape[1] != model.num_books:
        raise IndexOutOfRange(f"expected {model.num_books} indices (one per book), got {indices.shape[1]}")
    out = model.codebooks[0][:, indices[:, 0]].T.copy()
    for book in range(1, model.num_books):
        out += model.codebooks[book][:, indices[:, book]].T
    return out


def init_codebooks(features, num_books: int, book_size: int, seed: int) -> QuantizerModel:
    """Seed codebooks from data: sampled rows for book 1, then sampled residuals.

    Greedy assignment to each finished book produces the residuals that seed
    the next one, so later books start on what earlier books cannot express.
    """
    values = _as_float_matrix(features)
    n_items, dim = values.shape
    if n_items < book_size:
        raise NotEnoughItems(f"need at least {book_size} items to seed a book, got {n_items}")
    rng = np.random.default_rng(seed)
    books = np.empty((num_books, dim, book_size))
    residual = values.copy()
    for book in range(num_books):
        sampled = rng.choice(n_items, size=book_size, replace=False)
        books[book] = residual[sampled].T
        chosen = _nearest_columns(residual, books[book], (books[book] * books[book]).sum(axis=0))
        residual -= books[book][:, chosen].T
    return QuantizerModel(codebooks=books)


def assign_indicators(
    features,
    model: QuantizerModel,
    prev: IndicatorSet | None = None,
    max_rounds: int = 3,
) -> IndicatorSet:
    """Choose per-item indicators by coordinate descent over the books.

    Each sweep revisits books in order, picking the column that minimizes the
    item's residual with the other books' current choices held fixed, so the
    per-item objective never increases relative to `prev`.  With one book a
    single sweep is the exhaustive minimizer.  Without `prev`, the first
    sweep assigns greedily (earlier books only), which counts toward
    max_rounds; sweeping stops early once no index changes.  Rows are
    independent, so after the first full sweep each sweep revisits only the
    rows whose indices moved in the previous one, with the same result, and
    a call whose contiguous row slices each keep pool.MIN_SLICE_MACS
    multiply-adds runs them on a thread pool of up to the usable CPUs.
    """
    values = _as_float_matrix(features)
    n_items, dim = values.shape
    if dim != model.dim:
        raise DimMismatch(f"features have dim {dim}, model has dim {model.dim}")
    if not np.isfinite(values).all():
        raise NonFiniteValue("features contain non-finite values")
    num_books = model.num_books
    if prev is not None:
        if (prev.num_books, prev.book_size) != (num_books, model.book_size):
            raise DimMismatch(
                f"previous indicators have {prev.num_books} books of {prev.book_size} columns, "
                f"model has {num_books} of {model.book_size}"
            )
        if prev.count != n_items:
            raise CountMismatch(
                f"previous indicators are {prev.count}x{prev.num_books}, expected {n_items}x{num_books}"
            )
    # book-major rows turn each gather into row copies (per call; reconstruct runs per minibatch)
    rows = model.codebooks.transpose(0, 2, 1).copy()
    norms = [(book * book).sum(axis=0) for book in model.codebooks]

    def assign(lo: int, hi: int) -> np.ndarray:
        part_prev = None if prev is None else prev.indices[lo:hi]
        return _assign_rows(values[lo:hi], model, rows, norms, part_prev, max_rounds)

    # every slice keeps a product above the small-matrix cut-off (_sweep_rows)
    workers = _mac_workers(n_items, dim * model.book_size * num_books, _exact_rows(dim, model.book_size))
    parts = _row_slices(assign, n_items, workers)
    indices = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return IndicatorSet(book_size=model.book_size, indices=indices)


def _assign_rows(
    values: np.ndarray,
    model: QuantizerModel,
    rows: np.ndarray,
    norms: list[np.ndarray],
    prev_indices: np.ndarray | None,
    max_rounds: int,
) -> np.ndarray:
    """assign_indicators' coordinate descent over `values`, given book-major `rows` and column `norms`."""
    n_items, dim = values.shape
    num_books = model.num_books
    if prev_indices is not None:
        indices = prev_indices.astype(np.int64)
        approx = rows[0][indices[:, 0]]
        for book in range(1, num_books):
            approx += rows[book][indices[:, book]]
        rounds_left = max_rounds
    else:
        indices = np.zeros((n_items, num_books), dtype=np.int64)
        residual = values.copy()
        for book in range(num_books):
            chosen = _nearest_columns(residual, model.codebooks[book], norms[book])
            indices[:, book] = chosen
            residual -= rows[book][chosen]
        approx = values - residual
        rounds_left = max_rounds - 1

    active = None  # rows to revisit; None is every row
    for _ in range(max(0, rounds_left)):
        if active is None:
            sweep = slice(None)  # views: updates land in place
        else:
            sweep = _sweep_rows(active, n_items, dim, model.book_size)
        part_values, part_approx, part_indices = values[sweep], approx[sweep], indices[sweep]
        moved = np.zeros(part_values.shape[0], dtype=bool)
        for book in range(num_books):
            current = rows[book][part_indices[:, book]]
            target = part_values - part_approx + current
            chosen = _nearest_columns(target, model.codebooks[book], norms[book])
            changed = chosen != part_indices[:, book]
            if changed.any():
                moved |= changed
                part_approx += rows[book][chosen] - current
                part_indices[:, book] = chosen
        if active is None:
            active = np.flatnonzero(moved)
        else:
            approx[sweep] = part_approx
            indices[sweep] = part_indices
            active = sweep[moved]
        if not active.size:
            break
    return indices


def _one_hot_stats(
    values: np.ndarray, indices: np.ndarray, num_books: int, book_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate F B^T (dim x mk) and the Gram B B^T (mk x mk)."""
    dim = values.shape[1]
    mk = num_books * book_size
    rhs = np.empty((dim, mk))
    gram = np.zeros((mk, mk))
    columns = indices.astype(np.int64).T  # (m, N)
    coordinates, weights = np.arange(dim), values.ravel()
    blocks = [slice(book * book_size, (book + 1) * book_size) for book in range(num_books)]
    for b1 in range(num_books):
        # cell (column, coordinate) sums its rows in row order, as np.add.at does
        cells = (columns[b1][:, None] * dim + coordinates).ravel()
        block = np.bincount(cells, weights=weights, minlength=book_size * dim)
        rhs[:, blocks[b1]] = block.reshape(book_size, dim).T
        for b2 in range(b1, num_books):
            joint = np.bincount(
                columns[b1] * book_size + columns[b2], minlength=book_size * book_size
            ).reshape(book_size, book_size)
            gram[blocks[b1], blocks[b2]] = joint
            gram[blocks[b2], blocks[b1]] = joint.T
    return rhs, gram


def _modality_values(*features) -> list[np.ndarray]:
    """The given modalities (None skipped) as float matrices that share one dimension."""
    values = [_as_float_matrix(part) for part in features if part is not None]
    if any(part.shape[1] != values[0].shape[1] for part in values[1:]):
        raise DimMismatch("modalities disagree on feature dimension")
    return values


def _solve_codebooks(values: list[np.ndarray], indicators: list[IndicatorSet], ridge: float) -> QuantizerModel:
    """Least-squares codebooks for the stacked one-hot indicators, statistics summed in modality order."""
    num_books, book_size = indicators[0].num_books, indicators[0].book_size
    rhs = gram = None
    for part, assigned in zip(values, indicators):
        if (assigned.num_books, assigned.book_size) != (num_books, book_size):
            raise DimMismatch("modalities disagree on quantizer shape")
        if assigned.count != part.shape[0]:
            raise CountMismatch(f"{part.shape[0]} feature rows but {assigned.count} indicator rows")
        part_rhs, part_gram = _one_hot_stats(part, assigned.indices, num_books, book_size)
        if rhs is None:
            rhs, gram = part_rhs, part_gram
        else:
            rhs += part_rhs
            gram += part_gram
    if ridge:
        gram[np.diag_indices_from(gram)] += ridge
    try:
        chol = scipy.linalg.cho_factor(gram, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"indicator Gram matrix is singular: {exc}") from exc
    solution = scipy.linalg.cho_solve(chol, rhs.T, check_finite=False).T
    dim = values[0].shape[1]
    return QuantizerModel(codebooks=solution.reshape(dim, num_books, book_size).transpose(1, 0, 2))


def update_codebooks(
    features_a,
    indicators_a: IndicatorSet,
    features_b=None,
    indicators_b: IndicatorSet | None = None,
    ridge: float = _RIDGE,
) -> QuantizerModel:
    """Closed-form codebook update for fixed indicators.

    Solves the joint least-squares system over the stacked one-hot indicator
    matrices of one or two modalities; ridge * I is added to the Gram before
    the Cholesky solve, which keeps the system definite when some columns
    received no assignments (those columns shrink toward zero).
    """
    if features_b is not None and indicators_b is None:
        raise ValueError("features_b given without indicators_b")
    if indicators_b is not None and features_b is None:
        raise ValueError("indicators_b given without features_b")
    values = _modality_values(features_a, features_b)
    return _solve_codebooks(values, [indicators_a, indicators_b][: len(values)], ridge)


def quantization_objective(features, model: QuantizerModel, indicators: IndicatorSet) -> float:
    """Total squared reconstruction error over all items."""
    values = _as_float_matrix(features)
    residual = values - reconstruct(model, indicators.indices)
    return float((residual * residual).sum())


@dataclass(frozen=True)
class QuantizerFit:
    """Result of alternating learning: model, per-modality indicators, objectives."""

    model: QuantizerModel
    indicators_a: IndicatorSet
    indicators_b: IndicatorSet | None
    objectives: tuple[float, ...]


def learn_quantizer(
    features_a,
    features_b=None,
    *,
    num_books: int,
    book_size: int,
    alternations: int = 10,
    seed: int = 0,
) -> QuantizerFit:
    """Alternate closed-form codebook updates with indicator reassignment.

    Initialization seeds the books from the stacked modalities, then each
    alternation runs one codebook update and one indicator reassignment per
    modality.  The objective sequence (summed over the modalities) is
    non-increasing, and alternation stops early once no indicator changes.
    """
    values = _modality_values(features_a, features_b)
    model = init_codebooks(np.vstack(values), num_books, book_size, seed)
    indicators = [assign_indicators(part, model) for part in values]

    def objective() -> float:
        return sum(quantization_objective(part, model, assigned) for part, assigned in zip(values, indicators))

    objectives = [objective()]
    for _ in range(alternations):
        model = _solve_codebooks(values, indicators, _RIDGE)
        refreshed = [assign_indicators(part, model, prev) for part, prev in zip(values, indicators)]
        unchanged = all((new.indices == old.indices).all() for new, old in zip(refreshed, indicators))
        indicators = refreshed
        objectives.append(objective())
        if unchanged:
            break
    indicators_a, indicators_b = [*indicators, None][:2]
    return QuantizerFit(model, indicators_a, indicators_b, tuple(objectives))


def build_lookup_table(query: np.ndarray, model: QuantizerModel) -> LookupTable:
    """Dot products of one query row with every codebook column (m x k)."""
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != model.dim:
        raise DimMismatch(f"query has dim {query.shape[0]}, model has dim {model.dim}")
    values = query @ model.codebooks
    # finite factors can still overflow to inf
    if not np.isfinite(values).all():
        raise NonFiniteValue("lookup table contains non-finite values")
    return _trusted(LookupTable, values=values)


def aqd_scores(table: LookupTable, indicators: IndicatorSet, items: np.ndarray | None = None) -> np.ndarray:
    """Each item's asymmetric similarity to the table's query: one table take per book, added in book order."""
    if indicators.num_books != table.num_books or indicators.book_size != table.book_size:
        raise DimMismatch("indicator shape does not match lookup table")
    columns = indicators.indices.T  # (m, N), each book's column contiguous
    if items is not None:
        columns = columns[:, items]
    scores = table.values[0].take(columns[0])
    for book in range(1, table.num_books):
        scores += table.values[book].take(columns[book])
    return scores
