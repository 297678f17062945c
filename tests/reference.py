"""Per-row reference formulas that the tests compare the library against.

The library computes the four loss terms row-vectorised (`trainer.total_loss`,
`loss_gradients` and `train`'s per-epoch loss), packs signs without ever
unpacking them, scans Hamming distances and asymmetric scores a whole
database at a time (`hamming_distances`, `aqd_scores`), and builds pair
similarity flags a whole array at a time (`generate_pairs`).  These are the
same definitions written one row or one pair at a time.  Index arguments go
through the library's own checks (`features.one_index`,
`features.index_array`, `quantizer.reconstruct`), so a bad index raises
`IndexOutOfRange` here as it does in the library.
"""

import numpy as np

from hashquant.errors import DimMismatch, IndexOutOfRange
from hashquant.features import LabelSet, index_array, one_index
from hashquant.hashing import PackedCodes
from hashquant.quantizer import LookupTable, QuantizerModel, reconstruct


def _sign(values: np.ndarray) -> np.ndarray:
    return np.where(values >= 0, 1.0, -1.0)


def sim_loss(f_i: np.ndarray, f_j: np.ndarray, s_ij: int) -> float:
    """Cross-entropy on the inner product: softplus(<f_i, f_j>) - s * <f_i, f_j>."""
    z = float(np.asarray(f_i, dtype=np.float64).reshape(-1) @ np.asarray(f_j, dtype=np.float64).reshape(-1))
    softplus = max(z, 0.0) + np.log1p(np.exp(-abs(z)))  # log(1 + e^z) without overflow
    return float(softplus - s_ij * z)


def hash_loss(f: np.ndarray) -> float:
    """Squared distance from the row to its own sign pattern, with sign(0) = +1."""
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    diff = f - _sign(f)
    return float(diff @ diff)


def balance_loss(f: np.ndarray) -> float:
    """Squared component sum; zero when +1s and -1s are used evenly."""
    return float(np.asarray(f, dtype=np.float64).sum() ** 2)


def quant_loss_term(f: np.ndarray, model: QuantizerModel, indices) -> float:
    """Squared reconstruction residual for one row under fixed indicators."""
    diff = np.asarray(f, dtype=np.float64).reshape(-1) - reconstruct(model, np.reshape(indices, (1, -1)))[0]
    return float(diff @ diff)


def unpack_signs(codes: PackedCodes) -> np.ndarray:
    """Expand packed codes back to a float {-1, +1} matrix of shape (N, dim)."""
    as_bytes = np.ascontiguousarray(codes.words, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, : codes.dim]
    return bits.astype(np.float64) * 2.0 - 1.0


def pair_labels(labels_a: LabelSet, labels_b: LabelSet, i: int, j: int) -> int:
    """1 when items i (modality A) and j (modality B) share any label, else 0."""
    shared = labels_a.masks[one_index(i, labels_a.count)] & labels_b.masks[one_index(j, labels_b.count)]
    return int(bool(shared))


def hamming_distance(codes_x: PackedCodes, codes_y: PackedCodes, i: int = 0, j: int = 0) -> int:
    """Number of differing bit positions between code i of x and code j of y."""
    if codes_x.dim != codes_y.dim:
        raise DimMismatch(f"code dims differ: {codes_x.dim} vs {codes_y.dim}")
    diff = codes_x.words[one_index(i, codes_x.count)] ^ codes_y.words[one_index(j, codes_y.count)]
    return int(np.bitwise_count(diff).sum())


def aqd(table: LookupTable, item_indices) -> float:
    """Asymmetric similarity of the table's query to one quantized item, added in book order."""
    indices = index_array(item_indices, table.book_size).reshape(-1)
    if indices.shape[0] != table.num_books:
        raise IndexOutOfRange(
            f"expected {table.num_books} indices (one per book), got {indices.shape[0]}"
        )
    return float(table.values[np.arange(table.num_books), indices].sum())


def quantization_residual_norm(feature: np.ndarray, model: QuantizerModel, indices) -> float:
    """Euclidean norm of one item's reconstruction residual."""
    feature = np.asarray(feature, dtype=np.float64).reshape(-1)
    if feature.shape[0] != model.dim:
        raise DimMismatch(f"feature has dim {feature.shape[0]}, model has dim {model.dim}")
    approx = reconstruct(model, np.reshape(indices, (1, -1)))[0]
    return float(np.linalg.norm(feature - approx))
