"""Per-row reference formulas that the tests compare the library against.

The library computes the four loss terms row-vectorised (`trainer.total_loss`,
`loss_gradients` and `train`'s per-epoch loss), packs signs without ever
unpacking them, and builds pair similarity flags a whole array at a time
(`generate_pairs`).  These are the same definitions written one row or one
pair at a time.  Index arguments go through the library's own checks
(`features.one_index`, `quantizer.reconstruct`), so a bad index raises
`IndexOutOfRange` here as it does in the library.
"""

import numpy as np

from hashquant.features import LabelSet, one_index
from hashquant.hashing import PackedCodes
from hashquant.quantizer import QuantizerModel, reconstruct


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
