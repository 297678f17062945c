"""Dense feature storage, multi-label ground truth, and training pairs.

Features for one modality are float32 matrices with one row per item.
Labels are 64-bit masks, one bit per label, so two items are "similar"
exactly when their masks intersect.  Training pairs combine the aligned
pairs (i, i) with one seeded re-pairing permutation whose pairs are mostly
dissimilar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .binfile import read_file, write_file
from .errors import CountMismatch, IndexOutOfRange, NonFiniteValue, TooManyClusters

FEATURE_MAGIC = b"DFM1"
LABEL_MAGIC = b"LBL1"
MAX_LABELS = 64


@dataclass(frozen=True)
class FeatureMatrix:
    """N x n dense feature rows for one modality, stored float32 row-major."""

    values: np.ndarray

    def __post_init__(self):
        values = frozen_copy(self.values, np.float32)
        if values.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {values.shape}")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"feature matrix must be at least 1x1, got {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("feature matrix contains non-finite values")
        object.__setattr__(self, "values", values)

    @property
    def count(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        return self.values.shape[1]


def feature_values(features) -> np.ndarray:
    """Accept a FeatureMatrix or a plain 2-D array and return the array."""
    if isinstance(features, FeatureMatrix):
        return features.values
    arr = np.asarray(features)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D feature array, got shape {arr.shape}")
    return arr


def frozen_copy(array, dtype, order="C") -> np.ndarray:
    """A private read-only copy of `array`; every value type stores only what this returns."""
    copy = np.array(array, dtype=dtype, order=order)
    copy.setflags(write=False)
    return copy


def index_array(values, upper: int | None = None) -> np.ndarray:
    """`values` as int64 indices in [0, upper), or non-negative ones when `upper` is None.

    A non-integer dtype (bool included) or an index out of range raises
    IndexOutOfRange; an empty input of any dtype passes.  The cast comes
    first, so a uint64 index past the int64 range reads as negative.
    """
    given = np.asarray(values)
    if given.size == 0:
        return given.astype(np.int64)
    if given.dtype.kind not in "iu":
        raise IndexOutOfRange(f"indices must be integers, got {given.dtype}")
    indices = given.astype(np.int64, copy=False)
    if indices.min() < 0:
        raise IndexOutOfRange(f"indices must be non-negative, got {indices.min()}")
    if upper is not None and indices.max() >= upper:
        raise IndexOutOfRange(f"indices must lie in [0, {upper}), got {indices.max()}")
    return indices


def one_index(value, upper: int) -> int:
    """One index in [0, upper), checked as `index_array` checks; a list or array raises IndexOutOfRange."""
    index = index_array(value, upper)
    if index.ndim:
        raise IndexOutOfRange(f"expected one index, got shape {index.shape}")
    return int(index)


@dataclass(frozen=True)
class LabelSet:
    """Per-item 64-bit label masks over a vocabulary of num_labels bits."""

    num_labels: int
    masks: np.ndarray

    def __post_init__(self):
        masks = frozen_copy(self.masks, np.uint64)
        if masks.ndim != 1 or masks.shape[0] < 1:
            raise ValueError(f"masks must be a non-empty 1-D array, got shape {masks.shape}")
        if not 1 <= self.num_labels <= MAX_LABELS:
            raise ValueError(f"num_labels must be in [1, {MAX_LABELS}], got {self.num_labels}")
        if (masks == 0).any():
            raise ValueError("every item needs at least one label bit set")
        if self.num_labels < MAX_LABELS:
            high = masks >> np.uint64(self.num_labels)
            if high.any():
                raise ValueError(f"mask bit set at or above position {self.num_labels}")
        object.__setattr__(self, "masks", masks)

    @property
    def count(self) -> int:
        return self.masks.shape[0]


@dataclass(frozen=True)
class PairBatch:
    """Cross-modal training pairs: (index into A, index into B, similar flag)."""

    index_a: np.ndarray
    index_b: np.ndarray
    similar: np.ndarray

    def __post_init__(self):
        index_a, index_b, similar = (np.asarray(arr) for arr in (self.index_a, self.index_b, self.similar))
        if not (index_a.shape == index_b.shape == similar.shape) or index_a.ndim != 1:
            raise ValueError("pair arrays must be 1-D and equal length")
        if similar.dtype.kind not in "biu":
            raise ValueError(f"similarity labels must be integers or booleans, got {similar.dtype}")
        index_a, index_b = (frozen_copy(index_array(arr), np.int64) for arr in (index_a, index_b))
        if len(similar) and (similar.min() < 0 or similar.max() > 1):
            raise ValueError("similarity labels must be 0 or 1")
        similar = frozen_copy(similar, np.int8)
        object.__setattr__(self, "index_a", index_a)
        object.__setattr__(self, "index_b", index_b)
        object.__setattr__(self, "similar", similar)

    def __len__(self) -> int:
        return self.index_a.shape[0]

    def _subset(self, positions: np.ndarray) -> PairBatch:
        """The pairs at integer `positions`, taken without re-checking: every pair of a checked batch is valid."""
        batch = object.__new__(PairBatch)
        for name in ("index_a", "index_b", "similar"):
            part = getattr(self, name)[positions]
            part.setflags(write=False)
            object.__setattr__(batch, name, part)
        return batch


def save_features(matrix: FeatureMatrix, path) -> None:
    """Write a feature matrix in the DFM1 layout (header + float32 LE payload)."""
    if not isinstance(matrix, FeatureMatrix):
        matrix = FeatureMatrix(np.asarray(matrix))
    write_file(path, FEATURE_MAGIC, (matrix.count, matrix.dim), [matrix.values.astype("<f4", copy=False)])


def load_features(path) -> FeatureMatrix:
    """Read a DFM1 file back into a FeatureMatrix, bit-exact."""
    (count, dim), (values,) = read_file(
        path, FEATURE_MAGIC, 2, lambda count, dim: [("<f4", count * dim)]
    )
    values = values.reshape(count, dim)
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"{path}: payload contains NaN or infinity")
    return FeatureMatrix(values)


def save_labels(labels: LabelSet, path) -> None:
    """Write a label set in the LBL1 layout (header + uint64 LE masks)."""
    write_file(path, LABEL_MAGIC, (labels.count, labels.num_labels), [labels.masks.astype("<u8", copy=False)])


def load_labels(path) -> LabelSet:
    """Read an LBL1 file back into a LabelSet."""
    (_, num_labels), (masks,) = read_file(
        path, LABEL_MAGIC, 2, lambda count, num_labels: [("<u8", count)]
    )
    return LabelSet(num_labels=num_labels, masks=masks)


def _similarity_row(labels_a: LabelSet, labels_b: LabelSet, idx_a, idx_b) -> np.ndarray:
    return ((labels_a.masks[idx_a] & labels_b.masks[idx_b]) != 0).astype(np.int8)


MAX_SHUFFLE_ATTEMPTS = 16


def generate_pairs(
    labels_a: LabelSet,
    labels_b: LabelSet,
    shuffle_seed: int,
    target_negative_fraction: float = 0.9,
) -> PairBatch:
    """Build the aligned pairs (i, i) plus one seeded re-pairing permutation.

    The permutation is re-drawn (up to 16 attempts) until the fraction of
    dissimilar pairs among the re-paired half lies within 10 percentage
    points of the target; if no draw qualifies, the closest draw is kept.

    Args:
        labels_a: Labels for modality A (query side of each pair).
        labels_b: Labels for modality B; must have the same item count.
        shuffle_seed: Seed for the permutation draws; output is deterministic.
        target_negative_fraction: Desired dissimilar share of re-paired pairs.

    Returns:
        A PairBatch of 2N pairs: N aligned followed by N re-paired.
    """
    if labels_a.count != labels_b.count:
        raise CountMismatch(f"label sets disagree on count: {labels_a.count} vs {labels_b.count}")
    n_items = labels_a.count
    rng = np.random.default_rng(shuffle_seed)
    aligned = np.arange(n_items)

    best_perm = None
    best_gap = np.inf
    for _ in range(MAX_SHUFFLE_ATTEMPTS):
        perm = rng.permutation(n_items)
        neg_fraction = 1.0 - _similarity_row(labels_a, labels_b, aligned, perm).mean()
        gap = abs(neg_fraction - target_negative_fraction)
        if gap < best_gap:
            best_perm, best_gap = perm, gap
        if gap <= 0.10:
            break

    index_a = np.concatenate([aligned, aligned])
    index_b = np.concatenate([aligned, best_perm])
    similar = _similarity_row(labels_a, labels_b, index_a, index_b)
    return PairBatch(index_a=index_a, index_b=index_b, similar=similar)


def synth_dataset(
    clusters: int,
    per_cluster: int,
    dim: int,
    noise_sigma: float,
    seed: int,
) -> tuple[FeatureMatrix, FeatureMatrix, LabelSet]:
    """Generate an aligned two-modality Gaussian-cluster dataset.

    Each item belongs to exactly one cluster; its modality-A and modality-B
    rows are two independent perturbations of the same cluster centroid, so
    cross-modal similarity ground truth is exactly "same cluster".

    Args:
        clusters: Number of clusters; one label bit each, so at most 64.
        per_cluster: Items per cluster in each modality.
        dim: Feature dimension.
        noise_sigma: Stddev of the isotropic per-item noise (0 collapses
            both modalities onto the centroids).
        seed: Seed making the whole dataset byte-deterministic.

    Returns:
        (features_a, features_b, labels); labels are shared by both sides.
    """
    if clusters > MAX_LABELS:
        raise TooManyClusters(f"{clusters} clusters will not fit in a {MAX_LABELS}-bit mask")
    if clusters < 1 or per_cluster < 1 or dim < 1:
        raise ValueError("clusters, per_cluster, and dim must all be positive")
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((clusters, dim))
    cluster_of = np.repeat(np.arange(clusters), per_cluster)
    n_items = clusters * per_cluster
    noise_a = rng.standard_normal((n_items, dim))
    noise_b = rng.standard_normal((n_items, dim))
    base = centroids[cluster_of]
    features_a = FeatureMatrix(base + noise_sigma * noise_a)
    features_b = FeatureMatrix(base + noise_sigma * noise_b)
    masks = (np.uint64(1) << cluster_of.astype(np.uint64))
    labels = LabelSet(num_labels=clusters, masks=masks)
    return features_a, features_b, labels
