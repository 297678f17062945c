import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hashquant import (
    BadMagic,
    CountMismatch,
    FeatureMatrix,
    IndexOutOfRange,
    LabelSet,
    NonFiniteValue,
    PairBatch,
    TooManyClusters,
    TruncatedFile,
    generate_pairs,
    load_features,
    load_labels,
    save_features,
    save_labels,
    synth_dataset,
)
from reference import pair_labels


def test_feature_round_trip_example(tmp_path):
    matrix = FeatureMatrix(np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32))
    path = tmp_path / "m.dfm"
    save_features(matrix, path)
    loaded = load_features(path)
    assert loaded.count == 2 and loaded.dim == 3
    assert (loaded.values == matrix.values).all()


def test_feature_round_trip_random(tmp_path, rng):
    for shape in [(1, 1), (7, 3), (13, 65)]:
        matrix = FeatureMatrix(rng.standard_normal(shape).astype(np.float32))
        path = tmp_path / "r.dfm"
        save_features(matrix, path)
        loaded = load_features(path)
        assert loaded.values.tobytes() == matrix.values.tobytes()


def test_single_value_file_size_matches_layout(tmp_path):
    # 4 magic + 4 count + 4 dim + 4 payload bytes
    path = tmp_path / "one.dfm"
    save_features(FeatureMatrix(np.array([[0.5]], dtype=np.float32)), path)
    assert path.stat().st_size == 16


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.dfm"
    path.write_bytes(b"XXXX" + bytes(12))
    with pytest.raises(BadMagic):
        load_features(path)


def test_truncated_payload_rejected(tmp_path):
    # header declares 10 rows but payload holds 5
    path = tmp_path / "short.dfm"
    payload = np.zeros(5 * 3, dtype="<f4").tobytes()
    path.write_bytes(b"DFM1" + np.array([10, 3], dtype="<u4").tobytes() + payload)
    with pytest.raises(TruncatedFile):
        load_features(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "tiny.dfm"
    path.write_bytes(b"DFM1\x01")
    with pytest.raises(TruncatedFile):
        load_features(path)


def test_non_finite_payload_rejected(tmp_path):
    path = tmp_path / "nan.dfm"
    payload = np.array([np.nan], dtype="<f4").tobytes()
    path.write_bytes(b"DFM1" + np.array([1, 1], dtype="<u4").tobytes() + payload)
    with pytest.raises(NonFiniteValue):
        load_features(path)


def test_zero_row_matrix_rejected_before_write():
    with pytest.raises(ValueError):
        FeatureMatrix(np.empty((0, 3), dtype=np.float32))


def test_caller_array_is_neither_frozen_nor_shared():
    given = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.float32)
    matrix = FeatureMatrix(given)
    assert given.flags.writeable and not matrix.values.flags.writeable
    given[0, 0] = 9
    assert matrix.values[0, 0] == 1


def test_non_finite_matrix_rejected():
    with pytest.raises(ValueError):
        FeatureMatrix(np.array([[np.inf]], dtype=np.float32))


def test_label_round_trip(tmp_path):
    labels = LabelSet(num_labels=5, masks=np.array([0b1, 0b10110, 0b100], dtype=np.uint64))
    path = tmp_path / "l.lbl"
    save_labels(labels, path)
    loaded = load_labels(path)
    assert loaded.num_labels == 5
    assert (loaded.masks == labels.masks).all()


def test_label_file_errors(tmp_path):
    path = tmp_path / "l.lbl"
    path.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(BadMagic):
        load_labels(path)
    path.write_bytes(b"LBL1" + np.array([4, 3], dtype="<u4").tobytes() + bytes(8))
    with pytest.raises(TruncatedFile):
        load_labels(path)


def test_label_invariants():
    with pytest.raises(ValueError):
        LabelSet(num_labels=3, masks=np.array([0], dtype=np.uint64))  # empty mask
    with pytest.raises(ValueError):
        LabelSet(num_labels=3, masks=np.array([0b1000], dtype=np.uint64))  # bit >= L


def test_label_set_keeps_a_private_copy():
    given = np.array([0b1, 0b10], dtype=np.uint64)
    labels = LabelSet(num_labels=2, masks=given)
    assert given.flags.writeable and not labels.masks.flags.writeable
    given[0] = 0b10
    assert labels.masks[0] == 0b1


@pytest.mark.parametrize(
    "pairs",
    [
        dict(index_a=[0, -1], index_b=[0, 1], similar=[1, 0]),
        dict(index_a=[0, 1], index_b=[-1, 1], similar=[1, 0]),
        dict(index_a=np.array([2**64 - 1], dtype=np.uint64), index_b=[0], similar=[1]),
        dict(index_a=[0.7, 1.9], index_b=[0, 1], similar=[1, 0]),
        dict(index_a=[0, 1], index_b=np.array([0.0, 1.0]), similar=[1, 0]),
        dict(index_a=[0, 1], index_b=[0, 1], similar=np.array([256, 1])),
        dict(index_a=[0, 1], index_b=[0, 1], similar=[256, 1]),
        dict(index_a=[0, 1], index_b=[0, 1], similar=[-1, 1]),
        dict(index_a=[0, 1], index_b=[0, 1], similar=[0.5, 1.0]),
    ],
    ids=["negative-a", "negative-b", "uint64-wraps", "float-a", "float-b",
         "similar-256-array", "similar-256-list", "similar-negative", "similar-float"],
)
def test_pair_batch_rejects_bad_pairs(pairs):
    with pytest.raises(ValueError):
        PairBatch(**pairs)


def test_pair_batch_accepts_boolean_similarity():
    batch = PairBatch(index_a=[0, 1], index_b=[1, 0], similar=np.array([True, False]))
    assert batch.similar.dtype == np.int8 and batch.similar.tolist() == [1, 0]


def test_pair_batch_keeps_private_copies():
    given = [np.array([0, 1]), np.array([1, 0]), np.array([1, 0], dtype=np.int8)]
    batch = PairBatch(*given)
    for arr in given:
        assert arr.flags.writeable
        arr[0] = 0 if arr[0] else 1
    assert (batch.index_a.tolist(), batch.index_b.tolist(), batch.similar.tolist()) == ([0, 1], [1, 0], [1, 0])
    assert not any(arr.flags.writeable for arr in (batch.index_a, batch.index_b, batch.similar))


def test_pair_labels_examples():
    a = LabelSet(num_labels=3, masks=np.array([0b011, 0b001, 0b011], dtype=np.uint64))
    b = LabelSet(num_labels=3, masks=np.array([0b010, 0b110, 0b011], dtype=np.uint64))
    assert pair_labels(a, b, 0, 0) == 1  # shared bit
    assert pair_labels(a, b, 1, 1) == 0  # disjoint
    assert pair_labels(a, b, 2, 2) == 1  # identical masks
    with pytest.raises(IndexOutOfRange):
        pair_labels(a, b, 3, 0)
    with pytest.raises(IndexOutOfRange):
        pair_labels(a, b, 0, -1)


@given(
    masks_a=st.lists(st.integers(min_value=1, max_value=2**8 - 1), min_size=1, max_size=6),
    masks_b=st.lists(st.integers(min_value=1, max_value=2**8 - 1), min_size=1, max_size=6),
    data=st.data(),
)
def test_pair_labels_symmetric(masks_a, masks_b, data):
    a = LabelSet(num_labels=8, masks=np.array(masks_a, dtype=np.uint64))
    b = LabelSet(num_labels=8, masks=np.array(masks_b, dtype=np.uint64))
    i = data.draw(st.integers(min_value=0, max_value=len(masks_a) - 1))
    j = data.draw(st.integers(min_value=0, max_value=len(masks_b) - 1))
    assert pair_labels(a, b, i, j) == pair_labels(b, a, j, i)


def test_generate_pairs_deterministic():
    _, _, labels = synth_dataset(5, 8, 4, 0.1, seed=0)
    first = generate_pairs(labels, labels, shuffle_seed=3)
    second = generate_pairs(labels, labels, shuffle_seed=3)
    assert (first.index_a == second.index_a).all()
    assert (first.index_b == second.index_b).all()
    assert (first.similar == second.similar).all()


def test_generate_pairs_aligned_all_similar():
    _, _, labels = synth_dataset(4, 10, 4, 0.1, seed=1)
    pairs = generate_pairs(labels, labels, shuffle_seed=0)
    n = labels.count
    assert len(pairs) == 2 * n
    assert (pairs.index_a[:n] == pairs.index_b[:n]).all()
    assert (pairs.similar[:n] == 1).all()


def test_generate_pairs_disjoint_partners_negative():
    # two items with disjoint masks: any re-pairing that swaps them is negative
    labels = LabelSet(num_labels=2, masks=np.array([0b01, 0b10], dtype=np.uint64))
    pairs = generate_pairs(labels, labels, shuffle_seed=0, target_negative_fraction=1.0)
    shuffled = pairs.similar[2:]
    swapped = pairs.index_b[2:] != pairs.index_a[2:]
    assert (shuffled[swapped] == 0).all()


def test_generate_pairs_negative_fraction_ten_clusters():
    _, _, labels = synth_dataset(10, 50, 4, 0.1, seed=2)
    pairs = generate_pairs(labels, labels, shuffle_seed=9, target_negative_fraction=0.9)
    n = labels.count
    # brute-force recount over the permutation the batch actually used
    perm = pairs.index_b[n:]
    disjoint = (labels.masks[np.arange(n)] & labels.masks[perm]) == 0
    assert (pairs.similar[n:] == (~disjoint).astype(int)).all()
    observed = disjoint.mean()
    assert abs(observed - 0.9) <= 0.10


def test_generate_pairs_count_mismatch():
    _, _, labels = synth_dataset(3, 5, 4, 0.1, seed=0)
    other = LabelSet(num_labels=2, masks=np.array([1], dtype=np.uint64))
    with pytest.raises(CountMismatch):
        generate_pairs(labels, other, shuffle_seed=0)


def test_synth_dataset_shapes_and_labels():
    features_a, features_b, labels = synth_dataset(2, 3, 4, 0.5, seed=11)
    assert features_a.count == features_b.count == labels.count == 6
    assert list(labels.masks) == [1, 1, 1, 2, 2, 2]
    assert labels.num_labels == 2


def test_synth_dataset_zero_noise_collapses_to_centroid():
    features_a, features_b, _ = synth_dataset(3, 4, 5, 0.0, seed=4)
    assert (features_a.values == features_b.values).all()
    # all items of one cluster are identical
    assert (features_a.values[:4] == features_a.values[0]).all()


def test_synth_dataset_deterministic():
    one = synth_dataset(4, 6, 8, 0.3, seed=99)
    two = synth_dataset(4, 6, 8, 0.3, seed=99)
    assert one[0].values.tobytes() == two[0].values.tobytes()
    assert one[1].values.tobytes() == two[1].values.tobytes()
    assert one[2].masks.tobytes() == two[2].masks.tobytes()


def test_synth_dataset_cluster_is_label():
    _, _, labels = synth_dataset(5, 4, 3, 0.2, seed=6)
    cluster = np.repeat(np.arange(5), 4)
    for i in range(labels.count):
        for j in range(labels.count):
            assert pair_labels(labels, labels, i, j) == int(cluster[i] == cluster[j])


def test_synth_dataset_too_many_clusters():
    with pytest.raises(TooManyClusters):
        synth_dataset(65, 1, 2, 0.1, seed=0)
