import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hashquant import (
    DimMismatch,
    IndicatorSet,
    NonFiniteValue,
    PackedCodes,
    QuantizerModel,
    RetrievalIndex,
    TooManyCandidates,
    hamming_distances,
    hamming_top_candidates,
    hash_only_query,
    sign_encode,
)
from hashquant.hashing import MAX_CODE_DIM, WORD_BITS, nearest_first
from reference import hamming_distance, unpack_signs


def encode_rows(rows):
    return sign_encode(np.atleast_2d(np.asarray(rows, dtype=np.float64)))


def naive_hamming(x, y):
    """Per-bit loop oracle on sign vectors."""
    return sum(1 for a, b in zip(x, y) if (a >= 0) != (b >= 0))


def test_sign_encode_examples():
    codes = encode_rows([0.3, -0.2, 0.0])
    assert unpack_signs(codes).tolist() == [[1.0, -1.0, 1.0]]  # sign(0) = +1

    all_negative = encode_rows([-1.0, -0.5, -3.0])
    assert all_negative.words.tolist() == [[0]]


def test_sign_encode_padding_zero():
    row = np.ones(70)
    codes = encode_rows(row)
    assert codes.words.shape == (1, 2)
    # bits 64..69 occupy the low 6 bits of word 1; the rest must be zero
    assert codes.words[0, 1] == (1 << 6) - 1
    assert int(codes.words[0, 1]) >> 6 == 0


def test_sign_encode_idempotent_through_signs(rng):
    features = rng.standard_normal((20, 130))
    codes = sign_encode(features)
    again = sign_encode(unpack_signs(codes))
    assert (codes.words == again.words).all()
    assert codes.dim == again.dim


def test_hamming_distance_examples():
    x = encode_rows([+1.0, +1.0, -1.0, -1.0])
    y = encode_rows([+1.0, -1.0, -1.0, +1.0])
    assert hamming_distance(x, y) == 2
    assert hamming_distance(x, x) == 0


def test_hamming_distance_matches_naive_loop(rng):
    rows = rng.standard_normal((40, 128))
    codes = sign_encode(rows)
    for _ in range(60):
        i, j = rng.integers(0, 40, size=2)
        expected = naive_hamming(rows[i], rows[j])
        assert hamming_distance(codes, codes, int(i), int(j)) == expected


def test_hamming_distance_dim_mismatch():
    with pytest.raises(DimMismatch):
        hamming_distance(encode_rows([1.0, 1.0]), encode_rows([1.0, 1.0, 1.0]))


@given(
    dim=st.sampled_from([3, 16, 64, 65, 128, 130]),
    data=st.data(),
)
def test_packed_euclidean_identity(dim, data):
    # for +-1 vectors, squared euclidean distance is exactly 4x hamming
    signs = hnp.arrays(np.int8, (2, dim), elements=st.sampled_from([-1, 1]))
    pair = data.draw(signs)
    codes = encode_rows(pair.astype(np.float64))
    dist = hamming_distance(codes, codes, 0, 1)
    euclid_sq = int(((pair[0].astype(int) - pair[1].astype(int)) ** 2).sum())
    assert euclid_sq == 4 * dist


@given(dim=st.integers(min_value=1, max_value=80), data=st.data())
def test_hamming_metric_properties(dim, data):
    signs = hnp.arrays(np.int8, (3, dim), elements=st.sampled_from([-1, 1]))
    triple = data.draw(signs).astype(np.float64)
    codes = encode_rows(triple)
    d01 = hamming_distance(codes, codes, 0, 1)
    d10 = hamming_distance(codes, codes, 1, 0)
    d02 = hamming_distance(codes, codes, 0, 2)
    d12 = hamming_distance(codes, codes, 1, 2)
    assert d01 == d10
    assert 0 <= d01 <= dim
    assert (d01 == 0) == (triple[0] == triple[1]).all()
    assert d02 <= d01 + d12


def test_top_candidates_full_selection_is_sorted_permutation(rng):
    database = sign_encode(rng.standard_normal((30, 24)))
    query = encode_rows(rng.standard_normal(24))
    order = hamming_top_candidates(query, database, 30)
    assert sorted(order.tolist()) == list(range(30))
    dists = hamming_distances(query, database)
    keys = [(int(dists[i]), int(i)) for i in order]
    assert keys == sorted(keys)


def test_top_candidates_self_query_wins(rng):
    rows = rng.standard_normal((15, 32))
    database = sign_encode(rows)
    query = encode_rows(rows[7])
    assert hamming_top_candidates(query, database, 1).tolist() == [7]


def test_top_candidates_matches_sort_oracle(rng):
    rows = rng.standard_normal((200, 48))
    database = sign_encode(rows)
    for trial in range(10):
        query = encode_rows(rng.standard_normal(48))
        dists = hamming_distances(query, database)
        oracle = sorted(range(200), key=lambda i: (int(dists[i]), i))[:10]
        assert hamming_top_candidates(query, database, 10).tolist() == oracle


def test_top_candidates_ties_break_by_index():
    # identical rows: every distance ties, so selection must be index order
    database = encode_rows(np.ones((9, 16)))
    query = encode_rows(np.ones(16))
    assert hamming_top_candidates(query, database, 4).tolist() == [0, 1, 2, 3]


def test_top_candidates_too_many():
    database = encode_rows(np.ones((3, 8)))
    query = encode_rows(np.ones(8))
    with pytest.raises(TooManyCandidates):
        hamming_top_candidates(query, database, 4)


@pytest.mark.parametrize("candidates", [2.5, -1, True, np.True_], ids=["float", "negative", "bool", "numpy_bool"])
def test_top_candidates_bad_count_is_a_value_error_naming_candidates(candidates):
    database = encode_rows(np.ones((3, 8)))
    query = encode_rows(np.ones(8))
    assert hamming_top_candidates(query, database, np.int64(2)).tolist() == [0, 1]
    with pytest.raises(ValueError, match="candidates"):
        hamming_top_candidates(query, database, candidates)


def test_hamming_distances_dim_mismatch():
    with pytest.raises(DimMismatch):
        hamming_distances(encode_rows(np.ones(8)), encode_rows(np.ones((2, 9))))


@given(
    dim=st.sampled_from([1, 2, 3, 63, 64, 65, 129]),
    count=st.integers(min_value=1, max_value=40),
    pool=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_exact_select_matches_lexsort_for_every_budget(dim, count, pool, seed):
    # rows drawn from a small pool of sign patterns tie at every dim
    rng = np.random.default_rng(seed)
    patterns = rng.choice([-1.0, 1.0], size=(pool, dim))
    rows = patterns[rng.integers(0, pool, size=count)]
    query = rng.choice([-1.0, 1.0], size=dim)
    database = sign_encode(rows)
    index = RetrievalIndex(
        codes=database,
        quantizer=QuantizerModel(codebooks=np.zeros((1, dim, 1))),
        indicators=IndicatorSet(book_size=1, indices=np.zeros((count, 1), dtype=np.int32)),
    )
    dists = (rows != query).sum(axis=1)
    oracle = np.lexsort((np.arange(count), dists))
    for candidates in range(count + 1):
        expected = oracle[:candidates].tolist()
        assert hamming_top_candidates(encode_rows(query), database, candidates).tolist() == expected
        ranked = hash_only_query(query, index, top_k=candidates)
        assert ranked.indices.tolist() == expected
        assert ranked.scores.tolist() == (-dists[oracle[:candidates]]).tolist()


def test_words_are_word_major_read_only_and_layout_blind(rng):
    rows = rng.standard_normal((12, 150))
    codes = sign_encode(rows)
    assert codes.words.shape == (12, 3)
    assert codes.words.flags.f_contiguous and not codes.words.flags.writeable
    from_c = PackedCodes(dim=150, words=np.ascontiguousarray(codes.words))
    from_f = PackedCodes(dim=150, words=np.asfortranarray(codes.words))
    assert np.array_equal(from_c.words, from_f.words) and from_c.words.flags.f_contiguous
    assert hamming_distances(encode_rows(rows[0]), codes).dtype == np.uint16


def test_caller_words_are_neither_frozen_nor_shared():
    for given in (
        np.asfortranarray(np.arange(6, dtype=np.uint64).reshape(3, 2)),
        np.arange(3, dtype=np.uint64)[:, None],
    ):
        codes = PackedCodes(dim=64 * given.shape[1], words=given)
        assert given.flags.writeable and not codes.words.flags.writeable
        given[0, 0] = 99
        assert codes.words[0, 0] == 0


def test_non_finite_features_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        rows = np.ones((3, 70))
        rows[1, 65] = bad
        with pytest.raises(NonFiniteValue):
            sign_encode(rows)


def test_code_dimension_limit():
    widest = np.full(MAX_CODE_DIM, -1.0)
    assert MAX_CODE_DIM == 65535
    assert hamming_distances(encode_rows(widest), encode_rows(-widest)).tolist() == [MAX_CODE_DIM]
    with pytest.raises(ValueError, match="65535"):
        PackedCodes(dim=MAX_CODE_DIM + 1, words=np.zeros((0, 1024), dtype=np.uint64))


@pytest.mark.parametrize("dim", [1, 8, 63, 64, 65, 130])
def test_sign_encode_words_match_the_reference_and_keep_zero_padding(dim, rng):
    for count in (1, 7):
        rows = rng.standard_normal((count, dim))
        rows[count // 2, dim // 2] = 0.0  # sign(0) = +1
        codes = sign_encode(rows)
        words = codes.words
        assert codes.dim == dim and words.shape == (count, -(-dim // WORD_BITS)) and words.dtype == np.uint64
        assert words.flags.f_contiguous and not words.flags.writeable
        assert (unpack_signs(codes) == np.where(rows >= 0, 1.0, -1.0)).all()
        pad_bits = words.shape[1] * WORD_BITS - dim
        if pad_bits:
            assert not (words[:, -1] >> np.uint64(WORD_BITS - pad_bits)).any()
        # the checked constructor accepts the unchecked value's words unchanged
        assert np.array_equal(PackedCodes(dim=dim, words=words).words, words)
        assert np.array_equal(sign_encode(np.asfortranarray(rows)).words, words)


@pytest.mark.parametrize("shape", [(3, 0), (0, 0), (1, MAX_CODE_DIM + 1)])
def test_sign_encode_rejects_a_dimension_outside_the_code_range(shape):
    with pytest.raises(ValueError, match="code dimension must be in"):
        sign_encode(np.ones(shape))


@given(
    length=st.integers(min_value=0, max_value=40),
    pool=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_nearest_first_sort_and_partition_branches_agree(length, pool, seed):
    # keys drawn from <= 4 values tie heavily; distances are uint16, scores are negated float64
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, pool, size=length)
    distances = rng.integers(0, 200, size=pool).astype(np.uint16)[picks]
    scores = -(rng.integers(-3, 4, size=pool) / 3.0)[picks]
    for keys, above in ((distances, np.uint16(MAX_CODE_DIM)), (scores, np.inf)):
        order = np.argsort(keys, kind="stable")  # the sort branch, at every count
        for count in range(length + 1):
            # keys above every key, enough to send each count to the partition branch
            padded = np.concatenate([keys, np.full(2 * count + 1, above, dtype=keys.dtype)])
            assert nearest_first(keys, count).tolist() == order[:count].tolist()
            assert nearest_first(padded, count).tolist() == order[:count].tolist()


@given(
    rows=st.integers(min_value=0, max_value=4),
    length=st.integers(min_value=1, max_value=40),
    pool=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_nearest_first_rows_of_a_block_equal_the_one_row_calls(rows, length, pool, seed):
    # keys drawn from <= 3 values per row tie heavily; distances reach the top of the uint16 range
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, pool, size=(rows, length))
    distances = rng.choice([0, 1, 2, MAX_CODE_DIM], size=(rows, pool)).astype(np.uint16)
    scores = -(rng.integers(-3, 4, size=(rows, pool)) / 3.0)
    for keys in (np.take_along_axis(distances, picks, axis=1), np.take_along_axis(scores, picks, axis=1)):
        for count in range(length + 1):
            got = nearest_first(keys, count)
            assert got.shape == (rows, count) and got.dtype == np.int64
            for row in range(rows):
                assert got[row].tolist() == nearest_first(keys[row], count).tolist()


@pytest.mark.parametrize(
    "keys",
    [np.array([[3, 1, 1, 0, 3]] * 2, dtype=np.uint16),
     np.array([[3, 1, 1, 0, 3]], dtype=np.int64),
     np.tile(np.array([MAX_CODE_DIM, 7, 7, 0], dtype=np.uint16), (2, 20_000))],
    ids=["packed_32_bit", "signed_keys_sort", "packed_64_bit"],
)
def test_nearest_first_block_branches_equal_the_one_row_calls(keys):
    # 80_000 keys a row need 17 index bits, too many to pack beside a uint16 key in 32 bits
    for count in (0, 1, 3, keys.shape[1] // 2, keys.shape[1]):
        got = nearest_first(keys, count)
        for row in range(keys.shape[0]):
            assert got[row].tolist() == nearest_first(keys[row], count).tolist()
