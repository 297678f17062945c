import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hashquant import (
    BadMagic,
    CountMismatch,
    DimMismatch,
    IndicatorSet,
    NonFiniteValue,
    QuantizerModel,
    RankedResult,
    TooManyCandidates,
    TruncatedFile,
    VersionMismatch,
    ZeroNormVector,
    assign_indicators,
    build_index,
    build_lookup_table,
    full_aqd_query,
    hamming_distances,
    hamming_top_candidates,
    hash_only_query,
    learn_quantizer,
    load_index,
    save_index,
    sign_encode,
    synth_dataset,
    two_stage_query,
)
from reference import lossless_query


def make_index(rng, count=60, dim=16, num_books=2, book_size=8, seed=0):
    features = rng.standard_normal((count, dim))
    fit = learn_quantizer(features, num_books=num_books, book_size=book_size, alternations=4, seed=seed)
    return features, build_index(features, fit.model, fit.indicators_a, modality="b")


def brute_force_two_stage(query, features, index, candidates, top_k):
    """Full sorts at both stages; the oracle for the partial-selection path."""
    query_codes = sign_encode(query.reshape(1, -1))
    dists = hamming_distances(query_codes, index.codes)
    stage_one = sorted(range(len(features)), key=lambda i: (int(dists[i]), i))[:candidates]
    table = build_lookup_table(query, index.quantizer)
    scored = []
    for item in stage_one:
        idx = index.indicators.indices[item]
        scored.append((-float(table.values[np.arange(index.quantizer.num_books), idx].sum()), item))
    scored.sort()
    return [item for _, item in scored[:top_k]]


class TestRankedResult:
    def test_rejects_increasing_scores(self):
        from hashquant import RankedResult

        with pytest.raises(ValueError):
            RankedResult(indices=np.array([0, 1]), scores=np.array([1.0, 2.0]))

    def test_rejects_bad_tie_order(self):
        from hashquant import RankedResult

        with pytest.raises(ValueError):
            RankedResult(indices=np.array([3, 1]), scores=np.array([2.0, 2.0]))
        RankedResult(indices=np.array([1, 3]), scores=np.array([2.0, 2.0]))

    def test_rejects_a_repeated_item_at_a_tie(self):
        from hashquant import RankedResult

        with pytest.raises(ValueError, match="tied"):
            RankedResult(indices=np.array([0, 4, 4]), scores=np.array([3.0, 2.0, 2.0]))
        RankedResult(indices=np.array([4, 4]), scores=np.array([3.0, 2.0]))


class TestBuildIndex:
    def test_single_item_database(self, rng):
        feature = rng.standard_normal((1, 4))
        model = QuantizerModel(codebooks=rng.standard_normal((1, 4, 2)))
        indicators = assign_indicators(feature, model)
        index = build_index(feature, model, indicators)
        assert index.count == 1
        result = two_stage_query(feature[0], index, candidates=1, top_k=1)
        assert result.indices.tolist() == [0]

    def test_non_finite_features_rejected(self, rng):
        features, index = make_index(rng, count=10)
        features[4, 2] = np.nan
        with pytest.raises(NonFiniteValue):
            build_index(features, index.quantizer, index.indicators)

    def test_count_and_dim_checks(self, rng):
        features = rng.standard_normal((5, 4))
        model = QuantizerModel(codebooks=rng.standard_normal((1, 4, 2)))
        short = IndicatorSet(book_size=2, indices=np.zeros((3, 1), dtype=np.int32))
        with pytest.raises(CountMismatch):
            build_index(features, model, short)
        wrong_dim = QuantizerModel(codebooks=rng.standard_normal((1, 5, 2)))
        indicators = IndicatorSet(book_size=2, indices=np.zeros((5, 1), dtype=np.int32))
        with pytest.raises(DimMismatch):
            build_index(features, wrong_dim, indicators)

    def test_rebuild_serializes_identically(self, tmp_path, rng):
        features, index = make_index(rng)
        again = build_index(features, index.quantizer, index.indicators, modality="b")
        one, two = tmp_path / "one.hqx", tmp_path / "two.hqx"
        save_index(index, one)
        save_index(again, two)
        assert one.read_bytes() == two.read_bytes()


class TestTwoStage:
    def test_full_candidates_equals_full_aqd(self, rng):
        features, index = make_index(rng, count=80)
        for _ in range(10):
            query = rng.standard_normal(16)
            two_stage = two_stage_query(query, index, candidates=80, top_k=80)
            full = full_aqd_query(query, index, top_k=80)
            assert (two_stage.indices == full.indices).all()
            assert np.array_equal(two_stage.scores, full.scores)

    def test_exact_item_wins(self, rng):
        # plant an item whose reconstruction and sign pattern match the query
        model = QuantizerModel(codebooks=rng.standard_normal((2, 32, 4)))
        planted = model.codebooks[0][:, 1] + model.codebooks[1][:, 3]
        features = np.vstack([rng.standard_normal((30, 32)), planted])
        indicators = assign_indicators(features, model)
        index = build_index(features, model, indicators)
        result = two_stage_query(planted, index, candidates=1, top_k=1)
        assert result.indices.tolist() == [30]

    def test_matches_brute_force_oracle(self, rng):
        features, index = make_index(rng, count=300, dim=24, seed=3)
        for _ in range(8):
            query = rng.standard_normal(24)
            got = two_stage_query(query, index, candidates=50, top_k=10)
            assert got.indices.tolist() == brute_force_two_stage(query, features, index, 50, 10)

    def test_containment_in_stage_one(self, rng):
        features, index = make_index(rng, count=100)
        query = rng.standard_normal(16)
        query_codes = sign_encode(query.reshape(1, -1))
        shortlist = set(hamming_top_candidates(query_codes, index.codes, 20).tolist())
        result = two_stage_query(query, index, candidates=20, top_k=10)
        assert set(result.indices.tolist()) <= shortlist

    def test_monotone_filter_nesting(self, rng):
        features, index = make_index(rng, count=100)
        query = rng.standard_normal(16)
        query_codes = sign_encode(query.reshape(1, -1))
        sets = {
            c: set(hamming_top_candidates(query_codes, index.codes, c).tolist())
            for c in (10, 30, 60, 100)
        }
        assert sets[10] <= sets[30] <= sets[60] <= sets[100]
        for budget in (10, 30, 60):
            result = two_stage_query(query, index, candidates=budget, top_k=10)
            assert set(result.indices.tolist()) <= sets[budget]

    def test_negative_candidates_named(self, rng):
        features, index = make_index(rng, count=20)
        for top_k in (0, 10):
            with pytest.raises(ValueError, match="candidates"):
                two_stage_query(features[0], index, candidates=-1, top_k=top_k)

    def test_budget_violations(self, rng):
        features, index = make_index(rng, count=20)
        query = rng.standard_normal(16)
        with pytest.raises(TooManyCandidates):
            two_stage_query(query, index, candidates=21, top_k=5)
        with pytest.raises(TooManyCandidates):
            two_stage_query(query, index, candidates=5, top_k=6)
        with pytest.raises(DimMismatch):
            two_stage_query(np.ones(17), index, candidates=5, top_k=5)


class TestBaselineQueries:
    def test_hash_only_identity_item_first(self, rng):
        features, index = make_index(rng, count=40)
        result = hash_only_query(features[13], index, top_k=3)
        assert result.indices[0] == 13
        assert result.scores[0] == 0.0

    def test_hash_only_all_equal_codes_rank_by_index(self):
        features = np.ones((12, 8))
        model = QuantizerModel(codebooks=np.ones((1, 8, 2)))
        indicators = IndicatorSet(book_size=2, indices=np.zeros((12, 1), dtype=np.int32))
        index = build_index(features, model, indicators)
        result = hash_only_query(np.ones(8), index, top_k=5)
        assert result.indices.tolist() == [0, 1, 2, 3, 4]

    def test_hash_only_matches_sort_oracle(self, rng):
        features, index = make_index(rng, count=150)
        for _ in range(5):
            query = rng.standard_normal(16)
            query_codes = sign_encode(query.reshape(1, -1))
            dists = hamming_distances(query_codes, index.codes)
            oracle = sorted(range(150), key=lambda i: (int(dists[i]), i))[:20]
            assert hash_only_query(query, index, top_k=20).indices.tolist() == oracle

    def test_lossless_examples(self, rng):
        database = rng.standard_normal((25, 6))
        result = lossless_query(database[4], database, top_k=1)
        assert result.indices.tolist() == [4]
        assert result.scores[0] == pytest.approx(1.0, rel=1e-12)

        orthogonal = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = lossless_query(np.array([1.0, 0.0]), orthogonal, top_k=2)
        assert out.scores[1] == pytest.approx(0.0, abs=1e-15)

    def test_lossless_matches_cosine_oracle(self, rng):
        database = rng.standard_normal((60, 9))
        query = rng.standard_normal(9)
        result = lossless_query(query, database, top_k=60)
        cosines = database @ query / (np.linalg.norm(database, axis=1) * np.linalg.norm(query))
        oracle = sorted(range(60), key=lambda i: (-cosines[i], i))
        assert result.indices.tolist() == oracle

    def test_lossless_zero_norm(self, rng):
        database = rng.standard_normal((5, 3))
        with pytest.raises(ZeroNormVector):
            lossless_query(np.zeros(3), database, top_k=1)
        database[2] = 0.0
        with pytest.raises(ZeroNormVector):
            lossless_query(np.ones(3), database, top_k=1)


QUERY_MODES = {
    "two_stage": lambda row, index, features, top_k: two_stage_query(row, index, candidates=10, top_k=top_k),
    "full_aqd": lambda row, index, features, top_k: full_aqd_query(row, index, top_k=top_k),
    "hash_only": lambda row, index, features, top_k: hash_only_query(row, index, top_k=top_k),
    "lossless": lambda row, index, features, top_k: lossless_query(row, features, top_k=top_k),
}


@pytest.mark.parametrize("mode", list(QUERY_MODES))
def test_top_k_zero_is_empty_and_negative_rejected(mode, rng):
    features, index = make_index(rng, count=30)
    query = QUERY_MODES[mode]
    empty = query(features[0], index, features, 0)
    assert len(empty) == 0 and empty.scores.shape == (0,)
    with pytest.raises(ValueError):
        query(features[0], index, features, -3)


@pytest.mark.parametrize("mode", list(QUERY_MODES))
def test_non_integer_top_k_or_candidates_named(mode, rng):
    features, index = make_index(rng, count=30)
    query = QUERY_MODES[mode]
    with pytest.raises(ValueError, match="top_k"):
        query(features[0], index, features, 2.5)
    assert len(query(features[0], index, features, np.int64(2))) == 2
    if mode == "two_stage":
        with pytest.raises(ValueError, match="candidates"):
            two_stage_query(features[0], index, candidates=10.5, top_k=2)
        assert len(two_stage_query(features[0], index, candidates=np.uint8(10), top_k=np.int32(2))) == 2
    for flag in (True, np.True_):  # a bool is no count, though Python's True is an int
        with pytest.raises(ValueError, match="top_k must be an integer"):
            query(features[0], index, features, flag)
        if mode == "two_stage":
            with pytest.raises(ValueError, match="candidates must be an integer"):
                two_stage_query(features[0], index, candidates=flag, top_k=0)


@pytest.mark.parametrize("mode", list(QUERY_MODES))
def test_a_query_is_one_row_of_dim_values(mode, rng):
    features, index = make_index(rng, count=30)
    query = QUERY_MODES[mode]
    row = features[0]
    as_row, as_block_of_one = query(row, index, features, 5), query(row.reshape(1, -1), index, features, 5)
    assert np.array_equal(as_row.indices, as_block_of_one.indices)
    assert np.array_equal(as_row.scores, as_block_of_one.scores)
    # 16 values in any other shape are no query of dim 16, nor are two rows of it
    for bad in (row.reshape(2, 8), row.reshape(16, 1), row.reshape(1, 1, 16), np.vstack([row, row])):
        with pytest.raises(DimMismatch, match="shape"):
            query(bad, index, features, 5)
        with pytest.raises(DimMismatch, match="shape"):
            build_lookup_table(bad, index.quantizer)
    with pytest.raises(DimMismatch, match="query has dim 17, expected dim 16"):
        query(np.ones(17), index, features, 5)


@pytest.mark.parametrize("mode", list(QUERY_MODES))
def test_a_query_result_does_not_depend_on_the_row_layout(mode, rng):
    # BLAS rounds a strided vector's dot products unlike a contiguous one's; dim 63 shows it
    features, index = make_index(rng, count=30, dim=63)
    for strided in np.asfortranarray(rng.standard_normal((3, 63))):
        by_strided = QUERY_MODES[mode](strided, index, features, 10)
        by_contiguous = QUERY_MODES[mode](strided.copy(), index, features, 10)
        assert by_strided.indices.tobytes() == by_contiguous.indices.tobytes()
        assert by_strided.scores.tobytes() == by_contiguous.scores.tobytes()


@pytest.mark.parametrize("mode", list(QUERY_MODES))
def test_non_finite_query_rejected(mode, rng):
    features, index = make_index(rng, count=30)
    query = QUERY_MODES[mode]
    for bad in (np.nan, np.inf, -np.inf):
        row = features[0].copy()
        row[3] = bad
        with pytest.raises(NonFiniteValue):
            query(row, index, features, 5)


@pytest.mark.parametrize("mode", ["two_stage", "full_aqd"])
def test_finite_query_whose_table_overflows_rejected(mode, rng):
    # every factor is finite; the query row times a codebook column is not
    features = rng.standard_normal((12, 3))
    model = QuantizerModel(codebooks=np.full((2, 3, 4), 1e10))
    indicators = IndicatorSet(book_size=4, indices=rng.integers(0, 4, size=(12, 2)))
    index = build_index(features, model, indicators)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match="lookup table"):
            QUERY_MODES[mode](np.full(3, 1e300), index, features, 5)


@given(
    count=st.integers(min_value=1, max_value=24),
    pool=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_score_ranked_modes_match_lexsort_for_every_top_k(count, pool, seed):
    # rows, codebook columns and the query hold small integers, so every score
    # is exact; rows and columns come from <= 4 patterns, so cut-offs tie
    rng = np.random.default_rng(seed)
    dim = 5
    patterns = rng.integers(-2, 3, size=(pool, dim)).astype(np.float64)
    patterns[:, 0] = rng.choice([-1.0, 1.0], size=pool)  # no zero-norm row
    rows = patterns[rng.integers(0, pool, size=count)]
    books = patterns.T[np.newaxis]  # one book whose k = pool columns are the patterns
    indicators = IndicatorSet(book_size=pool, indices=rng.integers(0, pool, size=(count, 1)))
    index = build_index(rows, QuantizerModel(codebooks=books), indicators)
    query = rng.integers(-2, 3, size=dim).astype(np.float64)
    query[0] = 1.0
    aqd = (query @ books[0])[indicators.indices[:, 0]]
    cosine = (rows @ query) / (np.linalg.norm(rows, axis=1) * np.linalg.norm(query))
    shortlist = hamming_top_candidates(sign_encode(query.reshape(1, -1)), index.codes, count // 2)
    everything = np.arange(count)

    runs = [
        (lambda k: full_aqd_query(query, index, top_k=k), everything, aqd),
        (lambda k: lossless_query(query, rows, top_k=k), everything, cosine),
        (lambda k: two_stage_query(query, index, candidates=count, top_k=k), everything, aqd),
        (lambda k: two_stage_query(query, index, candidates=count // 2, top_k=k), shortlist, aqd),
    ]
    for run, pool_items, scores in runs:
        order = pool_items[np.lexsort((pool_items, -scores[pool_items]))]
        for top_k in range(pool_items.size + 1):
            ranked = run(top_k)
            assert len(ranked) == min(top_k, pool_items.size)
            assert ranked.indices.tolist() == order[:top_k].tolist()
            assert ranked.scores.tolist() == scores[order[:top_k]].tolist()
        with pytest.raises(TooManyCandidates):
            run(pool_items.size + 1)
        with pytest.raises(ValueError):
            run(-1)


@given(
    count=st.integers(min_value=1, max_value=24),
    pool=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_query_results_equal_their_checked_rebuild(count, pool, seed):
    # the query functions build their results unchecked and uncopied; the
    # public constructor must accept each one as it is and copy it
    rng = np.random.default_rng(seed)
    dim = 6
    patterns = rng.integers(-2, 3, size=(pool, dim)).astype(np.float64)
    patterns[:, 0] = rng.choice([-1.0, 1.0], size=pool)  # no zero-norm row
    rows = patterns[rng.integers(0, pool, size=count)]
    books = np.stack([patterns.T, -patterns.T])  # two books, so scores are sums of ties
    indicators = IndicatorSet(book_size=pool, indices=rng.integers(0, pool, size=(count, 2)))
    index = build_index(rows, QuantizerModel(codebooks=books), indicators)
    query = rng.integers(-2, 3, size=dim).astype(np.float64)
    query[0] = 1.0
    for top_k in range(count + 1):
        results = {
            "two_stage": two_stage_query(query, index, candidates=max(top_k, count // 2), top_k=top_k),
            "two_stage_all": two_stage_query(query, index, candidates=count, top_k=top_k),
            "full_aqd": full_aqd_query(query, index, top_k=top_k),
            "hash_only": hash_only_query(query, index, top_k=top_k),
            "lossless": lossless_query(query, rows, top_k=top_k),
        }
        for result in results.values():
            assert len(result) == top_k
            assert result.indices.dtype == np.int64 and result.scores.dtype == np.float64
            assert not result.indices.flags.writeable and not result.scores.flags.writeable
            rebuilt = RankedResult(indices=result.indices, scores=result.scores)
            assert rebuilt.indices.tobytes() == result.indices.tobytes()
            assert rebuilt.scores.tobytes() == result.scores.tobytes()
            assert not np.shares_memory(rebuilt.indices, result.indices)
            assert not np.shares_memory(rebuilt.scores, result.scores)
        assert results["two_stage_all"].indices.tolist() == results["full_aqd"].indices.tolist()
        assert results["two_stage_all"].scores.tobytes() == results["full_aqd"].scores.tobytes()


class TestCrossModalSymmetry:
    def test_index_from_either_modality_answers_the_other(self):
        features_a, features_b, labels = synth_dataset(4, 15, 12, 0.2, seed=8)
        fit = learn_quantizer(
            features_a.values, features_b.values, num_books=2, book_size=4, alternations=4, seed=1
        )
        index_a = build_index(features_a.values, fit.model, fit.indicators_a, modality="a")
        index_b = build_index(features_b.values, fit.model, fit.indicators_b, modality="b")
        cluster = np.repeat(np.arange(4), 15)
        for query_idx in (0, 20, 45):
            hits_b = two_stage_query(features_a.values[query_idx], index_b, candidates=30, top_k=5)
            hits_a = two_stage_query(features_b.values[query_idx], index_a, candidates=30, top_k=5)
            assert cluster[hits_b.indices[0]] == cluster[query_idx]
            assert cluster[hits_a.indices[0]] == cluster[query_idx]


class TestIndexFile:
    def test_round_trip_preserves_everything(self, tmp_path, rng):
        features, index = make_index(rng, count=33, dim=70)
        path = tmp_path / "index.hqx"
        save_index(index, path)
        loaded = load_index(path)
        assert (loaded.codes.words == index.codes.words).all()
        assert loaded.codes.dim == index.codes.dim
        assert (loaded.indicators.indices == index.indicators.indices).all()
        # codebooks travel as float32; a second save is byte-identical
        assert np.allclose(loaded.quantizer.codebooks, index.quantizer.codebooks, atol=1e-6)
        second = tmp_path / "again.hqx"
        save_index(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.hqx"
        path.write_bytes(b"JUNK" + bytes(32))
        with pytest.raises(BadMagic):
            load_index(path)

    def test_version_mismatch(self, tmp_path, rng):
        features, index = make_index(rng, count=5, book_size=4)
        path = tmp_path / "x.hqx"
        save_index(index, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 7
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            load_index(path)

    def test_truncated_codebooks(self, tmp_path, rng):
        features, index = make_index(rng, count=5, book_size=4)
        path = tmp_path / "x.hqx"
        save_index(index, path)
        blob = path.read_bytes()
        # cut inside the codebook section
        words_bytes = index.count * index.codes.words.shape[1] * 8
        path.write_bytes(blob[: 24 + words_bytes + 10])
        with pytest.raises(TruncatedFile):
            load_index(path)
