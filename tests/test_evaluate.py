from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hashquant import (
    CostModel,
    CountMismatch,
    EvalReport,
    FeatureMatrix,
    IndicatorSet,
    InfeasibleBudget,
    KNotPowerOfTwo,
    NonFiniteValue,
    QuantizerModel,
    RetrievalIndex,
    RetrievalTask,
    ZeroNormVector,
    average_precision_at,
    build_index,
    equal_memory_quantizer,
    evaluate_tasks,
    full_aqd_query,
    harmonic_mean,
    hash_only_query,
    learn_quantizer,
    memory_footprint,
    op_count,
    ranked_results,
    sign_encode,
    sweep_alpha,
    sweep_n,
    synth_dataset,
    two_stage_query,
)
from hashquant import evaluate, pool
from reference import lossless_query, map_at


def literal_ap(ranking, relevant, cutoff):
    """AP@R written straight from its definition, as a python loop."""
    relevant = set(int(r) for r in relevant)
    if not relevant:
        return 0.0
    hits = 0
    total = 0.0
    for rank, item in enumerate(list(ranking)[:cutoff], start=1):
        if int(item) in relevant:
            hits += 1
            total += hits / rank
    return total / min(len(relevant), cutoff)


class TestAveragePrecision:
    def test_perfect_two_of_two(self):
        assert average_precision_at([5, 9, 1, 2], [5, 9], cutoff=50) == 1.0

    def test_single_relevant_at_rank_two(self):
        assert average_precision_at([3, 8, 1], [8], cutoff=50) == 0.5

    def test_no_relevant_items(self):
        assert average_precision_at([1, 2, 3], [], cutoff=50) == 0.0

    def test_matches_literal_definition(self, rng):
        for _ in range(40):
            ranking = rng.permutation(20)
            relevant = rng.choice(20, size=rng.integers(0, 10), replace=False)
            for cutoff in (1, 5, 20, 50):
                got = average_precision_at(ranking, relevant, cutoff)
                assert got == pytest.approx(literal_ap(ranking, relevant, cutoff), abs=1e-12)

    def test_accepts_boolean_mask(self, rng):
        ranking = rng.permutation(15)
        mask = np.zeros(15, dtype=bool)
        mask[[2, 8, 11]] = True
        as_indices = average_precision_at(ranking, np.flatnonzero(mask), cutoff=10)
        as_mask = average_precision_at(ranking, mask, cutoff=10)
        assert as_indices == as_mask

    @given(
        n=st.integers(min_value=1, max_value=15),
        cutoff=st.integers(min_value=1, max_value=20),
        data=st.data(),
    )
    def test_stays_in_unit_interval(self, n, cutoff, data):
        ranking = data.draw(st.permutations(range(n)))
        relevant = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
        value = average_precision_at(list(ranking), sorted(relevant), cutoff)
        assert 0.0 <= value <= 1.0
        top = min(len(relevant), cutoff)
        if relevant and set(list(ranking)[:top]) <= relevant:
            assert value == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("cutoff", [0, 2.5, np.float64(3.0), "3"])
    def test_cutoff_must_be_a_positive_integer(self, cutoff):
        with pytest.raises(ValueError, match="cutoff"):
            average_precision_at([0, 1, 2], [1], cutoff=cutoff)


def small_tasks(seed=0, book_size=4):
    features_a, features_b, labels = synth_dataset(4, 10, 16, 0.2, seed=seed)
    fit = learn_quantizer(
        features_a.values, features_b.values, num_books=2, book_size=book_size, alternations=4, seed=seed
    )
    index_a = build_index(features_a.values, fit.model, fit.indicators_a, "a")
    index_b = build_index(features_b.values, fit.model, fit.indicators_b, "b")
    relevance = (labels.masks[:, None] & labels.masks[None, :]) != 0
    task_i2t = RetrievalTask(queries=features_a.values, index=index_b, relevant_sets=tuple(relevance))
    task_t2i = RetrievalTask(queries=features_b.values, index=index_a, relevant_sets=tuple(relevance.T))
    return task_i2t, task_t2i, features_a, features_b


class TestMapAt:
    def test_all_relevant_everywhere_is_one(self, rng):
        task_i2t, _, _, features_b = small_tasks()
        everything = [np.ones(40, dtype=bool)] * 40
        value = map_at(
            task_i2t.queries, everything, mode="lossless", database_features=features_b.values, cutoff=20
        )
        assert value == 1.0

    def test_nothing_relevant_is_zero(self):
        task_i2t, _, _, features_b = small_tasks()
        nothing = [np.zeros(40, dtype=bool)] * 40
        value = map_at(
            task_i2t.queries, nothing, mode="lossless", database_features=features_b.values, cutoff=20
        )
        assert value == 0.0

    def test_lossless_database_may_be_a_feature_matrix(self):
        task_i2t, _, _, features_b = small_tasks()
        as_array, as_matrix = (
            ranked_results(task_i2t.queries, mode="lossless", database_features=database, top_k=20)
            for database in (features_b.values, features_b)
        )
        per_row = [lossless_query(q, features_b, top_k=20) for q in task_i2t.queries]
        for by_array, by_matrix, by_row in zip(as_array, as_matrix, per_row):
            assert np.array_equal(by_array.indices, by_matrix.indices)
            assert np.array_equal(by_array.scores, by_matrix.scores)
            assert np.array_equal(by_matrix.indices, by_row.indices)
            assert np.array_equal(by_matrix.scores, by_row.scores)
        by_array, by_matrix = (
            map_at(task_i2t.queries, task_i2t.relevant_sets, mode="lossless", database_features=database, cutoff=20)
            for database in (features_b.values, features_b)
        )
        assert by_array == by_matrix

    def test_tiny_instance_matches_direct_computation(self):
        task_i2t, _, _, _ = small_tasks(seed=3)
        queries = task_i2t.queries[:20]
        relevant = task_i2t.relevant_sets[:20]
        got = map_at(queries, relevant, mode="full_aqd", index=task_i2t.index, cutoff=50)
        rankings = ranked_results(queries, mode="full_aqd", index=task_i2t.index, top_k=50)
        expected = np.mean(
            [literal_ap(r.indices, np.flatnonzero(rel), 50) for r, rel in zip(rankings, relevant)]
        )
        assert got == pytest.approx(float(expected), abs=1e-12)


POOL_DIM, POOL_BOOKS, POOL_BOOK_SIZE = 8, 2, 4
POOL_CPUS = 3  # 7 query rows split into slices of 3, 2 and 2
POOL_TOP_K, POOL_CANDIDATES = 50, 100


def dense_tie_setup(count, seed=6):  # a seed whose 7 queries get 7 different answers in every mode
    """A cheap `count`-item index and its float32 database, every row one of 4 fixed rows.

    Four sign patterns give four Hamming codes, and m = 2 books of k = 4
    give 16 distinct scores, so nearly every item ties with thousands of
    others and only the index tie-break orders them.
    """
    rng = np.random.default_rng(seed)
    patterns = rng.standard_normal((4, POOL_DIM))
    database = FeatureMatrix(patterns[rng.integers(0, 4, size=count)])
    index = RetrievalIndex(
        codes=sign_encode(database),
        quantizer=QuantizerModel(codebooks=rng.standard_normal((POOL_BOOKS, POOL_DIM, POOL_BOOK_SIZE))),
        indicators=IndicatorSet(
            book_size=POOL_BOOK_SIZE,
            indices=rng.integers(0, POOL_BOOK_SIZE, size=(count, POOL_BOOKS)),
        ),
    )
    return index, database, rng.standard_normal((7, POOL_DIM))


@pytest.fixture(scope="module")
def at_gate():
    return dense_tie_setup(evaluate.PARALLEL_MIN_ITEMS)


POOL_MODES = {
    "two_stage": lambda q, index, database: two_stage_query(
        q, index, candidates=POOL_CANDIDATES, top_k=POOL_TOP_K
    ),
    "full_aqd": lambda q, index, database: full_aqd_query(q, index, top_k=POOL_TOP_K),
    "hash_only": lambda q, index, database: hash_only_query(q, index, top_k=POOL_TOP_K),
    "lossless": lambda q, index, database: lossless_query(q, database, top_k=POOL_TOP_K),
}


def pooled_ranked_results(queries, mode, index, database):
    return ranked_results(
        queries, mode=mode, index=index, database_features=database,
        top_k=POOL_TOP_K, candidates=POOL_CANDIDATES,
    )


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.fixture
def pools_opened(monkeypatch):
    """The max_workers of every thread pool ranked_results opens, with POOL_CPUS usable CPUs."""
    usable_cpus(monkeypatch, POOL_CPUS)
    opened = []

    class Recording(pool.ThreadPoolExecutor):
        def __init__(self, max_workers):
            opened.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(pool, "ThreadPoolExecutor", Recording)
    return opened


def assert_same_rankings(got, expected):
    assert len(got) == len(expected)
    for by_batch, by_row in zip(got, expected):
        assert np.array_equal(by_batch.indices, by_row.indices)
        assert np.array_equal(by_batch.scores, by_row.scores)


class TestPooledRankedResults:
    @pytest.mark.parametrize("mode", POOL_MODES)
    def test_pooled_results_equal_the_per_query_functions(self, mode, at_gate, pools_opened):
        index, database, queries = at_gate
        expected = [POOL_MODES[mode](q, index, database) for q in queries]
        # every row's answer differs, so rows returned out of order cannot match
        assert len({(r.indices.tobytes(), r.scores.tobytes()) for r in expected}) == len(expected)
        got = pooled_ranked_results(queries, mode, index, database)
        assert pools_opened == [POOL_CPUS]
        assert_same_rankings(got, expected)

    @pytest.mark.parametrize("mode", POOL_MODES)
    def test_non_finite_row_in_a_later_slice_raises_as_the_serial_loop(self, mode, at_gate, pools_opened):
        index, database, queries = at_gate
        queries = queries.copy()
        queries[3] = np.nan  # first row of the second slice
        queries[6] = 0.0  # the last slice: lossless raises ZeroNormVector here
        with pytest.raises(NonFiniteValue) as serial:
            for q in queries:
                POOL_MODES[mode](q, index, database)
        with pytest.raises(NonFiniteValue) as pooled:
            pooled_ranked_results(queries, mode, index, database)
        assert pools_opened == [POOL_CPUS]
        assert str(pooled.value) == str(serial.value)

    @pytest.mark.parametrize("cpus", [1, POOL_CPUS], ids=["serial", "pooled"])
    def test_zero_norm_database_row_fails_before_any_query_row(self, cpus, at_gate, monkeypatch):
        index, database, queries = at_gate
        values = database.values.copy()
        values[40_000] = 0.0
        queries = queries.copy()
        queries[0] = np.nan  # the per-row check would raise NonFiniteValue, were a row checked first
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(ZeroNormVector) as direct:
            lossless_query(queries[1], values, top_k=POOL_TOP_K)
        with pytest.raises(ZeroNormVector) as batched:
            pooled_ranked_results(queries, "lossless", index, values)
        assert str(batched.value) == str(direct.value) == "database row 40000 has zero norm"

    @pytest.mark.parametrize("mode", POOL_MODES)
    @pytest.mark.parametrize(
        "count, cpus, rows",
        [(evaluate.PARALLEL_MIN_ITEMS - 1, POOL_CPUS, 7), (evaluate.PARALLEL_MIN_ITEMS, 1, 7),
         (evaluate.PARALLEL_MIN_ITEMS, POOL_CPUS, 1)],
        ids=["below_the_gate", "one_usable_cpu", "one_query_row"],
    )
    def test_no_pool_without_two_workers_at_the_gate(self, mode, count, cpus, rows, at_gate, monkeypatch):
        index, database, queries = at_gate if count == evaluate.PARALLEL_MIN_ITEMS else dense_tie_setup(count)
        queries = queries[:rows]
        usable_cpus(monkeypatch, cpus)

        def no_pool(*args, **kwargs):
            raise AssertionError("ranked_results opened a thread pool")

        monkeypatch.setattr(pool, "ThreadPoolExecutor", no_pool)
        got = pooled_ranked_results(queries, mode, index, database)
        assert_same_rankings(got, [POOL_MODES[mode](q, index, database) for q in queries])

    def test_usable_cpus_fall_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(pool.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(pool.os, "cpu_count", lambda: 5)
        assert pool._usable_cpus() == 5
        monkeypatch.setattr(pool.os, "cpu_count", lambda: None)
        assert pool._usable_cpus() == 1


class TestHarmonicMean:
    def test_equal_inputs(self):
        assert harmonic_mean(0.5, 0.5) == pytest.approx(0.5, rel=1e-12)

    def test_reported_pair(self):
        assert harmonic_mean(0.542, 0.493) == pytest.approx(0.516, abs=1e-3)

    def test_zero_absorbs(self):
        assert harmonic_mean(0.7, 0.0) == 0.0
        assert harmonic_mean(0.0, 0.0) == 0.0

    @given(
        a=st.floats(min_value=0.0, max_value=1.0),
        b=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_bounded_by_arithmetic_mean(self, a, b):
        value = harmonic_mean(a, b)
        assert 0.0 <= value <= (a + b) / 2 + 1e-12
        if a == b:
            assert value == pytest.approx((a + b) / 2, abs=1e-12)


HQ_EXAMPLE = CostModel(count=1000, dim=128, num_books=4, book_size=256, candidates=100)


class TestCostModel:
    def test_memory_rows_at_reference_points(self):
        # hand-evaluated: 32*1000*128, 1000*128,
        # 32*4*256*128 + 1000*4*8, and their sum with the hash bits
        assert memory_footprint(HQ_EXAMPLE, "lossless") == 4_096_000
        assert memory_footprint(HQ_EXAMPLE, "binary_hash") == 128_000
        assert memory_footprint(HQ_EXAMPLE, "quantization") == 4_194_304 + 32_000
        assert memory_footprint(HQ_EXAMPLE, "hq") == 4_354_304

    def test_memory_second_point(self):
        cost = CostModel(count=50_000, dim=64, num_books=2, book_size=16, candidates=100)
        assert memory_footprint(cost, "lossless") == 32 * 50_000 * 64
        assert memory_footprint(cost, "binary_hash") == 3_200_000
        assert memory_footprint(cost, "quantization") == 32 * 2 * 16 * 64 + 50_000 * 2 * 4
        assert memory_footprint(cost, "hq") == 3_200_000 + 65_536 + 400_000

    def test_memory_third_point(self):
        cost = CostModel(count=7, dim=3, num_books=1, book_size=2, candidates=2)
        assert memory_footprint(cost, "lossless") == 672
        assert memory_footprint(cost, "binary_hash") == 21
        assert memory_footprint(cost, "quantization") == 192 + 7
        assert memory_footprint(cost, "hq") == 21 + 192 + 7

    def test_lossless_is_32x_binary_hash(self):
        for cost in (HQ_EXAMPLE, CostModel(count=3, dim=5, num_books=1, book_size=2)):
            assert memory_footprint(cost, "lossless") == 32 * memory_footprint(cost, "binary_hash")

    def test_op_counts_at_reference_points(self):
        cost = CostModel(count=100_000, dim=128, num_books=4, book_size=256, candidates=100)
        assert op_count(cost, "hq") == 12_800_000 + 131_072 + 400
        assert op_count(cost, "quantization") == 131_072 + 400_000
        assert op_count(cost, "lossless") == 12_800_000
        assert op_count(cost, "binary_hash") == 12_800_000

    def test_op_count_second_point(self):
        cost = CostModel(count=500, dim=8, num_books=2, book_size=4, candidates=10)
        assert op_count(cost, "hq") == 4000 + 64 + 20
        assert op_count(cost, "quantization") == 64 + 1000

    def test_full_candidates_identity(self):
        cost = CostModel(count=2048, dim=32, num_books=2, book_size=16, candidates=2048)
        assert op_count(cost, "hq") == op_count(cost, "binary_hash") + op_count(cost, "quantization")

    def test_non_power_of_two_book_size(self):
        cost = CostModel(count=10, dim=4, num_books=1, book_size=100)
        with pytest.raises(KNotPowerOfTwo):
            memory_footprint(cost, "quantization")
        with pytest.raises(KNotPowerOfTwo):
            memory_footprint(cost, "hq")
        # the variants that never touch k stay fine
        assert memory_footprint(cost, "lossless") == 32 * 40
        assert memory_footprint(cost, "binary_hash") == 40


class TestEvaluateTasks:
    def test_report_carries_harmonic_and_per_query(self):
        task_i2t, task_t2i, _, _ = small_tasks(seed=9)
        report = evaluate_tasks(task_i2t, task_t2i, mode="two_stage", cutoff=20, candidates=20)
        assert len(report.per_query_i2t) == 40 and len(report.per_query_t2i) == 40
        assert report.map_i2t == pytest.approx(float(np.mean(report.per_query_i2t)), abs=1e-12)
        assert report.harmonic == pytest.approx(
            harmonic_mean(report.map_i2t, report.map_t2i), abs=1e-12
        )

    def test_lossless_ranks_against_each_tasks_database(self):
        task_i2t, task_t2i, features_a, features_b = small_tasks(seed=9)
        # rows out of label order, so ranking t2i against the i2t database gives another MAP
        shuffled_a = features_a.values[np.random.default_rng(0).permutation(40)]
        report = evaluate_tasks(
            replace(task_i2t, database=features_b),
            replace(task_t2i, database=shuffled_a),
            mode="lossless",
            cutoff=20,
        )
        directions = ((task_i2t, features_b, report.map_i2t), (task_t2i, shuffled_a, report.map_t2i))
        for task, database, got in directions:
            assert got == map_at(
                task.queries, task.relevant_sets, mode="lossless", database_features=database, cutoff=20
            )
        assert report.map_t2i < report.map_i2t

    def test_lossless_task_without_database_raises(self):
        task_i2t, task_t2i, _, features_b = small_tasks(seed=9)
        with pytest.raises(ValueError, match="lossless mode needs database_features"):
            evaluate_tasks(replace(task_i2t, database=features_b), task_t2i, mode="lossless", cutoff=20)

    def test_harmonic_is_always_derived(self):
        maps = dict(map_i2t=0.5, map_t2i=1.0, per_query_i2t=(0.5,), per_query_t2i=(1.0,))
        with pytest.raises(TypeError, match="harmonic"):
            EvalReport(**maps, harmonic=0.123)
        report = EvalReport(**maps)
        assert report.harmonic == pytest.approx(2 / 3, abs=1e-12)
        with pytest.raises(AttributeError):
            report.harmonic = 0.123
        assert replace(report, map_t2i=0.5).harmonic == 0.5


class TestSweepAlpha:
    def test_endpoints_match_dedicated_modes(self):
        task_i2t, task_t2i, _, _ = small_tasks(seed=5)
        points = sweep_alpha(task_i2t, task_t2i, [0.0, 0.5, 1.0], cutoff=10, repeats=5)
        hash_map = map_at(
            task_i2t.queries, task_i2t.relevant_sets, mode="hash_only", index=task_i2t.index, cutoff=10
        )
        aqd_map = map_at(
            task_i2t.queries, task_i2t.relevant_sets, mode="full_aqd", index=task_i2t.index, cutoff=10
        )
        assert points[0].alpha == 0.0 and points[0].map_i2t == hash_map
        assert points[-1].candidates == task_i2t.index.count
        assert points[-1].map_i2t == aqd_map

    def test_alpha_validation(self):
        task_i2t, task_t2i, _, _ = small_tasks(seed=5)
        with pytest.raises(ValueError):
            sweep_alpha(task_i2t, task_t2i, [1.5], cutoff=10)

    @pytest.mark.parametrize("smaller", [0, 1], ids=["i2t", "t2i"])
    def test_indexes_of_different_sizes_raise_count_mismatch(self, smaller, monkeypatch):
        tasks = list(small_tasks(seed=5)[:2])
        index = tasks[smaller].index
        first_30 = RetrievalIndex(
            codes=sign_encode(np.ones((30, index.dim))),
            quantizer=index.quantizer,
            indicators=IndicatorSet(book_size=index.quantizer.book_size, indices=index.indicators.indices[:30]),
        )
        tasks[smaller] = replace(tasks[smaller], index=first_30)
        monkeypatch.setattr(evaluate, "ranked_results", None)  # a query would raise TypeError
        with pytest.raises(CountMismatch, match="index holds (30|40) items but t2i index (40|30)"):
            sweep_alpha(*tasks, [1.0], cutoff=10)

    def test_book_size_the_cost_model_rejects_fails_before_any_query(self, monkeypatch):
        task_i2t, task_t2i, _, _ = small_tasks(seed=5, book_size=3)
        monkeypatch.setattr(evaluate, "ranked_results", None)  # a query would raise TypeError
        with pytest.raises(KNotPowerOfTwo):
            sweep_alpha(task_i2t, task_t2i, [0.5], cutoff=10)


class TestEqualMemoryBudget:
    def test_budget_within_tolerance(self):
        for dim in (64, 128, 256, 512):
            num_books, book_size = equal_memory_quantizer(dim, 100_000)
            target = memory_footprint(
                CostModel(count=100_000, dim=dim, num_books=4, book_size=256), "hq"
            )
            got = memory_footprint(
                CostModel(count=100_000, dim=dim, num_books=num_books, book_size=book_size),
                "quantization",
            )
            assert abs(got - target) / target <= 0.05

    def test_books_grow_with_dim(self):
        shapes = [equal_memory_quantizer(dim, 100_000) for dim in (64, 128, 256, 512)]
        books = [m for m, _ in shapes]
        assert books == sorted(books)
        assert books[-1] > books[0]

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleBudget):
            equal_memory_quantizer(1, 1, tolerance=1e-9)


class TestSweepN:
    def test_smoke_small_database(self):
        points = sweep_n([16, 32], count=3000, num_queries=4, repeats=2, seed=1)
        assert [p.dim for p in points] == [16, 32]
        for point in points:
            assert point.hq_seconds > 0 and point.quant_seconds > 0
            assert point.ratio == pytest.approx(point.quant_seconds / point.hq_seconds)
            gap = abs(point.quant_memory_bits - point.hq_memory_bits) / point.hq_memory_bits
            assert gap <= 0.05
            assert point.predicted_hq_ops > 0 and point.predicted_quant_ops > 0
