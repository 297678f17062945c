import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hashquant import (
    CountMismatch,
    DimMismatch,
    IndexOutOfRange,
    IndicatorSet,
    NonFiniteValue,
    NotEnoughItems,
    QuantizerModel,
    SingularSystem,
    aqd,
    aqd_scores,
    assign_indicators,
    average_precision_at,
    build_index,
    build_lookup_table,
    init_codebooks,
    learn_quantizer,
    load_index,
    quantization_objective,
    quantization_residual_norm,
    reconstruct,
    save_index,
    synth_dataset,
    update_codebooks,
)
from hashquant import quantizer
from hashquant.quantizer import MAX_BOOK_SIZE
from reference import quant_loss_term


@pytest.mark.parametrize("bad", ["-1", "k"])
def test_index_outside_the_book_or_mask_raises(bad, rng):
    model = QuantizerModel(codebooks=rng.standard_normal((2, 3, 4)))
    index = -1 if bad == "-1" else model.book_size
    with pytest.raises(IndexOutOfRange):
        reconstruct(model, np.array([[0, index]]))
    with pytest.raises(IndexOutOfRange):
        quantization_residual_norm(np.ones(3), model, [index, 0])
    with pytest.raises(IndexOutOfRange):
        quant_loss_term(np.ones(3), model, [0, index])
    mask = np.array([True, False, True, False])
    position = -1 if bad == "-1" else mask.shape[0]
    with pytest.raises(IndexOutOfRange):
        average_precision_at([0, position], mask, cutoff=2)


def exhaustive_best(features, model):
    """Per-item joint optimum over all book_size**num_books assignments."""
    combos = list(itertools.product(range(model.book_size), repeat=model.num_books))
    best_idx = np.zeros((features.shape[0], model.num_books), dtype=np.int64)
    best_val = np.full(features.shape[0], np.inf)
    for combo in combos:
        approx = sum(model.codebooks[l][:, combo[l]] for l in range(model.num_books))
        vals = ((features - approx) ** 2).sum(axis=1)
        better = vals < best_val - 1e-15
        best_val[better] = vals[better]
        best_idx[better] = combo
    return best_idx, best_val


def per_item_objective(features, model, indices):
    return ((features - reconstruct(model, indices)) ** 2).sum(axis=1)


class TestInitCodebooks:
    def test_first_book_is_row_permutation_when_n_equals_k(self, rng):
        features = rng.standard_normal((6, 3))
        model = init_codebooks(features, 1, 6, seed=0)
        columns = sorted(model.codebooks[0].T.tolist())
        assert columns == sorted(features.tolist())

    def test_deterministic(self, rng):
        features = rng.standard_normal((30, 4))
        one = init_codebooks(features, 3, 8, seed=5)
        two = init_codebooks(features, 3, 8, seed=5)
        assert one.codebooks.tobytes() == two.codebooks.tobytes()

    def test_second_book_zero_when_first_book_exact(self, rng):
        atoms = rng.standard_normal((4, 5))
        features = atoms[rng.integers(0, 4, size=20)]
        # every row is one of exactly 4 distinct atoms and k=4, so greedy
        # assignment to book 1 leaves all-zero residuals for book 2
        unique = np.unique(features, axis=0)
        model = init_codebooks(unique, 2, 4, seed=1)
        assert np.allclose(model.codebooks[1], 0.0)

    def test_not_enough_items(self, rng):
        with pytest.raises(NotEnoughItems):
            init_codebooks(rng.standard_normal((3, 2)), 1, 4, seed=0)


class TestAssignIndicators:
    def test_nearest_column_single_book(self):
        model = QuantizerModel(codebooks=np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        out = assign_indicators(np.array([[1.1, 0.0]]), model)
        assert out.indices.tolist() == [[0]]

    def test_exact_column_match_has_zero_residual(self, rng):
        books = rng.standard_normal((1, 4, 5))
        model = QuantizerModel(codebooks=books)
        feature = books[0][:, 3]
        out = assign_indicators(feature.reshape(1, -1), model)
        assert out.indices.tolist() == [[3]]
        assert quantization_residual_norm(feature, model, out.indices[0]) == 0.0

    def test_single_book_matches_exhaustive(self, rng):
        for _ in range(20):
            features = rng.standard_normal((12, 4))
            model = QuantizerModel(codebooks=rng.standard_normal((1, 4, 5)))
            out = assign_indicators(features, model)
            oracle_idx, _ = exhaustive_best(features, model)
            assert (out.indices == oracle_idx).all()

    def test_never_worse_than_previous(self, rng):
        for _ in range(10):
            features = rng.standard_normal((15, 4))
            model = QuantizerModel(codebooks=rng.standard_normal((2, 4, 3)))
            prev = IndicatorSet(book_size=3, indices=rng.integers(0, 3, size=(15, 2), dtype=np.int32))
            out = assign_indicators(features, model, prev, max_rounds=2)
            before = per_item_objective(features, model, prev.indices)
            after = per_item_objective(features, model, out.indices)
            assert (after <= before + 1e-12).all()

    def test_two_books_close_to_joint_optimum(self, rng):
        total = hits = 0
        for _ in range(30):
            features = rng.standard_normal((10, 4))
            model = QuantizerModel(codebooks=rng.standard_normal((2, 4, 3)))
            out = assign_indicators(features, model, None, max_rounds=10)
            got = per_item_objective(features, model, out.indices)
            _, best = exhaustive_best(features, model)
            # never better than the exhaustive optimum, and usually equal
            assert (got >= best - 1e-9).all()
            hits += int((got <= best + 1e-9).sum())
            total += got.shape[0]
        assert hits / total >= 0.85  # fixed-point quality of descent from greedy

    def test_dim_mismatch(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((1, 4, 2)))
        with pytest.raises(DimMismatch):
            assign_indicators(rng.standard_normal((3, 5)), model)

    def test_previous_indicators_for_other_items_are_a_count_mismatch(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((2, 3, 4)))
        prev = IndicatorSet(book_size=4, indices=np.zeros((4, 2), dtype=np.int64))
        with pytest.raises(CountMismatch, match="previous indicators are 4x2, expected 5x2"):
            assign_indicators(rng.standard_normal((5, 3)), model, prev)

    def test_previous_indicators_for_other_books_stay_a_dim_mismatch(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((2, 3, 4)))
        prev = IndicatorSet(book_size=4, indices=np.zeros((5, 3), dtype=np.int64))
        with pytest.raises(DimMismatch):
            assign_indicators(rng.standard_normal((5, 3)), model, prev)

    def test_previous_indicators_over_other_columns_are_a_dim_mismatch(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((2, 3, 4)))
        prev = IndicatorSet(book_size=8, indices=np.full((5, 2), 7, dtype=np.int64))
        with pytest.raises(DimMismatch, match="2 books of 8 columns, model has 2 of 4"):
            assign_indicators(rng.standard_normal((5, 3)), model, prev)


def full_sweep_assign(values, model, prev, max_rounds):
    """Reference coordinate descent that sweeps every row in every round."""
    rows = model.codebooks.transpose(0, 2, 1).copy()
    norms = [(book * book).sum(axis=0) for book in model.codebooks]
    if prev is not None:
        indices = prev.indices.astype(np.int64)
        approx = rows[0][indices[:, 0]]
        for book in range(1, model.num_books):
            approx += rows[book][indices[:, book]]
        rounds_left = max_rounds
    else:
        indices = np.zeros((values.shape[0], model.num_books), dtype=np.int64)
        residual = values.copy()
        for book in range(model.num_books):
            chosen = quantizer._nearest_columns(residual, model.codebooks[book], norms[book])
            indices[:, book] = chosen
            residual -= rows[book][chosen]
        approx = values - residual
        rounds_left = max_rounds - 1
    for _ in range(max(0, rounds_left)):
        changed = False
        for book in range(model.num_books):
            current = rows[book][indices[:, book]]
            target = values - approx + current
            chosen = quantizer._nearest_columns(target, model.codebooks[book], norms[book])
            if (chosen != indices[:, book]).any():
                changed = True
                approx += rows[book][chosen] - current
                indices[:, book] = chosen
        if not changed:
            break
    return indices


@settings(max_examples=150)  # a sweep over fewer rows than all needs count above the row floor
@given(
    dim=st.sampled_from([512, 385, 32, 3]),
    book_size=st.sampled_from([8, 256, 64, 2, 1]),
    num_books=st.sampled_from([1, 2, 4]),
    count=st.one_of(st.integers(min_value=1, max_value=40), st.integers(min_value=300, max_value=700)),
    max_rounds=st.sampled_from([3, 2, 5, 1]),
    warm=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_active_row_sweeps_equal_full_sweeps(dim, book_size, num_books, count, max_rounds, warm, seed):
    rng = np.random.default_rng(seed)
    books = rng.standard_normal((num_books, dim, book_size))
    # a duplicated and a zero column give exact ties at the argmin
    books[:, :, book_size // 2] = books[:, :, 0]
    books[:, :, -1] = 0.0
    model = QuantizerModel(codebooks=books)
    truth = rng.integers(0, book_size, size=(count, num_books))
    # exact rows tie, near rows settle in one sweep, far rows keep moving for several
    noise = rng.standard_normal((count, dim)) * rng.choice([0.0, 0.3, 10.0], size=(count, 1))
    values = reconstruct(model, truth) + noise
    prev = None
    if warm:
        moved = rng.random(count) < 0.3
        truth[moved] = rng.integers(0, book_size, size=(int(moved.sum()), num_books))
        prev = IndicatorSet(book_size=book_size, indices=truth)
    got = assign_indicators(values, model, prev, max_rounds=max_rounds)
    assert np.array_equal(got.indices, full_sweep_assign(values, model, prev, max_rounds))


@pytest.mark.parametrize("dim, book_size", [(512, 256), (385, 256), (512, 8), (32, 256)])
def test_sweep_row_products_round_like_the_full_product(dim, book_size):
    # one row goes to gemv and small products to another BLAS kernel, and
    # either can round differently from the full product; only the row floor
    # keeps a sweep over a few active rows bit-identical to a full sweep
    rng = np.random.default_rng(dim * book_size)
    count = 600
    targets = rng.standard_normal((count, dim))
    book = rng.standard_normal((dim, book_size))
    norms = (book * book).sum(axis=0)
    full = quantizer._column_scores(targets, book, norms)
    floor = quantizer._sweep_rows(np.array([0]), count, dim, book_size).size
    for active_count in range(1, floor + 2):
        active = np.sort(rng.choice(count, size=active_count, replace=False))
        rows = quantizer._sweep_rows(active, count, dim, book_size)
        assert np.isin(active, rows).all()
        assert quantizer._column_scores(targets[rows], book, norms).tobytes() == full[rows].tobytes()


def pool_case(count, dim=512, num_books=4, book_size=256, seed=23):
    """A model, rows near its codewords, and perturbed previous indicators for a warm call."""
    rng = np.random.default_rng(seed)
    model = QuantizerModel(codebooks=rng.standard_normal((num_books, dim, book_size)))
    truth = rng.integers(0, book_size, size=(count, num_books))
    values = reconstruct(model, truth) + rng.standard_normal((count, dim)) * rng.choice([0.3, 10.0], size=(count, 1))
    moved = rng.random(count) < 0.3
    truth[moved] = rng.integers(0, book_size, size=(int(moved.sum()), num_books))
    return model, values, IndicatorSet(book_size=book_size, indices=truth)


class TestPooledAssign:
    # 601 rows split 201 / 200 / 200 over 3 threads; above dim 384 a product
    # small enough for OpenBLAS's small-matrix kernel would round differently
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_pooled_equals_serial(self, warm, forced_pool, set_usable_cpus):
        model, values, prev = pool_case(601)
        prev = prev if warm else None
        pooled = assign_indicators(values, model, prev)
        assert forced_pool == [3]
        set_usable_cpus(1)
        serial = assign_indicators(values, model, prev)
        assert forced_pool == [3]
        assert pooled.indices.tobytes() == serial.indices.tobytes()
        if warm:
            assert (serial.indices != prev.indices).any()

    @pytest.mark.parametrize(
        "count, cpus, pools",
        [(2047, 2, []), (2048, 1, []), (2048, 2, [2])],
        ids=["below_the_gate", "one_usable_cpu", "at_the_gate"],
    )
    def test_a_pool_opens_only_at_the_gate_with_two_cpus(self, count, cpus, pools, set_usable_cpus, opened_pools):
        # one book of 256 columns at dim 512: 2^27 multiply-adds are 1024 rows per slice
        model, values, _ = pool_case(count, num_books=1)
        set_usable_cpus(cpus)
        assign_indicators(values, model)
        assert opened_pools == pools

    def test_every_slice_keeps_a_product_above_the_small_matrix_cut_off(self, forced_pool, set_usable_cpus):
        # at dim 512 and k = 8, 2^20 multiply-adds per book are 256 rows: 601 rows make 2 slices, not 3
        model, values, prev = pool_case(601, num_books=1, book_size=8)
        pooled = assign_indicators(values, model, prev)
        assert forced_pool == [2]
        set_usable_cpus(1)
        assert pooled.indices.tobytes() == assign_indicators(values, model, prev).indices.tobytes()

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_one_call_enters_the_public_name_once(self, warm, forced_pool, monkeypatch):
        # an outside wrapper on the module attribute, as a tracer installs it, sees one call
        model, values, prev = pool_case(601)
        entered = []
        original = quantizer.assign_indicators

        def counting(*args, **kwargs):
            entered.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(quantizer, "assign_indicators", counting)
        quantizer.assign_indicators(values, model, prev if warm else None)
        assert forced_pool == [3]
        assert len(entered) == 1


def test_one_hot_stats_match_the_add_at_reference(rng):
    count, dim, num_books, book_size = 300, 5, 3, 16
    # magnitudes over 16 decades, so a different summation order changes the bits
    values = rng.standard_normal((count, dim)) * 10.0 ** rng.uniform(-8, 8, size=(count, dim))
    indices = rng.integers(0, book_size - 2, size=(count, num_books))  # the last two columns get no rows
    stored = IndicatorSet(book_size=book_size, indices=indices).indices
    rhs, gram = quantizer._one_hot_stats(values, stored, num_books, book_size)

    mk = num_books * book_size
    want_rhs, want_gram = np.zeros((dim, mk)), np.zeros((mk, mk))
    for b1 in range(num_books):
        block = np.zeros((book_size, dim))
        np.add.at(block, indices[:, b1], values)
        want_rhs[:, b1 * book_size : (b1 + 1) * book_size] = block.T
        for b2 in range(num_books):
            want_gram[b1 * book_size : (b1 + 1) * book_size, b2 * book_size : (b2 + 1) * book_size] = np.bincount(
                indices[:, b1] * book_size + indices[:, b2], minlength=book_size * book_size
            ).reshape(book_size, book_size)
    assert rhs.tobytes() == want_rhs.tobytes()
    assert gram.tobytes() == want_gram.tobytes()


class TestUpdateCodebooks:
    def test_single_column_learns_the_mean(self):
        features = np.array([[1.0, 0.0], [3.0, 0.0]])
        indicators = IndicatorSet(book_size=1, indices=np.zeros((2, 1), dtype=np.int32))
        model = update_codebooks(features, indicators, ridge=0.0)
        assert np.allclose(model.codebooks[0][:, 0], [2.0, 0.0])

    def test_one_item_per_column_interpolates_exactly(self, rng):
        features = rng.standard_normal((4, 3))
        indicators = IndicatorSet(book_size=4, indices=np.arange(4, dtype=np.int32).reshape(4, 1))
        model = update_codebooks(features, indicators, ridge=0.0)
        assert np.allclose(model.codebooks[0].T, features)

    def test_closed_form_beats_random_perturbations(self, rng):
        for _ in range(5):
            features = rng.standard_normal((50, 6))
            indicators = IndicatorSet(
                book_size=4, indices=rng.integers(0, 4, size=(50, 1), dtype=np.int32)
            )
            model = update_codebooks(features, indicators, ridge=1e-8)
            base = quantization_objective(features, model, indicators)
            for _ in range(100):
                delta = rng.standard_normal(model.codebooks.shape)
                delta *= 1e-2 / np.linalg.norm(delta)
                shifted = QuantizerModel(codebooks=model.codebooks + delta)
                assert base <= quantization_objective(features, shifted, indicators)

    def test_two_modalities_share_books(self, rng):
        features_a = rng.standard_normal((20, 3))
        features_b = rng.standard_normal((20, 3))
        ind = IndicatorSet(book_size=2, indices=rng.integers(0, 2, size=(20, 1), dtype=np.int32))
        ind_b = IndicatorSet(book_size=2, indices=rng.integers(0, 2, size=(20, 1), dtype=np.int32))
        joint = update_codebooks(features_a, ind, features_b, ind_b, ridge=0.0)
        # stacking both modalities into one call gives the same solution
        stacked = update_codebooks(
            np.vstack([features_a, features_b]),
            IndicatorSet(book_size=2, indices=np.vstack([ind.indices, ind_b.indices])),
            ridge=0.0,
        )
        assert np.allclose(joint.codebooks, stacked.codebooks)

    @pytest.mark.parametrize("short", ["a", "b"])
    def test_indicators_for_other_items_are_a_count_mismatch(self, rng, short):
        features = {side: rng.standard_normal((5, 3)) for side in "ab"}
        indicators = {
            side: IndicatorSet(book_size=2, indices=np.zeros((4 if side == short else 5, 1), dtype=np.int64))
            for side in "ab"
        }
        with pytest.raises(CountMismatch, match="5 feature rows but 4 indicator rows"):
            update_codebooks(features["a"], indicators["a"], features["b"], indicators["b"])

    def test_modalities_with_other_books_are_a_dim_mismatch(self, rng):
        features = rng.standard_normal((5, 3))
        ind_a = IndicatorSet(book_size=2, indices=np.zeros((5, 1), dtype=np.int64))
        ind_b = IndicatorSet(book_size=4, indices=np.zeros((5, 1), dtype=np.int64))
        with pytest.raises(DimMismatch, match="quantizer shape"):
            update_codebooks(features, ind_a, features, ind_b)
        with pytest.raises(DimMismatch, match="feature dimension"):
            update_codebooks(features, ind_a, features[:, :2], ind_a)
        with pytest.raises(ValueError, match="without indicators_b"):
            update_codebooks(features, ind_a, features)
        nine_rows = IndicatorSet(book_size=2, indices=np.zeros((9, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="indicators_b given without features_b"):
            update_codebooks(features, ind_a, None, nine_rows)

    def test_singular_without_ridge(self):
        features = np.array([[1.0, 2.0]])
        indicators = IndicatorSet(book_size=2, indices=np.zeros((1, 1), dtype=np.int32))
        with pytest.raises(SingularSystem):
            update_codebooks(features, indicators, ridge=0.0)


class TestLearnQuantizer:
    def test_exactly_representable_reaches_zero(self, rng):
        # data is exactly k distinct points, so the sampled init covers them all;
        # the ridge term keeps the final objective at ~1e-15 rather than exact zero
        atoms = rng.standard_normal((4, 6))
        fit = learn_quantizer(atoms, num_books=1, book_size=4, alternations=2, seed=0)
        assert fit.objectives[-1] <= 1e-12

    def test_zero_alternations_keeps_initialization(self, rng):
        features_a = rng.standard_normal((20, 4))
        features_b = rng.standard_normal((20, 4))
        fit = learn_quantizer(features_a, features_b, num_books=2, book_size=4, alternations=0, seed=3)
        init = init_codebooks(np.vstack([features_a, features_b]), 2, 4, seed=3)
        assert (fit.model.codebooks == init.codebooks).all()
        assert len(fit.objectives) == 1

    def test_objective_non_increasing(self, rng):
        features_a = rng.standard_normal((60, 5))
        features_b = rng.standard_normal((60, 5))
        fit = learn_quantizer(features_a, features_b, num_books=2, book_size=8, alternations=10, seed=7)
        for before, after in zip(fit.objectives, fit.objectives[1:]):
            assert after <= before + 1e-9

    def test_two_modality_fit_is_its_steps_in_modality_order(self, rng):
        # one alternation by hand: a's statistics and objective first, then b's
        features_a = rng.standard_normal((40, 5))
        features_b = rng.standard_normal((40, 5))
        fit = learn_quantizer(features_a, features_b, num_books=2, book_size=4, alternations=1, seed=5)
        model = init_codebooks(np.vstack([features_a, features_b]), 2, 4, seed=5)
        ind_a, ind_b = assign_indicators(features_a, model), assign_indicators(features_b, model)
        first = quantization_objective(features_a, model, ind_a)
        first += quantization_objective(features_b, model, ind_b)
        model = update_codebooks(features_a, ind_a, features_b, ind_b)
        ind_a = assign_indicators(features_a, model, ind_a)
        ind_b = assign_indicators(features_b, model, ind_b)
        second = quantization_objective(features_a, model, ind_a)
        second += quantization_objective(features_b, model, ind_b)
        assert fit.model.codebooks.tobytes() == model.codebooks.tobytes()
        assert (fit.indicators_a.indices == ind_a.indices).all()
        assert (fit.indicators_b.indices == ind_b.indices).all()
        assert fit.objectives == (first, second)

    def test_one_modality_fit_has_no_second_indicators(self, rng):
        features = rng.standard_normal((30, 4))
        fit = learn_quantizer(features, num_books=2, book_size=4, alternations=1, seed=2)
        model = init_codebooks(features, 2, 4, seed=2)
        indicators = assign_indicators(features, model)
        model = update_codebooks(features, indicators)
        assert fit.indicators_b is None
        assert fit.model.codebooks.tobytes() == model.codebooks.tobytes()
        assert (fit.indicators_a.indices == assign_indicators(features, model, indicators).indices).all()

    def test_beats_unrefined_random_restarts(self):
        features_a, features_b, _ = synth_dataset(4, 25, 6, 0.2, seed=21)
        fit = learn_quantizer(
            features_a.values, features_b.values, num_books=1, book_size=4, alternations=10, seed=0
        )
        for seed in range(1, 6):
            cold = learn_quantizer(
                features_a.values, features_b.values, num_books=1, book_size=4, alternations=0, seed=seed
            )
            assert fit.objectives[-1] <= cold.objectives[-1]


class TestLookupAndAqd:
    def test_zero_query_gives_zero_table(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((3, 4, 5)))
        table = build_lookup_table(np.zeros(4), model)
        assert (table.values == 0).all()

    def test_table_example(self):
        books = np.zeros((1, 2, 2))
        books[0, 0, 0] = 1.0  # column 0 = e1 * 1
        books[0, 1, 1] = 2.0  # column 1 = e2 * 2
        table = build_lookup_table(np.array([3.0, 4.0]), QuantizerModel(codebooks=books))
        assert table.values.tolist() == [[3.0, 8.0]]
        assert aqd(table, [1]) == 8.0

    def test_table_matches_direct_dots(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((3, 6, 7)))
        query = rng.standard_normal(6)
        table = build_lookup_table(query, model)
        for book in range(3):
            for col in range(7):
                assert table.values[book, col] == pytest.approx(
                    float(query @ model.codebooks[book][:, col]), rel=1e-12
                )

    def test_aqd_exact_when_reconstruction_exact(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((2, 5, 3)))
        indices = np.array([1, 2])
        item = model.codebooks[0][:, 1] + model.codebooks[1][:, 2]
        query = rng.standard_normal(5)
        table = build_lookup_table(query, model)
        assert aqd(table, indices) == pytest.approx(float(query @ item), rel=1e-12)

    def test_aqd_error_bound(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((2, 5, 4)))
        for _ in range(50):
            query = rng.standard_normal(5)
            item = rng.standard_normal(5)
            indices = assign_indicators(item.reshape(1, -1), model).indices[0]
            table = build_lookup_table(query, model)
            error = abs(aqd(table, indices) - float(query @ item))
            bound = np.linalg.norm(query) * quantization_residual_norm(item, model, indices)
            assert error <= bound * (1 + 1e-6)

    def test_aqd_scores_matches_scalar_aqd(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((3, 4, 6)))
        indicators = IndicatorSet(book_size=6, indices=rng.integers(0, 6, size=(9, 3), dtype=np.int32))
        table = build_lookup_table(rng.standard_normal(4), model)
        batch = aqd_scores(table, indicators)
        for i in range(9):
            assert batch[i] == pytest.approx(aqd(table, indicators.indices[i]), rel=1e-12)

    def test_aqd_index_out_of_range(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((1, 3, 2)))
        table = build_lookup_table(np.ones(3), model)
        with pytest.raises(IndexOutOfRange):
            aqd(table, [2])
        with pytest.raises(IndexOutOfRange):
            aqd(table, [0, 0])


class TestResidualNorm:
    def test_exact_representation(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((2, 4, 3)))
        feature = model.codebooks[0][:, 0] + model.codebooks[1][:, 2]
        assert quantization_residual_norm(feature, model, [0, 2]) == 0.0

    def test_epsilon_offset(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((1, 4, 3)))
        feature = model.codebooks[0][:, 1].copy()
        feature[0] += 0.25
        assert quantization_residual_norm(feature, model, [1]) == pytest.approx(0.25, rel=1e-12)

    def test_matches_direct_norm(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((3, 5, 4)))
        feature = rng.standard_normal(5)
        indices = [2, 0, 3]
        expected = np.linalg.norm(
            feature - sum(model.codebooks[l][:, indices[l]] for l in range(3))
        )
        assert quantization_residual_norm(feature, model, indices) == pytest.approx(
            float(expected), rel=1e-12
        )

    def test_dim_mismatch(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((1, 4, 2)))
        with pytest.raises(DimMismatch):
            quantization_residual_norm(np.ones(5), model, [0])


class TestIndicatorStorage:
    def test_out_of_range_raises_instead_of_wrapping(self):
        for book_size in (8, MAX_BOOK_SIZE):
            with pytest.raises(ValueError):
                IndicatorSet(book_size=book_size, indices=np.array([[0], [-1]]))
            with pytest.raises(ValueError):
                IndicatorSet(book_size=book_size, indices=np.array([[0], [book_size]]))
        with pytest.raises(ValueError):
            IndicatorSet(book_size=MAX_BOOK_SIZE + 1, indices=np.zeros((1, 1), dtype=np.int64))

    def test_non_integer_indices_rejected(self):
        for given in (np.array([[0.0], [1.5]]), np.array([[0.0], [np.nan]]), np.array([[True], [False]])):
            with pytest.raises(ValueError, match="integer"):
                IndicatorSet(book_size=4, indices=given)

    def test_caller_array_is_neither_frozen_nor_shared(self):
        for given in (
            np.asfortranarray(np.array([[1, 2], [3, 0]], dtype=np.uint16)),
            np.array([[1], [3]], dtype=np.uint16),
        ):
            indicators = IndicatorSet(book_size=4, indices=given)
            assert given.flags.writeable and not indicators.indices.flags.writeable
            given[0, 0] = 2
            assert indicators.indices[0, 0] == 1

    def test_model_keeps_a_private_copy_of_the_codebooks(self, rng):
        given = rng.standard_normal((2, 3, 4))
        model = QuantizerModel(codebooks=given)
        assert given.flags.writeable and not model.codebooks.flags.writeable
        given[0, 0, 0] = 7.0
        assert model.codebooks[0, 0, 0] != 7.0

    def test_non_finite_features_rejected(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((2, 3, 4)))
        for bad in (np.nan, np.inf):
            features = rng.standard_normal((5, 3))
            features[2, 1] = bad
            with pytest.raises(NonFiniteValue):
                assign_indicators(features, model)

    def test_uint16_column_major_and_read_only(self, rng):
        given = rng.integers(0, MAX_BOOK_SIZE, size=(7, 3))
        given[2, 1] = MAX_BOOK_SIZE - 1
        indicators = IndicatorSet(book_size=MAX_BOOK_SIZE, indices=given)
        assert indicators.indices.dtype == np.uint16
        assert indicators.indices.flags.f_contiguous and not indicators.indices.flags.writeable
        assert indicators.indices.tolist() == given.tolist()
        assert indicators.indices[2, 1] == MAX_BOOK_SIZE - 1

    def test_aqd_scores_equal_scalar_aqd_for_all_rows_and_a_shuffled_subset(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((4, 5, 7)))
        indicators = IndicatorSet(book_size=7, indices=rng.integers(0, 7, size=(40, 4)))
        table = build_lookup_table(rng.standard_normal(5), model)
        every = aqd_scores(table, indicators)
        assert every.tolist() == [aqd(table, row) for row in indicators.indices]
        items = rng.permutation(40)[:15]
        subset = aqd_scores(table, indicators, items=items)
        assert subset.tolist() == [aqd(table, indicators.indices[item]) for item in items]

    def test_index_file_round_trip_keeps_the_largest_index(self, tmp_path, rng):
        features = rng.standard_normal((5, 3))
        model = QuantizerModel(codebooks=rng.standard_normal((2, 3, MAX_BOOK_SIZE)))
        given = np.array([[0, MAX_BOOK_SIZE - 1], [MAX_BOOK_SIZE - 1, 0], [1, 2], [3, 4], [65000, 5]])
        index = build_index(features, model, IndicatorSet(book_size=MAX_BOOK_SIZE, indices=given))
        first, second = tmp_path / "first.hqx", tmp_path / "second.hqx"
        save_index(index, first)
        loaded = load_index(first)
        assert loaded.indicators.indices.tolist() == given.tolist()
        assert loaded.indicators.indices.dtype == np.uint16
        save_index(loaded, second)
        assert first.read_bytes() == second.read_bytes()
