"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every test enforces its stated runtime budget and tolerance; the
two timed criteria (8 and 9) run at full desk scale, so the whole module
takes a couple of minutes.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from hashquant import (
    BadMagic,
    IndicatorSet,
    LossWeights,
    QuantizerModel,
    RetrievalTask,
    TrainConfig,
    TruncatedFile,
    assign_indicators,
    build_index,
    build_lookup_table,
    encoder_forward,
    full_aqd_query,
    generate_pairs,
    harmonic_mean,
    init_encoder,
    learn_quantizer,
    load_features,
    load_index,
    load_labels,
    loss_gradients,
    memory_footprint,
    op_count,
    quantization_objective,
    save_features,
    save_index,
    save_labels,
    sign_encode,
    sweep_alpha,
    sweep_n,
    synth_dataset,
    total_loss,
    train,
    two_stage_query,
    update_codebooks,
)
from hashquant.evaluate import CostModel
from hashquant.features import PairBatch
from reference import aqd, hamming_distance, map_at, quantization_residual_norm


@contextmanager
def budget(criterion: int, seconds: float, description: str):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {criterion} took {elapsed:.2f}s, budget {seconds}s"
    print(f"ACCEPTANCE {criterion:2d} PASS ({elapsed:6.2f}s) {description}")


def test_criterion_01_hamming_euclidean_identity():
    with budget(1, 1.0, "squared euclidean of sign codes is exactly 4x hamming"):
        rng = np.random.default_rng(101)
        for dim in (16, 64, 128, 130):
            signs = rng.choice([-1.0, 1.0], size=(250, 2, dim))
            for pair in signs:
                codes = sign_encode(pair)
                dist = hamming_distance(codes, codes, 0, 1)
                euclid_sq = int(((pair[0].astype(np.int64) - pair[1].astype(np.int64)) ** 2).sum())
                assert euclid_sq == 4 * dist


def test_criterion_02_aqd_error_bound():
    with budget(2, 5.0, "aqd error bounded by |query| * reconstruction residual"):
        rng = np.random.default_rng(202)
        features_a, features_b, _ = synth_dataset(8, 100, 24, 0.3, seed=202)
        fit = learn_quantizer(
            features_a.values, features_b.values, num_books=4, book_size=16, alternations=5, seed=2
        )
        items = features_b.values.astype(np.float64)
        for _ in range(1000):
            query = rng.standard_normal(24)
            item_id = rng.integers(0, items.shape[0])
            item = items[item_id]
            indices = fit.indicators_b.indices[item_id]
            table = build_lookup_table(query, fit.model)
            error = abs(aqd(table, indices) - float(query @ item))
            bound = float(np.linalg.norm(query)) * quantization_residual_norm(item, fit.model, indices)
            assert error <= bound * (1 + 1e-6)


def test_criterion_03_closed_form_optimality():
    with budget(3, 5.0, "closed-form codebooks beat 100 random perturbations x20 instances"):
        rng = np.random.default_rng(303)
        for _ in range(20):
            features = rng.standard_normal((100, 8))
            indicators = IndicatorSet(
                book_size=4, indices=rng.integers(0, 4, size=(100, 1), dtype=np.int32)
            )
            model = update_codebooks(features, indicators, ridge=1e-8)
            base = quantization_objective(features, model, indicators)
            for _ in range(100):
                delta = rng.standard_normal(model.codebooks.shape)
                delta *= 1e-2 / np.linalg.norm(delta)
                perturbed = QuantizerModel(codebooks=model.codebooks + delta)
                assert base <= quantization_objective(features, perturbed, indicators)


def test_criterion_04_indicator_oracle_equivalence():
    with budget(4, 10.0, "descent equals the exhaustive indicator search"):
        rng = np.random.default_rng(404)
        # single book: exact equality with the exhaustive argmin on 50 instances
        for _ in range(50):
            features = rng.standard_normal((20, 4))
            model = QuantizerModel(codebooks=rng.standard_normal((1, 4, 5)))
            assigned = assign_indicators(features, model)
            dists = (
                ((features[:, :, None] - model.codebooks[0][None, :, :]) ** 2).sum(axis=1)
            )
            assert (assigned.indices[:, 0] == dists.argmin(axis=1)).all()

        # two books, k=3: each instance is one item's k^m = 9 joint search
        hits = 0
        for _ in range(50):
            feature = rng.standard_normal((1, 4))
            model = QuantizerModel(codebooks=rng.standard_normal((2, 4, 3)))
            prev = IndicatorSet(book_size=3, indices=rng.integers(0, 3, size=(1, 2), dtype=np.int32))
            before = quantization_objective(feature, model, prev)
            refined = assign_indicators(feature, model, prev, max_rounds=10)
            after_prev = quantization_objective(feature, model, refined)
            assert after_prev <= before + 1e-12  # never worse than its own previous

            greedy = assign_indicators(feature, model, None, max_rounds=10)
            achieved = quantization_objective(feature, model, greedy)
            best = min(
                float(((feature[0] - model.codebooks[0][:, c0] - model.codebooks[1][:, c1]) ** 2).sum())
                for c0, c1 in itertools.product(range(3), range(3))
            )
            assert achieved >= best - 1e-9
            if achieved <= best + 1e-9:
                hits += 1
        assert hits >= 40, f"descent matched the joint optimum on only {hits}/50 instances"


def test_criterion_05_gradient_checks():
    with budget(5, 30.0, "analytic gradients match central differences at 1e-4"):
        rng = np.random.default_rng(505)
        settings = {
            "sim": LossWeights(1.0, 0.0, 0.0, 0.0),
            "hash": LossWeights(0.0, 1.0, 0.0, 0.0),
            "balance": LossWeights(0.0, 0.0, 1.0, 0.0),
            "quant": LossWeights(0.0, 0.0, 0.0, 1.0),
            "combined": LossWeights(50.0, 0.01, 0.01, 0.0001),
        }
        step = 1e-5
        for depth in (1, 2):
            for name, weights in settings.items():
                for trial in range(20):
                    dim, n_items, n_pairs = 5, 8, 4
                    features_a = rng.standard_normal((n_items, dim))
                    features_b = rng.standard_normal((n_items, dim))
                    batch = PairBatch(
                        index_a=rng.integers(0, n_items, size=n_pairs),
                        index_b=rng.integers(0, n_items, size=n_pairs),
                        similar=rng.integers(0, 2, size=n_pairs).astype(np.int8),
                    )
                    seed = int(rng.integers(0, 2**31))
                    encoder_a = init_encoder(dim, depth, seed)
                    encoder_b = init_encoder(dim, depth, seed + 1)
                    fit = learn_quantizer(
                        encoder_forward(encoder_a, features_a),
                        encoder_forward(encoder_b, features_b),
                        num_books=2,
                        book_size=3,
                        alternations=2,
                        seed=seed,
                    )
                    grads = loss_gradients(
                        batch, features_a, features_b, encoder_a, encoder_b, weights,
                        fit.model, fit.indicators_a, fit.indicators_b,
                    )
                    analytic = np.concatenate(
                        [np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads[0] + grads[1]]
                    )

                    def pack(encoder):
                        return np.concatenate(
                            [np.concatenate([w.ravel(), b.ravel()]) for w, b in encoder.layers]
                        )

                    def unpack(template, flat):
                        from hashquant import EncoderParams

                        layers, offset = [], 0
                        for weight, bias in template.layers:
                            w = flat[offset : offset + weight.size].reshape(weight.shape)
                            offset += weight.size
                            b = flat[offset : offset + bias.size]
                            offset += bias.size
                            layers.append((w, b))
                        return EncoderParams(layers=tuple(layers))

                    flat_a, flat_b = pack(encoder_a), pack(encoder_b)
                    stacked = np.concatenate([flat_a, flat_b])

                    def loss_at(flat):
                        enc_a = unpack(encoder_a, flat[: flat_a.size])
                        enc_b = unpack(encoder_b, flat[flat_a.size :])
                        return total_loss(
                            batch, features_a, features_b, enc_a, enc_b, weights,
                            fit.model, fit.indicators_a, fit.indicators_b,
                        )

                    numeric = np.empty_like(stacked)
                    for i in range(stacked.size):
                        bumped = stacked.copy()
                        bumped[i] += step
                        up = loss_at(bumped)
                        bumped[i] -= 2 * step
                        numeric[i] = (up - loss_at(bumped)) / (2 * step)

                    scale = max(1.0, float(np.abs(numeric).max()))
                    worst = float(np.abs(analytic - numeric).max())
                    assert worst <= 1e-4 * scale, f"{name} depth={depth} trial={trial}: {worst}"


def test_criterion_06_two_stage_endpoint_identities():
    with budget(6, 5.0, "candidates=N reproduces quantizer-only ranking; alpha endpoints match"):
        features_a, features_b, labels = synth_dataset(5, 100, 32, 0.3, seed=606)
        fit = learn_quantizer(
            features_a.values, features_b.values, num_books=4, book_size=16, alternations=4, seed=6
        )
        index_b = build_index(features_b.values, fit.model, fit.indicators_b, "b")
        index_a = build_index(features_a.values, fit.model, fit.indicators_a, "a")
        n_items = index_b.count
        for query in features_a.values[:20]:
            via_filter = two_stage_query(query, index_b, candidates=n_items, top_k=n_items)
            direct = full_aqd_query(query, index_b, top_k=n_items)
            assert (via_filter.indices == direct.indices).all()
            assert np.array_equal(via_filter.scores, direct.scores)

        relevance = (labels.masks[:, None] & labels.masks[None, :]) != 0
        task_i2t = RetrievalTask(
            queries=features_a.values[:50], index=index_b, relevant_sets=tuple(relevance[:50])
        )
        task_t2i = RetrievalTask(
            queries=features_b.values[:50], index=index_a, relevant_sets=tuple(relevance.T[:50])
        )
        points = sweep_alpha(task_i2t, task_t2i, [0.0, 1.0], cutoff=50, repeats=5)
        hash_i2t = map_at(
            task_i2t.queries, task_i2t.relevant_sets, mode="hash_only", index=index_b, cutoff=50
        )
        hash_t2i = map_at(
            task_t2i.queries, task_t2i.relevant_sets, mode="hash_only", index=index_a, cutoff=50
        )
        assert points[0].map_i2t == hash_i2t and points[0].map_t2i == hash_t2i
        aqd_i2t = map_at(
            task_i2t.queries, task_i2t.relevant_sets, mode="full_aqd", index=index_b, cutoff=50
        )
        assert points[1].map_i2t == aqd_i2t


def test_criterion_07_cost_accounting():
    with budget(7, 1.0, "memory and op formulas reproduce the four accounting rows"):
        reference = CostModel(count=1000, dim=128, num_books=4, book_size=256, candidates=100)
        assert memory_footprint(reference, "hq") == 4_354_304
        assert memory_footprint(reference, "binary_hash") == 128_000
        assert memory_footprint(reference, "lossless") == 4_096_000
        assert memory_footprint(reference, "quantization") == 4_226_304

        second = CostModel(count=100_000, dim=128, num_books=4, book_size=256, candidates=100)
        assert op_count(second, "hq") == 12_800_000 + 131_072 + 400
        assert op_count(second, "quantization") == 131_072 + 400_000
        assert op_count(second, "lossless") == 12_800_000
        assert op_count(second, "binary_hash") == 12_800_000
        assert memory_footprint(second, "quantization") == 4_194_304 + 3_200_000

        third = CostModel(count=7, dim=3, num_books=1, book_size=2, candidates=7)
        assert memory_footprint(third, "lossless") == 672
        assert memory_footprint(third, "binary_hash") == 21
        assert memory_footprint(third, "quantization") == 199
        assert memory_footprint(third, "hq") == 220
        assert op_count(third, "hq") == op_count(third, "binary_hash") + op_count(third, "quantization")


@pytest.mark.slow
def test_criterion_08_efficiency_claim():
    with budget(8, 300.0, "equal-memory: filtered pipeline faster, speedup grows with dim"):
        dims = [64, 128, 256, 512]
        points = sweep_n(dims, count=100_000, candidates=100, num_queries=24, repeats=5, seed=808)
        for point in points:
            gap = abs(point.quant_memory_bits - point.hq_memory_bits) / point.hq_memory_bits
            assert gap <= 0.05, f"memory parity violated at dim {point.dim}: {gap:.2%}"
        at_128 = points[dims.index(128)]
        assert at_128.hq_seconds < at_128.quant_seconds, "two-stage not faster at dim 128"
        ratios = [point.ratio for point in points]
        rho = spearmanr(dims, ratios).statistic
        assert rho > 0.9, f"speedup not rank-correlated with dim: spearman={rho}"
        predicted = [point.predicted_quant_ops / point.predicted_hq_ops for point in points]
        # integer book-count rounding can swap one adjacent pair in the model's
        # ordering; demand agreement up to that
        assert spearmanr(predicted, ratios).statistic >= 0.7


@pytest.mark.slow
def test_criterion_09_end_to_end_retrieval_quality():
    with budget(9, 300.0, "trained compact codes keep at least 90% of lossless MAP"):
        features_a, features_b, labels = synth_dataset(10, 500, 32, 0.3, seed=42)
        pairs = generate_pairs(labels, labels, shuffle_seed=42)
        result = train(features_a, features_b, pairs, TrainConfig(seed=42), LossWeights())
        encoded_a = encoder_forward(result.encoder_a, features_a.values)
        encoded_b = encoder_forward(result.encoder_b, features_b.values)
        index_a = build_index(encoded_a, result.quantizer, result.indicators_a, "a")
        index_b = build_index(encoded_b, result.quantizer, result.indicators_b, "b")
        relevance = (labels.masks[:, None] & labels.masks[None, :]) != 0
        for queries, index, database, relevant in (
            (encoded_a, index_b, encoded_b, tuple(relevance)),
            (encoded_b, index_a, encoded_a, tuple(relevance.T)),
        ):
            two_stage = map_at(queries, relevant, mode="two_stage", index=index, candidates=100)
            hash_only = map_at(queries, relevant, mode="hash_only", index=index)
            lossless = map_at(queries, relevant, mode="lossless", database_features=database)
            assert two_stage >= 0.9 * lossless, f"{two_stage} < 0.9 * {lossless}"
            assert two_stage >= hash_only - 0.02, f"{two_stage} < {hash_only} - 0.02"


def test_criterion_10_map_oracle():
    with budget(10, 1.0, "MAP matches the literal definition; harmonic mean reproduces"):
        rng = np.random.default_rng(1010)
        features = rng.standard_normal((20, 8))
        fit = learn_quantizer(features, num_books=2, book_size=4, alternations=3, seed=10)
        index = build_index(features, fit.model, fit.indicators_a)
        queries = rng.standard_normal((6, 8))
        relevant_sets = [rng.choice(20, size=rng.integers(1, 8), replace=False) for _ in queries]
        got = map_at(queries, relevant_sets, mode="full_aqd", index=index, cutoff=50)

        total = 0.0
        for query, relevant in zip(queries, relevant_sets):
            ranking = full_aqd_query(query, index, top_k=20).indices
            hits, ap = 0, 0.0
            for rank, item in enumerate(ranking[:50], start=1):
                if item in set(int(r) for r in relevant):
                    hits += 1
                    ap += hits / rank
            total += ap / min(len(relevant), 50)
        assert abs(got - total / len(queries)) <= 1e-12

        assert abs(harmonic_mean(0.542, 0.493) - 0.516) <= 1e-3


def test_criterion_11_serialization(tmp_path):
    with budget(11, 1.0, "bit-exact round trips; corrupted files raise the named errors"):
        rng = np.random.default_rng(1111)
        features_a, features_b, labels = synth_dataset(4, 20, 40, 0.3, seed=11)

        dfm = tmp_path / "x.dfm"
        save_features(features_a, dfm)
        assert (load_features(dfm).values == features_a.values).all()
        blob = dfm.read_bytes()
        save_features(load_features(dfm), tmp_path / "x2.dfm")
        assert (tmp_path / "x2.dfm").read_bytes() == blob

        lbl = tmp_path / "x.lbl"
        save_labels(labels, lbl)
        assert (load_labels(lbl).masks == labels.masks).all()

        fit = learn_quantizer(features_a.values, features_b.values, num_books=2, book_size=8, seed=1)
        index = build_index(features_b.values, fit.model, fit.indicators_b, "b")
        hqx = tmp_path / "x.hqx"
        save_index(index, hqx)
        loaded = load_index(hqx)
        save_index(loaded, tmp_path / "x2.hqx")
        assert (tmp_path / "x2.hqx").read_bytes() == hqx.read_bytes()
        assert (loaded.codes.words == index.codes.words).all()
        assert (loaded.indicators.indices == index.indicators.indices).all()

        for path, magic in ((dfm, b"DFM1"), (lbl, b"LBL1"), (hqx, b"HQX1")):
            corrupt = tmp_path / ("bad" + path.suffix)
            corrupt.write_bytes(b"ZZZZ" + path.read_bytes()[4:])
            loader = {b"DFM1": load_features, b"LBL1": load_labels, b"HQX1": load_index}[magic]
            with pytest.raises(BadMagic):
                loader(corrupt)
            short = tmp_path / ("short" + path.suffix)
            short.write_bytes(path.read_bytes()[:-3])
            with pytest.raises(TruncatedFile):
                loader(short)
