import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hashquant import (
    BadMagic,
    EncoderParams,
    LossWeights,
    NonFiniteValue,
    PairBatch,
    TrainConfig,
    TruncatedFile,
    VersionMismatch,
    encoder_forward,
    generate_pairs,
    init_encoder,
    learn_quantizer,
    load_model,
    loss_gradients,
    save_model,
    synth_dataset,
    total_loss,
    train,
)
from hashquant.quantizer import MAX_BOOK_SIZE, QuantizerModel
from reference import balance_loss, hash_loss, quant_loss_term, sim_loss


def zero_encoder(dim, depth=1, modality="a"):
    layers = tuple((np.zeros((dim, dim)), np.zeros(dim)) for _ in range(depth))
    return EncoderParams(modality=modality, layers=layers)


def flatten_params(params):
    return np.concatenate([np.concatenate([w.ravel(), b.ravel()]) for w, b in params.layers])


def rebuild_params(params, flat):
    layers = []
    offset = 0
    for weight, bias in params.layers:
        w = flat[offset : offset + weight.size].reshape(weight.shape)
        offset += weight.size
        b = flat[offset : offset + bias.size]
        offset += bias.size
        layers.append((w, b))
    return EncoderParams(modality=params.modality, layers=tuple(layers))


def finite_difference(loss_of, flat, step=1e-5):
    grad = np.empty_like(flat)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += step
        up = loss_of(bumped)
        bumped[i] -= 2 * step
        down = loss_of(bumped)
        grad[i] = (up - down) / (2 * step)
    return grad


class TestForward:
    def test_zero_params_give_zero_output(self):
        params = zero_encoder(4)
        assert (encoder_forward(params, np.ones(4)) == 0).all()

    def test_saturation(self):
        params = EncoderParams(modality="a", layers=((np.eye(3) * 100.0, np.zeros(3)),))
        out = encoder_forward(params, np.ones(3))
        assert (np.abs(out - 1.0) < 1e-6).all()

    def test_matches_slow_reference(self, rng):
        for depth in (1, 2):
            params = init_encoder(5, depth, seed=3)
            x = rng.standard_normal(5)
            ref = x.copy()
            for weight, bias in params.layers:
                pre = np.array([sum(ref[i] * weight[i, j] for i in range(5)) + bias[j] for j in range(5)])
                ref = np.tanh(pre)
            assert np.allclose(encoder_forward(params, x), ref, rtol=1e-12)

    def test_output_strictly_inside_unit_box(self, rng):
        params = init_encoder(6, 2, seed=0)
        out = encoder_forward(params, rng.standard_normal((50, 6)) * 100)
        assert (np.abs(out) < 1.0).all()


class TestLossTerms:
    def test_sim_loss_at_zero(self):
        assert sim_loss(np.zeros(3), np.zeros(3), 1) == pytest.approx(math.log(2), rel=1e-12)
        assert sim_loss(np.zeros(3), np.zeros(3), 0) == pytest.approx(math.log(2), rel=1e-12)

    def test_sim_loss_large_positive_similar(self):
        # softplus(30) - 30 = log1p(e^-30) = 9.357622968840175e-14 exactly
        # (log1p(x) = x - x^2/2 + ... converges in one term here); float64
        # cannot beat half an ulp of 30 (1.8e-15) when forming softplus(30)
        f_i = np.array([30.0])
        f_j = np.array([1.0])
        assert sim_loss(f_i, f_j, 1) == pytest.approx(9.357622968840175e-14, abs=1.8e-15)

    def test_sim_loss_convex_in_z(self):
        grid = np.linspace(-6.0, 6.0, 49)
        vals = [sim_loss(np.array([z]), np.array([1.0]), 1) for z in grid]
        second = np.diff(vals, n=2)
        assert (second > 0).all()

    def test_hash_loss_examples(self):
        assert hash_loss(np.array([1.0, -1.0])) == 0.0
        assert hash_loss(np.array([0.0, 0.0])) == 2.0  # sign(0) = +1
        assert hash_loss(np.array([0.5, -0.5])) == pytest.approx(0.5, rel=1e-12)

    @given(hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(-2, 2)))
    def test_hash_loss_zero_iff_binary(self, row):
        loss = hash_loss(row)
        assert loss >= 0
        assert (loss == 0) == bool((np.abs(row) == 1.0).all())

    def test_balance_loss_examples(self):
        assert balance_loss(np.array([1.0, -1.0])) == 0.0
        assert balance_loss(np.array([1.0, 1.0])) == 4.0
        assert balance_loss(np.array([0.3, 0.3, -0.6])) < 1e-30

    @given(hnp.arrays(np.float64, st.integers(1, 8), elements=st.floats(-2, 2)))
    def test_balance_loss_zero_iff_zero_sum(self, row):
        loss = balance_loss(row)
        assert loss >= 0
        assert (loss == 0) == (row.sum() ** 2 == 0)

    def test_quant_loss_examples(self, rng):
        model = QuantizerModel(codebooks=rng.standard_normal((2, 4, 3)))
        exact = model.codebooks[0][:, 1] + model.codebooks[1][:, 0]
        assert quant_loss_term(exact, model, [1, 0]) == 0.0
        offset = exact.copy()
        offset[2] += 0.5
        assert quant_loss_term(offset, model, [1, 0]) == pytest.approx(0.25, rel=1e-12)


def tiny_setup(rng, n_items=10, dim=4, pairs=6, depth=1, with_quantizer=True, seed=0):
    features_a = rng.standard_normal((n_items, dim))
    features_b = rng.standard_normal((n_items, dim))
    batch = PairBatch(
        index_a=rng.integers(0, n_items, size=pairs),
        index_b=rng.integers(0, n_items, size=pairs),
        similar=rng.integers(0, 2, size=pairs).astype(np.int8),
    )
    encoder_a = init_encoder(dim, depth, seed=seed, modality="a")
    encoder_b = init_encoder(dim, depth, seed=seed + 1, modality="b")
    quantizer = indicators_a = indicators_b = None
    if with_quantizer:
        fit = learn_quantizer(
            encoder_forward(encoder_a, features_a),
            encoder_forward(encoder_b, features_b),
            num_books=2,
            book_size=3,
            alternations=2,
            seed=seed,
        )
        quantizer, indicators_a, indicators_b = fit.model, fit.indicators_a, fit.indicators_b
    return features_a, features_b, batch, encoder_a, encoder_b, quantizer, indicators_a, indicators_b


class TestTotalLoss:
    def test_zero_weights_give_exact_zero(self, rng):
        fa, fb, batch, ea, eb, q, ia, ib = tiny_setup(rng)
        weights = LossWeights(0.0, 0.0, 0.0, 0.0)
        assert total_loss(batch, fa, fb, ea, eb, weights, q, ia, ib) == 0.0

    def test_single_pair_sim_only_is_log_two(self):
        features = np.ones((1, 3))
        batch = PairBatch(index_a=[0], index_b=[0], similar=[1])
        ea, eb = zero_encoder(3, modality="a"), zero_encoder(3, modality="b")
        weights = LossWeights(1.0, 0.0, 0.0, 0.0)
        assert total_loss(batch, features, features, ea, eb, weights) == pytest.approx(
            math.log(2), rel=1e-12
        )

    def test_matches_termwise_oracle(self, rng):
        fa, fb, batch, ea, eb, q, ia, ib = tiny_setup(rng, pairs=8)
        weights = LossWeights(2.0, 0.3, 0.7, 0.1)
        out_a = encoder_forward(ea, fa)
        out_b = encoder_forward(eb, fb)
        expected = 0.0
        for i, j, s in zip(batch.index_a, batch.index_b, batch.similar):
            expected += weights.lambda_sim * sim_loss(out_a[i], out_b[j], int(s))
            expected += weights.lambda_h * (hash_loss(out_a[i]) + hash_loss(out_b[j]))
            expected += weights.lambda_b * (balance_loss(out_a[i]) + balance_loss(out_b[j]))
            expected += weights.lambda_q * (
                quant_loss_term(out_a[i], q, ia.indices[i])
                + quant_loss_term(out_b[j], q, ib.indices[j])
            )
        got = total_loss(batch, fa, fb, ea, eb, weights, q, ia, ib)
        assert got == pytest.approx(expected, rel=1e-10)


class TestGradients:
    def test_hash_only_bias_gradient_at_zero(self):
        # f = tanh(0) = 0, dL_h/df = 2(0 - 1) = -2, tanh'(0) = 1
        dim = 4
        features = np.zeros((1, dim))
        batch = PairBatch(index_a=[0], index_b=[0], similar=[1])
        ea, eb = zero_encoder(dim, modality="a"), zero_encoder(dim, modality="b")
        weights = LossWeights(0.0, 1.0, 0.0, 0.0)
        grads_a, grads_b = loss_gradients(batch, features, features, ea, eb, weights)
        assert np.allclose(grads_a[0][1], -2.0)
        assert np.allclose(grads_b[0][1], -2.0)

    def test_sim_only_gradient_at_zero_z(self):
        # encoder A outputs zeros; encoder B has a bias, so dL/dbias_a = (0.5 - s) f_b
        dim = 3
        features = np.zeros((1, dim))
        batch = PairBatch(index_a=[0], index_b=[0], similar=[0])
        ea = zero_encoder(dim, modality="a")
        bias_b = np.array([0.5, -0.2, 0.1])
        eb = EncoderParams(modality="b", layers=((np.zeros((dim, dim)), bias_b),))
        weights = LossWeights(1.0, 0.0, 0.0, 0.0)
        grads_a, _ = loss_gradients(batch, features, features, ea, eb, weights)
        f_b = np.tanh(bias_b)
        assert np.allclose(grads_a[0][1], 0.5 * f_b, rtol=1e-12)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_matches_finite_differences(self, rng, depth):
        fa, fb, batch, ea, eb, q, ia, ib = tiny_setup(rng, depth=depth, seed=4)
        weights = LossWeights(3.0, 0.5, 0.4, 0.2)
        grads_a, grads_b = loss_gradients(batch, fa, fb, ea, eb, weights, q, ia, ib)
        analytic = np.concatenate(
            [np.concatenate([gw.ravel(), gb.ravel()]) for gw, gb in grads_a + grads_b]
        )
        flat_a, flat_b = flatten_params(ea), flatten_params(eb)

        def loss_of(flat):
            enc_a = rebuild_params(ea, flat[: flat_a.size])
            enc_b = rebuild_params(eb, flat[flat_a.size :])
            return total_loss(batch, fa, fb, enc_a, enc_b, weights, q, ia, ib)

        numeric = finite_difference(loss_of, np.concatenate([flat_a, flat_b]))
        scale = max(1.0, np.abs(numeric).max())
        assert np.abs(analytic - numeric).max() <= 1e-4 * scale


class TestTrain:
    def make_inputs(self, seed=0, clusters=2, per_cluster=10, dim=6):
        features_a, features_b, labels = synth_dataset(clusters, per_cluster, dim, 0.3, seed)
        pairs = generate_pairs(labels, labels, shuffle_seed=seed)
        return features_a, features_b, pairs

    def test_zero_epochs_returns_seeded_initialization(self):
        fa1, fb1, pairs1 = self.make_inputs(seed=1)
        fa2, fb2, pairs2 = self.make_inputs(seed=2)
        config = TrainConfig(epochs=0, num_books=1, book_size=4, seed=9)
        weights = LossWeights()
        one = train(fa1, fb1, pairs1, config, weights)
        two = train(fa2, fb2, pairs2, config, weights)
        # encoder init depends only on the seed, not the data
        for layer_one, layer_two in zip(one.encoder_a.layers, two.encoder_a.layers):
            assert (layer_one[0] == layer_two[0]).all()
            assert (layer_one[1] == layer_two[1]).all()
        assert len(one.losses) == 1

    def test_descent_on_two_clusters(self):
        features_a, features_b, pairs = self.make_inputs(seed=5)
        config = TrainConfig(epochs=15, batch_size=8, learning_rate=2e-4, num_books=1, book_size=4, seed=5)
        result = train(features_a, features_b, pairs, config, LossWeights())
        assert result.losses[-1] < result.losses[0]

    def test_bitwise_deterministic(self):
        features_a, features_b, pairs = self.make_inputs(seed=7)
        config = TrainConfig(epochs=3, batch_size=16, num_books=1, book_size=4, seed=11)
        one = train(features_a, features_b, pairs, config, LossWeights())
        two = train(features_a, features_b, pairs, config, LossWeights())
        for enc_one, enc_two in ((one.encoder_a, two.encoder_a), (one.encoder_b, two.encoder_b)):
            for (w1, b1), (w2, b2) in zip(enc_one.layers, enc_two.layers):
                assert w1.tobytes() == w2.tobytes()
                assert b1.tobytes() == b2.tobytes()
        assert one.quantizer.codebooks.tobytes() == two.quantizer.codebooks.tobytes()
        assert one.losses == two.losses

    def test_diverged_step_raises_non_finite_naming_the_epoch(self):
        features_a, features_b, pairs = self.make_inputs(seed=3)
        # the first step overflows every weight it touches to infinity
        config = TrainConfig(epochs=2, learning_rate=1e308, num_books=1, book_size=4, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteValue, match="epoch 1 of 2"):
                train(features_a, features_b, pairs, config, LossWeights())

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("epochs", [0, 2])
    def test_last_loss_is_the_total_loss_of_the_returned_model(self, depth, epochs):
        # train gathers its loss from the epoch's encodings; total_loss forwards the pair rows itself
        features_a, features_b, pairs = self.make_inputs(seed=4)
        weights = LossWeights()
        config = TrainConfig(epochs=epochs, batch_size=8, depth=depth, num_books=2, book_size=4, seed=6)
        result = train(features_a, features_b, pairs, config, weights)
        assert result.losses[-1] == total_loss(
            pairs, features_a, features_b, result.encoder_a, result.encoder_b, weights,
            result.quantizer, result.indicators_a, result.indicators_b,
        )

    def test_negative_pair_index_never_reaches_training(self):
        features_a, features_b, pairs = self.make_inputs(seed=3)
        config = TrainConfig(epochs=1, num_books=1, book_size=4, seed=3)
        index_b = pairs.index_b.copy()
        index_b[0] = -1  # would silently train on the last row
        with pytest.raises(ValueError, match="non-negative"):
            train(features_a, features_b, PairBatch(pairs.index_a, index_b, pairs.similar), config, LossWeights())


class TestConfigTypes:
    def test_default_weights(self):
        weights = LossWeights()
        assert weights.lambda_sim == 50.0
        assert weights.lambda_h == 0.01
        assert weights.lambda_b == 0.01
        assert weights.lambda_q == 0.0001

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_h=-0.1)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(depth=3)

    # each bad value fails naming its field; its integer part, one step toward the valid range, passes
    @pytest.mark.parametrize(
        "field, value",
        [("num_books", 0), ("book_size", 0), ("book_size", MAX_BOOK_SIZE + 1),
         ("alternations", -1), ("epochs", 2.5), ("batch_size", 2.5), ("seed", 2.5), ("depth", 2.0),
         ("num_books", 2.5), ("book_size", 2.5), ("alternations", 2.5)],
    )
    def test_quantizer_fields_validated(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
        TrainConfig(**{field: int(value) + (1 if value < 1 else -1)})

    # a float setting must be a finite real number and seed non-negative, each named when it fails
    @pytest.mark.parametrize(
        "owner, field, value",
        [(TrainConfig, "seed", -1), (TrainConfig, "learning_rate", float("nan")),
         (TrainConfig, "learning_rate", float("inf")), (LossWeights, "lambda_h", float("nan")),
         (LossWeights, "lambda_q", float("inf")), (LossWeights, "lambda_sim", "2")],
    )
    def test_non_finite_values_and_negative_seed_rejected(self, owner, field, value):
        with pytest.raises(ValueError, match=field):
            owner(**{field: value})

    def test_integer_fields_accept_numpy_integers(self):
        config = TrainConfig(epochs=np.int64(2), seed=np.uint32(5), depth=np.int8(2), book_size=np.int32(16))
        assert (config.epochs, config.seed, config.depth, config.book_size) == (2, 5, 2, 16)


class TestModelFile:
    def test_round_trip(self, tmp_path, rng):
        encoder_a = init_encoder(5, 2, seed=1, modality="a")
        encoder_b = init_encoder(5, 2, seed=2, modality="b")
        quantizer = QuantizerModel(codebooks=rng.standard_normal((3, 5, 4)))
        path = tmp_path / "model.hqm"
        save_model(path, encoder_a, encoder_b, quantizer)
        loaded_a, loaded_b, loaded_q = load_model(path)
        for original, loaded in ((encoder_a, loaded_a), (encoder_b, loaded_b)):
            for (w1, b1), (w2, b2) in zip(original.layers, loaded.layers):
                assert (w1 == w2).all() and (b1 == b2).all()
        assert (loaded_q.codebooks == quantizer.codebooks).all()

    def test_file_errors(self, tmp_path, rng):
        path = tmp_path / "model.hqm"
        path.write_bytes(b"WHAT" + bytes(20))
        with pytest.raises(BadMagic):
            load_model(path)
        encoder = init_encoder(3, 1, seed=0)
        quantizer = QuantizerModel(codebooks=rng.standard_normal((1, 3, 2)))
        save_model(path, encoder, encoder, quantizer)
        blob = path.read_bytes()
        path.write_bytes(blob[:30])
        with pytest.raises(TruncatedFile):
            load_model(path)
        path.write_bytes(b"HQM1" + bytes([9, 0, 0, 0]) + blob[8:])
        with pytest.raises(VersionMismatch):
            load_model(path)
