"""Shallow per-modality encoders trained with the four-term joint loss.

Each encoder is one or two affine layers with tanh after every layer, so
outputs live in (-1, 1) and double as relaxed binary codes.  The loss over
a pair batch combines a cross-entropy similarity term on feature inner
products with penalties pulling outputs toward {-1, +1} (hash), toward a
zero component sum (balance), and toward their quantizer reconstruction
(quantization).  Gradients are analytic; the sign target and the quantizer
indicators are held fixed within each step, and codebooks plus indicators
refresh at epoch boundaries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.special

from .binfile import read_file, write_file
from .errors import DimMismatch, NonFiniteValue
from .features import PairBatch, feature_values, frozen_copy
from .pool import _mac_workers, _row_slices
from .quantizer import (
    MAX_BOOK_SIZE,
    IndicatorSet,
    QuantizerModel,
    assign_indicators,
    learn_quantizer,
    reconstruct,
    update_codebooks,
)

MODEL_MAGIC = b"HQM1"
MODEL_VERSION = 1


def _check_finite(name: str, value) -> None:
    """A float setting must be a finite real number before numpy sees it."""
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


@dataclass(frozen=True)
class LossWeights:
    """Multipliers for the four loss terms; each must be a finite, non-negative real number."""

    lambda_sim: float = 50.0
    lambda_h: float = 0.01
    lambda_b: float = 0.01
    lambda_q: float = 0.0001

    def __post_init__(self):
        for name in ("lambda_sim", "lambda_h", "lambda_b", "lambda_q"):
            _check_finite(name, getattr(self, name))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    batch_size: int = 128
    learning_rate: float = 2e-4
    alternations: int = 1
    seed: int = 0
    depth: int = 1
    num_books: int = 4
    book_size: int = 256

    def __post_init__(self):
        for name in ("epochs", "batch_size", "alternations", "seed", "depth", "num_books", "book_size"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _check_finite("learning_rate", self.learning_rate)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.depth not in (1, 2):
            raise ValueError("encoder depth must be 1 or 2")
        if self.num_books < 1:
            raise ValueError("num_books must be >= 1")
        if not 1 <= self.book_size <= MAX_BOOK_SIZE:
            raise ValueError(f"book_size must be in [1, {MAX_BOOK_SIZE}]")
        if self.alternations < 0:
            raise ValueError("alternations must be >= 0")


@dataclass(frozen=True)
class EncoderParams:
    """Affine + tanh stack for one modality; weights are (d_in, d_out)."""

    modality: str
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        frozen = []
        for weight, bias in self.layers:
            weight, bias = frozen_copy(weight, np.float64), frozen_copy(bias, np.float64)
            if weight.ndim != 2 or bias.ndim != 1 or weight.shape[1] != bias.shape[0]:
                raise ValueError("each layer needs a (d_in, d_out) weight and (d_out,) bias")
            if not (np.isfinite(weight).all() and np.isfinite(bias).all()):
                raise ValueError("encoder parameters must be finite")
            frozen.append((weight, bias))
        object.__setattr__(self, "layers", tuple(frozen))

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[0]


def init_encoder(dim: int, depth: int, seed: int, modality: str = "") -> EncoderParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    rng = np.random.default_rng(seed)
    layers = []
    for _ in range(depth):
        limit = 1.0 / np.sqrt(dim)
        weight = rng.uniform(-limit, limit, size=(dim, dim))
        bias = rng.uniform(-limit, limit, size=dim)
        layers.append((weight, bias))
    return EncoderParams(modality=modality, layers=tuple(layers))


def encoder_forward(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """tanh(W x + c) per layer; accepts one row or a batch of rows.

    A batch whose contiguous row slices each keep pool.MIN_SLICE_MACS
    multiply-adds runs them on a thread pool of up to the usable CPUs.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.input_dim:
        raise DimMismatch(f"input has dim {x.shape[-1]}, encoder expects {params.input_dim}")
    if x.ndim != 2:
        return _forward_cached(params, x)[-1]
    workers = _mac_workers(x.shape[0], sum(weight.size for weight, _ in params.layers))
    parts = _row_slices(lambda lo, hi: _forward_cached(params, x[lo:hi])[-1], x.shape[0], workers)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _forward_cached(params: EncoderParams, x: np.ndarray) -> list[np.ndarray]:
    """Activations per layer, input first: the last is the encoder output, the rest feed backprop."""
    acts = [np.asarray(x, dtype=np.float64)]
    for weight, bias in params.layers:
        acts.append(np.tanh(acts[-1] @ weight + bias))
    return acts


def _backprop(params: EncoderParams, acts: list[np.ndarray], d_out: np.ndarray):
    """Gradients of a loss wrt all layer params given d(loss)/d(output)."""
    grads = [None] * params.depth
    delta = d_out
    for layer in range(params.depth - 1, -1, -1):
        pre_grad = delta * (1.0 - acts[layer + 1] ** 2)  # through tanh
        grads[layer] = (acts[layer].T @ pre_grad, pre_grad.sum(axis=0))
        if layer:
            delta = pre_grad @ params.layers[layer][0].T
    return grads


def _softplus(z: np.ndarray) -> np.ndarray:
    """log(1 + e^z) without overflow for large |z|."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _sign(values: np.ndarray) -> np.ndarray:
    return np.where(values >= 0, 1.0, -1.0)


def _batch_terms(
    batch: PairBatch,
    features_a,
    features_b,
    encoder_a: EncoderParams,
    encoder_b: EncoderParams,
    weights: LossWeights,
    quantizer: QuantizerModel | None,
    indicators_a: IndicatorSet | None,
    indicators_b: IndicatorSet | None,
):
    """Forward the batch once; reconstructions only when the quantization term is on."""
    values_a = np.asarray(feature_values(features_a), dtype=np.float64)
    values_b = np.asarray(feature_values(features_b), dtype=np.float64)
    acts_a = _forward_cached(encoder_a, values_a[batch.index_a])
    acts_b = _forward_cached(encoder_b, values_b[batch.index_b])
    recon_a = recon_b = None
    if weights.lambda_q:
        if quantizer is None or indicators_a is None or indicators_b is None:
            raise ValueError("lambda_q > 0 requires a quantizer and indicators")
        recon_a = reconstruct(quantizer, indicators_a.indices[batch.index_a])
        recon_b = reconstruct(quantizer, indicators_b.indices[batch.index_b])
    return acts_a, acts_b, recon_a, recon_b


def _weighted_loss(f_a, f_b, similar, weights: LossWeights, recon_a, recon_b) -> float:
    """The four-term sum over pair rows: outputs and reconstructions row-aligned with `similar`."""
    z = (f_a * f_b).sum(axis=1)
    s = similar.astype(np.float64)
    loss = weights.lambda_sim * float((_softplus(z) - s * z).sum())
    if weights.lambda_h:
        loss += weights.lambda_h * float(((f_a - _sign(f_a)) ** 2).sum() + ((f_b - _sign(f_b)) ** 2).sum())
    if weights.lambda_b:
        loss += weights.lambda_b * float((f_a.sum(axis=1) ** 2).sum() + (f_b.sum(axis=1) ** 2).sum())
    if weights.lambda_q:
        loss += weights.lambda_q * float(((f_a - recon_a) ** 2).sum() + ((f_b - recon_b) ** 2).sum())
    return loss


def total_loss(
    batch: PairBatch,
    features_a,
    features_b,
    encoder_a: EncoderParams,
    encoder_b: EncoderParams,
    weights: LossWeights,
    quantizer: QuantizerModel | None = None,
    indicators_a: IndicatorSet | None = None,
    indicators_b: IndicatorSet | None = None,
) -> float:
    """Weighted sum of all four terms over the batch (both modalities)."""
    acts_a, acts_b, recon_a, recon_b = _batch_terms(
        batch, features_a, features_b, encoder_a, encoder_b, weights, quantizer, indicators_a, indicators_b
    )
    return _weighted_loss(acts_a[-1], acts_b[-1], batch.similar, weights, recon_a, recon_b)


def loss_gradients(
    batch: PairBatch,
    features_a,
    features_b,
    encoder_a: EncoderParams,
    encoder_b: EncoderParams,
    weights: LossWeights,
    quantizer: QuantizerModel | None = None,
    indicators_a: IndicatorSet | None = None,
    indicators_b: IndicatorSet | None = None,
):
    """Analytic gradients of total_loss wrt every parameter of both encoders.

    The sign targets and quantizer indicators are constants of the step, so
    d/df of the hash term is 2(f - sign(f)) and of the quantization term is
    2(f - reconstruction); the similarity term contributes
    (sigmoid(z) - s) * f_other per pair.
    """
    acts_a, acts_b, recon_a, recon_b = _batch_terms(
        batch, features_a, features_b, encoder_a, encoder_b, weights, quantizer, indicators_a, indicators_b
    )
    f_a, f_b = acts_a[-1], acts_b[-1]
    s = batch.similar.astype(np.float64)
    sig = scipy.special.expit((f_a * f_b).sum(axis=1))
    d_fa = weights.lambda_sim * (sig - s)[:, None] * f_b
    d_fb = weights.lambda_sim * (sig - s)[:, None] * f_a
    if weights.lambda_h:
        d_fa += weights.lambda_h * 2.0 * (f_a - _sign(f_a))
        d_fb += weights.lambda_h * 2.0 * (f_b - _sign(f_b))
    if weights.lambda_b:
        d_fa += weights.lambda_b * 2.0 * f_a.sum(axis=1, keepdims=True)
        d_fb += weights.lambda_b * 2.0 * f_b.sum(axis=1, keepdims=True)
    if weights.lambda_q:
        d_fa += weights.lambda_q * 2.0 * (f_a - recon_a)
        d_fb += weights.lambda_q * 2.0 * (f_b - recon_b)
    return _backprop(encoder_a, acts_a, d_fa), _backprop(encoder_b, acts_b, d_fb)


def _apply_step(params: EncoderParams, grads, scale: float) -> EncoderParams:
    layers = tuple(
        (weight - scale * g_w, bias - scale * g_b)
        for (weight, bias), (g_w, g_b) in zip(params.layers, grads)
    )
    return EncoderParams(modality=params.modality, layers=layers)


@dataclass(frozen=True)
class TrainResult:
    encoder_a: EncoderParams
    encoder_b: EncoderParams
    quantizer: QuantizerModel
    indicators_a: IndicatorSet
    indicators_b: IndicatorSet
    losses: tuple[float, ...]


def train(
    features_a,
    features_b,
    pairs: PairBatch,
    config: TrainConfig,
    weights: LossWeights,
) -> TrainResult:
    """Minibatch SGD on both encoders, alternated with quantizer refreshes.

    Each epoch shuffles the pair list, applies batch-mean gradient steps, then
    re-encodes the full training set and runs `config.alternations` rounds of
    codebook update plus indicator reassignment.  Everything is seeded, so a
    rerun with the same inputs is bitwise identical.  The returned losses are
    the four-term loss over all pairs before training and after each epoch,
    gathered from the rows of that epoch's own encodings after its quantizer
    refresh, not from a second forward pass.
    """
    values_a = np.asarray(feature_values(features_a), dtype=np.float64)
    values_b = np.asarray(feature_values(features_b), dtype=np.float64)
    if values_a.shape[1] != values_b.shape[1]:
        raise DimMismatch("modalities disagree on feature dimension")
    if len(pairs) == 0:
        raise ValueError("empty pair batch")
    if pairs.index_a.max() >= values_a.shape[0] or pairs.index_b.max() >= values_b.shape[0]:
        raise ValueError("pair indices exceed feature counts")

    seed_rng = np.random.default_rng(config.seed)
    seeds = seed_rng.integers(0, 2**63 - 1, size=4)
    encoder_a = init_encoder(values_a.shape[1], config.depth, int(seeds[0]), modality="a")
    encoder_b = init_encoder(values_b.shape[1], config.depth, int(seeds[1]), modality="b")
    shuffle_rng = np.random.default_rng(int(seeds[2]))

    encoded_a = encoder_forward(encoder_a, values_a)
    encoded_b = encoder_forward(encoder_b, values_b)
    fit = learn_quantizer(
        encoded_a, encoded_b, num_books=config.num_books, book_size=config.book_size,
        alternations=config.alternations, seed=int(seeds[3]),
    )
    quantizer, indicators_a, indicators_b = fit.model, fit.indicators_a, fit.indicators_b

    def epoch_loss() -> float:
        recon_a = recon_b = None
        if weights.lambda_q:
            recon_a = reconstruct(quantizer, indicators_a.indices)[pairs.index_a]
            recon_b = reconstruct(quantizer, indicators_b.indices)[pairs.index_b]
        return _weighted_loss(
            encoded_a[pairs.index_a], encoded_b[pairs.index_b], pairs.similar, weights, recon_a, recon_b
        )

    losses = [epoch_loss()]
    n_pairs = len(pairs)
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n_pairs)
        for start in range(0, n_pairs, config.batch_size):
            minibatch = pairs._subset(order[start : start + config.batch_size])
            grads_a, grads_b = loss_gradients(
                minibatch, values_a, values_b, encoder_a, encoder_b, weights,
                quantizer, indicators_a, indicators_b,
            )
            scale = config.learning_rate / len(minibatch)
            try:
                encoder_a = _apply_step(encoder_a, grads_a, scale)
                encoder_b = _apply_step(encoder_b, grads_b, scale)
            except ValueError as exc:  # shapes are fixed, so only a non-finite step gets here
                raise NonFiniteValue(f"training diverged in epoch {epoch} of {config.epochs}: {exc}") from exc

        encoded_a = encoder_forward(encoder_a, values_a)
        encoded_b = encoder_forward(encoder_b, values_b)
        for _ in range(config.alternations):
            quantizer = update_codebooks(encoded_a, indicators_a, encoded_b, indicators_b)
            new_a = assign_indicators(encoded_a, quantizer, indicators_a)
            new_b = assign_indicators(encoded_b, quantizer, indicators_b)
            unchanged = (new_a.indices == indicators_a.indices).all() and (
                new_b.indices == indicators_b.indices
            ).all()
            indicators_a, indicators_b = new_a, new_b
            if unchanged:
                break
        losses.append(epoch_loss())

    return TrainResult(encoder_a, encoder_b, quantizer, indicators_a, indicators_b, tuple(losses))


def save_model(path, encoder_a: EncoderParams, encoder_b: EncoderParams, quantizer: QuantizerModel) -> None:
    """Persist both encoders and the quantizer codebooks (HQM1 layout)."""
    if encoder_a.depth != encoder_b.depth or encoder_a.input_dim != encoder_b.input_dim:
        raise DimMismatch("encoders disagree on depth or dimension")
    header = (MODEL_VERSION, encoder_a.input_dim, encoder_a.depth, quantizer.num_books, quantizer.book_size)
    arrays = [arr for encoder in (encoder_a, encoder_b) for layer in encoder.layers for arr in layer]
    arrays.append(quantizer.codebooks)
    write_file(path, MODEL_MAGIC, header, [arr.astype("<f8", copy=False) for arr in arrays])


def _model_layout(version, dim, depth, num_books, book_size):
    # each of the 2 * depth layers is a dim x dim weight followed by a dim bias
    return [("<f8", 2 * depth * (dim * dim + dim)), ("<f8", num_books * dim * book_size)]


def load_model(path) -> tuple[EncoderParams, EncoderParams, QuantizerModel]:
    """Read an HQM1 model file back; inverse of save_model."""
    header, (params, books) = read_file(path, MODEL_MAGIC, 5, _model_layout, MODEL_VERSION)
    _, dim, depth, num_books, book_size = header
    layers = [
        (layer[: dim * dim].reshape(dim, dim), layer[dim * dim :])
        for layer in params.reshape(2 * depth, dim * dim + dim)
    ]
    encoder_a = EncoderParams(modality="a", layers=tuple(layers[:depth]))
    encoder_b = EncoderParams(modality="b", layers=tuple(layers[depth:]))
    return encoder_a, encoder_b, QuantizerModel(codebooks=books.reshape(num_books, dim, book_size))
