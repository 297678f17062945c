"""The two intake rules for arrays.

Every value type stores only private read-only copies of the arrays it is
given, and every index argument goes through one integer-and-range check
that raises IndexOutOfRange, which is also a ValueError.
"""

from functools import partial

import numpy as np
import pytest

from hashquant.errors import IndexOutOfRange
from hashquant.evaluate import average_precision_at
from hashquant.features import FeatureMatrix, LabelSet, PairBatch
from hashquant.hashing import PackedCodes, sign_encode
from hashquant.quantizer import (
    IndicatorSet,
    LookupTable,
    QuantizerModel,
    build_lookup_table,
    reconstruct,
)
from hashquant.retrieval import RankedResult
from hashquant.trainer import EncoderParams
from reference import aqd, hamming_distance, pair_labels, quant_loss_term, quantization_residual_norm

RNG = np.random.default_rng(7)

# each case: the caller's arrays, already in the stored dtype and layout, the
# constructor that takes them, and the stored arrays in the same order
VALUE_TYPES = {
    "FeatureMatrix": (
        [RNG.standard_normal((3, 4)).astype(np.float32)], FeatureMatrix, lambda obj: [obj.values]
    ),
    "LabelSet": ([np.array([1, 2, 3], dtype=np.uint64)], partial(LabelSet, 2), lambda obj: [obj.masks]),
    "PairBatch": (
        [np.array([0, 1]), np.array([1, 0]), np.array([1, 0], dtype=np.int8)],
        PairBatch,
        lambda obj: [obj.index_a, obj.index_b, obj.similar],
    ),
    "PackedCodes": (
        [np.asfortranarray(np.array([[1, 2], [3, 4], [5, 6]], dtype=np.uint64))],
        partial(PackedCodes, 128),
        lambda obj: [obj.words],
    ),
    "QuantizerModel": ([RNG.standard_normal((2, 3, 4))], QuantizerModel, lambda obj: [obj.codebooks]),
    "IndicatorSet": (
        [np.asfortranarray(np.array([[0, 1], [2, 3], [1, 1]], dtype=np.uint16))],
        partial(IndicatorSet, 4),
        lambda obj: [obj.indices],
    ),
    "LookupTable": ([RNG.standard_normal((2, 4))], LookupTable, lambda obj: [obj.values]),
    "EncoderParams": (
        [RNG.standard_normal((3, 3)), RNG.standard_normal(3)],
        lambda weight, bias: EncoderParams("a", ((weight, bias),)),
        lambda obj: list(obj.layers[0]),
    ),
    "RankedResult": (
        [np.array([4, 1, 2]), np.array([3.0, 2.0, 2.0])], RankedResult, lambda obj: [obj.indices, obj.scores]
    ),
}


@pytest.mark.parametrize("name", list(VALUE_TYPES))
def test_value_type_keeps_private_read_only_copies(name):
    arrays, build, stored_of = VALUE_TYPES[name]
    given = [arr.copy(order="K") for arr in arrays]
    stored = stored_of(build(*given))
    for arr, kept, original in zip(given, stored, arrays):
        # the stored dtype and layout already match, so nothing forced a copy
        assert kept.dtype == arr.dtype and kept.strides == arr.strides
        assert arr.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(arr, kept)
        arr[(0,) * arr.ndim] = arr[(-1,) * arr.ndim]
        assert (kept == original).all()


MODEL = QuantizerModel(codebooks=RNG.standard_normal((2, 3, 4)))
LABELS = LabelSet(num_labels=4, masks=np.array([1, 2, 4, 8], dtype=np.uint64))
MASK = np.array([True, False, True, False])
CODES = sign_encode(RNG.standard_normal((4, 70)))

BAD_INDICES = {
    "float": [0.7, 1.9],
    "bool": [True, False],
    "negative": [0, -1],
    "upper": [0, 4],
}
NO_UPPER = ("float", "bool", "negative")

# each entry point takes two indices, and the bad kinds that apply to it: every
# upper bound here is 4, and a boolean `relevant` is a mask, not indices.
# pair_labels and quant_loss_term are the test-local references, which check
# their indices through features.one_index and quantizer.reconstruct
INDEX_ENTRY_POINTS = {
    "IndicatorSet": (lambda v: IndicatorSet(book_size=4, indices=np.array([v])), tuple(BAD_INDICES)),
    "PairBatch": (lambda v: PairBatch(index_a=v, index_b=[0, 1], similar=[1, 0]), NO_UPPER),
    "reconstruct": (lambda v: reconstruct(MODEL, [v]), tuple(BAD_INDICES)),
    "quant_loss_term": (lambda v: quant_loss_term(np.ones(3), MODEL, v), tuple(BAD_INDICES)),
    "quantization_residual_norm": (
        lambda v: quantization_residual_norm(np.ones(3), MODEL, v), tuple(BAD_INDICES)
    ),
    "aqd": (lambda v: aqd(build_lookup_table(np.ones(3), MODEL), v), tuple(BAD_INDICES)),
    "RankedResult": (lambda v: RankedResult(v, [1.0, 0.0]), NO_UPPER),
    "average_precision_at-ranking": (lambda v: average_precision_at(v, MASK, cutoff=2), tuple(BAD_INDICES)),
    "average_precision_at-relevant": (
        lambda v: average_precision_at([0, 1], v, cutoff=2), ("float", "negative")
    ),
    "pair_labels": (lambda v: pair_labels(LABELS, LABELS, v[0], v[1]), tuple(BAD_INDICES)),
    "hamming_distance": (lambda v: hamming_distance(CODES, CODES, v[0], v[1]), tuple(BAD_INDICES)),
}


@pytest.mark.parametrize(
    "entry, bad", [(entry, bad) for entry, (_, kinds) in INDEX_ENTRY_POINTS.items() for bad in kinds]
)
def test_index_entry_point_rejects_bad_indices(entry, bad):
    call, _ = INDEX_ENTRY_POINTS[entry]
    call([0, 1])  # the same call with good indices passes
    with pytest.raises(IndexOutOfRange) as caught:
        call(BAD_INDICES[bad])
    assert isinstance(caught.value, ValueError)


# each takes one index per argument, so an index list or array is not a batch of calls
SCALAR_ENTRY_POINTS = {
    "pair_labels": lambda i, j: pair_labels(LABELS, LABELS, i, j),
    "hamming_distance": lambda i, j: hamming_distance(CODES, CODES, i, j),
}


@pytest.mark.parametrize("entry", list(SCALAR_ENTRY_POINTS))
@pytest.mark.parametrize("many", [[1, 2], np.array([1]), []], ids=["list", "one-row-array", "empty"])
def test_scalar_entry_point_rejects_an_index_list(entry, many):
    call = SCALAR_ENTRY_POINTS[entry]
    call(np.int64(1), 0)  # a numpy integer is one index
    for args in ((many, 0), (0, many)):
        with pytest.raises(IndexOutOfRange, match="expected one index"):
            call(*args)


# each takes one item's (or each row's) indices, one per book of MODEL's 2
PER_BOOK_ENTRY_POINTS = {
    "reconstruct": lambda v: reconstruct(MODEL, [v]),
    "quant_loss_term": lambda v: quant_loss_term(np.ones(3), MODEL, v),
    "quantization_residual_norm": lambda v: quantization_residual_norm(np.ones(3), MODEL, v),
}


@pytest.mark.parametrize("entry", list(PER_BOOK_ENTRY_POINTS))
@pytest.mark.parametrize("indices", [[0], [0, 1, 3]], ids=["too-few", "too-many"])
def test_per_book_entry_point_rejects_a_wrong_index_count(entry, indices):
    call = PER_BOOK_ENTRY_POINTS[entry]
    call([0, 1])
    with pytest.raises(IndexOutOfRange, match=r"expected 2 indices \(one per book\), got"):
        call(indices)


def test_empty_indices_are_still_accepted():
    assert len(RankedResult([], [])) == 0
    assert average_precision_at([], MASK) == 0.0
    assert average_precision_at([], [0, 2]) == 0.0
    assert average_precision_at([0, 1], []) == 0.0
    assert reconstruct(MODEL, np.empty((0, 2), dtype=np.int64)).shape == (0, 3)
    assert IndicatorSet(book_size=4, indices=np.empty((0, 2), dtype=np.int64)).count == 0


def test_relevant_set_scores_as_its_sorted_list():
    ranking = [3, 1, 2, 0]
    for relevant in ({2, 1}, frozenset({0, 3}), set()):
        assert average_precision_at(ranking, relevant, cutoff=3) == average_precision_at(
            ranking, sorted(relevant), cutoff=3
        )
