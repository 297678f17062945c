"""The library names the benchmark harness patches and calls still exist.

`perfbench/run.py --trace 1` wraps every `(module, attr)` that
`pipeline.trace_targets()` lists, and `pipeline.index_database` calls
`retrieval.build_index` with the modality as its fourth positional argument.
No tier-1 test runs a traced benchmark, so a library change that renames or
removes one of these would break it without any other test failing.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from hashquant import IndicatorSet, QuantizerModel, retrieval

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def pipeline():
    # pipeline imports its sibling modules (checks, spans) by their bare names
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("pipeline")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_trace_target_is_the_library_function_its_span_names(pipeline):
    targets = pipeline.trace_targets()
    assert targets
    for module, attr, span, _ in targets:
        assert hasattr(module, attr), f"{module.__name__}.{attr} is patched by the traced benchmark"
        defining_module, name = span.split(".")
        library_function = getattr(importlib.import_module(f"hashquant.{defining_module}"), name)
        assert getattr(module, attr) is library_function, f"{module.__name__}.{attr} is not {span}"


def test_build_index_takes_the_modality_as_its_fourth_positional_argument(rng):
    fourth = list(inspect.signature(retrieval.build_index).parameters.values())[3]
    assert fourth.name == "modality" and fourth.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    model = QuantizerModel(codebooks=rng.standard_normal((2, 3, 4)))
    indicators = IndicatorSet(book_size=4, indices=rng.integers(0, 4, size=(5, 2)))
    index = retrieval.build_index(rng.standard_normal((5, 3)), model, indicators, "b")
    assert index.modality == "b" and index.count == 5
