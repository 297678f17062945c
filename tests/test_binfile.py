"""Framing shared by the four binary formats: exact-size loads and stable bytes."""

import pytest

from hashquant import (
    BadMagic,
    TrailingBytes,
    TruncatedFile,
    VersionMismatch,
    build_index,
    init_encoder,
    learn_quantizer,
    load_features,
    load_index,
    load_labels,
    load_model,
    save_features,
    save_index,
    save_labels,
    save_model,
    synth_dataset,
)


@pytest.fixture(scope="module")
def formats():
    """suffix -> (write a sample file, load, re-save a loaded value, has a version field)."""
    features_a, features_b, labels = synth_dataset(3, 4, 8, 0.3, seed=5)
    fit = learn_quantizer(features_a.values, features_b.values, num_books=2, book_size=4, seed=1)
    index = build_index(features_b.values, fit.model, fit.indicators_b, "b")
    encoder_a = init_encoder(8, 2, seed=1)
    encoder_b = init_encoder(8, 2, seed=2)
    return {
        "dfm": (lambda path: save_features(features_a, path), load_features, save_features, False),
        "lbl": (lambda path: save_labels(labels, path), load_labels, save_labels, False),
        "hqx": (lambda path: save_index(index, path), load_index, save_index, True),
        "hqm": (
            lambda path: save_model(path, encoder_a, encoder_b, fit.model),
            load_model,
            lambda model, path: save_model(path, *model),
            True,
        ),
    }


@pytest.mark.parametrize("suffix", ["dfm", "lbl", "hqx", "hqm"])
def test_load_requires_the_exact_declared_size(formats, suffix, tmp_path):
    write, load, resave, versioned = formats[suffix]
    path = tmp_path / f"x.{suffix}"
    write(path)
    blob = path.read_bytes()

    again = tmp_path / f"again.{suffix}"
    resave(load(path), again)
    assert again.read_bytes() == blob

    path.write_bytes(blob + b"\0")
    with pytest.raises(TrailingBytes):
        load(path)
    path.write_bytes(blob[:-1])
    with pytest.raises(TruncatedFile):
        load(path)

    # the size check comes after the magic and version checks
    path.write_bytes(b"ZZZZ" + blob[4:] + b"\0")
    with pytest.raises(BadMagic):
        load(path)
    if versioned:
        path.write_bytes(blob[:4] + b"\x09" + blob[5:] + b"\0")
        with pytest.raises(VersionMismatch):
            load(path)
