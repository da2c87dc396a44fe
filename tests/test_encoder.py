"""Stub sentence encoder, sinusoid table, chunked encoding, composition."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import doc_from_sections, sinusoid_rows
from sectsum import autodiff as ad
from sectsum.autodiff import DimensionError, Tensor
from sectsum.config import resolve_config
from sectsum.encoder import (
    StubEncoder,
    compose_embeddings,
    encode_sentences,
    embedding_inputs,
    sinusoid_table,
)
from sectsum.model import Model

# ---------------------------------------------------------------------------
# stub encoder
# ---------------------------------------------------------------------------


def test_stub_encoder_deterministic_across_instances():
    a = StubEncoder(d=8, seed=3).encode([["hello", "world"]])
    b = StubEncoder(d=8, seed=3).encode([["hello", "world"]])
    assert (a == b).all()


def test_stub_encoder_seed_and_token_sensitivity():
    base = StubEncoder(d=8, seed=0).encode([["hello"]])
    other_seed = StubEncoder(d=8, seed=1).encode([["hello"]])
    other_token = StubEncoder(d=8, seed=0).encode([["goodbye"]])
    assert not (base == other_seed).all()
    assert not (base == other_token).all()


def test_stub_encoder_sentence_is_token_mean():
    enc = StubEncoder(d=4, seed=0)
    single = enc.encode([["cat"], ["dog"]])
    both = enc.encode([["cat", "dog"]])
    np.testing.assert_allclose(both[0], (single[0] + single[1]) / 2.0)


def test_stub_encoder_empty_sentence_is_zero():
    enc = StubEncoder(d=4, seed=0)
    assert (enc.encode([[]]) == 0.0).all()


def test_stub_encoder_order_independence_of_cache():
    enc = StubEncoder(d=4, seed=0)
    first = enc.encode([["a", "b"]]).copy()
    enc2 = StubEncoder(d=4, seed=0)
    enc2.encode([["b"], ["c"]])
    second = enc2.encode([["a", "b"]])
    np.testing.assert_array_equal(first, second)


def test_stub_encoder_validates_dimension():
    with pytest.raises(ValueError, match="positive"):
        StubEncoder(d=0)


def test_model_encodes_with_the_configured_stub():
    enc = Model(resolve_config(None, {"d_model": 6, "heads": 2, "encoder_seed": 9})).encoder
    assert isinstance(enc, StubEncoder)
    assert enc.d == 6 and enc.seed == 9


# ---------------------------------------------------------------------------
# sinusoid positions
# ---------------------------------------------------------------------------


def test_sinusoid_table_row_zero_alternates_zero_one():
    np.testing.assert_array_equal(sinusoid_table(1, 6)[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_sinusoid_table_row_one_fixture():
    vec = sinusoid_table(2, 4)[1]
    assert vec[0] == pytest.approx(math.sin(1.0))
    assert vec[1] == pytest.approx(math.cos(1.0))
    assert vec[2] == pytest.approx(math.sin(1.0 / 10000.0 ** (2.0 / 4.0)))
    assert vec[3] == pytest.approx(math.cos(1.0 / 10000.0 ** (2.0 / 4.0)))


def test_sinusoid_table_validates_arguments():
    for n in (0, 1, 2, 40):
        with pytest.raises(ValueError, match="sinusoid_table: d must be even"):
            sinusoid_table(n, 3)
    with pytest.raises(ValueError, match="sinusoid_table: n"):
        sinusoid_table(-1, 4)


def test_sinusoid_table_shapes():
    assert sinusoid_table(0, 4).shape == (0, 4)
    assert sinusoid_table(3, 4).shape == (3, 4)


@pytest.mark.parametrize("n", [0, 1, 40, 500])
@pytest.mark.parametrize("d", [2, 64])
def test_sinusoid_table_equals_row_by_row_reference(n, d):
    assert np.array_equal(sinusoid_table(n, d), sinusoid_rows(n, d))


@given(st.integers(min_value=0, max_value=500), st.sampled_from([2, 8, 64]))
@settings(max_examples=40)
def test_sinusoid_entries_bounded(pos, d):
    vec = sinusoid_table(pos + 1, d)[pos]
    assert np.all(np.abs(vec) <= 1.0)


# ---------------------------------------------------------------------------
# chunked encoding
# ---------------------------------------------------------------------------


class CountingEncoder:
    """Stub wrapper that records every chunk it is asked to encode."""

    def __init__(self, d=4):
        self.d = d
        self.chunks: list[list[tuple[str, ...]]] = []
        self.inner = StubEncoder(d=d, seed=0)

    def encode(self, sentences):
        self.chunks.append([tuple(s) for s in sentences])
        return self.inner.encode(sentences)


def test_encode_sentences_matches_unchunked_result():
    doc = doc_from_sections(
        "d", [["one two three", "four five", "six"], ["seven eight", "nine ten eleven"]]
    )
    tight = encode_sentences(doc, StubEncoder(d=4, seed=0), max_chunk_tokens=3)
    loose = encode_sentences(doc, StubEncoder(d=4, seed=0), max_chunk_tokens=1000)
    np.testing.assert_allclose(tight, loose)
    assert tight.shape == (5, 4)


def test_encode_sentences_respects_budget_and_section_boundaries():
    doc = doc_from_sections("d", [["one two", "three four"], ["five six"]])
    enc = CountingEncoder()
    encode_sentences(doc, enc, max_chunk_tokens=4)
    # both sentences of section 0 fit one chunk; section 1 starts a new chunk
    assert enc.chunks == [[("one", "two"), ("three", "four")], [("five", "six")]]
    for chunk in enc.chunks:
        assert sum(len(c) for c in chunk) <= 4


def test_encode_sentences_splits_when_budget_tight():
    doc = doc_from_sections("d", [["one two", "three four", "five"]])
    enc = CountingEncoder()
    encode_sentences(doc, enc, max_chunk_tokens=3)
    assert enc.chunks == [[("one", "two")], [("three", "four"), ("five",)]]


def test_encode_sentences_oversize_sentence_raises():
    doc = doc_from_sections("d", [["one two three four"]])
    with pytest.raises(ValueError, match="exceeding max_chunk_tokens"):
        encode_sentences(doc, StubEncoder(d=4), max_chunk_tokens=3)


# ---------------------------------------------------------------------------
# embedding composition
# ---------------------------------------------------------------------------


def _tables(d, s_max):
    rng = np.random.default_rng(0)
    return (
        Tensor(rng.standard_normal((2, d))),
        Tensor(rng.standard_normal((s_max, d))),
    )


def test_compose_embeddings_is_the_four_way_sum():
    doc = doc_from_sections("d", [["a b", "c d"], ["e f"]])
    d = 4
    segment, section = _tables(d, s_max=3)
    semantic = np.arange(3 * d, dtype=np.float64).reshape(3, d)
    out = compose_embeddings(embedding_inputs(semantic, doc, 3), segment, section).data
    positions = sinusoid_table(3, d)
    for i, sent in enumerate(doc.sentences):
        expected = (
            semantic[i]
            + positions[i]
            + segment.data[i % 2]
            + section.data[sent.section_index]
        )
        np.testing.assert_allclose(out[i], expected)


def test_compose_embeddings_clamps_section_index(caplog):
    doc = doc_from_sections("d", [["a"], ["b"], ["c"]])  # three sections
    segment, section = _tables(4, s_max=2)
    out = compose_embeddings(embedding_inputs(np.zeros((3, 4)), doc, 2), segment, section).data
    assert any("clamped" in r.message for r in caplog.records)
    # sentence 2 (section 2) clamps to section row 1
    np.testing.assert_allclose(
        out[2], sinusoid_table(3, 4)[2] + segment.data[0] + section.data[1]
    )


def test_compose_embeddings_validates_shapes():
    doc = doc_from_sections("d", [["a b", "c d"]])
    segment, section = _tables(4, s_max=2)
    with pytest.raises(DimensionError, match="semantic"):
        embedding_inputs(np.zeros((3, 4)), doc, 2)
    with pytest.raises(DimensionError):
        compose_embeddings(embedding_inputs(np.zeros((2, 4)), doc, 2), Tensor(np.zeros((3, 4))), section)


def test_compose_embeddings_gradients_reach_tables():
    doc = doc_from_sections("d", [["a b", "c d", "e f"]])
    segment = Tensor(np.zeros((2, 4)), requires_grad=True)
    section = Tensor(np.zeros((1, 4)), requires_grad=True)
    out = compose_embeddings(embedding_inputs(np.zeros((3, 4)), doc, 1), segment, section)
    ad.backward(ad.tsum(out))
    # parity 0 appears twice (positions 0 and 2), parity 1 once
    np.testing.assert_allclose(segment.grad[:, 0], [2.0, 1.0])
    np.testing.assert_allclose(section.grad[:, 0], [3.0])
