"""Score combination and budgeted selection with trigram blocking."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import and_overlap, doc_from_sections, slice_ngrams
from sectsum import autodiff as ad
from sectsum.autodiff import DimensionError, Linear, Tensor
from sectsum.extractor import (
    SelectionConfig,
    SentenceScores,
    predict_scores,
    select_sentences,
    selection_budget,
    shared_trigrams,
)
from sectsum.rouge import ngrams

# ---------------------------------------------------------------------------
# score prediction
# ---------------------------------------------------------------------------


def _zero_layer(d, width=1):
    return Linear(weight=Tensor(np.zeros((width, d))), bias=Tensor(np.zeros(width)))


def test_predict_scores_all_zero_inputs_give_half():
    d, n = 4, 3
    zeros = [Tensor(np.zeros((n, d))) for _ in range(6)]
    scores = predict_scores(*zeros, out_layer=_zero_layer(d))
    assert len(scores) == n
    np.testing.assert_array_equal(scores.values, np.full(n, 0.5))


def test_predict_scores_sum_mode_matches_manual():
    rng = np.random.default_rng(0)
    n, d = 4, 3
    mats = [Tensor(rng.standard_normal((n, d))) for _ in range(6)]
    layer = Linear(Tensor(rng.standard_normal((1, d))), Tensor(rng.standard_normal(1)))
    got = predict_scores(*mats, out_layer=layer).values
    total = sum(m.data for m in mats)
    logits = total @ layer.weight.data.T + layer.bias.data
    expected = 1.0 / (1.0 + np.exp(-logits[:, 0]))
    np.testing.assert_allclose(got, expected, atol=1e-12)
    assert np.all((got > 0) & (got < 1))


def test_predict_scores_concat_mode_uses_wide_layer():
    rng = np.random.default_rng(1)
    n, d = 3, 2
    mats = [Tensor(rng.standard_normal((n, d))) for _ in range(6)]
    layer = Linear(Tensor(rng.standard_normal((1, 6 * d))), Tensor(rng.standard_normal(1)))
    got = predict_scores(*mats, out_layer=layer, combine="concat").values
    stacked = np.concatenate([m.data for m in mats], axis=1)
    logits = stacked @ layer.weight.data.T + layer.bias.data
    np.testing.assert_allclose(got, 1.0 / (1.0 + np.exp(-logits[:, 0])), atol=1e-12)


def test_predict_scores_validates():
    d, n = 3, 2
    mats = [Tensor(np.zeros((n, d))) for _ in range(6)]
    bad = mats[:5] + [Tensor(np.zeros((n + 1, d)))]
    with pytest.raises(DimensionError):
        predict_scores(*bad, out_layer=_zero_layer(d))
    with pytest.raises(ValueError, match="combine"):
        predict_scores(*mats, out_layer=_zero_layer(d), combine="mean")


def test_predict_scores_gradients_flow_to_output_layer():
    rng = np.random.default_rng(2)
    n, d = 3, 2
    mats = [Tensor(rng.standard_normal((n, d))) for _ in range(6)]
    layer = ad.init_linear(rng, 1, d)
    scores = predict_scores(*mats, out_layer=layer)
    ad.backward(ad.tsum(scores.p))
    assert layer.weight.grad is not None and np.abs(layer.weight.grad).max() > 0


# ---------------------------------------------------------------------------
# trigram overlap
# ---------------------------------------------------------------------------


def _sentences(*texts):
    doc = doc_from_sections("d", [list(texts)])
    return list(doc.sentences)


def _pool(sentences):
    """The trigram pool `select_sentences` keeps for these accepted sentences."""
    pool = Counter()
    for s in sentences:
        pool.update(ngrams(s.tokens, 3))
    return pool


def test_shared_trigrams_fixture():
    cand, sel = _sentences("the quick brown fox jumps", "the quick brown dog")
    assert shared_trigrams(cand, _pool([sel])) == 1  # only ("the","quick","brown")


def test_shared_trigrams_empty_and_short():
    cand, other = _sentences("one two", "one two three four")
    assert shared_trigrams(cand, _pool([other])) == 0  # fewer than 3 tokens
    long_cand, _ = _sentences("one two three", "spare")
    assert shared_trigrams(long_cand, _pool([])) == 0  # nothing selected yet


def test_shared_trigrams_multiset_counting():
    cand, a, b = _sentences("a b c a b c x", "a b c", "a b c")
    # candidate has ("a","b","c") twice; pool holds it twice across a and b
    assert shared_trigrams(cand, _pool([a, b])) == 2
    assert shared_trigrams(cand, _pool([a])) == 1


_trigram_words = st.sampled_from(["a", "b", "c", "d"])


@given(st.lists(st.lists(_trigram_words, max_size=10).map(" ".join), min_size=1, max_size=5))
@settings(max_examples=200)
def test_shared_trigrams_equal_the_intersection_of_slice_counts(texts):
    cand, *accepted = _sentences(*texts)
    pool = _pool(accepted)
    got = shared_trigrams(cand, pool)
    assert type(got) is int
    assert got == and_overlap(slice_ngrams(cand.tokens, 3), pool)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def test_selection_budget_ceil_rule():
    assert selection_budget(10, 0.20) == 2
    assert selection_budget(11, 0.20) == 3
    assert selection_budget(2, 0.20) == 1
    assert selection_budget(5, 1.0) == 5


def test_selection_config_validation():
    SelectionConfig(budget_ratio=1.0, trigram_threshold=0)
    with pytest.raises(ValueError, match="budget_ratio"):
        SelectionConfig(budget_ratio=0.0)
    with pytest.raises(ValueError, match="budget_ratio"):
        SelectionConfig(budget_ratio=1.2)
    with pytest.raises(ValueError, match="trigram_threshold"):
        SelectionConfig(trigram_threshold=-1)


def _ten_sentence_doc():
    texts = [f"sentence number {i} about topic {i % 3}" for i in range(10)]
    return doc_from_sections("d", [texts[:5], texts[5:]])


def test_select_is_top_k_without_blocking():
    doc = _ten_sentence_doc()
    scores = np.linspace(0.1, 0.9, 10)
    got = select_sentences(doc, scores, SelectionConfig(budget_ratio=0.2))
    assert got == [8, 9]  # two highest scores, reported in document order


def test_select_bigger_budget_and_document_order():
    doc = _ten_sentence_doc()
    scores = np.array([0.9, 0.1, 0.8, 0.1, 0.7, 0.1, 0.6, 0.1, 0.5, 0.1])
    got = select_sentences(doc, scores, SelectionConfig(budget_ratio=0.5))
    assert got == [0, 2, 4, 6, 8]


def test_select_ties_break_to_earlier_position():
    doc = doc_from_sections("d", [["alpha one", "beta two", "gamma three"]])
    got = select_sentences(doc, np.array([0.5, 0.5, 0.5]), SelectionConfig(budget_ratio=0.33))
    assert got == [0]


def test_select_threshold_zero_skips_duplicate():
    doc = doc_from_sections(
        "d",
        [[
            "the cat sat on the mat today",
            "the cat sat on the mat today",
            "a completely different sentence here",
        ]],
    )
    scores = np.array([0.9, 0.8, 0.7])
    blocked = select_sentences(doc, scores, SelectionConfig(budget_ratio=0.5, trigram_threshold=0))
    assert blocked == [0, 2]
    unblocked = select_sentences(doc, scores, SelectionConfig(budget_ratio=0.5, trigram_threshold=None))
    assert unblocked == [0, 1]


def test_select_threshold_is_strict_greater_than():
    doc = doc_from_sections(
        "d",
        [[
            "one two three four five",
            "one two three four five",  # shares 3 trigrams with the first
            "unrelated filler text entirely",
        ]],
    )
    scores = np.array([0.9, 0.8, 0.1])
    at_three = select_sentences(doc, scores, SelectionConfig(budget_ratio=0.5, trigram_threshold=3))
    assert at_three == [0, 1]  # overlap == threshold is admitted
    at_two = select_sentences(doc, scores, SelectionConfig(budget_ratio=0.5, trigram_threshold=2))
    assert at_two == [0, 2]


def test_select_accepts_scores_object_and_validates_shape():
    doc = doc_from_sections("d", [["a one", "b two"]])
    scores = SentenceScores(Tensor(np.array([0.2, 0.7])))
    assert select_sentences(doc, scores, SelectionConfig(budget_ratio=0.5)) == [1]
    with pytest.raises(ValueError, match="scores shape"):
        select_sentences(doc, np.array([0.2]), SelectionConfig(budget_ratio=0.5))


@given(
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60)
def test_select_invariants(n, ratio, seed):
    rng = np.random.default_rng(seed)
    words = ["ant", "bee", "cow", "dog", "elk", "fox"]
    texts = [
        " ".join(words[int(j)] for j in rng.integers(0, len(words), size=4)) for _ in range(n)
    ]
    doc = doc_from_sections("d", [texts])
    scores = rng.random(n)
    threshold = [None, 0, 2][int(rng.integers(0, 3))]
    got = select_sentences(doc, scores, SelectionConfig(budget_ratio=ratio, trigram_threshold=threshold))
    assert got == sorted(set(got))
    assert 1 <= len(got) <= selection_budget(n, ratio)
    if threshold is None:
        assert len(got) == selection_budget(n, ratio)
    else:
        # whatever was accepted respects the pairwise pool constraint in order
        for idx, i in enumerate(got_order := sorted(got, key=lambda i: (-scores[i], i))):
            accepted = [doc.sentences[j] for j in got_order[:idx]]
            assert shared_trigrams(doc.sentences[i], _pool(accepted)) <= threshold
