"""Overlap metrics, greedy oracle labels, and candidate sampling."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import doc_from_sections, running_extract_oracle_labels, slice_ngrams, slice_rouge_n
from sectsum.extractor import selection_budget
from sectsum.rouge import (
    ZERO_SCORE,
    RougeScore,
    _lcs_length,
    extract_f1,
    ngrams,
    oracle_labels,
    reward,
    rouge_l,
    rouge_n,
    sample_candidates,
    stable_seed,
)

words = st.sampled_from(["the", "cat", "sat", "ran", "dog", "mat", "a"])
token_lists = st.lists(words, max_size=12)


# ---------------------------------------------------------------------------
# n-grams
# ---------------------------------------------------------------------------


def test_ngrams_unigrams_count_multiplicity():
    assert ngrams(["a", "b", "a"], 1) == Counter({("a",): 2, ("b",): 1})


def test_ngrams_bigrams():
    assert ngrams(["the", "cat", "sat"], 2) == Counter(
        {("the", "cat"): 1, ("cat", "sat"): 1}
    )


def test_ngrams_order_longer_than_sequence():
    assert ngrams(["a"], 2) == Counter()


@given(token_lists, st.integers(min_value=1, max_value=3))
def test_ngrams_total_count(tokens, n):
    total = sum(ngrams(tokens, n).values())
    assert total == max(0, len(tokens) - n + 1)


@given(st.lists(words, max_size=8), st.integers(min_value=1, max_value=4), st.booleans())
@settings(max_examples=200)
def test_ngrams_equal_the_slice_counts(tokens, n, as_tuple):
    # sequences shorter than n included; keys, counts and key order all equal
    seq = tuple(tokens) if as_tuple else tokens
    got = ngrams(seq, n)
    assert list(got.items()) == list(slice_ngrams(seq, n).items())
    assert all(type(g) is tuple for g in got)


def test_ngrams_reject_orders_below_one():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be >= 1"):
            ngrams(["a", "b"], n)


# ---------------------------------------------------------------------------
# ROUGE-N / ROUGE-L
# ---------------------------------------------------------------------------


def test_rouge_1_two_thirds_recall():
    score = rouge_n(["the", "cat"], ["the", "cat", "sat"], 1)
    assert score.recall == pytest.approx(2 / 3, abs=0)
    assert score.precision == 1.0
    assert score.f1 == pytest.approx(0.8, abs=0)


def test_rouge_identity_is_perfect():
    for n in (1, 2):
        score = rouge_n(["a", "b", "c"], ["a", "b", "c"], n)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)
    assert rouge_l(["a", "b", "c"], ["a", "b", "c"]).f1 == 1.0


def test_rouge_clipped_counts():
    # candidate repeats "the" three times; reference has it once
    score = rouge_n(["the", "the", "the"], ["the", "cat"], 1)
    assert score.recall == pytest.approx(1 / 2)
    assert score.precision == pytest.approx(1 / 3)


def test_rouge_degenerate_empty_inputs():
    # empty reference: the metric is undefined, flagged degenerate
    assert rouge_n(["a"], [], 1) == ZERO_SCORE
    assert rouge_n([], [], 1).degenerate
    assert rouge_l(["a"], []).degenerate
    # empty candidate against a real reference: a plain zero, not degenerate
    empty_cand = rouge_n([], ["a"], 1)
    assert (empty_cand.precision, empty_cand.recall, empty_cand.f1) == (0.0, 0.0, 0.0)
    assert not empty_cand.degenerate
    assert not rouge_l([], ["a"]).degenerate


def test_rouge_l_interleaved_three_quarters():
    score = rouge_l(["a", "b", "c", "d"], ["a", "c", "b", "d"])
    assert score.recall == pytest.approx(3 / 4, abs=0)
    assert score.precision == pytest.approx(3 / 4, abs=0)


def _lcs_brute(a, b):
    best = 0
    for r in range(len(a) + 1):
        for combo in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(tok in it for tok in sub):
                best = max(best, r)
    return best


@given(st.lists(words, max_size=6), st.lists(words, max_size=6))
@settings(max_examples=60)
def test_rouge_l_matches_brute_force_subsequence(cand, ref):
    score = rouge_l(cand, ref)
    if not ref:
        assert score.degenerate
        return
    if not cand:
        assert score == RougeScore.from_pr(0.0, 0.0)
        return
    lcs = _lcs_brute(cand, ref)
    assert score.recall == pytest.approx(lcs / len(ref))
    assert score.precision == pytest.approx(lcs / len(cand))


def _lcs_dp(a, b):
    # the one-row dynamic programme the bit-parallel form replaced
    if len(b) > len(a):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            curr.append(prev[j - 1] + 1 if x == y else max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_lcs_length_equals_dynamic_programme(data):
    # vocabularies of 1-60 words cover all-match, sparse-match and no-match
    # pairs; lengths up to 150 cross the 64-bit word boundary of the mask
    vocab = [f"w{i}" for i in range(data.draw(st.integers(1, 60)))]
    a = data.draw(st.lists(st.sampled_from(vocab), max_size=150))
    b = data.draw(st.lists(st.sampled_from(vocab), max_size=150))
    assert _lcs_length(a, b) == _lcs_dp(a, b)
    assert _lcs_length(b, a) == _lcs_dp(a, b)


def test_lcs_length_fixtures():
    assert _lcs_length([], ["a"]) == 0
    assert _lcs_length(["a", "b", "c", "d"], ["a", "c", "b", "d"]) == 3
    assert _lcs_length(["x"] * 70, ["x"] * 65) == 65
    assert _lcs_length(list("abcabba"), list("cbabac")) == 4


@given(st.lists(words, max_size=30), st.lists(words, max_size=30), st.integers(min_value=1, max_value=4))
@settings(max_examples=200)
def test_rouge_n_equals_the_slice_and_intersection_scores(cand, ref, n):
    # exact floats: the clipped overlap and both totals are the same integers
    assert rouge_n(cand, ref, n) == slice_rouge_n(cand, ref, n)


@given(token_lists, token_lists, st.integers(min_value=1, max_value=2))
def test_rouge_scores_bounded(cand, ref, n):
    score = rouge_n(cand, ref, n)
    for v in (score.precision, score.recall, score.f1):
        assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# summary-level reward
# ---------------------------------------------------------------------------


def test_reward_seven_twelfths():
    got = reward("the cat sat", "the cat ran")
    # unigram F1 = 2/3, bigram F1 = 1/2, mean = 7/12.  Exact-rational
    # recomputation pins the value; the float result may differ from the
    # decimal constant by one rounding of the final division.
    exact = (Fraction(2, 3) + Fraction(1, 2)) / 2
    assert exact == Fraction(7, 12)
    assert got.value == pytest.approx(float(exact), rel=4e-16)
    assert not got.degenerate


def test_reward_identity_and_empty_reference():
    assert reward("same words here", "same words here").value == 1.0
    empty = reward("anything", "")
    assert empty.value == 0.0
    assert empty.degenerate


@given(token_lists, token_lists)
def test_reward_bounded(cand, ref):
    r = reward(" ".join(cand), " ".join(ref))
    assert 0.0 <= r.value <= 1.0


# ---------------------------------------------------------------------------
# selection budget
# ---------------------------------------------------------------------------


def test_default_budget_rounds_up_and_floors_at_one():
    # oracle labels are built with the same budget the extractor selects under
    assert selection_budget(10, 0.20) == 2
    assert selection_budget(11, 0.20) == 3
    assert selection_budget(1, 0.20) == 1
    assert selection_budget(4, 0.20) == 1
    assert selection_budget(3, 0.5) == 2


# ---------------------------------------------------------------------------
# greedy oracle labels
# ---------------------------------------------------------------------------


def _brute_force_best(doc, budget):
    n = doc.n_sentences
    best = 0.0
    for r in range(1, budget + 1):
        for combo in itertools.combinations(range(n), r):
            best = max(best, extract_f1(doc, list(combo)))
    return best


def test_oracle_picks_the_obviously_best_sentence():
    doc = doc_from_sections(
        "d", [["the cat sat on the mat", "unrelated words entirely", "the cat sat"]],
        reference="the cat sat",
    )
    labels = oracle_labels(doc, budget=1)
    assert list(labels) == [0, 0, 1]


def test_oracle_stops_when_no_sentence_helps():
    doc = doc_from_sections(
        "d", [["the cat sat", "zebra quagga okapi"]], reference="the cat sat"
    )
    labels = oracle_labels(doc, budget=2)
    assert list(labels) == [1, 0]


def test_oracle_tie_goes_to_earlier_sentence():
    doc = doc_from_sections("d", [["the cat sat", "the cat sat"]], reference="the cat sat")
    assert list(oracle_labels(doc, budget=1)) == [1, 0]


def test_oracle_empty_reference_all_zero(caplog):
    doc = doc_from_sections("d", [["some words here"]], reference="")
    assert list(oracle_labels(doc, budget=1)) == [0]
    assert any("empty reference" in r.message for r in caplog.records)


def test_oracle_budget_validated():
    doc = doc_from_sections("d", [["a b"]], reference="a")
    with pytest.raises(ValueError, match="budget"):
        oracle_labels(doc, budget=0)


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25)
def test_oracle_matches_brute_force_on_random_docs(seed):
    rng = np.random.default_rng(seed)
    vocab = ["red", "blue", "green", "fish", "bird", "tree", "rock", "wind"]
    n = int(rng.integers(2, 7))
    sents = [
        " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(2, 5))))
        for _ in range(n)
    ]
    ref = " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), size=5))
    doc = doc_from_sections("d", [sents], reference=ref)
    budget = int(rng.integers(1, 3))
    greedy = extract_f1(doc, np.nonzero(oracle_labels(doc, budget))[0])
    brute = _brute_force_best(doc, budget)
    # greedy is not optimal in general, but must never beat the true optimum
    assert greedy <= brute + 1e-12


def _greedy_from_scratch(doc, budget):
    """The greedy oracle with every candidate extract re-scored from scratch by extract_f1."""
    n = doc.n_sentences
    chosen: list[int] = []
    best_score = 0.0
    while len(chosen) < min(budget, n):
        best_idx, best_gain = -1, 0.0
        for i in range(n):
            if i in chosen:
                continue
            gain = extract_f1(doc, chosen + [i]) - best_score
            if gain > best_gain + 1e-12:
                best_idx, best_gain = i, gain
        if best_idx < 0:
            break
        chosen.append(best_idx)
        best_score += best_gain
    labels = np.zeros(n, dtype=np.int64)
    labels[chosen] = 1
    return labels


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_oracle_equals_greedy_rescored_from_scratch(data):
    # a 3-5 word vocabulary makes bigrams across sentence boundaries collide
    # with the reference; "..." is a sentence without tokens
    word = st.sampled_from(["x", "y", "z", "w", "v"][: data.draw(st.integers(3, 5))])
    sentence = st.one_of(st.lists(word, min_size=1, max_size=4).map(" ".join), st.just("..."))
    sections = data.draw(st.lists(st.lists(sentence, min_size=1, max_size=4), min_size=1, max_size=3))
    doc = doc_from_sections("d", sections, reference=" ".join(data.draw(st.lists(word, max_size=8))))
    budget = data.draw(st.integers(1, doc.n_sentences))
    assert list(oracle_labels(doc, budget)) == list(_greedy_from_scratch(doc, budget))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_oracle_equals_per_candidate_oracle_at_document_scale(seed):
    # document-sized inputs: 30-300 sentences against a 5-40 sentence
    # reference over a 6-20 word vocabulary, so boundary bigrams collide
    # often; "..." sentences have no tokens.  Sizes come from the seed so
    # they spread evenly over their ranges.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 301))
    vocab = [f"w{i}" for i in range(int(rng.integers(6, 21)))]
    tokenless_share = float(rng.choice([0.0, 0.05, 0.3]))

    def sentence() -> str:
        if rng.random() < tokenless_share:
            return "..."
        return " ".join(vocab[int(i)] for i in rng.integers(0, len(vocab), size=int(rng.integers(1, 13))))

    texts = [sentence() for _ in range(n)]
    cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=int(rng.integers(0, 8)), replace=False))
    sections = [texts[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    reference = " ".join(sentence() for _ in range(int(rng.integers(5, 41))))
    doc = doc_from_sections("d", sections, reference=reference)
    budget = int(rng.integers(1, n + 1)) if rng.random() < 0.5 else int(rng.integers(1, 11))
    assert list(oracle_labels(doc, budget)) == list(running_extract_oracle_labels(doc, budget))


def test_oracle_margin_ignores_a_gain_of_one_rounding_error():
    # sentence 20 alone scores unigram F1 2·(3/7)(3/5)/(3/7 + 3/5) = 1/2 and
    # no bigram; adding sentence 21 makes it 2·(4/11)(4/5)/(4/11 + 4/5) = 1/2
    # again, which rounds to 0.5000000000000001, so only the 1e-12 margin
    # keeps the oracle from adding it
    filler = [f"x{i} y{i} z{i}" for i in range(40)]
    doc = doc_from_sections(
        "d", [filler[:20], ["w1 w2 w2 w2 w4 w0 w2", "w2 w0 w3 w0"], filler[20:], ["..."]],
        reference="w4 w4 w3 w1 w0",
    )
    assert 0.0 < extract_f1(doc, [20, 21]) - extract_f1(doc, [20]) < 1e-12
    labels = oracle_labels(doc, budget=5)
    assert list(np.nonzero(labels)[0]) == [20]
    assert list(labels) == list(running_extract_oracle_labels(doc, 5))


def test_oracle_weighs_the_bigram_an_insertion_breaks():
    # after "c" and "d" the extract "c d" holds the reference bigram (c, d);
    # inserting "a" completes the unigrams but breaks (c, d), a net loss
    doc = doc_from_sections("d", [["c", "a", "d"]], reference="c d a")
    assert extract_f1(doc, [0, 1, 2]) < extract_f1(doc, [0, 2])
    assert list(oracle_labels(doc, budget=3)) == [1, 0, 1]


@given(st.lists(st.lists(words, min_size=1, max_size=6), min_size=1, max_size=5),
       token_lists, st.data())
def test_extract_f1_is_the_sum_of_rouge_n_f1(sents, ref, data):
    # exact equality: the oracle's score and rouge_n share one arithmetic path
    doc = doc_from_sections("d", [[" ".join(s) for s in sents]], reference=" ".join(ref))
    sel = data.draw(st.lists(st.sampled_from(range(len(sents))), unique=True))
    cand = [tok for i in sorted(sel) for tok in sents[i]]
    assert extract_f1(doc, sel) == rouge_n(cand, ref, 1).f1 + rouge_n(cand, ref, 2).f1


# ---------------------------------------------------------------------------
# candidate sampling for the reinforced objective
# ---------------------------------------------------------------------------


def _swap_doc():
    return doc_from_sections(
        "d",
        [["the cat sat", "a dog ran", "birds fly south", "fish swim deep"]],
        reference="the cat sat",
    )


def test_sample_candidates_are_single_swaps():
    doc = _swap_doc()
    labels = oracle_labels(doc, budget=1)
    got = sample_candidates(doc, labels, k=3, seed=1)
    assert got.complete
    assert len(got.candidates) == 3
    for cand in got.candidates:
        assert cand.labels.sum() == labels.sum()
        assert (cand.labels != np.asarray(labels)).sum() == 2
        assert 0.0 <= cand.reward.value <= 1.0


def test_sample_candidates_deterministic_under_seed():
    doc = _swap_doc()
    labels = oracle_labels(doc, budget=2)
    a = sample_candidates(doc, labels, k=2, seed=9)
    b = sample_candidates(doc, labels, k=2, seed=9)
    assert all((x.labels == y.labels).all() for x, y in zip(a.candidates, b.candidates))
    c = sample_candidates(doc, labels, k=2, seed=10)
    assert any((x.labels != y.labels).any() for x, y in zip(a.candidates, c.candidates))


def test_sample_candidates_no_swaps_returns_labels_as_is():
    doc = doc_from_sections("d", [["the cat sat"]], reference="the cat sat")
    labels = oracle_labels(doc, budget=1)
    got = sample_candidates(doc, labels, k=1, seed=0)
    assert len(got.candidates) == 1
    assert list(got.candidates[0].labels) == [1]


def test_sample_candidates_incomplete_when_too_few_swaps(caplog):
    doc = doc_from_sections("d", [["the cat sat", "dogs bark loud"]], reference="the cat sat")
    labels = oracle_labels(doc, budget=1)
    got = sample_candidates(doc, labels, k=5, seed=0)
    assert not got.complete
    assert len(got.candidates) == 1  # only one selected/unselected pair exists


def test_sample_candidates_k_validated():
    doc = _swap_doc()
    with pytest.raises(ValueError, match="k"):
        sample_candidates(doc, oracle_labels(doc, 1), k=0, seed=0)


# ---------------------------------------------------------------------------
# stable seeding
# ---------------------------------------------------------------------------


def test_stable_seed_is_deterministic_and_sensitive():
    assert stable_seed(1, "a") == stable_seed(1, "a")
    assert stable_seed(1, "a") != stable_seed(1, "b")
    assert stable_seed("1a") != stable_seed(1, "a")
    assert 0 <= stable_seed("x") < 2**64
