"""ROUGE-1/2/L scoring, the selection reward, oracle labels and candidates.

Scores use clipped multiset n-gram counts and a dynamic-programming LCS; no
stemming or stopword removal, so values are comparable only within this
package.  The greedy oracle converts an abstractive reference into 0/1
sentence labels by repeatedly adding the sentence with the largest gain in
(ROUGE-1 F1 + ROUGE-2 F1).
"""

from __future__ import annotations

import hashlib
import logging
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Document, tokenize

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float
    degenerate: bool = False

    @classmethod
    def from_pr(cls, precision: float, recall: float, degenerate: bool = False) -> "RougeScore":
        denom = precision + recall
        f1 = 2.0 * precision * recall / denom if denom > 0 else 0.0
        return cls(precision=precision, recall=recall, f1=f1, degenerate=degenerate)


ZERO_SCORE = RougeScore(0.0, 0.0, 0.0, degenerate=True)


def ngrams(tokens: list[str] | tuple[str, ...], n: int) -> Counter:
    """All contiguous n-token windows with multiplicity."""
    if n < 1:
        raise ValueError(f"ngrams: n must be >= 1, got {n}")
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _score_counts(overlap: int, cand_total: int, ref_total: int) -> RougeScore:
    """ROUGE-N from the clipped overlap and the candidate and reference n-gram totals."""
    if ref_total == 0:
        return ZERO_SCORE
    precision = overlap / cand_total if cand_total else 0.0
    return RougeScore.from_pr(precision, overlap / ref_total)


def _rouge_n_counts(candidate: list[str], ref_counts: Counter, ref_total: int, n: int) -> RougeScore:
    """ROUGE-N of candidate tokens against precomputed reference n-gram counts."""
    cand_counts = ngrams(candidate, n)
    overlap = sum((cand_counts & ref_counts).values())
    return _score_counts(overlap, sum(cand_counts.values()), ref_total)


def rouge_n(candidate: list[str], reference: list[str], n: int) -> RougeScore:
    """Clipped n-gram overlap: recall over reference counts, precision over candidate."""
    ref_counts = ngrams(reference, n)
    return _rouge_n_counts(candidate, ref_counts, sum(ref_counts.values()), n)


def _lcs_length(a: list[str], b: list[str]) -> int:
    """LCS length in bit-parallel form (Allison & Dix 1986; Hyyrö 2004).

    Bit j of `v` stays set while b[j] (b the shorter sequence) is unmatched
    on the current LCS frontier; each token of `a` moves the frontier in one
    carry-propagating add over a Python int, so the cost is O(|a|·|b|/word).
    """
    if len(b) > len(a):
        a, b = b, a
    positions: dict[str, int] = {}
    for j, y in enumerate(b):
        positions[y] = positions.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & positions.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(candidate: list[str], reference: list[str]) -> RougeScore:
    """Longest-common-subsequence ROUGE: recall = LCS/len(ref)."""
    if not reference:
        return ZERO_SCORE
    if not candidate:
        return RougeScore.from_pr(0.0, 0.0)
    lcs = _lcs_length(list(candidate), list(reference))
    return RougeScore.from_pr(lcs / len(candidate), lcs / len(reference))


@dataclass(frozen=True)
class Reward:
    value: float
    degenerate: bool = False


def reward(candidate_text: str, reference_text: str) -> Reward:
    """Mean of ROUGE-1 F1 and ROUGE-2 F1 of candidate against reference."""
    ref_tokens = tokenize(reference_text)
    if not ref_tokens:
        return Reward(0.0, degenerate=True)
    cand_tokens = tokenize(candidate_text)
    r1 = rouge_n(cand_tokens, ref_tokens, 1)
    r2 = rouge_n(cand_tokens, ref_tokens, 2)
    return Reward((r1.f1 + r2.f1) / 2.0)


# ---------------------------------------------------------------------------
# oracle labels
# ---------------------------------------------------------------------------


def _reference_counts(reference: str) -> list[tuple[Counter, int]]:
    """Unigram and bigram counts of the reference with their totals, counted once."""
    ref_tokens = tokenize(reference)
    return [(c, sum(c.values())) for c in (ngrams(ref_tokens, 1), ngrams(ref_tokens, 2))]


def extract_f1(doc: Document, selected: list[int] | np.ndarray) -> float:
    """ROUGE-1 F1 + ROUGE-2 F1 of the extract formed by `selected` indices, in document order.

    The score the greedy oracle maximizes, counted from scratch; brute-force
    checks of the oracle compare against it.
    """
    sentences = doc.sentences
    tokens: list[str] = []
    for i in sorted(int(i) for i in selected):
        tokens.extend(sentences[i].tokens)
    total = 0.0
    for n, (ref_counts, ref_total) in enumerate(_reference_counts(doc.reference_summary), start=1):
        total += _rouge_n_counts(tokens, ref_counts, ref_total, n).f1
    return total


def _clipped_gain(extract: Counter, change: dict, ref: Counter) -> int:
    """Change in the clipped overlap Σ min(extract[g], ref[g]) when `change` is added.

    Every key of `change` must be a reference n-gram.
    """
    gain = 0
    for g, c in change.items():
        e, r = extract.get(g, 0), ref[g]
        gain += min(e + c, r) - min(e, r)
    return gain


class _RunningExtract:
    """ROUGE-1/2 overlap counts of a growing extract joined in document order.

    Each sentence's unigrams and bigrams are counted once, keeping only those
    the reference contains.  Scoring a candidate sentence then costs its own
    n-grams plus the two sentence boundaries it changes, not a recount of the
    whole extract.
    """

    def __init__(self, sentences, refs: list[tuple[Counter, int]]):
        (self.ref1, self.ref1_total), (self.ref2, self.ref2_total) = refs
        self.tokens = [s.tokens for s in sentences]
        self.unigrams = [{g: c for g, c in ngrams(t, 1).items() if g in self.ref1} for t in self.tokens]
        self.bigrams = [{g: c for g, c in ngrams(t, 2).items() if g in self.ref2} for t in self.tokens]
        self.counts1: Counter = Counter()
        self.counts2: Counter = Counter()
        self.overlap1 = self.overlap2 = self.total = 0
        self.joined: list[int] = []  # selected sentences with tokens, in document order

    def _bigram_change(self, i: int) -> dict:
        """Reference bigrams the extract gains (or, at a broken boundary, loses) with sentence i.

        With j and k the nearest joined sentences before and after i, the
        bigram (last of j, first of k) gives way to (last of j, first of i)
        and (last of i, first of k).  A sentence without tokens changes no
        boundary.
        """
        toks = self.tokens
        change = self.bigrams[i]
        if not toks[i]:
            return change
        at = bisect_left(self.joined, i)
        j = self.joined[at - 1] if at > 0 else None
        k = self.joined[at] if at < len(self.joined) else None
        boundary = []
        if j is not None:
            boundary.append(((toks[j][-1], toks[i][0]), 1))
        if k is not None:
            boundary.append(((toks[i][-1], toks[k][0]), 1))
            if j is not None:
                boundary.append(((toks[j][-1], toks[k][0]), -1))
        boundary = [(g, c) for g, c in boundary if g in self.ref2]
        if boundary:
            change = dict(change)
            for g, c in boundary:
                change[g] = change.get(g, 0) + c
        return change

    def score_with(self, i: int) -> float:
        """ROUGE-1 F1 + ROUGE-2 F1 of the extract with sentence i added.

        The same arithmetic as `extract_f1`, from the same integer counts.
        """
        total = self.total + len(self.tokens[i])
        overlap1 = self.overlap1 + _clipped_gain(self.counts1, self.unigrams[i], self.ref1)
        overlap2 = self.overlap2 + _clipped_gain(self.counts2, self._bigram_change(i), self.ref2)
        return (0.0 + _score_counts(overlap1, total, self.ref1_total).f1
                + _score_counts(overlap2, max(total - 1, 0), self.ref2_total).f1)

    def add(self, i: int) -> None:
        change = self._bigram_change(i)
        self.overlap1 += _clipped_gain(self.counts1, self.unigrams[i], self.ref1)
        self.overlap2 += _clipped_gain(self.counts2, change, self.ref2)
        self.counts1.update(self.unigrams[i])
        self.counts2.update(change)
        self.total += len(self.tokens[i])
        if self.tokens[i]:
            insort(self.joined, i)


def oracle_labels(doc: Document, budget: int) -> np.ndarray:
    """Greedy gain-maximizing 0/1 labels against the reference summary.

    Adds one sentence at a time, always the one with the largest improvement
    in (ROUGE-1 F1 + ROUGE-2 F1) of the running extract; ties go to the
    earlier sentence.  Stops when no sentence improves the score or the
    budget is reached.  An empty reference yields all-zero labels (logged).
    Each candidate is scored by its change to the running extract, so a
    round costs time linear in the document's tokens.
    """
    if budget < 1:
        raise ValueError(f"oracle_labels: budget must be >= 1, got {budget}")
    n = doc.n_sentences
    labels = np.zeros(n, dtype=np.int64)
    refs = _reference_counts(doc.reference_summary)
    if refs[0][1] == 0:
        log.warning("doc %s: empty reference summary, oracle labels all zero", doc.id)
        return labels

    extract = _RunningExtract(doc.sentences, refs)
    chosen = 0
    best_score = 0.0
    while chosen < min(budget, n):
        best_idx, best_gain = -1, 0.0
        for i in range(n):
            if labels[i]:
                continue
            gain = extract.score_with(i) - best_score
            if gain > best_gain + 1e-12:
                best_idx, best_gain = i, gain
        if best_idx < 0:
            break
        labels[best_idx] = 1
        extract.add(best_idx)
        chosen += 1
        best_score += best_gain
    return labels


# ---------------------------------------------------------------------------
# candidate sampling for the reinforced objective
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Candidate:
    labels: np.ndarray
    reward: Reward


@dataclass(frozen=True)
class CandidateSet:
    candidates: tuple[Candidate, ...]
    complete: bool  # False when the doc admits fewer than k distinct swaps


def stable_seed(*parts) -> int:
    """Collision-resistant 64-bit seed from string/int parts.

    hashlib (not the builtin hash) because the builtin is salted per process
    and would break cross-run determinism.
    """
    h = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode("utf-8"), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def _candidate_text(doc: Document, labels: np.ndarray) -> str:
    sentences = doc.sentences
    return " ".join(sentences[i].text for i in np.nonzero(labels)[0])


def sample_candidates(doc: Document, labels: np.ndarray, k: int, seed: int) -> CandidateSet:
    """k distinct single-swap perturbations of the oracle labels, with rewards.

    Each candidate swaps one selected sentence for one unselected sentence,
    preserving cardinality.  When fewer than k distinct swaps exist the set
    is returned incomplete; with no swaps possible the oracle itself is the
    only candidate.
    """
    if k < 1:
        raise ValueError(f"sample_candidates: k must be >= 1, got {k}")
    labels = np.asarray(labels, dtype=np.int64)
    selected = np.nonzero(labels == 1)[0]
    unselected = np.nonzero(labels == 0)[0]
    rng = np.random.default_rng(seed)

    if selected.size == 0 or unselected.size == 0:
        cand = Candidate(labels.copy(), reward(_candidate_text(doc, labels), doc.reference_summary))
        return CandidateSet((cand,), complete=(k == 1))

    swaps = [(int(i), int(j)) for i in selected for j in unselected]
    rng.shuffle(swaps)
    take = swaps[:k]
    out = []
    for i, j in take:
        vec = labels.copy()
        vec[i], vec[j] = 0, 1
        out.append(Candidate(vec, reward(_candidate_text(doc, vec), doc.reference_summary)))
    if len(out) < k:
        log.warning("doc %s: only %d distinct swaps for k=%d", doc.id, len(out), k)
    return CandidateSet(tuple(out), complete=(len(out) == k))
