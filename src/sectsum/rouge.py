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


def _rouge_n_counts(candidate: list[str], ref_counts: Counter, ref_total: int, n: int) -> RougeScore:
    """ROUGE-N of candidate tokens against precomputed reference n-gram counts."""
    if ref_total == 0:
        return ZERO_SCORE
    cand_counts = ngrams(candidate, n)
    cand_total = sum(cand_counts.values())
    overlap = sum((cand_counts & ref_counts).values())
    precision = overlap / cand_total if cand_total else 0.0
    return RougeScore.from_pr(precision, overlap / ref_total)


def rouge_n(candidate: list[str], reference: list[str], n: int) -> RougeScore:
    """Clipped n-gram overlap: recall over reference counts, precision over candidate."""
    ref_counts = ngrams(reference, n)
    return _rouge_n_counts(candidate, ref_counts, sum(ref_counts.values()), n)


def _lcs_length(a: list[str], b: list[str]) -> int:
    # one-row DP over the shorter sequence keeps memory at O(min(len))
    if len(b) > len(a):
        a, b = b, a
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


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


def _extract_score(sentences, selected, refs: list[tuple[Counter, int]]) -> float:
    """ROUGE-1 F1 + ROUGE-2 F1 of the extract formed by `selected`, in document order."""
    tokens: list[str] = []
    for i in sorted(selected):
        tokens.extend(sentences[i].tokens)
    total = 0.0
    for n, (ref_counts, ref_total) in enumerate(refs, start=1):
        total += _rouge_n_counts(tokens, ref_counts, ref_total, n).f1
    return total


def extract_f1(doc: Document, selected: list[int] | np.ndarray) -> float:
    """ROUGE-1 F1 + ROUGE-2 F1 of the extract formed by `selected` indices.

    Shared by the greedy oracle and by brute-force verification in tests.
    """
    return _extract_score(doc.sentences, [int(i) for i in selected],
                          _reference_counts(doc.reference_summary))


def oracle_labels(doc: Document, budget: int) -> np.ndarray:
    """Greedy gain-maximizing 0/1 labels against the reference summary.

    Adds one sentence at a time, always the one with the largest improvement
    in (ROUGE-1 F1 + ROUGE-2 F1) of the running extract; ties go to the
    earlier sentence.  Stops when no sentence improves the score or the
    budget is reached.  An empty reference yields all-zero labels (logged).
    """
    if budget < 1:
        raise ValueError(f"oracle_labels: budget must be >= 1, got {budget}")
    n = doc.n_sentences
    labels = np.zeros(n, dtype=np.int64)
    refs = _reference_counts(doc.reference_summary)
    if refs[0][1] == 0:
        log.warning("doc %s: empty reference summary, oracle labels all zero", doc.id)
        return labels

    sentences = doc.sentences
    chosen: list[int] = []
    best_score = 0.0
    while len(chosen) < min(budget, n):
        best_idx, best_gain = -1, 0.0
        for i in range(n):
            if labels[i]:
                continue
            score = _extract_score(sentences, chosen + [i], refs)
            gain = score - best_score
            if gain > best_gain + 1e-12:
                best_idx, best_gain = i, gain
        if best_idx < 0:
            break
        labels[best_idx] = 1
        chosen.append(best_idx)
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
    return " ".join(doc.sentences[i].text for i in np.nonzero(labels)[0])


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
