"""ROUGE-1/2/L scoring, the selection reward, oracle labels and candidates.

Scores use clipped multiset n-gram counts and a bit-parallel LCS; no
stemming or stopword removal, so values are comparable only within this
package.  The greedy oracle converts an abstractive reference into 0/1
sentence labels by repeatedly adding the sentence with the largest gain in
(ROUGE-1 F1 + ROUGE-2 F1).
"""

from __future__ import annotations

import hashlib
import logging
from bisect import insort
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
    """All contiguous n-token windows, as n-tuples, with multiplicity."""
    if n < 1:
        raise ValueError(f"ngrams: n must be >= 1, got {n}")
    return Counter(zip(*(tokens[i:] for i in range(n))))


def clipped_overlap(a: Counter, b: Counter) -> int:
    """Clipped overlap Σ min(a[g], b[g]): the n-grams both hold, found by walking the smaller."""
    common = a.keys() & b.keys()
    return sum(map(min, map(a.__getitem__, common), map(b.__getitem__, common)))


def _score_counts(overlap: int, cand_total: int, ref_total: int) -> RougeScore:
    """ROUGE-N from the clipped overlap and the candidate and reference n-gram totals."""
    if ref_total == 0:
        return ZERO_SCORE
    precision = overlap / cand_total if cand_total else 0.0
    return RougeScore.from_pr(precision, overlap / ref_total)


def _rouge_n_counts(candidate: list[str], ref_counts: Counter, ref_total: int, n: int) -> RougeScore:
    """ROUGE-N of candidate tokens against precomputed reference n-gram counts."""
    cand_counts = ngrams(candidate, n)
    return _score_counts(clipped_overlap(cand_counts, ref_counts), sum(cand_counts.values()), ref_total)


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


def _overlap_gain(e: np.ndarray, c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Change in the clipped overlap min(e, r) of each n-gram when its count moves by c."""
    return np.minimum(e + c, r) - np.minimum(e, r)


def _f1(overlap: np.ndarray, cand_total: np.ndarray, ref_total: int) -> np.ndarray:
    """`_score_counts(...).f1` elementwise, with the same float steps."""
    if ref_total == 0:
        return np.zeros(overlap.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(cand_total > 0, overlap / cand_total, 0.0)
        recall = overlap / ref_total
        denom = precision + recall
        return np.where(denom > 0, 2.0 * precision * recall / denom, 0.0)


_SENTINEL = np.iinfo(np.int64).max  # closes a sorted key table, above every key


class _OracleTables:
    """A document's sentences as flat arrays of reference n-gram hits.

    Reference unigrams get ids; a bigram of ids (a, b) has the code
    ``a * n1 + b`` and its column is its rank among the reference's bigram
    codes.  Each sentence's own hits are counted once into ``(sentence,
    column, count)`` rows sorted by sentence, then column.  N-grams outside
    the reference cannot change the clipped overlap, so they are dropped.
    """

    def __init__(self, sentences, ref_tokens: list[str]):
        ids: dict[str, int] = {}
        for tok in ref_tokens:
            ids.setdefault(tok, len(ids))
        self.n1 = len(ids)
        ref_ids = np.array([ids[tok] for tok in ref_tokens], dtype=np.int64)
        self.ref1 = np.bincount(ref_ids, minlength=self.n1)
        codes, self.ref2 = np.unique(ref_ids[:-1] * self.n1 + ref_ids[1:], return_counts=True)
        self.codes2 = np.append(codes, _SENTINEL)

        n = len(sentences)
        self.lengths = np.array([len(s.tokens) for s in sentences], dtype=np.int64)
        self.has_tokens = self.lengths > 0
        tok = np.array([ids.get(w, -1) for s in sentences for w in s.tokens], dtype=np.int64)
        owner = np.repeat(np.arange(n), self.lengths)
        ends = np.cumsum(self.lengths)[self.has_tokens]
        self.first = np.full(n, -1, dtype=np.int64)  # -1: not a reference unigram
        self.last = np.full(n, -1, dtype=np.int64)
        self.first[self.has_tokens] = tok[ends - self.lengths[self.has_tokens]]
        self.last[self.has_tokens] = tok[ends - 1]

        hit = tok >= 0
        self.uni = self._rows(owner[hit], tok[hit], self.n1)
        inside = owner[:-1] == owner[1:]
        col, found = self.bigram_columns(tok[:-1][inside], tok[1:][inside])
        self.bi = self._rows(owner[:-1][inside][found], col[found], self.ref2.size)
        self.bi_keys = np.append(self.bi[0] * self.ref2.size + self.bi[1], _SENTINEL)
        self.bi_counts = np.append(self.bi[2], 0)

    @staticmethod
    def _rows(owner: np.ndarray, col: np.ndarray, n_cols: int):
        keys, counts = np.unique(owner * n_cols + col, return_counts=True)
        return keys // max(n_cols, 1), keys % max(n_cols, 1), counts

    def bigram_columns(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Column of each bigram (a, b) of unigram ids, and whether the reference has it."""
        codes = a * self.n1 + b
        col = np.searchsorted(self.codes2, codes)
        return col, (a >= 0) & (b >= 0) & (self.codes2[col] == codes)

    def own_bigrams(self, owner: np.ndarray, col: np.ndarray) -> np.ndarray:
        """How often each sentence `owner` holds the reference bigram `col` itself."""
        keys = owner * self.ref2.size + col
        at = np.searchsorted(self.bi_keys, keys)
        return np.where(self.bi_keys[at] == keys, self.bi_counts[at], 0)

    def boundary_change(self, joined: np.ndarray, cand: np.ndarray):
        """Reference bigrams each candidate makes (+1) or breaks (-1) where it joins the extract.

        With j and k the nearest joined sentences before and after candidate
        i, the bigram (last of j, first of k) gives way to (last of j, first
        of i) and (last of i, first of k).  Returns ``(candidate, column,
        delta)`` rows, a candidate's coinciding bigrams summed into one.
        """
        at = np.searchsorted(joined, cand)
        has_j, has_k = at > 0, at < joined.size
        padded = np.append(joined, -1)  # index -1 and joined.size both land on the pad
        j, k = padded[at - 1], padded[at]
        col, found = self.bigram_columns(np.concatenate([self.last[j], self.last[cand], self.last[j]]),
                                         np.concatenate([self.first[cand], self.first[k], self.first[k]]))
        keep = found & np.concatenate([has_j, has_k, has_j & has_k])
        delta = np.repeat(np.array([1, 1, -1]), cand.size)[keep]
        n_cols = max(self.ref2.size, 1)
        keys, where = np.unique(np.tile(cand, 3)[keep] * n_cols + col[keep], return_inverse=True)
        return keys // n_cols, keys % n_cols, np.bincount(where, delta, minlength=keys.size).astype(np.int64)


def oracle_labels(doc: Document, budget: int) -> np.ndarray:
    """Greedy gain-maximizing 0/1 labels against the reference summary.

    Adds one sentence at a time, always the one with the largest improvement
    in (ROUGE-1 F1 + ROUGE-2 F1) of the running extract; ties go to the
    earlier sentence.  Stops when no sentence improves the score or the
    budget is reached.  An empty reference yields all-zero labels (logged).

    A round scores every candidate in a few array passes: the clipped-overlap
    gain of its own reference n-grams, corrected by the bigrams it makes and
    breaks at its boundaries, then both F1s with the same integer counts and
    float steps as `extract_f1`.
    """
    if budget < 1:
        raise ValueError(f"oracle_labels: budget must be >= 1, got {budget}")
    n = doc.n_sentences
    labels = np.zeros(n, dtype=np.int64)
    ref_tokens = tokenize(doc.reference_summary)
    if not ref_tokens:
        log.warning("doc %s: empty reference summary, oracle labels all zero", doc.id)
        return labels

    t = _OracleTables(doc.sentences, ref_tokens)
    s1, c1, k1 = t.uni
    s2, c2, k2 = t.bi
    e1 = np.zeros(t.ref1.size, dtype=np.int64)  # the extract's reference n-gram counts
    e2 = np.zeros(t.ref2.size, dtype=np.int64)
    overlap1 = overlap2 = total = 0
    joined: list[int] = []  # selected sentences with tokens, in document order
    with_tokens = np.nonzero(t.has_tokens)[0]  # a sentence without tokens changes no boundary
    unpicked = list(range(n))
    best_score = 0.0
    for _ in range(min(budget, n)):
        gain1 = np.bincount(s1, _overlap_gain(e1[c1], k1, t.ref1[c1]), minlength=n).astype(np.int64)
        gain2 = np.bincount(s2, _overlap_gain(e2[c2], k2, t.ref2[c2]), minlength=n).astype(np.int64)
        b_owner, b_col, b_delta = t.boundary_change(np.array(joined, dtype=np.int64), with_tokens)
        own = t.own_bigrams(b_owner, b_col)
        e, r = e2[b_col], t.ref2[b_col]
        gain2 += np.bincount(
            b_owner, _overlap_gain(e, own + b_delta, r) - _overlap_gain(e, own, r), minlength=n
        ).astype(np.int64)
        totals = total + t.lengths
        scores = (0.0 + _f1(overlap1 + gain1, totals, len(ref_tokens))
                  + _f1(overlap2 + gain2, np.maximum(totals - 1, 0), len(ref_tokens) - 1))
        gains = (scores - best_score).tolist()
        best_idx, best_gain = -1, 0.0
        for i in unpicked:
            if gains[i] > best_gain + 1e-12:
                best_idx, best_gain = i, gains[i]
        if best_idx < 0:
            break
        labels[best_idx] = 1
        unpicked.remove(best_idx)
        e1[c1[s1 == best_idx]] += k1[s1 == best_idx]
        e2[c2[s2 == best_idx]] += k2[s2 == best_idx]
        e2[b_col[b_owner == best_idx]] += b_delta[b_owner == best_idx]
        overlap1 += int(gain1[best_idx])
        overlap2 += int(gain2[best_idx])
        total += int(t.lengths[best_idx])
        if t.has_tokens[best_idx]:
            insort(joined, best_idx)
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
