"""Score prediction and budgeted summary selection with trigram blocking,
under the run's RunConfig (`SelectionConfig` is another name for it)."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import RunConfig
from .corpus import Document, Sentence
from .rouge import clipped_overlap, ngrams


@dataclass
class SentenceScores:
    """Per-sentence selection probabilities, each strictly inside (0,1)."""

    p: ad.Tensor  # shape (n,)

    @property
    def values(self) -> np.ndarray:
        return self.p.data

    def __len__(self) -> int:
        return int(self.p.shape[0])


SelectionConfig = RunConfig


def predict_scores(
    sent: ad.Tensor,
    length: ad.Tensor,
    position: ad.Tensor,
    section: ad.Tensor,
    correlation: ad.Tensor,
    saliency: ad.Tensor,
    out_layer: ad.Linear,
    combine: str = "sum",
) -> SentenceScores:
    """Combine the six feature matrices and squash a linear score to (0,1).

    Default combination is elementwise sum (out_layer maps d → 1); the
    concat variant stacks the six channels (out_layer maps 6d → 1).
    """
    mats = (sent, length, position, section, correlation, saliency)
    shape = sent.shape
    for m in mats:
        if m.shape != shape:
            raise ad.DimensionError(f"feature matrix {m.shape} != sentence matrix {shape}")
    if combine == "sum":
        total = mats[0]
        for m in mats[1:]:
            total = ad.add(total, m)
    elif combine == "concat":
        total = ad.concat(list(mats), axis=1)
    else:
        raise ValueError(f"unknown combine mode {combine!r}")
    logits = out_layer(total)  # (n, 1)
    return SentenceScores(ad.reshape(ad.sigmoid(logits), (shape[0],)))


def shared_trigrams(candidate: Sentence, pool: Counter) -> int:
    """Candidate trigram occurrences already present in `pool`.

    `pool` is the summed trigram bag of the sentences selected so far;
    multiset semantics both ways, so the overlap is the intersection size.
    """
    return clipped_overlap(ngrams(candidate.tokens, 3), pool)


def selection_budget(n_sentences: int, budget_ratio: float) -> int:
    """Sentences to select: ceil(budget_ratio * n), never below 1."""
    return max(1, math.ceil(budget_ratio * n_sentences))


def select_sentences(doc: Document, scores: SentenceScores | np.ndarray, cfg: RunConfig) -> list[int]:
    """Greedy budgeted selection in descending score order.

    Ties break toward the earlier sentence; a candidate is skipped iff
    blocking is enabled and it shares more than `trigram_threshold` trigrams
    with already-accepted sentences.  The result is in document order.
    """
    values = scores.values if isinstance(scores, SentenceScores) else np.asarray(scores, dtype=np.float64)
    sentences = doc.sentences
    n = doc.n_sentences
    if values.shape != (n,):
        raise ValueError(f"scores shape {values.shape} does not match n_sentences={n}")
    budget = selection_budget(n, cfg.budget_ratio)
    order = sorted(range(n), key=lambda i: (-values[i], i))
    accepted: list[int] = []
    pool: Counter = Counter()  # trigrams of the accepted sentences
    for i in order:
        if len(accepted) >= budget:
            break
        if cfg.trigram_threshold is not None:
            if shared_trigrams(sentences[i], pool) > cfg.trigram_threshold:
                continue
            pool.update(ngrams(sentences[i].tokens, 3))
        accepted.append(i)
    return sorted(accepted)
