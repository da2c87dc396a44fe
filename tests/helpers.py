"""Shared builders for the test suite.

Everything here is deterministic: document builders go through the public
JSONL parser so tests exercise the same construction path as ingestion, and
random content is drawn from `stable_seed`-derived generators.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import sys
from bisect import bisect_left, insort
from collections import Counter
from pathlib import Path

import numpy as np

from sectsum import autodiff as ad
from sectsum.attention import NEG_INF
from sectsum.config import model_hash, resolve_config
from sectsum.corpus import (
    Document,
    LabeledDocument,
    load_corpus,
    parse_document,
    read_labels,
    tokenize,
    write_summaries,
)
from sectsum.encoder import StubEncoder, encode_sentences
from sectsum.rouge import RougeScore, _reference_counts, _score_counts, ngrams, stable_seed

DATA_DIR = Path(__file__).parent / "data"

MARKER = "keystone"


def doc_from_sections(
    doc_id: str,
    sections: list[list[str]],
    reference: str = "",
    titles: list[str] | None = None,
) -> Document:
    """Build a Document through the JSONL parser from lists of sentence texts."""
    if titles is None:
        titles = [f"part {i}" for i in range(len(sections))]
    obj = {
        "id": doc_id,
        "reference_summary": reference,
        "sections": [
            {"title": t, "sentences": list(sents)} for t, sents in zip(titles, sections)
        ],
    }
    return parse_document(json.dumps(obj))


GREEK = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def small_random_doc(seed: int) -> Document:
    """A 6-sentence, 2-section document over a tiny vocabulary.

    Used by gradient and invariance tests; 4 tokens per sentence keeps every
    feature path (length buckets, sections, correlation, saliency) active.
    """
    rng = np.random.default_rng(seed)
    sections = []
    for _ in range(2):
        sections.append(
            [
                " ".join(GREEK[int(i)] for i in rng.integers(0, len(GREEK), size=4))
                for _ in range(3)
            ]
        )
    return doc_from_sections(f"doc{seed}", sections, reference="alpha beta gamma delta")


def planted_corpus(
    n_docs: int = 200,
    n_sentences: int = 40,
    n_sections: int = 4,
    n_planted: int = 8,
    seed: int = 0,
) -> list[LabeledDocument]:
    """Synthetic corpus with a planted signal.

    Each document has `n_planted` sentences containing the marker token
    ``keystone``; the reference summary is exactly those sentences in document
    order and the labels mark them, so a model that learns to spot the marker
    attains high label accuracy and ROUGE recall.
    """
    rng = np.random.default_rng(stable_seed(seed, "planted-corpus"))
    vocab = [f"word{i:03d}" for i in range(60)]
    per_sec = n_sentences // n_sections
    items = []
    for d in range(n_docs):
        planted = set(int(i) for i in rng.choice(n_sentences, size=n_planted, replace=False))
        texts = []
        for k in range(n_sentences):
            toks = [
                vocab[int(j)]
                for j in rng.integers(0, len(vocab), size=int(rng.integers(6, 11)))
            ]
            if k in planted:
                toks.insert(int(rng.integers(0, len(toks) + 1)), MARKER)
            texts.append(" ".join(toks))
        doc = doc_from_sections(
            f"doc{d:03d}",
            [texts[s * per_sec : (s + 1) * per_sec] for s in range(n_sections)],
            reference=" ".join(texts[k] for k in sorted(planted)),
        )
        labels = tuple(1 if k in planted else 0 for k in range(n_sentences))
        items.append(LabeledDocument(doc, labels))
    return items


def write_corpus_jsonl(path: Path, docs: list[Document]) -> None:
    """Write documents as plain JSONL (no header line)."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            from sectsum.corpus import serialize_document

            fh.write(serialize_document(doc) + "\n")


def char_loop_tokenize(text: str) -> list[str]:
    """The tokenizer as a per-character loop, the reference for `corpus.tokenize`."""
    cleaned = []
    for ch in text.lower():
        if ch.isalnum() or ch.isspace():
            cleaned.append(ch)
    return "".join(cleaned).split()


# ---------------------------------------------------------------------------
# the per-token stub encoder that the bulk one replaced
# ---------------------------------------------------------------------------


def per_token_encode(d: int, seed: int, sentences) -> np.ndarray:
    """One `default_rng` per token and `np.mean` per sentence, the reference for `StubEncoder.encode`."""

    def vector(token: str) -> np.ndarray:
        digest = hashlib.blake2b(f"{seed}\x1f{token}".encode("utf-8"), digest_size=8).digest()
        return np.random.default_rng(int.from_bytes(digest, "little")).standard_normal(d)

    out = np.zeros((len(sentences), d), dtype=np.float64)
    for i, tokens in enumerate(sentences):
        if tokens:
            out[i] = np.mean([vector(t) for t in tokens], axis=0)
    return out


def semantic_matrix_bytes(config: Path, corpus: Path) -> bytes:
    """Every document's semantic matrix as `Model.plan` encodes it, in corpus order.

    One encoder serves the whole corpus, as in a run; the matrices are joined
    as row-major little-endian float64.
    """
    cfg = resolve_config(config)
    enc = StubEncoder(cfg.d_model, cfg.encoder_seed)
    docs = load_corpus(corpus, max_sentences=cfg.max_sentences).documents
    return b"".join(
        encode_sentences(doc, enc, cfg.max_chunk_tokens).astype("<f8").tobytes() for doc in docs
    )


def load_perfbench_gen():
    """perfbench/gen.py, the benchmark's workload generator, as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def write_oracle_summaries(config: Path, corpus: Path, labels: Path, out: Path, shift: int = 0) -> None:
    """A summaries file whose extract of each document is its labelled sentences, in document order.

    With `shift`, each labelled index i is replaced by (i + shift) mod n: an
    extract that only partly matches the reference.
    """
    cfg = resolve_config(config)
    docs = load_corpus(corpus, max_sentences=cfg.max_sentences).documents
    labels_map, _ = read_labels(labels)
    records = []
    for doc in docs:
        n = doc.n_sentences
        picked = sorted({(i + shift) % n for i, v in enumerate(labels_map[doc.id]) if v})
        sentences = doc.sentences
        records.append({"id": doc.id, "selected": picked, "sentences": [sentences[i].text for i in picked]})
    write_summaries(records, out, model_hash(cfg))


# ---------------------------------------------------------------------------
# the text path that lazy interned tokens and C-level counts replaced
# ---------------------------------------------------------------------------


def slice_ngrams(tokens, n: int) -> Counter:
    """One slice per window, the reference for `rouge.ngrams`."""
    if n < 1:
        raise ValueError(f"ngrams: n must be >= 1, got {n}")
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def and_overlap(a: Counter, b: Counter) -> int:
    """Σ min(a[g], b[g]) through `Counter.__and__`, the reference for the clipped overlaps."""
    return sum((a & b).values())


def slice_rouge_n(candidate, reference, n: int) -> RougeScore:
    """`rouge_n` from slice counts and the `&` overlap."""
    cand, ref = slice_ngrams(candidate, n), slice_ngrams(reference, n)
    return _score_counts(and_overlap(cand, ref), sum(cand.values()), sum(ref.values()))


def eager_tokens(text: str) -> tuple[str, ...]:
    """A sentence's tokens as the parser once stored them, counted when the line was read."""
    return tuple(tokenize(text))


# ---------------------------------------------------------------------------
# the composed graphs that the fused autodiff ops replay
# ---------------------------------------------------------------------------
# Each is the op-by-op form the fused op replaced, kept as the reference its
# outputs and gradients must equal bit for bit.  They take the fused ops'
# arguments so tests can swap them in where the callers look them up.  The
# band and the global rows are parts of the sublayer and layer nodes, so only
# the composed sublayer calls theirs.


def composed_linear(x, layer):
    """y = x @ W.T + b as transpose → matmul → add."""
    return ad.add(ad.matmul(x, ad.transpose(layer.weight)), layer.bias)


def composed_banded_rows(q, k, v, layout):
    """The chunked band as narrow/transpose/matmul/softmax/concat per chunk."""
    n_pad = q.shape[0]
    window = layout.chunks[0][1] - layout.chunks[0][0]
    valid = layout.valid_col[:, 0] > 0
    glob = layout.glob
    band_ok = valid.copy()
    if glob.size:
        band_ok[glob] = False
        k_glob_cols = ad.gather_rows(k, glob)
        v_glob_cols = ad.gather_rows(v, glob)

    positions = np.arange(n_pad)
    outs = []
    for c in range(n_pad // window):
        lo, hi = c * window, (c + 1) * window
        klo, khi = max(0, lo - window), min(n_pad, hi + window)
        span = khi - klo
        in_band = (
            np.abs(positions[lo:hi, None] - positions[None, klo:khi]) <= window
        ) & band_ok[None, klo:khi]
        scores = ad.matmul(ad.narrow(q, 0, lo, window), ad.transpose(ad.narrow(k, 0, klo, span)))
        scores = ad.add(scores, ad.Tensor(np.where(in_band, 0.0, NEG_INF)))
        if glob.size:
            scores = ad.concat(
                [scores, ad.matmul(ad.narrow(q, 0, lo, window), ad.transpose(k_glob_cols))], axis=1
            )
        probs = ad.softmax(scores, axis=1)
        out = ad.matmul(ad.narrow(probs, 1, 0, span), ad.narrow(v, 0, klo, span))
        if glob.size:
            out = ad.add(out, ad.matmul(ad.narrow(probs, 1, span, int(glob.size)), v_glob_cols))
        outs.append(out)
    banded = outs[0] if len(outs) == 1 else ad.concat(outs, axis=0)
    return ad.mul(banded, ad.Tensor(valid.astype(np.float64)[:, None]))


def composed_global_rows(local, q_glob, k, v, layout, inv_sqrt_d):
    """The global-row branch as scale → transpose → matmul → mask → softmax →
    matmul → keep_local → scatter_rows → add."""
    valid = layout.valid_col[:, 0] > 0
    glob = layout.glob
    scores = ad.matmul(ad.scale(q_glob, inv_sqrt_d), ad.transpose(k))
    scores = ad.add(scores, ad.Tensor(np.where(valid, 0.0, NEG_INF)[None, :]))
    glob_out = ad.matmul(ad.softmax(scores, axis=1), v)
    keep_local = valid.copy()
    keep_local[glob] = False
    return ad.add(
        ad.mul(local, ad.Tensor(keep_local.astype(np.float64)[:, None])),
        ad.scatter_rows(glob_out, glob, valid.size),
    )


def composed_global_attention(x, mask, params):
    """The attention sublayer op by op: per head the composed projections, band
    and global rows; then concat, output projection and pad mask."""
    layout = mask.layout
    glob = layout.glob
    inv_sqrt_d = 1.0 / math.sqrt(params.heads[0].query.out_features)
    per_head = []
    for head in params.heads:
        q = ad.scale(composed_linear(x, head.query), inv_sqrt_d)
        k, v = composed_linear(x, head.key), composed_linear(x, head.value)
        out = composed_banded_rows(q, k, v, layout)
        if glob.size:
            q_glob = composed_linear(ad.gather_rows(x, glob), head.global_query)
            k, v = composed_linear(x, head.global_key), composed_linear(x, head.global_value)
            out = composed_global_rows(out, q_glob, k, v, layout, inv_sqrt_d)
        per_head.append(out)
    merged = per_head[0] if len(per_head) == 1 else ad.concat(per_head, axis=1)
    return ad.mul(composed_linear(merged, params.output), ad.Tensor(layout.valid_col))


def composed_transformer_layer(h_prev, mask, params):
    """One transformer layer op by op: the composed attention sublayer, then
    LayerNorm, residual, ReLU FFN, LayerNorm and residual."""
    attn = composed_global_attention(h_prev, mask, params)
    h_mid = ad.add(h_prev, ad.layer_norm(attn, params.attn_gain, params.attn_bias))
    ff = composed_linear(ad.relu(composed_linear(h_mid, params.ffn_inner)), params.ffn_outer)
    return ad.add(h_mid, ad.layer_norm(ff, params.ffn_gain, params.ffn_bias))


def reference_ce_loss(probs, labels):
    """The cross-entropy graph that reshaped the scores to a (n, 1) column,
    gathered from it and added each label group's term to a zero seed."""
    y = np.asarray(labels, dtype=np.int64)
    column = ad.reshape(probs, (probs.shape[0], 1))
    pos = np.nonzero(y == 1)[0]
    neg = np.nonzero(y == 0)[0]
    total = ad.Tensor(0.0)
    if pos.size:
        total = ad.add(total, ad.tsum(ad.log(ad.gather_rows(column, pos))))
    if neg.size:
        one_minus = ad.add(1.0, ad.neg(ad.gather_rows(column, neg)))
        total = ad.add(total, ad.tsum(ad.log(one_minus)))
    return ad.neg(total)


def sinusoid_rows(n: int, d: int) -> np.ndarray:
    """The sinusoid table built row by row, the reference for the vectorised one."""

    def row(pos: int) -> np.ndarray:
        i = np.arange(d // 2, dtype=np.float64)
        angles = pos / np.power(10000.0, 2.0 * i / d)
        out = np.empty(d, dtype=np.float64)
        out[0::2] = np.sin(angles)
        out[1::2] = np.cos(angles)
        return out

    return np.stack([row(p) for p in range(n)]) if n else np.zeros((0, d))


# ---------------------------------------------------------------------------
# the per-candidate greedy oracle that the vectorised one replaced
# ---------------------------------------------------------------------------


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

    Scoring a candidate sentence costs its own reference n-grams plus the two
    sentence boundaries it changes, one Python call chain per candidate.
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
        """Reference bigrams the extract gains (or, at a broken boundary, loses) with sentence i."""
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
        """ROUGE-1 F1 + ROUGE-2 F1 of the extract with sentence i added."""
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


def running_extract_oracle_labels(doc: Document, budget: int) -> np.ndarray:
    """The greedy oracle scoring one candidate at a time, the reference for `oracle_labels`."""
    n = doc.n_sentences
    labels = np.zeros(n, dtype=np.int64)
    refs = _reference_counts(doc.reference_summary)
    if refs[0][1] == 0:
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
