"""Sentence encoding and the additive four-way sentence embedding.

Semantic vectors come from a cheap deterministic hash stub standing in for a
pretrained model, which is out of scope.  Sentences are encoded section by
section in chunks bounded by a token budget, then combined with sinusoid
position, segment-parity and section embeddings by simple addition at
sentence granularity.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .corpus import Document


class StubEncoder:
    """Deterministic hash-based stand-in for a pretrained sentence encoder.

    Every token maps to a fixed d-vector drawn from a generator seeded with
    blake2b(token, seed) — never Python's builtin hash, which is salted per
    process and would silently break run-to-run determinism.  A sentence
    vector is the mean of its token vectors; an empty token list maps to the
    zero vector.
    """

    def __init__(self, d: int, seed: int = 0):
        if d < 1:
            raise ValueError(f"StubEncoder: d must be positive, got {d}")
        self.d = d
        self.seed = seed
        self.token_table: dict[str, np.ndarray] = {}

    def _token_vector(self, token: str) -> np.ndarray:
        vec = self.token_table.get(token)
        if vec is None:
            digest = hashlib.blake2b(f"{self.seed}\x1f{token}".encode("utf-8"), digest_size=8).digest()
            rng = np.random.default_rng(int.from_bytes(digest, "little"))
            vec = rng.standard_normal(self.d)
            self.token_table[token] = vec
        return vec

    def encode(self, sentences: Sequence[Sequence[str]]) -> np.ndarray:
        out = np.zeros((len(sentences), self.d), dtype=np.float64)
        for i, tokens in enumerate(sentences):
            if tokens:
                out[i] = np.mean([self._token_vector(t) for t in tokens], axis=0)
        return out


def sinusoid_table(n: int, d: int) -> np.ndarray:
    """Classic sinusoid positions, one row per position p < n:
    entry 2i = sin(p/10000^(2i/d)), entry 2i+1 = cos(p/10000^(2i/d))."""
    if n < 0:
        raise ValueError(f"sinusoid_table: n must be >= 0, got {n}")
    if d % 2 != 0:
        raise ValueError(f"sinusoid_table: d must be even, got {d}")
    i = np.arange(d // 2, dtype=np.float64)
    angles = np.arange(n, dtype=np.float64)[:, None] / np.power(10000.0, 2.0 * i / d)
    out = np.empty((n, d), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def encode_sentences(doc: Document, enc: StubEncoder, max_chunk_tokens: int) -> np.ndarray:
    """Encode a document section by section under a chunk token budget.

    Each section's sentences are greedily grouped into chunks whose summed
    token counts stay within max_chunk_tokens (sentences are never split);
    the encoder runs once per chunk and rows are concatenated in document
    order.  A single sentence exceeding the budget is an error.
    """
    rows: list[np.ndarray] = []
    for sec in doc.sections:
        chunk: list[Sequence[str]] = []
        used = 0
        for s in sec.sentences:
            need = len(s.tokens)
            if need > max_chunk_tokens:
                raise ValueError(
                    f"doc {doc.id}: sentence {s.doc_position} has {need} tokens, "
                    f"exceeding max_chunk_tokens={max_chunk_tokens}"
                )
            if chunk and used + need > max_chunk_tokens:
                rows.append(enc.encode(chunk))
                chunk, used = [], 0
            chunk.append(s.tokens)
            used += need
        if chunk:
            rows.append(enc.encode(chunk))
    if not rows:
        return np.zeros((0, enc.d), dtype=np.float64)
    out = np.concatenate(rows, axis=0)
    if out.shape[0] != doc.n_sentences:
        raise ValueError(
            f"encoder returned {out.shape[0]} rows for {doc.n_sentences} sentences"
        )
    return out


@dataclass(frozen=True)
class EmbeddingInputs:
    """The parameter-free part of one document's sentence embeddings."""

    base: ad.Tensor       # semantic + sinusoid position, [n x d]
    parity: np.ndarray    # segment-table row per sentence
    section: np.ndarray   # section-table row per sentence, clamped to the table


def embedding_inputs(semantic: np.ndarray, doc: Document, s_max: int) -> EmbeddingInputs:
    """Sum the semantic matrix with the sinusoid table and index the tables.

    Segment is the parity of the global sentence index (odd/even
    alternation); section indices past the s_max-row table clamp to its last
    row, with one logged warning per call.
    """
    n = doc.n_sentences
    if semantic.ndim != 2 or semantic.shape[0] != n:
        raise ad.DimensionError(f"semantic matrix {semantic.shape} does not match n_sentences={n}")
    section = ad.clamp_indices(
        np.array([s.section_index for s in doc.sentences], dtype=np.int64),
        s_max,
        warn_label="section embedding",
    )
    return EmbeddingInputs(
        base=ad.Tensor(semantic + sinusoid_table(n, semantic.shape[1])),
        parity=np.arange(n, dtype=np.int64) % 2,
        section=section,
    )


def compose_embeddings(inputs: EmbeddingInputs, segment_table: ad.Tensor, section_table: ad.Tensor) -> ad.Tensor:
    """Sentence embedding = (semantic + sinusoid position) + (segment + section)."""
    d = inputs.base.shape[1]
    if segment_table.shape != (2, d) or section_table.shape[1] != d:
        raise ad.DimensionError(
            f"table shapes {segment_table.shape}/{section_table.shape} inconsistent with d={d}"
        )
    seg = ad.gather_rows(segment_table, inputs.parity)
    sec = ad.gather_rows(section_table, inputs.section)
    return ad.add(inputs.base, ad.add(seg, sec))
