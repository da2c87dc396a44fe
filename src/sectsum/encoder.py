"""Sentence encoding and the additive four-way sentence embedding.

Semantic vectors come from a cheap deterministic hash stub standing in for a
pretrained model, which is out of scope.  A document's sentences are encoded
in one call, then combined with sinusoid position, segment-parity and section
embeddings by simple addition at sentence granularity.
"""

from __future__ import annotations

import hashlib
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
    """Encode every sentence of a document in one encoder call, in document order.

    max_chunk_tokens is the most tokens one sentence may have; a longer
    sentence is an error.
    """
    sentences = doc.sentences
    for s in sentences:
        if len(s.tokens) > max_chunk_tokens:
            raise ValueError(
                f"doc {doc.id}: sentence {s.doc_position} has {len(s.tokens)} tokens, "
                f"exceeding max_chunk_tokens={max_chunk_tokens}"
            )
    return enc.encode([s.tokens for s in sentences])


def compose_embeddings(base: ad.Tensor, parity: np.ndarray, section: np.ndarray,
                       segment_table: ad.Tensor, section_table: ad.Tensor) -> ad.Tensor:
    """Sentence embedding = (semantic + sinusoid position) + (segment + section).

    `base` is the semantic matrix plus the sinusoid table, and `parity` and
    `section` are each sentence's segment-table and section-table rows.
    """
    d = base.shape[1]
    if segment_table.shape != (2, d) or section_table.shape[1] != d:
        raise ad.DimensionError(
            f"table shapes {segment_table.shape}/{section_table.shape} inconsistent with d={d}"
        )
    return ad.add(base, ad.add(ad.gather_rows(segment_table, parity), ad.gather_rows(section_table, section)))
