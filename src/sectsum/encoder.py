"""Sentence encoding and the additive four-way sentence embedding.

Semantic vectors come from a cheap deterministic hash stub standing in for a
pretrained model, which is out of scope.  A document's sentences are encoded
in one call, then combined with sinusoid position, segment-parity and section
embeddings by simple addition at sentence granularity.
"""

from __future__ import annotations

import hashlib
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .corpus import Document

# SeedSequence's uint32 hash constants and PCG64's 128-bit LCG multiplier.
# NumPy's stream-compatibility policy (NEP 19) freezes both seeding
# algorithms, so replaying them gives default_rng's bits.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # for mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # for drawing words from the pool
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def pcg64_states(seeds: np.ndarray) -> Iterator[tuple[int, int]]:
    """The (state, inc) of `np.random.default_rng(s).bit_generator` for each uint64 seed s.

    Replays ``SeedSequence(s).generate_state(4, np.uint64)`` for all seeds at
    once in uint32 arithmetic, then PCG64's ``srandom_r`` seeding in Python
    ints.  The entropy words of s are [low 32 bits, high 32 bits]; a seed
    below 2**32 has one word, and SeedSequence fills a missing word with
    hashmix(0), which is what a high word of 0 gives.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * _MULT_A) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return value ^ (value >> np.uint32(16))

    low = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    high = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [hashmix(w) for w in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        value = value * np.uint32(const)
        state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # generate_state's uint64 words are its uint32 words paired little-endian
    w0, w1, w2, w3 = (state[2 * i] | (state[2 * i + 1] << np.uint64(32)) for i in range(4))
    for a, b, c, d in zip(w0.tolist(), w1.tolist(), w2.tolist(), w3.tolist()):
        inc = ((((c << 64) | d) << 1) | 1) & _MASK128
        # srandom_r: state 0, one LCG step, add the initial state, one more step
        yield ((((inc + ((a << 64) | b)) & _MASK128) * _PCG_MULT + inc) & _MASK128, inc)


class StubEncoder:
    """Deterministic hash-based stand-in for a pretrained sentence encoder.

    Every token maps to a fixed d-vector, ``default_rng(s).standard_normal(d)``
    with s = blake2b(token, seed) — never Python's builtin hash, which is
    salted per process and would silently break run-to-run determinism.  A
    sentence vector is the mean of its token vectors; an empty token list maps
    to the zero vector.

    Each ``encode`` call works in bulk.  The tokens it has not seen before are
    seeded together (:func:`pcg64_states`), and each vector is drawn from one
    reused generator set to that token's state, so the bits equal a fresh
    ``default_rng(s)``'s without paying for building one per token.  Sentence
    means add token rows position by position in the order ``np.mean(axis=0)``
    adds them, then divide by the length, so they keep its bits too.  (At
    d = 1 alone, np.mean sums a sentence pairwise, so the last bits may
    differ; a model's d_model is even.)
    """

    def __init__(self, d: int, seed: int = 0):
        if d < 1:
            raise ValueError(f"StubEncoder: d must be positive, got {d}")
        self.d = d
        self.seed = seed
        self.token_ids: dict[str, int] = {}  # row of each seen token in self._vectors
        self._vectors = np.empty((0, d), dtype=np.float64)  # rows past len(token_ids) are spare
        self._bit_gen = np.random.PCG64()
        self._gen = np.random.Generator(self._bit_gen)

    def _add_tokens(self, tokens: list[str]) -> None:
        """Draw the vectors of tokens not seen before into the rows after the seen ones."""
        n_seen = len(self.token_ids)
        need = n_seen + len(tokens)
        if need > len(self._vectors):
            grown = np.empty((max(need, 2 * len(self._vectors)), self.d), dtype=np.float64)
            grown[:n_seen] = self._vectors[:n_seen]
            self._vectors = grown
        digests = b"".join(
            hashlib.blake2b(f"{self.seed}\x1f{t}".encode("utf-8"), digest_size=8).digest() for t in tokens
        )
        state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
        rows = self._vectors[n_seen:need]
        for row, (s, inc) in zip(rows, pcg64_states(np.frombuffer(digests, dtype="<u8"))):
            state["state"] = {"state": s, "inc": inc}
            self._bit_gen.state = state
            self._gen.standard_normal(out=row)
        self.token_ids.update(zip(tokens, range(n_seen, need)))

    def encode(self, sentences: Sequence[Sequence[str]]) -> np.ndarray:
        ids = self.token_ids
        tokens = list(chain.from_iterable(sentences))
        new = [t for t in dict.fromkeys(tokens) if t not in ids]
        if new:
            self._add_tokens(new)
        n = len(sentences)
        lengths = np.fromiter(map(len, sentences), dtype=np.int64, count=n)
        flat = np.fromiter(map(ids.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        # longest first, so the sentences still adding at token position t are a prefix
        order = np.argsort(-lengths, kind="stable")
        by_len = lengths[order]
        starts = (np.cumsum(lengths) - lengths)[order]
        acc = np.zeros((n, self.d), dtype=np.float64)
        for t in range(int(lengths.max(initial=0))):
            k = int(np.count_nonzero(by_len > t))
            rows = self._vectors[flat[starts[:k] + t]]
            if t == 0:
                acc[:k] = rows
            else:
                acc[:k] += rows
        k = int(np.count_nonzero(by_len))
        acc[:k] /= by_len[:k, None]
        out = np.empty_like(acc)
        out[order] = acc
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
