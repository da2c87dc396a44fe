"""Seeded workload generator: a raw corpus JSONL file plus a config file.

The program under test sees only what this module writes.  The seed changes
the text of every document; the shape of the work (document count, sentence
counts, section counts, planted sentences per document) is fixed per workload
so that runs with different seeds measure the same amount of work.

Controlled properties:

- sentence count per document, spread evenly over a fixed range (stratified,
  not sampled, so no seed draws an unusually long corpus);
- section count per document, with random cut points;
- sentence length in tokens, drawn uniformly from a range;
- a Zipf-Mandelbrot vocabulary of pseudo-words;
- planted sentences that carry a marker token; the reference summary is
  exactly those sentences, so oracle labels and training have a signal;
- repeated boilerplate phrases in a share of filler sentences, so trigram
  blocking fires when it is on.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MARKER = "keystone"
VOCAB_SIZE = 4000
ZIPF_S = 1.1
ZIPF_Q = 2.7
SYLLABLES = [c + v for c in "bdfghklmnprstvz" for v in "aeiou"]
# each phrase yields three trigrams; two sentences sharing one exceed a
# trigram threshold of 2
PHRASES = (
    "as reported in the earlier survey",
    "under the same experimental protocol",
    "with respect to the baseline model",
)


@dataclass(frozen=True)
class CorpusSpec:
    n_docs: int
    min_sentences: int
    max_sentences: int
    log_spaced: bool = False       # sentence counts spread log-uniformly
    min_sections: int = 4
    max_sections: int = 4
    min_tokens: int = 8
    max_tokens: int = 20
    planted_per_100: float = 20.0  # planted sentences per 100 sentences
    min_planted: int = 2
    max_planted: int = 1000
    phrase_rate: float = 0.0       # share of filler sentences given a phrase
    id_prefix: str = "doc"

    def sentence_counts(self) -> list[int]:
        """Sentence counts evenly spaced over the range, ends included."""
        lo, hi, k = self.min_sentences, self.max_sentences, self.n_docs
        if k == 1 or lo == hi:
            return [lo] * k
        if self.log_spaced:
            return [int(round(lo * (hi / lo) ** (i / (k - 1)))) for i in range(k)]
        return [int(round(lo + (hi - lo) * i / (k - 1))) for i in range(k)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: CorpusSpec
    config: dict = field(default_factory=dict)
    # corpus used at set-up to train the checkpoint that the timed phases
    # load; None when the timed phases train their own
    train_corpus: CorpusSpec | None = None

    @property
    def phases(self) -> tuple[str, ...]:
        """The timed CLI phases, in walkthrough order."""
        if self.train_corpus is not None:
            return ("summarize", "evaluate")
        return ("ingest", "label", "train", "summarize", "evaluate")


def _rng(seed: int, *parts) -> np.random.Generator:
    digest = hashlib.blake2b("\x1f".join(str(p) for p in (seed, *parts)).encode(), digest_size=8)
    return np.random.default_rng(int.from_bytes(digest.digest(), "little"))


def vocabulary() -> tuple[list[str], np.ndarray]:
    """Fixed pseudo-word vocabulary and its Zipf-Mandelbrot probabilities."""
    rng = _rng(0, "vocabulary")
    words: list[str] = []
    seen = {MARKER}
    while len(words) < VOCAB_SIZE:
        word = "".join(SYLLABLES[int(i)] for i in rng.integers(0, len(SYLLABLES), rng.integers(1, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
    probs = 1.0 / (ranks + ZIPF_Q) ** ZIPF_S
    return words, probs / probs.sum()


def _sentence(tokens: list[str]) -> str:
    return " ".join(tokens).capitalize() + "."


def generate_documents(spec: CorpusSpec, seed: int) -> list[dict]:
    words, probs = vocabulary()
    cdf = np.cumsum(probs)
    docs = []
    for d, n in enumerate(spec.sentence_counts()):
        rng = _rng(seed, spec.id_prefix, d)
        n_planted = min(n - 1, max(spec.min_planted, min(spec.max_planted,
                                   int(round(n * spec.planted_per_100 / 100.0)))))
        planted = set(int(i) for i in rng.choice(n, size=n_planted, replace=False))
        texts = []
        for k in range(n):
            length = int(rng.integers(spec.min_tokens, spec.max_tokens + 1))
            idx = np.searchsorted(cdf, rng.random(length), side="right")
            tokens = [words[min(int(i), VOCAB_SIZE - 1)] for i in idx]
            if k in planted:
                tokens.insert(int(rng.integers(0, length + 1)), MARKER)
            elif spec.phrase_rate and rng.random() < spec.phrase_rate:
                phrase = PHRASES[int(rng.integers(0, len(PHRASES)))].split()
                at = int(rng.integers(0, length + 1))
                tokens[at:at] = phrase
            texts.append(_sentence(tokens))
        n_sections = int(rng.integers(spec.min_sections, spec.max_sections + 1))
        n_sections = max(1, min(n_sections, n))
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, n), size=n_sections - 1, replace=False))
        bounds = [0, *cuts, n]
        sections = [
            {"title": f"section {s + 1}", "sentences": texts[bounds[s]:bounds[s + 1]]}
            for s in range(n_sections)
        ]
        docs.append({
            "id": f"{spec.id_prefix}{seed}-{d:04d}",
            "reference_summary": " ".join(texts[k] for k in sorted(planted)),
            "sections": sections,
        })
    return docs


def write_corpus(path: Path, docs: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, ensure_ascii=False) + "\n")


def write_config(path: Path, values: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {'none' if value is None else value}\n")


def workload_files(workload: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write every generated input of a workload; returns their paths by role."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"raw": out_dir / "raw.jsonl", "config": out_dir / "run.cfg"}
    write_corpus(paths["raw"], generate_documents(workload.corpus, seed))
    write_config(paths["config"], workload.config)
    if workload.train_corpus is not None:
        paths["train_raw"] = out_dir / "train_raw.jsonl"
        write_corpus(paths["train_raw"], generate_documents(workload.train_corpus, seed))
    return paths


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------

# Knobs shared by every workload.  The architecture is the RunConfig default;
# `seed` stays at its default for every benchmark seed, so the holdout split
# (and with it the amount of work per run) does not depend on the corpus seed.
_SHARED = {"budget_ratio": 0.2, "warmup_steps": 10, "accumulation_steps": 1}

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="pipeline-short",
            why="full walkthrough on many 40-sentence documents: one attention chunk, "
                "so per-op autodiff overhead, re-encoding every epoch and SGD steps dominate",
            corpus=CorpusSpec(n_docs=32, min_sentences=36, max_sentences=44,
                              planted_per_100=20.0, id_prefix="short"),
            config={**_SHARED, "lr_scale": 8.0, "epochs": 4, "holdout_ratio": 0.125,
                    "trigram_threshold": None, "reinforced": False},
        ),
        Workload(
            name="pipeline-long",
            why="full walkthrough on a few 300-500 sentence documents with reinforced "
                "training and trigram blocking: oracle, multi-chunk attention, n^2 "
                "correlation and ROUGE-L dominate",
            corpus=CorpusSpec(n_docs=3, min_sentences=300, max_sentences=500,
                              min_sections=8, max_sections=12, min_tokens=6, max_tokens=12,
                              planted_per_100=4.0, min_planted=15, max_planted=15,
                              phrase_rate=0.15, id_prefix="long"),
            # the reward-weighted loss sums over 300-500 sentences: a smaller
            # learning rate keeps its probabilities from saturating
            config={**_SHARED, "lr_scale": 1.0, "epochs": 3, "holdout_ratio": 0.0,
                    "trigram_threshold": 2, "reinforced": True},
        ),
        Workload(
            name="summarize-mixed",
            why="summarize and evaluate only, over distinct documents of 50-500 sentences "
                "(log-spaced): no graph, no repeats, so caches that help training can only "
                "cost here; gives per-stage scaling slopes",
            corpus=CorpusSpec(n_docs=32, min_sentences=50, max_sentences=500, log_spaced=True,
                              min_sections=4, max_sections=12,
                              planted_per_100=4.0, min_planted=3,
                              phrase_rate=0.15, id_prefix="mixed"),
            config={**_SHARED, "lr_scale": 8.0, "epochs": 4, "holdout_ratio": 0.125,
                    "trigram_threshold": 2, "reinforced": False},
            train_corpus=CorpusSpec(n_docs=24, min_sentences=36, max_sentences=44,
                                    planted_per_100=20.0, id_prefix="mixtrain"),
        ),
    )
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="write the generated inputs of one workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    for role, path in workload_files(WORKLOADS[args.workload], args.seed, args.out).items():
        print(f"{role}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
