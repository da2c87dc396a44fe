"""In-memory spans around calls into sectsum's public functions.

The tracer replaces each function *where its caller looks it up* (for
example ``sectsum.model.encode_sentences`` or ``sectsum.cli.oracle_labels``)
with a wrapper that records a span: name, start, end, parent span and the id
and sentence count of the document being processed.  Methods of ``Model``
are replaced on the class.  The program's own files are not touched.
Spans stay in memory until :meth:`Tracer.summary` reduces them.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

import numpy as np

# Stages whose span time is fitted against document length on the
# summarize phase (the paper's linear-cost claim, stage by stage).
SLOPE_STAGES = (
    "model.forward",
    "encoder.encode_sentences",
    "attention.transformer_layer",
    "features.correlation_feature",
    "extractor.select_sentences",
)


@dataclass
class Span:
    name: str
    parent: int          # index into Tracer.spans, -1 for a root
    doc: str | None
    n: int
    start: float = 0.0
    end: float = 0.0
    tags: dict = field(default_factory=dict)


def _count_graph_nodes(loss) -> int:
    """Nodes reachable from the loss through recorded parents."""
    seen = {id(loss)}
    stack = [loss]
    while stack:
        node = stack.pop()
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._encoded: set[str] = set()
        self._document_type = None

    # -- recording ---------------------------------------------------------
    def _open(self, name: str, args) -> Span:
        parent = self._stack[-1] if self._stack else -1
        doc, n = None, 0
        for a in args[:3]:
            if isinstance(a, self._document_type):
                doc, n = a.id, a.n_sentences
                break
        else:
            if parent >= 0:
                doc, n = self.spans[parent].doc, self.spans[parent].n
        span = Span(name, parent, doc, n)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, args)
            if before is not None:
                before(span, args, kwargs)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def phase(self, name: str, fn, *args):
        """Run fn(*args) inside a root span named cli.<name>."""
        return self.wrap(f"cli.{name}", fn)(*args)

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr: str, name: str, before=None, after=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def install(self) -> None:
        from sectsum import autodiff, cli, corpus, extractor, features, model, training

        self._document_type = corpus.Document
        Model = model.Model
        p = self._patch
        # cli phases call these
        p(cli, "load_corpus", "corpus.load_corpus", after=self._after_load)
        p(cli, "write_corpus", "corpus.write_corpus")
        p(cli, "read_labels", "corpus.read_labels")
        p(cli, "write_labels", "corpus.write_labels")
        p(cli, "tokenize", "corpus.tokenize")
        p(cli, "oracle_labels", "rouge.oracle_labels", after=self._after_oracle)
        p(cli, "rouge_n", "rouge.rouge_n")
        p(cli, "rouge_l", "rouge.rouge_l")
        p(cli, "select_sentences", "extractor.select_sentences", before=self._before_select)
        p(cli, "save_checkpoint", "checkpoint.save_checkpoint", after=self._after_save)
        p(cli, "load_checkpoint", "checkpoint.load_checkpoint")
        p(cli, "train", "training.train")
        p(cli, "write_metrics_csv", "training.write_metrics_csv")
        # the model
        p(Model, "__init__", "model.init")
        p(Model, "forward", "model.forward")
        p(Model, "load_state", "model.load_state")
        p(Model, "zero_grads", "model.zero_grads")
        p(Model, "global_positions", "model.global_positions")
        p(model, "truncate_document", "corpus.truncate_document")
        p(model, "encode_sentences", "encoder.encode_sentences", before=self._before_encode)
        p(model, "compose_embeddings", "encoder.compose_embeddings")
        p(model, "build_attention_mask", "attention.build_attention_mask")
        p(model, "transformer_layer", "attention.transformer_layer", before=self._before_layer)
        p(model, "all_features", "features.all_features")
        p(model, "predict_scores", "extractor.predict_scores")
        # inside the features and extractor modules
        for fname in ("document_embedding", "length_features", "position_features",
                      "section_features", "correlation_feature", "saliency_feature"):
            p(features, fname, f"features.{fname}")
        p(extractor, "shared_trigrams", "extractor.shared_trigrams", after=self._after_trigrams)
        # the training loop
        p(training, "split_holdout", "training.split_holdout")
        p(training, "ce_loss", "training.ce_loss")
        p(training, "candidate_loss", "training.candidate_loss")
        p(training, "sample_candidates", "rouge.sample_candidates")
        p(training, "clip_gradients", "training.clip_gradients")
        p(training, "sgd_step", "training.sgd_step")
        p(training, "evaluate_split", "training.evaluate_split")
        p(training, "select_sentences", "extractor.select_sentences", before=self._before_select)
        p(training, "rouge_n", "rouge.rouge_n")
        p(training, "rouge_l", "rouge.rouge_l")
        p(training, "tokenize", "corpus.tokenize")
        p(autodiff, "backward", "autodiff.backward", before=self._before_backward)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- hooks -------------------------------------------------------------
    @staticmethod
    def _after_load(span, args, kwargs, report):
        span.tags["sentences"] = report.n_sentences

    @staticmethod
    def _after_oracle(span, args, kwargs, labels):
        budget = args[1] if len(args) > 1 else kwargs["budget"]
        span.tags["chosen"] = int(labels.sum())
        span.tags["budget"] = int(budget)

    @staticmethod
    def _before_select(span, args, kwargs):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        span.tags["threshold"] = cfg.trigram_threshold

    def _after_trigrams(self, span, args, kwargs, overlap):
        threshold = self.spans[span.parent].tags.get("threshold") if span.parent >= 0 else None
        span.tags["blocked"] = threshold is not None and overlap > threshold

    @staticmethod
    def _after_save(span, args, kwargs, result):
        span.tags["bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    @staticmethod
    def _before_layer(span, args, kwargs):
        mask = args[1] if len(args) > 1 else kwargs["mask"]
        span.tags["chunks"] = mask.padded_len // mask.window
        span.tags["global_rows"] = int((mask.values == 2).sum())

    def _before_encode(self, span, args, kwargs):
        span.tags["repeat"] = span.doc in self._encoded
        self._encoded.add(span.doc)

    @staticmethod
    def _before_backward(span, args, kwargs):
        span.tags["nodes"] = _count_graph_nodes(args[0] if args else kwargs["out"])

    # -- reduction ---------------------------------------------------------
    def summary(self) -> dict:
        """Per-function calls, busy and self time, counters and slope points."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        layers: dict[str, dict] = {}
        counters = dict.fromkeys(
            ("sentences", "chosen", "budget", "chunks", "global_rows", "trigram_checks",
             "trigram_blocked", "nodes", "encode_repeats", "checkpoint_bytes"), 0)
        points: dict[str, list] = {name: [] for name in SLOPE_STAGES}
        phase_s = covered_s = 0.0
        for i, s in enumerate(self.spans):
            dur = s.end - s.start
            row = layers.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += dur
            row["self_s"] += dur - child_time[i]
            if s.parent < 0:
                phase_s += dur
                covered_s += child_time[i]
            tags = s.tags
            if s.name == "corpus.load_corpus":
                counters["sentences"] += tags["sentences"]
            elif s.name == "rouge.oracle_labels":
                counters["chosen"] += tags["chosen"]
                counters["budget"] += tags["budget"]
            elif s.name == "attention.transformer_layer":
                counters["chunks"] += tags["chunks"]
                counters["global_rows"] += tags["global_rows"]
            elif s.name == "extractor.shared_trigrams":
                counters["trigram_checks"] += 1
                counters["trigram_blocked"] += int(tags["blocked"])
            elif s.name == "autodiff.backward":
                counters["nodes"] += tags["nodes"]
            elif s.name == "encoder.encode_sentences":
                counters["encode_repeats"] += int(tags["repeat"])
            elif s.name == "checkpoint.save_checkpoint":
                counters["checkpoint_bytes"] += tags["bytes"]
            if s.name in points:
                points[s.name].append((s.n, dur))
        return {"layers": layers, "counters": counters, "points": points,
                "phase_s": phase_s, "covered_s": covered_s}


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) on log(n); 0.0 when n spans under 2x."""
    pts = [(n, t) for n, t in points if n > 0 and t > 0]
    if len(pts) < 5:
        return 0.0
    n = np.array([p[0] for p in pts], dtype=np.float64)
    t = np.array([p[1] for p in pts], dtype=np.float64)
    if n.max() < 2 * n.min():
        return 0.0
    return float(np.polyfit(np.log(n), np.log(t), 1)[0])
