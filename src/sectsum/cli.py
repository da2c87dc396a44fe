"""Command-line surface: ingest, label, train, summarize, evaluate, bench.

`main` resolves one RunConfig (config file, then flag overrides) and hands
it to the subcommand, which embeds its model hash in whatever artifact it
writes and refuses input artifacts carrying a different hash.  Exit codes:
0 success, 1 contract or validation failure, 2 I/O or usage problems.  NumPy's
floating-point warnings are off: an overflowing model is reported by its refusal.
Every subcommand runs at one OpenBLAS thread, so OPENBLAS_NUM_THREADS changes no byte.
`label` and `summarize` spread their documents over the usable CPUs, one share
per process (_map_documents): one process runs one share and forks nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import logging
import os
import pickle
import signal
import sys
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from . import autodiff as ad
from .bench import doubling_ratios, run_bench, write_bench_tsv
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig, check_artifact_hash, int_or_none, model_hash, resolve_config
from .corpus import (
    CorpusError,
    LabeledDocument,
    load_corpus,
    read_labels,
    read_summaries,
    tokenize,
    write_corpus,
    write_labels,
    write_summaries,
    write_table,
)
from .extractor import select_sentences, selection_budget
from .model import Model
from .rouge import oracle_labels, rouge_l, rouge_n
from .training import TrainingError, train, write_metrics_csv

log = logging.getLogger(__name__)

_RUN_CONFIG_KEYS = frozenset(f.name for f in dataclasses.fields(RunConfig))


def _shared_flags() -> argparse.ArgumentParser:
    # a RunConfig flag left out is absent from the namespace (see _config_from_args)
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    shared.add_argument("--seed", type=int)
    shared.add_argument("--window", type=int, help="local attention half-width w")
    shared.add_argument("--global-ratio", dest="global_ratio", type=float,
                        help="percent of sentences attending globally")
    shared.add_argument("--budget-ratio", dest="budget_ratio", type=float,
                        help="summary budget as a fraction of document size")
    shared.add_argument("--trigram-threshold", dest="trigram_threshold", type=int_or_none,
                        help="blocking threshold (integer) or 'none'")
    shared.add_argument("--reinforced", dest="reinforced", action="store_const", const=True,
                        help="train with reward-weighted loss")
    shared.add_argument("--layers", type=int)
    shared.add_argument("--heads", type=int)
    shared.add_argument("--d-model", dest="d_model", type=int)
    return shared


def build_parser() -> argparse.ArgumentParser:
    shared = _shared_flags()
    parser = argparse.ArgumentParser(
        prog="sectsum",
        description="Section-aware extractive summarization for long documents",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[shared], help="validate and normalize a corpus")
    p.add_argument("--input", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--lenient", action="store_true", help="skip bad lines instead of failing")

    p = sub.add_parser("label", parents=[shared], help="greedy oracle labels from references")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("train", parents=[shared], argument_default=argparse.SUPPRESS,
                       help="train a scoring model")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--labels", required=True, type=Path)
    p.add_argument("--checkpoint-out", required=True, type=Path)
    p.add_argument("--metrics-out", type=Path, default=None)
    p.add_argument("--epochs", type=int)
    p.add_argument("--warmup-steps", dest="warmup_steps", type=int)
    p.add_argument("--lr-scale", dest="lr_scale", type=float)
    p.add_argument("--accumulation-steps", dest="accumulation_steps", type=int)
    p.add_argument("--clip-norm", dest="clip_norm", type=float)
    p.add_argument("--candidates-k", dest="candidates_k", type=int)
    p.add_argument("--holdout-ratio", dest="holdout_ratio", type=float)

    p = sub.add_parser("summarize", parents=[shared], help="select sentences with a checkpoint")
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("evaluate", parents=[shared], help="score summaries against references")
    p.add_argument("--summaries", required=True, type=Path)
    p.add_argument("--corpus", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)

    p = sub.add_parser("bench", parents=[shared], help="sparse vs dense scaling benchmark")
    p.add_argument("--n-list", dest="n_list", default="100,200,400,800",
                   help="comma-separated document lengths")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", required=True, type=Path)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Config file values, overridden by each RunConfig flag given, `--trigram-threshold none` included."""
    overrides = {k: v for k, v in vars(args).items() if k in _RUN_CONFIG_KEYS}
    return resolve_config(args.config, overrides)


# ---------------------------------------------------------------------------
# documents spread over worker processes
# ---------------------------------------------------------------------------


class WorkerError(RuntimeError):
    """A worker process ended, or failed, without returning its results."""


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


class _Collector(logging.Handler):
    """Keeps the log records of one document, flattened so they pickle."""

    def __init__(self):
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        record.msg, record.args, record.exc_info = record.getMessage(), None, None
        self.records.append(record)


def _run_share(fn, docs, share: list[int]) -> list[tuple]:
    """(index, failed, result or exception, log records) for each document of the
    share, up to its first failing one.

    A failure ends the share, as no later document of it can be the first to
    fail.  The records are held back, not emitted, so the caller can emit
    everyone's in document order.
    """
    root = logging.getLogger()
    handlers = root.handlers[:]
    done = []
    try:
        for i in share:
            collector = _Collector()
            root.handlers[:] = [collector]
            try:
                done.append((i, False, fn(i, docs[i]), collector.records))
            except Exception as e:
                done.append((i, True, e, collector.records))
                break
    finally:
        root.handlers[:] = handlers
    return done


class _Child:
    """A forked process that runs one share through `_run_share` and pickles the
    results down its pipe, ignoring SIGINT (the parent decides when it stops).
    It exits 0 once they are sent, 1 if sending fails; :meth:`kill` it on the way out.
    """

    def __init__(self, fn, docs, share: list[int]):
        read_fd, write_fd = os.pipe()
        self.pipe = open(read_fd, "rb")
        try:
            self.pid = os.fork()  # None once reaped
        except BaseException:
            self.pipe.close()
            os.close(write_fd)
            raise
        if self.pid == 0:  # the child never returns from here
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                self.pipe.close()
                with open(write_fd, "wb") as pipe:
                    pickle.dump(_run_share(fn, docs, share), pipe)
                code = 0
            finally:
                os._exit(code)
        os.close(write_fd)

    def results(self) -> list[tuple]:
        """The share's results once the child has exited 0; a WorkerError if it did not."""
        with self.pipe:
            data = self.pipe.read()
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if status != 0:
            how = f"was killed by signal {-status}" if status < 0 else f"exited {status}"
            raise WorkerError(f"a worker process {how} before returning its documents' results")
        return pickle.loads(data)

    def kill(self) -> None:
        """Close the pipe, then kill and reap the child, busy or not, unless it was reaped already."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _shares(docs, p: int) -> list[list[int]]:
    """Document indices in p shares of near-equal sentence totals, each in document order.

    Longest documents are placed first, each on the share with the fewest
    sentences so far (ties to the lower share).
    """
    shares: list[list[int]] = [[] for _ in range(p)]
    loads = [0] * p
    for i in sorted(range(len(docs)), key=lambda i: (-docs[i].n_sentences, i)):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += docs[i].n_sentences
    return [sorted(share) for share in shares]


def _map_documents(fn, docs) -> list:
    """`[fn(i, doc) for i, doc in enumerate(docs)]`, spread over the usable CPUs.

    P = min(usable CPUs, documents) processes take near-equal shares of the
    sentences, longest documents placed first.  The parent forks a child for
    each share after the first, which sends its share's results, exceptions and
    log records back through a pipe; the parent works through share 0, then
    re-emits every log record and returns the results in document order, or
    raises the failure of the first failing document.  A child that fails to
    send its results (it died, or an exception would not pickle) fails the call
    with a WorkerError, and no child outlives it.  One process runs one share
    and forks nothing.
    """
    shares = _shares(docs, max(1, min(_usable_cpus(), len(docs))))
    children = []
    try:
        for share in shares[1:]:
            children.append(_Child(fn, docs, share))
        done = _run_share(fn, docs, shares[0])
        for child in children:
            done.extend(child.results())
    finally:
        for child in children:
            child.kill()
    results = []
    for _i, failed, value, records in sorted(done, key=lambda item: item[0]):
        for record in records:
            logging.getLogger(record.name).handle(record)
        if failed:
            raise value
        results.append(value)
    return results


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_ingest(args, cfg: RunConfig) -> int:
    report = load_corpus(args.input, max_sentences=cfg.max_sentences)
    check_artifact_hash((report.header or {}).get("config_hash"), cfg, "input corpus")
    for problem in report.problems:
        print(f"ingest: {problem}", file=sys.stderr)
    print(
        f"ingest: docs={len(report.documents)} sections={report.n_sections} "
        f"sentences={report.n_sentences} truncated={report.truncated} "
        f"bad_lines={len(report.problems)}"
    )
    # a failed ingest writes nothing, so no later stage can take its output
    if not report.documents:
        print(f"ingest: no valid documents, {args.out} not written", file=sys.stderr)
        return 1
    if report.problems and not args.lenient:
        print(f"ingest: {args.out} not written (--lenient skips bad lines)", file=sys.stderr)
        return 1
    write_corpus(
        report.documents,
        args.out,
        header={"config_hash": model_hash(cfg), "max_sentences": cfg.max_sentences},
    )
    return 0


def _load_corpus_strict(path: Path, cfg: RunConfig, what: str):
    report = load_corpus(path, max_sentences=cfg.max_sentences)
    if report.problems:
        for problem in report.problems:
            print(f"{what}: {problem}", file=sys.stderr)
        raise CorpusError(f"{what}: {len(report.problems)} malformed lines in {path}")
    check_artifact_hash((report.header or {}).get("config_hash"), cfg, what)
    if not report.documents:
        raise CorpusError(f"{what}: no documents in {path}")
    return report.documents


def cmd_label(args, cfg: RunConfig) -> int:
    docs = _load_corpus_strict(args.corpus, cfg, "corpus")

    def label(i, doc):
        labels = oracle_labels(doc, selection_budget(doc.n_sentences, cfg.budget_ratio))
        if (i + 1) % 25 == 0 or i + 1 == len(docs):
            log.info("labeled %d/%d documents", i + 1, len(docs))
        return doc.id, labels.tolist()

    rows = _map_documents(label, docs)
    write_labels(
        rows, args.out, header={"config_hash": model_hash(cfg), "budget_ratio": cfg.budget_ratio}
    )
    print(f"label: wrote {len(rows)} label rows to {args.out}")
    return 0


def cmd_train(args, cfg: RunConfig) -> int:
    docs = _load_corpus_strict(args.corpus, cfg, "corpus")
    labels_map, labels_header = read_labels(args.labels)
    check_artifact_hash((labels_header or {}).get("config_hash"), cfg, "labels file")
    dataset = []
    missing = []
    for doc in docs:
        vec = labels_map.get(doc.id)
        if vec is None:
            missing.append(doc.id)
        else:
            dataset.append(LabeledDocument(doc, tuple(vec)))
    if missing:
        raise CorpusError(f"labels missing for {len(missing)} docs (first: {missing[:3]})")

    model = Model(cfg)
    result = train(model, dataset, cfg)
    save_checkpoint(model.parameters(), args.checkpoint_out, seed=cfg.seed, config_hash=model.hash)
    metrics_path = args.metrics_out or Path(str(args.checkpoint_out) + ".metrics.csv")
    write_metrics_csv(result.metrics, metrics_path, model.hash)
    final = [r for r in result.metrics if r["split"] == "holdout"]
    tail = final[-1] if final else result.metrics[-1]
    print(
        f"train: {len(dataset)} docs ({len(result.holdout_ids)} held out), "
        f"{result.updates} updates ({result.flush_updates} partial flushes), "
        f"final {tail['split']} loss {tail['loss']:.4f}"
    )
    print(f"train: checkpoint {args.checkpoint_out}, metrics {metrics_path}")
    return 0


def cmd_summarize(args, cfg: RunConfig) -> int:
    arrays, _header = load_checkpoint(args.checkpoint, expected_hash=model_hash(cfg))
    model = Model(cfg)
    model.load_state(arrays)
    docs = _load_corpus_strict(args.corpus, cfg, "corpus")

    def summarize(_i, doc):
        scores = model.forward(doc)
        if not np.isfinite(scores.values).all():
            raise ValueError(f"doc {doc.id}: non-finite sentence scores from checkpoint {args.checkpoint}")
        picked = select_sentences(doc, scores, cfg)
        sentences = doc.sentences
        return {
            "id": doc.id,
            "selected": picked,
            "sentences": [sentences[i].text for i in picked],
            "scores": [round(float(scores.values[i]), 6) for i in picked],
        }

    with ad.no_grad():  # every document is scored before --out is opened
        rows = _map_documents(summarize, sorted(docs, key=lambda d: d.id))
    write_summaries(rows, args.out, model.hash)
    print(f"summarize: wrote {len(docs)} summaries to {args.out}")
    return 0


def cmd_evaluate(args, cfg: RunConfig) -> int:
    summaries, header = read_summaries(args.summaries)
    check_artifact_hash((header or {}).get("config_hash"), cfg, "summaries file")
    if not summaries:
        raise CorpusError(f"summaries file: no records in {args.summaries}")
    docs = {d.id: d for d in _load_corpus_strict(args.corpus, cfg, "corpus")}
    missing = sorted(set(summaries) - set(docs))
    if missing:
        raise CorpusError(f"evaluate: {len(missing)} summary ids not in corpus (first: {missing[:3]})")
    unscored = sorted(set(docs) - set(summaries))
    if unscored:
        raise CorpusError(f"evaluate: {len(unscored)} corpus documents have no summary (first: {unscored[:3]})")

    rows = []
    for doc_id in sorted(summaries):
        ref = tokenize(docs[doc_id].reference_summary)
        cand = tokenize(" ".join(summaries[doc_id]["sentences"]))
        rows.append(
            (
                doc_id,
                rouge_n(cand, ref, 1).recall,
                rouge_n(cand, ref, 2).recall,
                rouge_l(cand, ref).recall,
            )
        )
    write_table(
        args.out,
        model_hash(cfg),
        ["id", "rouge1_recall", "rouge2_recall", "rougeL_recall"],
        ([doc_id, f"{r1:.6f}", f"{r2:.6f}", f"{rl:.6f}"] for doc_id, r1, r2, rl in rows),
        "\t",
    )
    means = np.mean([[r1, r2, rl] for _, r1, r2, rl in rows], axis=0)
    print(
        f"evaluate: {len(rows)} docs, mean rouge1_recall={means[0]:.4f} "
        f"rouge2_recall={means[1]:.4f} rougeL_recall={means[2]:.4f}"
    )
    return 0


def cmd_bench(args, cfg: RunConfig) -> int:
    try:
        n_list = [int(tok) for tok in str(args.n_list).replace(" ", "").split(",") if tok]
    except ValueError:
        raise ConfigError(f"--n-list must be comma-separated integers, got {args.n_list!r}") from None
    if not n_list:
        raise ConfigError("--n-list is empty")
    points = run_bench(n_list, cfg, repeats=args.repeats)
    write_bench_tsv(points, args.out, model_hash(cfg))
    for p in points:
        print(
            f"bench: n={p.n} sparse={p.sparse_ms:.2f}ms dense={p.dense_ms:.2f}ms "
            f"sparse_peak={p.sparse_peak_bytes} dense_peak={p.dense_peak_bytes}"
        )
    for label_, attr in (("sparse time", "sparse_ms"), ("dense time", "dense_ms"),
                         ("sparse peak", "sparse_peak_bytes")):
        for n_prev, n_curr, ratio in doubling_ratios(points, attr):
            print(f"bench: {label_} ratio {n_prev}->{n_curr}: {ratio:.2f}x")
    return 0


# the thread-count setters and getters that OpenBLAS builds export; NumPy's wheels bundle scipy-openblas
_OPENBLAS_THREADS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads")
_SETTER, _GETTER = ctypes.CFUNCTYPE(None, ctypes.c_int), ctypes.CFUNCTYPE(ctypes.c_int)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block at one thread of the OpenBLAS that NumPy's linear algebra
    links, then restore the caller's count.  A symbol looked up in NumPy's
    extension is also searched for in the libraries it links."""
    found = []
    with contextlib.suppress(OSError):
        lib = ctypes.CDLL(_umath_linalg.__file__)
        found = [(_SETTER((name.format("set"), lib)), _GETTER((name.format("get"), lib)))
                 for name in _OPENBLAS_THREADS
                 if hasattr(lib, name.format("set")) and hasattr(lib, name.format("get"))]
    if not found:
        log.debug("no OpenBLAS thread-count setter found: the BLAS thread count is left as it is")
        yield
        return
    set_threads, get_threads = found[0]
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


_COMMANDS = {
    "ingest": cmd_ingest,
    "label": cmd_label,
    "train": cmd_train,
    "summarize": cmd_summarize,
    "evaluate": cmd_evaluate,
    "bench": cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"), _one_blas_thread():
            return _COMMANDS[args.command](args, _config_from_args(args))
    except (TrainingError, WorkerError, ValueError) as e:
        print(f"sectsum {args.command}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"sectsum {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
