"""`label` and `summarize` spread documents over worker processes: the same bytes,
log records, refusals and exit codes at every process count, and no process left.

Each test sets the process count through `cli._usable_cpus`, at 1 (the serial
loop), 2 and 3 (more processes than this machine may have CPUs is fine).
"""

from __future__ import annotations

import hashlib
import logging
import os
import signal
import sys
import time

import pytest

from helpers import (
    DATA_DIR,
    assert_no_children,
    deadline,
    doc_from_sections,
    load_perfbench_gen,
    write_corpus_jsonl,
)
from sectsum import cli as cli_module
from sectsum.autodiff import Tensor
from sectsum.checkpoint import save_checkpoint
from sectsum.cli import _map_documents, _shares, main
from sectsum.config import resolve_config
from sectsum.model import Model

COUNTS = (1, 2, 3)

TINY_CFG = """\
d_model = 8
layers = 1
heads = 2
window = 2
global_ratio = 0
max_sentences = 12
s_max = 3
len_buckets = 6
ffn_dim = 8
"""

WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]


def _processes(monkeypatch, count: int) -> None:
    monkeypatch.setattr(cli_module, "_usable_cpus", lambda: count)


def _corpus(tmp_path, sizes, empty_refs=()) -> tuple:
    """An ingested corpus of documents d0, d1, ... with `sizes` sentences each, and its config."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    docs = []
    for d, n in enumerate(sizes):
        sents = [f"{WORDS[(d + i) % 8]} {WORDS[(d + i + 1) % 8]} {WORDS[(d + i + 3) % 8]}"
                 for i in range(n)]
        docs.append(doc_from_sections(f"d{d}", [sents[: n // 2 + 1], sents[n // 2 + 1:]],
                                      reference="" if d in empty_refs else sents[d % n]))
    raw, corpus = tmp_path / "raw.jsonl", tmp_path / "corpus.jsonl"
    write_corpus_jsonl(raw, docs)
    assert main(["ingest", "--config", str(cfg), "--input", str(raw), "--out", str(corpus)]) == 0
    return corpus, cfg


def _initial_checkpoint(cfg_path, path, scale: float = 1.0):
    """The seeded initial parameters of the config's model, times `scale`, as a checkpoint."""
    cfg = resolve_config(cfg_path)
    model = Model(cfg)
    params = {name: Tensor(t.data * scale) for name, t in model.parameters().items()}
    save_checkpoint(params, path, seed=cfg.seed, config_hash=model.hash)
    return path


@pytest.fixture(scope="module")
def seed1_corpora(tmp_path_factory):
    """Ingested seed-1 corpora of two benchmark workloads, by workload name."""
    gen = load_perfbench_gen()
    root = tmp_path_factory.mktemp("seed1")
    out = {}
    for name in ("pipeline-short", "summarize-mixed"):
        paths = gen.workload_files(gen.WORKLOADS[name], 1, root / name)
        corpus = root / name / "corpus.jsonl"
        assert main(["ingest", "--config", str(paths["config"]), "--input", str(paths["raw"]),
                     "--out", str(corpus)]) == 0
        out[name] = (corpus, paths["config"], _initial_checkpoint(paths["config"], root / name / "m.ckpt"))
    return out


@pytest.mark.parametrize("workload", ["pipeline-short", "summarize-mixed"])
def test_labels_and_summaries_are_byte_identical_at_every_count(seed1_corpora, workload, tmp_path,
                                                                monkeypatch):
    corpus, cfg, ckpt = seed1_corpora[workload]
    recorded = dict(line.split()[::-1] for line in (DATA_DIR / "labels.sha256").read_text().splitlines())
    outputs = {}
    for count in COUNTS:
        _processes(monkeypatch, count)
        labels, summaries = tmp_path / f"labels{count}.jsonl", tmp_path / f"summaries{count}.jsonl"
        common = ["--config", str(cfg), "--corpus", str(corpus)]
        assert main(["label", *common, "--out", str(labels)]) == 0
        assert main(["summarize", *common, "--checkpoint", str(ckpt), "--out", str(summaries)]) == 0
        outputs[count] = (labels.read_bytes(), summaries.read_bytes())
        assert_no_children()
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
    assert hashlib.sha256(outputs[1][0]).hexdigest() == recorded[f"{workload}/labels.jsonl"]


def test_shares_balance_sentences_longest_first():
    docs = [doc_from_sections(f"d{d}", [[f"w{i}" for i in range(n)]]) for d, n in enumerate([2, 9, 4, 7, 5])]
    assert _shares(docs, 1) == [[0, 1, 2, 3, 4]]
    assert _shares(docs, 2) == [[1, 2], [0, 3, 4]]  # 13 and 14 sentences
    assert _shares(docs, 3) == [[1], [0, 3], [2, 4]]  # 9, 9 and 9


@pytest.mark.parametrize("count", COUNTS)
def test_a_diverged_checkpoint_is_refused_naming_the_first_document(tmp_path, capsys, monkeypatch,
                                                                    count):
    # d0, the first document, is placed last and lands on a worker's share, not the parent's
    corpus, cfg = _corpus(tmp_path, [3, 4, 5, 6, 11, 12])
    docs = cli_module.load_corpus(corpus).documents
    assert count == 1 or 0 not in _shares(docs, count)[0]
    ckpt = _initial_checkpoint(cfg, tmp_path / "diverged.ckpt", scale=1e300)
    out = tmp_path / "s.jsonl"
    _processes(monkeypatch, count)
    capsys.readouterr()
    assert main(["summarize", "--config", str(cfg), "--corpus", str(corpus), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"sectsum summarize: doc d0: non-finite sentence scores from checkpoint {ckpt}"]
    assert not out.exists()
    assert_no_children()


@pytest.mark.parametrize("count", COUNTS)
def test_empty_reference_warnings_arrive_in_document_order(tmp_path, capsys, caplog, monkeypatch,
                                                           count):
    corpus, cfg = _corpus(tmp_path, [4, 9, 5, 8, 6, 7], empty_refs=(1, 2, 4, 5))
    _processes(monkeypatch, count)
    stderr = logging.StreamHandler(sys.stderr)  # the handler `sectsum` installs outside tests
    stderr.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    logging.getLogger().addHandler(stderr)
    try:
        capsys.readouterr()
        caplog.clear()
        assert main(["label", "--config", str(cfg), "--corpus", str(corpus),
                     "--out", str(tmp_path / "labels.jsonl")]) == 0
    finally:
        logging.getLogger().removeHandler(stderr)
    expected = [f"doc d{d}: empty reference summary, oracle labels all zero" for d in (1, 2, 4, 5)]
    assert [r.getMessage() for r in caplog.records] == expected
    assert capsys.readouterr().err.splitlines() == [f"WARNING sectsum.rouge: {m}" for m in expected]
    assert_no_children()


@pytest.mark.parametrize("count", COUNTS)
def test_an_exception_in_the_parents_share_leaves_no_child(monkeypatch, count):
    docs = [doc_from_sections(f"d{d}", [["alpha beta"] * (d + 1)]) for d in range(6)]
    parent = os.getpid()

    def fn(i, doc):
        if os.getpid() == parent:
            raise RuntimeError(f"parent failed on {doc.id}")
        return doc.id

    _processes(monkeypatch, count)
    with pytest.raises(RuntimeError, match="parent failed on d"):
        _map_documents(fn, docs)
    assert_no_children()


@pytest.mark.parametrize("count", [2, 3])
def test_an_interrupt_in_the_parent_kills_and_reaps_busy_children(monkeypatch, count):
    docs = [doc_from_sections(f"d{d}", [["alpha beta"] * (d + 1)]) for d in range(6)]
    parent = os.getpid()

    def fn(i, doc):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    _processes(monkeypatch, count)
    start = time.monotonic()
    with deadline(30), pytest.raises(KeyboardInterrupt):
        _map_documents(fn, docs)
    assert time.monotonic() - start < 10
    assert_no_children()


@pytest.mark.parametrize("count", [2, 3])
def test_a_child_killed_by_sigkill_fails_the_command_and_never_hangs(tmp_path, capsys, monkeypatch,
                                                                     count):
    corpus, cfg = _corpus(tmp_path, [4, 9, 5, 8, 6, 7])
    parent = os.getpid()
    oracle_labels = cli_module.oracle_labels

    def dying_oracle(doc, budget):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return oracle_labels(doc, budget)

    monkeypatch.setattr(cli_module, "oracle_labels", dying_oracle)
    _processes(monkeypatch, count)
    out = tmp_path / "labels.jsonl"
    capsys.readouterr()
    with deadline(60):
        assert main(["label", "--config", str(cfg), "--corpus", str(corpus), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["sectsum label: a worker process was killed by signal 9 before returning its "
                   "documents' results"]
    assert not out.exists()
    assert_no_children()


def test_one_process_is_the_serial_loop_and_forks_nothing(monkeypatch):
    docs = [doc_from_sections(f"d{d}", [["alpha beta"] * (d + 1)]) for d in range(4)]
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked at one process"))
    _processes(monkeypatch, 1)
    assert _map_documents(lambda i, doc: (i, doc.id), docs) == [(i, f"d{i}") for i in range(4)]


def test_a_platform_without_cpu_affinity_runs_one_process(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli_module._usable_cpus() == 1
