"""The six subcommands end to end: exit codes, printed lines, artifact formats."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sectsum
from helpers import doc_from_sections, write_corpus_jsonl
from sectsum.autodiff import Tensor
from sectsum.cli import _config_from_args, build_parser, main
from sectsum.checkpoint import load_checkpoint, save_checkpoint
from sectsum.config import RunConfig, model_hash, resolve_config
from sectsum import cli as cli_module
from sectsum import corpus as corpus_module
from sectsum.corpus import read_labels, serialize_document, tokenize, write_summaries


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
epochs = 2
warmup_steps = 5
accumulation_steps = 4
holdout_ratio = 0
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


def _docs(n_docs: int = 3, n_sents: int = 6):
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    docs = []
    for d in range(n_docs):
        sents = [
            f"{words[(d + i) % 8]} {words[(d + i + 1) % 8]} {words[(d + i + 3) % 8]}"
            for i in range(n_sents)
        ]
        half = n_sents // 2
        docs.append(
            doc_from_sections(
                f"doc{d}",
                [sents[:half], sents[half:]],
                reference=sents[d % n_sents],
            )
        )
    return docs


# ---------------------------------------------------------------------------
# exit codes and argument handling
# ---------------------------------------------------------------------------


def test_ingest_valid_corpus_exits_zero(tmp_path, capsys):
    src, out = tmp_path / "raw.jsonl", tmp_path / "corpus.jsonl"
    write_corpus_jsonl(src, _docs(3))
    assert main(["ingest", "--input", str(src), "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line == "ingest: docs=3 sections=6 sentences=18 truncated=0 bad_lines=0"
    header = json.loads(out.read_text().splitlines()[0])
    assert header["artifact"] == "corpus"
    assert len(header["config_hash"]) == 64


def test_ingest_bad_line_fails_unless_lenient(tmp_path, capsys):
    src, out = tmp_path / "raw.jsonl", tmp_path / "corpus.jsonl"
    write_corpus_jsonl(src, _docs(3))
    lines = src.read_text().splitlines()
    lines[1] = "{not json"
    src.write_text("\n".join(lines) + "\n")

    assert main(["ingest", "--input", str(src), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "line 2" in captured.err
    assert "docs=2" in captured.out and "bad_lines=1" in captured.out
    # a failed ingest leaves no corpus for a later stage to accept
    assert f"{out} not written" in captured.err
    assert not out.exists()

    assert main(["ingest", "--input", str(src), "--out", str(out), "--lenient"]) == 0
    assert "docs=2" in capsys.readouterr().out
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()[1:]] == ["doc0", "doc2"]


def test_ingest_with_no_valid_documents_writes_nothing(tmp_path, capsys):
    src, out = tmp_path / "raw.jsonl", tmp_path / "corpus.jsonl"
    src.write_text("{not json\n")
    assert main(["ingest", "--input", str(src), "--out", str(out), "--lenient"]) == 1
    assert "no valid documents" in capsys.readouterr().err
    assert not out.exists()


def test_non_utf8_config_exits_one_naming_line_and_offset(tmp_path, capsys):
    src, cfg = tmp_path / "raw.jsonl", tmp_path / "run.cfg"
    write_corpus_jsonl(src, _docs(1))
    cfg.write_bytes(b"seed = 1\nwindow = \xff3\n")
    rc = main(["ingest", "--config", str(cfg), "--input", str(src), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert f"{cfg} line 2: not valid UTF-8 at byte offset 18" in capsys.readouterr().err


def test_duplicate_ids_fail_ingest_unless_lenient_and_every_reader(tmp_path, capsys, cfg_file):
    src, out = tmp_path / "raw.jsonl", tmp_path / "corpus.jsonl"
    docs = _docs(3)
    docs[2] = doc_from_sections("doc0", [["zeta eta theta"]], reference="zeta")
    write_corpus_jsonl(src, docs)

    assert main(["ingest", "--input", str(src), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "line 3: duplicate document id 'doc0' (first on line 1)" in captured.err
    assert "docs=2" in captured.out and "bad_lines=1" in captured.out

    assert main(["ingest", "--input", str(src), "--out", str(out), "--lenient"]) == 0
    kept = [json.loads(line) for line in out.read_text().splitlines()[1:]]
    assert [d["id"] for d in kept] == ["doc0", "doc1"]
    assert kept[0]["sections"][0]["sentences"] == [s.text for s in docs[0].sections[0].sentences]

    capsys.readouterr()
    rc = main(["label", "--config", str(cfg_file), "--corpus", str(src),
               "--out", str(tmp_path / "labels.jsonl")])
    assert rc == 1
    assert "duplicate document id 'doc0'" in capsys.readouterr().err


def _put_bad_byte(path, line_no: int) -> int:
    """Insert byte 0xff after the first two bytes of line line_no (1-based); return its file offset."""
    lines = path.read_bytes().split(b"\n")
    offset = sum(len(line) + 1 for line in lines[: line_no - 1]) + 2
    lines[line_no - 1] = lines[line_no - 1][:2] + b"\xff" + lines[line_no - 1][2:]
    path.write_bytes(b"\n".join(lines))
    return offset


def test_ingest_lists_non_utf8_line_and_lenient_keeps_the_rest(tmp_path, capsys):
    src, out = tmp_path / "raw.jsonl", tmp_path / "corpus.jsonl"
    write_corpus_jsonl(src, _docs(3))
    offset = _put_bad_byte(src, 2)

    assert main(["ingest", "--input", str(src), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"ingest: line 2: not valid UTF-8 at byte offset {offset}" in captured.err
    assert "docs=2" in captured.out and "bad_lines=1" in captured.out

    assert main(["ingest", "--input", str(src), "--out", str(out), "--lenient"]) == 0
    assert "docs=2" in capsys.readouterr().out
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()[1:]] == ["doc0", "doc2"]


DEEP_JSON = "[" * 100_000


def test_deeply_nested_corpus_line_is_a_bad_line(tmp_path, capsys):
    src, out = tmp_path / "raw.jsonl", tmp_path / "corpus.jsonl"
    write_corpus_jsonl(src, _docs(2))
    src.write_text(DEEP_JSON + "\n" + src.read_text())  # line 1 is also where a header would be
    assert main(["ingest", "--input", str(src), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "line 1: invalid JSON (nesting too deep)" in captured.err
    assert "Traceback" not in captured.err and not out.exists()
    assert main(["ingest", "--input", str(src), "--out", str(out), "--lenient"]) == 0
    assert "docs=2" in capsys.readouterr().out
    assert [json.loads(line)["id"] for line in out.read_text().splitlines()[1:]] == ["doc0", "doc1"]


def test_negative_seed_fails_before_any_artifact_is_written(tmp_path, capsys):
    src, out = tmp_path / "raw.jsonl", tmp_path / "corpus.jsonl"
    write_corpus_jsonl(src, _docs(1))
    assert main(["ingest", "--input", str(src), "--out", str(out), "--seed", "-1"]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_trigram_threshold_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["label", "--corpus", "c", "--out", "o", "--trigram-threshold", "abc"])
    assert exc.value.code == 2
    assert "argument --trigram-threshold: invalid" in capsys.readouterr().err


def test_missing_input_file_exits_two(tmp_path, capsys):
    rc = main(["ingest", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "ingest" in capsys.readouterr().err


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


def test_ingest_refuses_corpus_with_foreign_hash(tmp_path, capsys):
    src = tmp_path / "tagged.jsonl"
    body = "\n".join(
        json.dumps(json.loads(line))
        for line in [
            json.dumps({"artifact": "corpus", "config_hash": "0" * 64}),
        ]
    )
    raw = tmp_path / "docs.jsonl"
    write_corpus_jsonl(raw, _docs(1))
    src.write_text(body + "\n" + raw.read_text())
    assert main(["ingest", "--input", str(src), "--out", str(tmp_path / "o.jsonl")]) == 1
    assert "different configuration" in capsys.readouterr().err


def test_trigram_threshold_flag_special_cases_none(tmp_path):
    parser = build_parser()
    ns = parser.parse_args(["label", "--corpus", "c", "--out", "o", "--trigram-threshold", "none"])
    assert _config_from_args(ns).trigram_threshold is None
    # 'none' in any case overrides a threshold the config file sets
    cfg = tmp_path / "blocking.cfg"
    cfg.write_text("trigram_threshold = 5\n")
    for raw, expected in (("none", None), ("NONE", None), ("3", 3)):
        ns = parser.parse_args(["label", "--config", str(cfg), "--corpus", "c", "--out", "o",
                                "--trigram-threshold", raw])
        assert _config_from_args(ns).trigram_threshold == expected, raw
    ns = parser.parse_args(["label", "--config", str(cfg), "--corpus", "c", "--out", "o"])
    assert _config_from_args(ns).trigram_threshold == 5
    ns = parser.parse_args(["label", "--corpus", "c", "--out", "o", "--trigram-threshold", "3"])
    assert _config_from_args(ns).trigram_threshold == 3
    ns = parser.parse_args(["label", "--corpus", "c", "--out", "o"])
    assert _config_from_args(ns).trigram_threshold is None  # default, not the string


# one valid, non-default value per RunConfig key that has a flag, as a config
# file would spell it; a flag without a value here fails the test below
_FLAG_VALUES = {
    "seed": "9", "window": "7", "global_ratio": "12.5", "budget_ratio": "0.4",
    "trigram_threshold": "3", "reinforced": "true", "layers": "3", "heads": "8",
    "d_model": "16", "epochs": "4", "warmup_steps": "11", "lr_scale": "0.5",
    "accumulation_steps": "2", "clip_norm": "0.25", "candidates_k": "6", "holdout_ratio": "0.3",
}
_REQUIRED_ARGS = {
    "ingest": ["--input", "i", "--out", "o"],
    "label": ["--corpus", "c", "--out", "o"],
    "train": ["--corpus", "c", "--labels", "l", "--checkpoint-out", "o"],
    "summarize": ["--corpus", "c", "--checkpoint", "k", "--out", "o"],
    "evaluate": ["--summaries", "s", "--corpus", "c", "--out", "o"],
    "bench": ["--out", "o"],
}


def test_shared_overrides_reach_the_config(tmp_path):
    # every flag of every subcommand whose destination is a RunConfig field
    # sets exactly what the config-file line for that key sets
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    defaults = resolve_config()
    cfg_file = tmp_path / "one.cfg"
    seen = set()
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            if action.dest not in fields:
                continue
            seen.add(action.dest)
            raw = _FLAG_VALUES[action.dest]
            flag = [action.option_strings[0]] + ([] if action.nargs == 0 else [raw])
            cfg = _config_from_args(parser.parse_args([command, *_REQUIRED_ARGS[command], *flag]))
            cfg_file.write_text(f"{action.dest} = {raw}\n")
            assert cfg == resolve_config(cfg_file), (command, action.dest)
            assert getattr(cfg, action.dest) != getattr(defaults, action.dest), action.dest
    assert seen == set(_FLAG_VALUES)


@pytest.mark.parametrize("command", sorted(_REQUIRED_ARGS))
def test_unknown_encoder_fails_every_subcommand_at_config_resolution(tmp_path, capsys, command):
    cfg = tmp_path / "bert.cfg"
    cfg.write_text("encoder = bert\n")
    assert main([command, "--config", str(cfg), *_REQUIRED_ARGS[command]]) == 1
    assert f"sectsum {command}: encoder must be stub" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# label
# ---------------------------------------------------------------------------


def test_label_marks_reference_sentences(tmp_path, capsys, cfg_file):
    corpus = tmp_path / "corpus.jsonl"
    doc = doc_from_sections(
        "d0",
        [["alpha beta gamma", "delta epsilon zeta"], ["eta theta alpha", "beta gamma delta"]],
        reference="delta epsilon zeta",
    )
    write_corpus_jsonl(corpus, [doc])
    out = tmp_path / "labels.jsonl"
    rc = main(["label", "--config", str(cfg_file), "--corpus", str(corpus),
               "--out", str(out), "--budget-ratio", "0.25"])
    assert rc == 0
    assert "label: wrote 1 label rows" in capsys.readouterr().out
    labels, header = read_labels(out)
    assert header["budget_ratio"] == 0.25
    assert len(header["config_hash"]) == 64
    assert labels["d0"] == [0, 1, 0, 0]


def test_label_empty_reference_yields_zero_labels(tmp_path, caplog, cfg_file):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(
        corpus, [doc_from_sections("d0", [["alpha beta gamma", "delta epsilon zeta"]])]
    )
    out = tmp_path / "labels.jsonl"
    assert main(["label", "--config", str(cfg_file), "--corpus", str(corpus), "--out", str(out)]) == 0
    labels, _ = read_labels(out)
    assert labels["d0"] == [0, 0]
    assert any("empty reference" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# train -> summarize -> evaluate pipeline
# ---------------------------------------------------------------------------


@pytest.fixture
def pipeline(tmp_path, cfg_file):
    """Ingested corpus + oracle labels, ready for training."""
    raw = tmp_path / "raw.jsonl"
    write_corpus_jsonl(raw, _docs(6, 6))
    corpus = tmp_path / "corpus.jsonl"
    assert main(["ingest", "--config", str(cfg_file), "--input", str(raw), "--out", str(corpus)]) == 0
    labels = tmp_path / "labels.jsonl"
    assert main(["label", "--config", str(cfg_file), "--corpus", str(corpus), "--out", str(labels)]) == 0
    return {"corpus": corpus, "labels": labels, "cfg": cfg_file, "dir": tmp_path}


def test_train_writes_checkpoint_and_metrics(pipeline, capsys):
    ckpt = pipeline["dir"] / "model.ckpt"
    rc = main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--labels", str(pipeline["labels"]), "--checkpoint-out", str(ckpt)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "train: 6 docs (0 held out)" in out
    # 6 docs / accumulation 4 -> 1 full + 1 flush per epoch, 2 epochs
    assert "4 updates (2 partial flushes)" in out
    assert ckpt.exists()
    metrics = ckpt.parent / (ckpt.name + ".metrics.csv")
    assert metrics.exists()
    lines = metrics.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "epoch,split,loss,rouge1_recall,rouge2_recall,rougeL_recall,lr"
    assert len(lines) == 2 + 2  # one train row per epoch, holdout_ratio 0


def test_ingest_and_evaluate_never_tokenize_a_sentence(tmp_path, capsys, cfg_file, monkeypatch):
    raw, corpus = tmp_path / "raw.jsonl", tmp_path / "corpus.jsonl"
    docs = _docs(4, 6)
    write_corpus_jsonl(raw, docs)
    summaries = tmp_path / "summaries.jsonl"
    records = [{"id": d.id, "selected": [0], "sentences": [d.sentences[0].text]} for d in docs]
    write_summaries(records, summaries, model_hash(resolve_config(cfg_file)))
    calls = []
    # `Sentence.tokens` calls this; `evaluate` tokenizes references and extracts through cli.tokenize
    monkeypatch.setattr(corpus_module, "tokenize", lambda text: calls.append(text) or tokenize(text))
    cfg = ["--config", str(cfg_file)]
    assert main(["ingest", *cfg, "--input", str(raw), "--out", str(corpus)]) == 0
    assert main(["evaluate", *cfg, "--summaries", str(summaries), "--corpus", str(corpus),
                 "--out", str(tmp_path / "scores.tsv")]) == 0
    assert calls == []
    # the spy counts calls in this process only, so label runs here alone
    monkeypatch.setattr(cli_module, "_usable_cpus", lambda: 1)
    assert main(["label", *cfg, "--corpus", str(corpus), "--out", str(tmp_path / "labels.jsonl")]) == 0
    assert len(calls) == sum(d.n_sentences for d in docs)  # label reads each sentence's tokens once


def test_token_less_sentences_are_kept_through_the_walkthrough(tmp_path, capsys, cfg_file):
    # sentences with no tokens ("!!!", "") keep their documents, down to one that has no token at all
    docs = _docs(4, 6)
    raw_docs = [json.loads(serialize_document(doc)) for doc in docs]
    for obj in raw_docs[:2]:
        obj["sections"][0]["sentences"].insert(1, "!!!")
        obj["sections"][1]["sentences"].append("")
    raw_docs.append({"id": "dots", "reference_summary": "alpha beta",
                     "sections": [{"title": "t", "sentences": ["!!!", "...", "?"]}]})
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(obj) + "\n" for obj in raw_docs))
    corpus, labels, ckpt = tmp_path / "corpus.jsonl", tmp_path / "labels.jsonl", tmp_path / "m.ckpt"
    summaries, scores = tmp_path / "summaries.jsonl", tmp_path / "scores.tsv"
    steps = [
        ["ingest", "--input", str(raw), "--out", str(corpus)],
        ["label", "--corpus", str(corpus), "--out", str(labels)],
        ["train", "--corpus", str(corpus), "--labels", str(labels), "--checkpoint-out", str(ckpt)],
        ["summarize", "--corpus", str(corpus), "--checkpoint", str(ckpt), "--out", str(summaries)],
        ["evaluate", "--summaries", str(summaries), "--corpus", str(corpus), "--out", str(scores)],
    ]
    for argv in steps:
        assert main([*argv, "--config", str(cfg_file), "--trigram-threshold", "0"]) == 0, argv[0]
    out = capsys.readouterr().out
    assert "docs=5 sections=9 sentences=31 truncated=0 bad_lines=0" in out
    assert "evaluate: 5 docs" in out
    label_rows, _ = read_labels(labels)
    assert label_rows["dots"] == [0, 0, 0] and len(label_rows["doc0"]) == 8
    written = [json.loads(line) for line in summaries.read_text().splitlines()[1:]]
    assert [r["id"] for r in written] == ["doc0", "doc1", "doc2", "doc3", "dots"]


def test_train_checkpoint_is_byte_identical_at_a_fixed_blas_thread_count(tmp_path):
    # the same bytes run after run at each count (that the counts agree is test_head_worker.py's)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_model = 64\nlayers = 1\nheads = 4\nwindow = 4\nmax_sentences = 48\n"
                   "ffn_dim = 64\nepochs = 2\naccumulation_steps = 2\nholdout_ratio = 0\n")
    raw, corpus, labels = tmp_path / "raw.jsonl", tmp_path / "corpus.jsonl", tmp_path / "labels.jsonl"
    write_corpus_jsonl(raw, _docs(4, 48))
    assert main(["ingest", "--config", str(cfg), "--input", str(raw), "--out", str(corpus)]) == 0
    assert main(["label", "--config", str(cfg), "--corpus", str(corpus), "--out", str(labels)]) == 0
    src = str(Path(sectsum.__file__).parent.parent)
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        ckpts = []
        for run in ("a", "b"):
            ckpt = tmp_path / f"t{threads}{run}.ckpt"
            subprocess.run(
                [sys.executable, "-m", "sectsum.cli", "train", "--config", str(cfg), "--corpus", str(corpus),
                 "--labels", str(labels), "--checkpoint-out", str(ckpt)],
                env=env, check=True, capture_output=True,
            )
            ckpts.append(ckpt.read_bytes())
        assert ckpts[0] == ckpts[1], f"OPENBLAS_NUM_THREADS={threads}"


def test_train_rejects_labels_with_wrong_hash(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad_labels.jsonl"
    lines = pipeline["labels"].read_text().splitlines()
    header = json.loads(lines[0])
    header["config_hash"] = "f" * 64
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    rc = main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--labels", str(bad), "--checkpoint-out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    assert "different configuration" in capsys.readouterr().err


def test_train_rejects_labels_with_duplicate_id(pipeline, tmp_path, capsys):
    lines = pipeline["labels"].read_text().splitlines()
    dup = tmp_path / "dup_labels.jsonl"
    dup.write_text("\n".join(lines + [lines[1]]) + "\n")
    rc = main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--labels", str(dup), "--checkpoint-out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    doc_id = json.loads(lines[1])["id"]
    assert f"labels line {len(lines) + 1}: duplicate id {doc_id!r} (first on line 2)" in capsys.readouterr().err


def test_train_rejects_boolean_and_float_labels(pipeline, tmp_path, capsys):
    lines = pipeline["labels"].read_text().splitlines()
    row = json.loads(lines[2])
    row["labels"] = [bool(v) for v in row["labels"][:1]] + [float(v) for v in row["labels"][1:]]
    bad = tmp_path / "bool_labels.jsonl"
    bad.write_text("\n".join(lines[:2] + [json.dumps(row)] + lines[3:]) + "\n")
    rc = main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--labels", str(bad), "--checkpoint-out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "labels line 3: labels must be a 0/1 list" in err and "Traceback" not in err
    assert not (tmp_path / "m.ckpt").exists()


def test_train_rejects_deeply_nested_labels_line(pipeline, tmp_path, capsys):
    lines = pipeline["labels"].read_text().splitlines()
    deep = tmp_path / "deep_labels.jsonl"
    deep.write_text("\n".join(lines[:2] + [DEEP_JSON] + lines[2:]) + "\n")
    rc = main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--labels", str(deep), "--checkpoint-out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "labels line 3: invalid JSON (nesting too deep)" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["label", "train", "summarize", "evaluate"])
def test_non_utf8_line_fails_each_reader_naming_line_and_offset(pipeline, tmp_path, capsys, command):
    cfg, corpus, labels = (str(pipeline[k]) for k in ("cfg", "corpus", "labels"))
    ckpt, summaries = tmp_path / "m.ckpt", tmp_path / "summaries.jsonl"
    assert main(["train", "--config", cfg, "--corpus", corpus, "--labels", labels,
                 "--checkpoint-out", str(ckpt)]) == 0
    assert main(["summarize", "--config", cfg, "--corpus", corpus, "--checkpoint", str(ckpt),
                 "--out", str(summaries)]) == 0
    broken, where = {
        "label": (pipeline["corpus"], "corpus: line"),
        "train": (pipeline["labels"], "labels line"),
        "summarize": (pipeline["corpus"], "corpus: line"),
        "evaluate": (summaries, "summaries line"),
    }[command]
    offset = _put_bad_byte(broken, 3)
    argv = {
        "label": ["--corpus", corpus, "--out", str(tmp_path / "l.jsonl")],
        "train": ["--corpus", corpus, "--labels", labels, "--checkpoint-out", str(tmp_path / "m2.ckpt")],
        "summarize": ["--corpus", corpus, "--checkpoint", str(ckpt), "--out", str(tmp_path / "s2.jsonl")],
        "evaluate": ["--summaries", str(summaries), "--corpus", corpus, "--out", str(tmp_path / "o.tsv")],
    }[command]
    capsys.readouterr()
    assert main([command, "--config", cfg, *argv]) == 1
    assert f"{where} 3: not valid UTF-8 at byte offset {offset}" in capsys.readouterr().err


def test_summarize_output_format_and_budget(pipeline, tmp_path, capsys):
    ckpt = pipeline["dir"] / "model.ckpt"
    assert main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
                 "--labels", str(pipeline["labels"]), "--checkpoint-out", str(ckpt)]) == 0
    out = tmp_path / "summaries.jsonl"
    rc = main(["summarize", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--checkpoint", str(ckpt), "--out", str(out), "--budget-ratio", "0.34"])
    assert rc == 0
    assert "summarize: wrote 6 summaries" in capsys.readouterr().out

    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines[0]["artifact"] == "summaries" and "config_hash" in lines[0]
    records = lines[1:]
    assert [r["id"] for r in records] == sorted(r["id"] for r in records)
    for rec in records:
        assert set(rec) == {"id", "selected", "sentences", "scores"}
        assert rec["selected"] == sorted(rec["selected"])
        assert len(rec["selected"]) == 3  # ceil(0.34 * 6) with no trigram blocking
        assert len(rec["sentences"]) == len(rec["selected"]) == len(rec["scores"])
        assert all(0.0 < s < 1.0 for s in rec["scores"])


def test_summarize_refuses_checkpoint_from_other_config(pipeline, tmp_path, capsys):
    ckpt = pipeline["dir"] / "model.ckpt"
    assert main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
                 "--labels", str(pipeline["labels"]), "--checkpoint-out", str(ckpt)]) == 0
    rc = main(["summarize", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--checkpoint", str(ckpt), "--out", str(tmp_path / "s.jsonl"), "--seed", "99"])
    assert rc == 1
    assert "config hash mismatch" in capsys.readouterr().err


# one update at a learning rate near the float64 maximum overflows the parameters' arithmetic
DIVERGING = ["--epochs", "1", "--accumulation-steps", "100", "--lr-scale", "1e308"]


def test_train_refuses_non_finite_holdout_loss_before_writing(pipeline, capsys):
    ckpt = pipeline["dir"] / "model.ckpt"
    rc = main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--labels", str(pipeline["labels"]), "--checkpoint-out", str(ckpt),
               "--holdout-ratio", "0.5", *DIVERGING])
    assert rc == 1
    err = capsys.readouterr().err
    assert "sectsum train: non-finite holdout loss nan at epoch 1" in err
    assert "Traceback" not in err
    assert not ckpt.exists() and not (ckpt.parent / (ckpt.name + ".metrics.csv")).exists()


def test_train_without_holdout_refuses_a_diverged_model_before_writing(pipeline, capsys):
    # no holdout: train scores its shortest document after the last update
    ckpt = pipeline["dir"] / "model.ckpt"
    rc = main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--labels", str(pipeline["labels"]), "--checkpoint-out", str(ckpt), *DIVERGING])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "sectsum train: doc doc0: non-finite sentence scores after the last update\n"
    assert not ckpt.exists() and not (ckpt.parent / (ckpt.name + ".metrics.csv")).exists()


def _diverged_checkpoint(pipeline) -> Path:
    """A trained checkpoint with every parameter scaled by 1e300: finite, but it overflows a forward."""
    ckpt = pipeline["dir"] / "model.ckpt"
    assert main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
                 "--labels", str(pipeline["labels"]), "--checkpoint-out", str(ckpt)]) == 0
    cfg = resolve_config(pipeline["cfg"])
    arrays, _ = load_checkpoint(ckpt)
    save_checkpoint({name: Tensor(a * 1e300) for name, a in arrays.items()}, ckpt,
                    seed=cfg.seed, config_hash=model_hash(cfg))
    return ckpt


def test_summarize_refuses_non_finite_scores_and_writes_nothing(pipeline, tmp_path, capsys):
    ckpt = _diverged_checkpoint(pipeline)
    out = tmp_path / "s.jsonl"
    capsys.readouterr()
    rc = main(["summarize", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"sectsum summarize: doc doc0: non-finite sentence scores from checkpoint {ckpt}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_refusals_of_an_overflowing_model_are_the_only_stderr_line(pipeline, tmp_path, capsys):
    ckpt = _diverged_checkpoint(pipeline)
    capsys.readouterr()
    runs = [
        (["train", "--corpus", str(pipeline["corpus"]), "--labels", str(pipeline["labels"]),
          "--checkpoint-out", str(tmp_path / "diverged.ckpt"), *DIVERGING],
         "sectsum train: doc doc0: non-finite sentence scores after the last update"),
        (["summarize", "--corpus", str(pipeline["corpus"]), "--checkpoint", str(ckpt),
          "--out", str(tmp_path / "s.jsonl")],
         f"sectsum summarize: doc doc0: non-finite sentence scores from checkpoint {ckpt}"),
    ]
    for argv, line in runs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a floating-point warning would escape main as an exception
            assert main([*argv, "--config", str(pipeline["cfg"])]) == 1
        assert capsys.readouterr().err.splitlines() == [line]


def _first_record_span(data: bytes) -> tuple[int, int]:
    """Byte range of a checkpoint's first record: after magic, header length and header."""
    start = 12 + int.from_bytes(data[8:12], "little")
    rank_at = start + 2 + int.from_bytes(data[start:start + 2], "little")
    ndim = data[rank_at]
    dims = struct.unpack(f"<{ndim}I", data[rank_at + 1:rank_at + 1 + 4 * ndim])
    return start, rank_at + 1 + 4 * ndim + 8 * int(np.prod(dims))


@pytest.mark.parametrize("corruption", ["duplicate name", "non-finite value", "name is not UTF-8"])
def test_summarize_refuses_corrupt_checkpoint_records(pipeline, tmp_path, capsys, corruption):
    ckpt = pipeline["dir"] / "model.ckpt"
    assert main(["train", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
                 "--labels", str(pipeline["labels"]), "--checkpoint-out", str(ckpt)]) == 0
    data = bytearray(ckpt.read_bytes())
    start, end = _first_record_span(data)
    offset = start
    if corruption == "duplicate name":
        offset = len(data)
        data += data[start:end]
    elif corruption == "non-finite value":
        data[end - 8:end] = struct.pack("<d", float("nan"))
    else:
        data[start + 2] = 0xFF
    ckpt.write_bytes(bytes(data))
    capsys.readouterr()
    rc = main(["summarize", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--checkpoint", str(ckpt), "--out", str(tmp_path / "s.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert corruption in err and f"record at byte offset {offset}" in err
    assert "Traceback" not in err


def test_summarize_refuses_oversized_checkpoint_record(pipeline, tmp_path, capsys):
    # a record claiming shape (2**31, 4), 2**36 bytes, in a file that holds 16 of them
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint({}, ckpt, seed=0, config_hash=model_hash(resolve_config(pipeline["cfg"])))
    start = ckpt.stat().st_size
    ckpt.write_bytes(ckpt.read_bytes() + struct.pack("<H1sB2I", 1, b"w", 2, 2**31, 4) + bytes(16))
    rc = main(["summarize", "--config", str(pipeline["cfg"]), "--corpus", str(pipeline["corpus"]),
               "--checkpoint", str(ckpt), "--out", str(tmp_path / "s.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"corrupt checkpoint: truncated data of w at byte offset {start + 12}" in err
    assert "Traceback" not in err


def test_evaluate_perfect_summaries_score_one(tmp_path, capsys, cfg_file):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(
        corpus,
        [doc_from_sections("d0", [["alpha beta gamma", "delta epsilon zeta"]],
                           reference="alpha beta gamma")],
    )
    summaries = tmp_path / "summaries.jsonl"
    summaries.write_text(
        json.dumps({"artifact": "summaries"}) + "\n"
        + json.dumps({"id": "d0", "selected": [0], "sentences": ["alpha beta gamma"],
                      "scores": [0.9]}) + "\n"
    )
    out = tmp_path / "scores.tsv"
    rc = main(["evaluate", "--config", str(cfg_file), "--summaries", str(summaries),
               "--corpus", str(corpus), "--out", str(out)])
    assert rc == 0
    assert "mean rouge1_recall=1.0000" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "id\trouge1_recall\trouge2_recall\trougeL_recall"
    assert lines[2] == "d0\t1.000000\t1.000000\t1.000000"


@pytest.mark.parametrize(
    "bad_line,message",
    [
        ('{"id": "d1",', "summaries line 3: invalid JSON"),
        ('["d1"]', "summaries line 3: expected {id, sentences, ...}"),
        ('{"id": "d1", "sentences": [1]}', "summaries line 3: sentences must be a list of strings"),
        ('{"id": "d1", "sentences": "alpha beta"}',
         "summaries line 3: sentences must be a list of strings"),
    ],
)
def test_evaluate_rejects_malformed_summaries_line(tmp_path, capsys, cfg_file, bad_line, message):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(corpus, [doc_from_sections("d0", [["alpha beta"]], reference="alpha")])
    summaries = tmp_path / "summaries.jsonl"
    summaries.write_text(
        json.dumps({"artifact": "summaries"}) + "\n"
        + json.dumps({"id": "d0", "sentences": ["alpha beta"]}) + "\n"
        + bad_line + "\n"
    )
    rc = main(["evaluate", "--config", str(cfg_file), "--summaries", str(summaries),
               "--corpus", str(corpus), "--out", str(tmp_path / "o.tsv")])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_evaluate_rejects_duplicate_summary_id(tmp_path, capsys, cfg_file):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(corpus, [doc_from_sections("d0", [["alpha beta", "gamma"]], reference="alpha beta")])
    summaries = tmp_path / "summaries.jsonl"
    summaries.write_text(
        json.dumps({"artifact": "summaries"}) + "\n"
        + json.dumps({"id": "d0", "sentences": ["alpha beta"]}) + "\n"
        + json.dumps({"id": "d0", "sentences": ["gamma"]}) + "\n"
    )
    out = tmp_path / "o.tsv"
    rc = main(["evaluate", "--config", str(cfg_file), "--summaries", str(summaries),
               "--corpus", str(corpus), "--out", str(out)])
    assert rc == 1
    assert "summaries line 3: duplicate id 'd0' (first on line 2)" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_rejects_summary_for_unknown_document(tmp_path, capsys, cfg_file):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(corpus, [doc_from_sections("d0", [["alpha beta"]], reference="alpha")])
    summaries = tmp_path / "summaries.jsonl"
    summaries.write_text(json.dumps({"id": "ghost", "sentences": ["alpha"]}) + "\n")
    rc = main(["evaluate", "--config", str(cfg_file), "--summaries", str(summaries),
               "--corpus", str(corpus), "--out", str(tmp_path / "o.tsv")])
    assert rc == 1
    assert "not in corpus" in capsys.readouterr().err


def test_evaluate_refuses_summaries_missing_corpus_documents(tmp_path, capsys, cfg_file):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(corpus, [doc_from_sections(f"d{i}", [["alpha beta"]], reference="alpha")
                                for i in range(3)])
    summaries = tmp_path / "summaries.jsonl"
    summaries.write_text(
        json.dumps({"artifact": "summaries"}) + "\n"
        + json.dumps({"id": "d1", "selected": [0], "sentences": ["alpha beta"]}) + "\n"
    )
    out = tmp_path / "o.tsv"
    rc = main(["evaluate", "--config", str(cfg_file), "--summaries", str(summaries),
               "--corpus", str(corpus), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "evaluate: 2 corpus documents have no summary (first: ['d0', 'd2'])" in captured.err
    assert "evaluate:" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize(
    "content", ["", json.dumps({"artifact": "summaries"}) + "\n"], ids=["zero-bytes", "header-only"]
)
def test_evaluate_refuses_summaries_without_records(tmp_path, capsys, cfg_file, content):
    corpus = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(corpus, [doc_from_sections("d0", [["alpha beta"]], reference="alpha")])
    summaries = tmp_path / "summaries.jsonl"
    summaries.write_text(content)
    out = tmp_path / "o.tsv"
    rc = main(["evaluate", "--config", str(cfg_file), "--summaries", str(summaries),
               "--corpus", str(corpus), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert f"summaries file: no records in {summaries}" in captured.err
    assert "evaluate:" not in captured.out
    assert not out.exists()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_prints_points_and_doubling_ratios(tmp_path, capsys):
    out = tmp_path / "bench.tsv"
    rc = main(["bench", "--n-list", "8,16", "--repeats", "1", "--window", "4",
               "--d-model", "8", "--heads", "2", "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "bench: n=8 sparse=" in printed and "bench: n=16 sparse=" in printed
    assert "sparse time ratio 8->16:" in printed
    assert "dense time ratio 8->16:" in printed
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "n\tsparse_ms\tdense_ms\tsparse_peak_bytes\tdense_peak_bytes"
    assert len(lines) == 4


def test_bench_rejects_malformed_n_list(tmp_path, capsys):
    rc = main(["bench", "--n-list", "10,zap", "--out", str(tmp_path / "b.tsv")])
    assert rc == 1
    assert "comma-separated integers" in capsys.readouterr().err
