"""Exact bytes of the six artifact writers: corpus, labels, summaries, metrics, scores, bench.

Inputs are fixed and include a non-ASCII id ("résumé"): labels rows escape it
(\\u00e9), corpus and summaries rows and the score table write it as UTF-8.
The summaries come from a checkpoint whose parameters are all zero, so every
sentence scores sigmoid(0) = 0.5 whatever the BLAS.
"""

from __future__ import annotations

from helpers import doc_from_sections
from sectsum.bench import BenchPoint, write_bench_tsv
from sectsum.checkpoint import save_checkpoint
from sectsum.cli import main
from sectsum.config import resolve_config
from sectsum.corpus import write_corpus, write_labels
from sectsum.model import Model
from sectsum.training import write_metrics_csv

CFG = """\
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

DOCS = [
    doc_from_sections("résumé", [["café au lait", "naïve text"], ["plain words here"]],
                      reference="café au lait"),
    doc_from_sections("b", [["alpha beta", "gamma delta"]], reference="gamma delta"),
]


def test_corpus_writer_bytes(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(DOCS, path, header={"config_hash": "h", "note": "é"})
    assert path.read_bytes() == (
        '{"artifact": "corpus", "config_hash": "h", "note": "é"}\n'
        '{"id": "résumé", "reference_summary": "café au lait", "sections": '
        '[{"title": "part 0", "sentences": ["café au lait", "naïve text"]}, '
        '{"title": "part 1", "sentences": ["plain words here"]}]}\n'
        '{"id": "b", "reference_summary": "gamma delta", "sections": '
        '[{"title": "part 0", "sentences": ["alpha beta", "gamma delta"]}]}\n'
    ).encode("utf-8")


def test_labels_writer_bytes(tmp_path):
    path = tmp_path / "labels.jsonl"
    write_labels([("résumé", [1, 0, 0]), ("b", (0, 1))], path, header={"config_hash": "h", "note": "é"})
    assert path.read_bytes() == (
        '{"artifact": "labels", "config_hash": "h", "note": "é"}\n'
        '{"id": "r\\u00e9sum\\u00e9", "labels": [1, 0, 0]}\n'
        '{"id": "b", "labels": [0, 1]}\n'
    ).encode("utf-8")


def test_metrics_writer_bytes(tmp_path):
    rows = [
        {"epoch": 1, "split": "train", "loss": 0.123456789,
         "rouge1_recall": "", "rouge2_recall": "", "rougeL_recall": "", "lr": 0.5},
        {"epoch": 1, "split": "holdout", "loss": 2.0,
         "rouge1_recall": 0.25, "rouge2_recall": 1 / 3, "rougeL_recall": 1.0, "lr": 1e-5},
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(rows, path, "cafe01")
    assert path.read_bytes() == (
        b"# config_hash=cafe01\n"
        b"epoch,split,loss,rouge1_recall,rouge2_recall,rougeL_recall,lr\n"
        b"1,train,0.123457,,,,0.5\n"
        b"1,holdout,2,0.25,0.333333,1,1e-05\n"
    )


def test_bench_writer_bytes(tmp_path):
    path = tmp_path / "bench.tsv"
    write_bench_tsv([BenchPoint(8, 1.2345, 6.789, 100, 400), BenchPoint(16, 2.0, 30.0, 200, 1600)],
                    path, "abc")
    assert path.read_bytes() == (
        b"# config_hash=abc\n"
        b"n\tsparse_ms\tdense_ms\tsparse_peak_bytes\tdense_peak_bytes\n"
        b"8\t1.234\t6.789\t100\t400\n"
        b"16\t2.000\t30.000\t200\t1600\n"
    )


def test_summaries_and_scores_writer_bytes(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CFG)
    cfg = resolve_config(cfg_path)
    model = Model(cfg)
    params = model.parameters()
    for tensor in params.values():
        tensor.data = tensor.data * 0.0
    ckpt = tmp_path / "zero.ckpt"
    save_checkpoint(params, ckpt, seed=cfg.seed, config_hash=model.hash)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(DOCS, corpus)

    summaries = tmp_path / "summaries.jsonl"
    assert main(["summarize", "--config", str(cfg_path), "--corpus", str(corpus),
                 "--checkpoint", str(ckpt), "--out", str(summaries)]) == 0
    assert summaries.read_bytes() == (
        '{"artifact": "summaries", "config_hash": "' + model.hash + '"}\n'
        '{"id": "b", "selected": [0], "sentences": ["alpha beta"], "scores": [0.5]}\n'
        '{"id": "résumé", "selected": [0], "sentences": ["café au lait"], "scores": [0.5]}\n'
    ).encode("utf-8")

    scores = tmp_path / "scores.tsv"
    assert main(["evaluate", "--config", str(cfg_path), "--summaries", str(summaries),
                 "--corpus", str(corpus), "--out", str(scores)]) == 0
    assert scores.read_bytes() == (
        "# config_hash=" + model.hash + "\n"
        "id\trouge1_recall\trouge2_recall\trougeL_recall\n"
        "b\t0.000000\t0.000000\t0.000000\n"
        "résumé\t1.000000\t1.000000\t1.000000\n"
    ).encode("utf-8")
