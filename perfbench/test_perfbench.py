"""Smoke tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

import checks
import gen
import run

ROOT = Path(__file__).resolve().parent.parent
TINY = gen.CorpusSpec(n_docs=3, min_sentences=6, max_sentences=10, min_sections=2,
                      max_sections=3, planted_per_100=25.0, phrase_rate=0.3, id_prefix="t")


def test_generator_is_deterministic_for_a_seed(tmp_path):
    assert gen.generate_documents(TINY, 7) == gen.generate_documents(TINY, 7)
    assert gen.generate_documents(TINY, 7) != gen.generate_documents(TINY, 8)
    for name in gen.WORKLOADS:
        a = gen.workload_files(gen.WORKLOADS[name], 3, tmp_path / name / "a")
        b = gen.workload_files(gen.WORKLOADS[name], 3, tmp_path / name / "b")
        for role in a:
            assert a[role].read_bytes() == b[role].read_bytes(), (name, role)


def test_generator_controls_the_shape_of_the_work():
    docs = gen.generate_documents(TINY, 1)
    assert [sum(len(s["sentences"]) for s in d["sections"]) for d in docs] == [6, 8, 10]
    for d in docs:
        planted = [t for s in d["sections"] for t in s["sentences"]
                   if gen.MARKER in t.lower().rstrip(".").split()]
        assert d["reference_summary"] == " ".join(planted)
    mixed = gen.WORKLOADS["summarize-mixed"].corpus.sentence_counts()
    assert (min(mixed), max(mixed)) == (50, 500)


@pytest.fixture
def outputs(tmp_path):
    """A corpus, with labels and summaries that pass every check."""
    docs = gen.generate_documents(TINY, 2)
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"artifact": "corpus"}) + "\n")
        for d in docs:
            fh.write(json.dumps(d) + "\n")
    texts = checks.read_corpus(corpus)
    labels = tmp_path / "labels.jsonl"
    summaries = tmp_path / "summaries.jsonl"
    with open(labels, "w", encoding="utf-8") as lf, open(summaries, "w", encoding="utf-8") as sf:
        lf.write(json.dumps({"artifact": "labels"}) + "\n")
        sf.write(json.dumps({"artifact": "summaries"}) + "\n")
        for doc_id, sents in texts.items():
            lf.write(json.dumps({"id": doc_id, "labels": [1] + [0] * (len(sents) - 1)}) + "\n")
            sf.write(json.dumps({"id": doc_id, "selected": [0, 2], "sentences": [sents[0], sents[2]],
                                 "scores": [0.9, 0.7]}) + "\n")
    return texts, labels, summaries


def _rewrite(path: Path, row: int, edit) -> str:
    lines = path.read_text(encoding="utf-8").splitlines()
    obj = json.loads(lines[row])
    edit(obj)
    lines[row] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return obj["id"]


def test_valid_outputs_pass(outputs):
    texts, labels, summaries = outputs
    assert checks.check_labels(texts, labels, 0.2) == (set(), [])
    assert checks.check_summaries(texts, summaries, 0.2) == (set(), [])


@pytest.mark.parametrize("edit", [
    lambda o: o["labels"].__setitem__(1, 2),             # not 0/1
    lambda o: o["labels"].pop(),                          # one label short
    lambda o: o.__setitem__("labels", [1] * len(o["labels"])),  # over budget
])
def test_corrupted_labels_are_caught(outputs, edit):
    texts, labels, _ = outputs
    doc_id = _rewrite(labels, 2, edit)
    bad, problems = checks.check_labels(texts, labels, 0.2)
    assert bad == {doc_id} and problems


def test_missing_label_row_is_caught(outputs):
    texts, labels, _ = outputs
    lines = labels.read_text(encoding="utf-8").splitlines()
    labels.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    bad, _ = checks.check_labels(texts, labels, 0.2)
    assert bad == {json.loads(lines[-1])["id"]}


@pytest.mark.parametrize("edit", [
    lambda o: o.__setitem__("selected", [2, 0]),          # not in document order
    lambda o: o.__setitem__("selected", [0, 99]),         # out of range
    lambda o: o["sentences"].__setitem__(1, "Changed."),  # text not in the corpus
    lambda o: o.__setitem__("scores", [0.9]),             # one score short
    lambda o: o.__setitem__("selected", list(range(len(o["selected"]) + 5))),  # over budget
])
def test_corrupted_summaries_are_caught(outputs, edit):
    texts, _, summaries = outputs
    doc_id = _rewrite(summaries, 1, edit)
    bad, problems = checks.check_summaries(texts, summaries, 0.2)
    assert bad == {doc_id} and problems


def test_scores_must_agree_with_the_printed_mean(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("# config_hash=x\nid\trouge1_recall\trouge2_recall\trougeL_recall\n"
                    "a\t0.500000\t0.1\t0.2\nb\t0.700000\t0.1\t0.2\n", encoding="utf-8")
    assert checks.check_scores({"a", "b"}, path, "evaluate: mean rouge1_recall=0.6000 x")[:2] == (set(), [])
    bad, problems, _ = checks.check_scores({"a", "b"}, path, "evaluate: mean rouge1_recall=0.6500 x")
    assert bad == {"a", "b"} and problems
    bad, _, _ = checks.check_scores({"a", "b", "c"}, path, "evaluate: mean rouge1_recall=0.6000 x")
    assert bad == {"c"}


def test_benchmark_json_names_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in gen.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        row[:3] for row in run.PER_LAYER]


def test_tracer_records_nested_spans_and_restores_the_program():
    sys.path.insert(0, str(ROOT / "src"))
    from sectsum import model as model_module
    from sectsum.config import RunConfig
    from sectsum.corpus import parse_document

    from spans import Tracer

    original = model_module.encode_sentences
    doc = parse_document(json.dumps(gen.generate_documents(TINY, 4)[2]))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase("summarize", lambda: model_module.Model(
            RunConfig(d_model=8, layers=1, heads=2, window=4, max_sentences=20)).forward(doc))
    finally:
        tracer.uninstall()
    assert model_module.encode_sentences is original
    summary = tracer.summary()
    layers = summary["layers"]
    assert layers["model.forward"]["calls"] == 1
    assert layers["attention.transformer_layer"]["calls"] == 1
    forward = next(s for s in tracer.spans if s.name == "model.forward")
    encode = next(s for s in tracer.spans if s.name == "encoder.encode_sentences")
    assert tracer.spans[encode.parent] is forward and encode.doc == doc.id == forward.doc
    assert 0 < summary["covered_s"] <= summary["phase_s"]
    assert summary["counters"]["chunks"] == 3  # 10 sentences, window 4, padded to 12


def test_benchmark_json_keeps_to_its_limits():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")


def test_calibration_scales_time_to_the_reference_speed():
    from calibrate import REFERENCE_S, kernel_seconds, scale

    assert kernel_seconds() > 0
    assert scale(REFERENCE_S, REFERENCE_S) == 1.0
    assert scale(2 * REFERENCE_S, 2 * REFERENCE_S) == 0.5  # a machine at half speed
