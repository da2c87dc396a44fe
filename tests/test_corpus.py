"""Document model, tokenization, JSONL ingestion and validation."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import char_loop_tokenize, doc_from_sections
from sectsum.corpus import (
    LabeledDocument,
    ParseError,
    SchemaError,
    load_corpus,
    parse_document,
    read_labels,
    read_summaries,
    serialize_document,
    tokenize,
    truncate_document,
    write_corpus,
    write_labels,
)


# ---------------------------------------------------------------------------
# tokenize
# ---------------------------------------------------------------------------


def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("The cat sat.") == ["the", "cat", "sat"]


def test_tokenize_empty_string():
    assert tokenize("") == []


def test_tokenize_case_folding_preserves_duplicates():
    assert tokenize("A a A") == ["a", "a", "a"]


def test_tokenize_removes_punctuation_without_splitting():
    assert tokenize("don't") == ["dont"]


def test_tokenize_keeps_digits():
    assert tokenize("room 101!") == ["room", "101"]


def test_tokenize_equals_char_loop_on_every_code_point():
    # each code point between two letters: dropped, kept inside the word, or
    # splitting it; lower() may also turn one code point into several
    mismatched = [
        cp for cp in range(0x110000)
        if tokenize(f"a{chr(cp)}b") != char_loop_tokenize(f"a{chr(cp)}b")
    ]
    assert mismatched == []


@given(st.text())
def test_tokenize_equals_char_loop_on_random_text(text):
    assert tokenize(text) == char_loop_tokenize(text)


@given(st.text())
def test_tokenize_idempotent_on_own_output(text):
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


@given(st.text())
def test_tokenize_output_is_clean(text):
    for tok in tokenize(text):
        assert tok == tok.lower()
        assert tok.isalnum() or all(ch.isalnum() for ch in tok)


# ---------------------------------------------------------------------------
# parsing and the document model
# ---------------------------------------------------------------------------


def _line(obj) -> str:
    return json.dumps(obj)


def test_parse_document_builds_positions_and_sections():
    doc = doc_from_sections("d1", [["One two.", "Three four."], ["Five six."]], reference="one")
    assert doc.id == "d1"
    assert doc.n_sentences == 3
    assert [s.doc_position for s in doc.sentences] == [0, 1, 2]
    assert [s.section_index for s in doc.sentences] == [0, 0, 1]
    assert doc.sentences[0].tokens == ("one", "two")
    assert doc.sentences[0].char_length == len("One two.")
    assert len(doc.sections) == 2
    assert doc.sections[1].title == "part 1"


def test_parse_document_rejects_invalid_json():
    with pytest.raises(ParseError, match="line 7"):
        parse_document("{not json", line_no=7)


def test_parse_document_rejects_non_object():
    with pytest.raises(SchemaError):
        parse_document("[1, 2]")


def test_parse_document_requires_fields():
    with pytest.raises(SchemaError, match="id"):
        parse_document(_line({"reference_summary": "", "sections": []}))
    with pytest.raises(SchemaError, match="reference_summary"):
        parse_document(_line({"id": "d", "sections": []}))
    with pytest.raises(SchemaError, match="sections"):
        parse_document(_line({"id": "d", "reference_summary": ""}))


def test_parse_document_rejects_wrong_types():
    with pytest.raises(SchemaError, match="must be str"):
        parse_document(_line({"id": 3, "reference_summary": "", "sections": []}))
    with pytest.raises(SchemaError, match="non-string sentence"):
        parse_document(
            _line({"id": "d", "reference_summary": "", "sections": [{"title": "t", "sentences": [1]}]})
        )


def test_parse_document_rejects_empty_documents():
    with pytest.raises(SchemaError, match="empty sections"):
        parse_document(_line({"id": "d", "reference_summary": "", "sections": []}))
    with pytest.raises(SchemaError, match="no sentences"):
        parse_document(
            _line({"id": "d", "reference_summary": "", "sections": [{"title": "t", "sentences": []}]})
        )


def test_serialize_round_trip():
    doc = doc_from_sections("d2", [["Alpha beta.", "Gamma."], ["Delta!"]], reference="alpha")
    again = parse_document(serialize_document(doc))
    assert again == doc


def test_labeled_document_validates_length_and_values():
    doc = doc_from_sections("d3", [["a b", "c d"]])
    LabeledDocument(doc, (1, 0))
    with pytest.raises(ValueError, match="labels"):
        LabeledDocument(doc, (1,))
    with pytest.raises(ValueError, match="0/1"):
        LabeledDocument(doc, (1, 2))
    # only integers, Python or NumPy, count: True == 1 and 1.0 == 1 must not pass
    for labels in ((True, 0), (1, False), (1.0, 0), (1, 0.0), (np.bool_(True), 0), (np.float64(1.0), 0)):
        with pytest.raises(ValueError, match="0/1"):
            LabeledDocument(doc, labels)
    assert LabeledDocument(doc, (np.int64(1), np.int8(0))).labels == (1, 0)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


def test_truncate_noop_when_under_limit():
    doc = doc_from_sections("d6", [["a", "b"], ["c"]])
    assert truncate_document(doc, 3) is doc


def test_truncate_drops_tail_and_empty_sections():
    doc = doc_from_sections("d7", [["a one", "b two"], ["c three", "d four"]])
    cut = truncate_document(doc, 2)
    assert cut.n_sentences == 2
    assert len(cut.sections) == 1
    assert [s.doc_position for s in cut.sentences] == [0, 1]
    assert cut.reference_summary == doc.reference_summary


# ---------------------------------------------------------------------------
# corpus file IO
# ---------------------------------------------------------------------------


def test_load_corpus_reads_documents_and_header(tmp_path):
    docs = [
        doc_from_sections("a", [["one two", "three"]], reference="one"),
        doc_from_sections("b", [["four five"]], reference="four"),
    ]
    path = tmp_path / "corpus.jsonl"
    write_corpus(docs, path, header={"note": "fixture"})
    report = load_corpus(path)
    assert report.documents == docs
    assert report.header["artifact"] == "corpus"
    assert report.header["note"] == "fixture"
    assert report.problems == []
    assert report.n_sentences == 3
    assert report.n_sections == 2


def test_load_corpus_collects_problems_instead_of_raising(tmp_path):
    path = tmp_path / "corpus.jsonl"
    good = serialize_document(doc_from_sections("ok", [["fine text"]]))
    path.write_text(good + "\n{broken\n" + good.replace('"ok"', '"ok2"') + "\n", encoding="utf-8")
    report = load_corpus(path)
    assert [d.id for d in report.documents] == ["ok", "ok2"]
    assert len(report.problems) == 1
    assert "line 2" in report.problems[0]


def test_load_corpus_keeps_first_of_duplicate_ids(tmp_path):
    path = tmp_path / "corpus.jsonl"
    first = doc_from_sections("a", [["first copy"]])
    other = doc_from_sections("b", [["other doc"]])
    second = doc_from_sections("a", [["second copy"]])
    write_corpus([first, other, second], path)
    report = load_corpus(path)
    assert report.documents == [first, other]
    assert report.problems == ["line 3: duplicate document id 'a' (first on line 1)"]


def test_load_corpus_skips_blank_lines_and_truncates(tmp_path):
    path = tmp_path / "corpus.jsonl"
    doc = doc_from_sections("long", [["a 1", "b 2", "c 3", "d 4"]])
    path.write_text("\n" + serialize_document(doc) + "\n\n", encoding="utf-8")
    report = load_corpus(path, max_sentences=2)
    assert report.truncated == 1
    assert report.documents[0].n_sentences == 2


def test_load_corpus_header_only_on_first_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    doc = serialize_document(doc_from_sections("x", [["some words"]]))
    path.write_text(json.dumps({"artifact": "corpus"}) + "\n" + doc + "\n", encoding="utf-8")
    report = load_corpus(path)
    assert report.header == {"artifact": "corpus"}
    assert [d.id for d in report.documents] == ["x"]


def test_labels_round_trip(tmp_path):
    path = tmp_path / "labels.jsonl"
    write_labels([("a", [1, 0, 1]), ("b", [0])], path, header={"config_hash": "h"})
    labels, header = read_labels(path)
    assert labels == {"a": [1, 0, 1], "b": [0]}
    assert header["artifact"] == "labels"
    assert header["config_hash"] == "h"


def test_read_labels_rejects_bad_rows(tmp_path):
    path = tmp_path / "labels.jsonl"
    path.write_text('{"id": "a", "labels": [0, 2]}\n', encoding="utf-8")
    with pytest.raises(SchemaError, match="0/1"):
        read_labels(path)
    for item in ("true", "false", "1.0", "0.0"):
        path.write_text('{"id": "a", "labels": [0, 1]}\n{"id": "b", "labels": [1, %s, 0]}\n' % item,
                        encoding="utf-8")
        with pytest.raises(SchemaError, match=r"^labels line 2: labels must be a 0/1 list$"):
            read_labels(path)
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_labels(path)


def test_read_labels_rejects_duplicate_id(tmp_path):
    path = tmp_path / "labels.jsonl"
    write_labels([("a", [1, 0]), ("b", [0]), ("a", [0, 1])], path, header={"config_hash": "h"})
    # line 1 is the header, so the rows sit on lines 2-4
    with pytest.raises(SchemaError, match=r"^labels line 4: duplicate id 'a' \(first on line 2\)$"):
        read_labels(path)


# ---------------------------------------------------------------------------
# bytes that are not UTF-8
# ---------------------------------------------------------------------------


def test_load_corpus_reports_non_utf8_line_with_file_offset(tmp_path):
    path = tmp_path / "corpus.jsonl"
    first, last = (serialize_document(doc_from_sections(i, [["café au lait"]])) for i in ("é1", "é2"))
    data = (first + "\n").encode("utf-8") + b'{"id": "x\xff"}\n' + (last + "\n").encode("utf-8")
    path.write_bytes(data)
    offset = data.index(b"\xff")  # a byte offset: line 1 has multi-byte characters
    report = load_corpus(path)
    assert [d.id for d in report.documents] == ["é1", "é2"]
    assert report.problems == [f"line 2: not valid UTF-8 at byte offset {offset}"]


def test_read_labels_names_non_utf8_line_and_offset(tmp_path):
    path = tmp_path / "labels.jsonl"
    write_labels([("é", [1, 0])], path, header={"config_hash": "h", "note": "é"})
    data = path.read_bytes() + b'{"id": "b", "labels": [0]}\xfe\n'
    path.write_bytes(data)
    offset = data.index(b"\xfe")
    with pytest.raises(ParseError, match=rf"^labels line 3: not valid UTF-8 at byte offset {offset}$"):
        read_labels(path)


def test_read_summaries_names_non_utf8_line_and_offset(tmp_path):
    path = tmp_path / "summaries.jsonl"
    # the bad byte sits on line 1, where a header would be
    path.write_bytes(b'{"artifact": "summ\xc3ries"}\n{"id": "a", "sentences": []}\n')
    with pytest.raises(ParseError, match=r"^summaries line 1: not valid UTF-8 at byte offset 18$"):
        read_summaries(path)
