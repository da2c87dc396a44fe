"""Document data model, tokenization, validation, and the text artifact files.

Documents arrive pre-split into sections and sentences (one JSON object per
line); no sentence-boundary detection happens here.  All downstream stages
(labeling, features, ROUGE) consume the token streams produced by
:func:`tokenize`, so that rule is the single source of truth for what a
"word" is.  The corpus, labels and summaries JSONL files share one line
reader and one writer; the metrics, scores and bench tables share
:func:`write_table`.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

log = logging.getLogger(__name__)


class CorpusError(ValueError):
    """Base class for ingestion failures."""


class ParseError(CorpusError):
    """Line is not valid JSON."""


class SchemaError(CorpusError):
    """Line is JSON but violates the corpus schema."""


@dataclass(frozen=True)
class Sentence:
    text: str
    tokens: tuple[str, ...]
    doc_position: int
    section_index: int

    @property
    def char_length(self) -> int:
        return len(self.text)


@dataclass(frozen=True)
class Section:
    index: int
    title: str
    sentences: tuple[Sentence, ...]


@dataclass(frozen=True)
class Document:
    id: str
    sections: tuple[Section, ...]
    reference_summary: str

    @property
    def sentences(self) -> tuple[Sentence, ...]:
        return tuple(s for sec in self.sections for s in sec.sentences)

    @property
    def n_sentences(self) -> int:
        return sum(len(sec.sentences) for sec in self.sections)


@dataclass(frozen=True)
class LabeledDocument:
    document: Document
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != self.document.n_sentences:
            raise ValueError(
                f"doc {self.document.id}: {len(self.labels)} labels for "
                f"{self.document.n_sentences} sentences"
            )
        if not all(_is_label(v) for v in self.labels):
            raise ValueError(f"doc {self.document.id}: labels must be 0/1")


def _is_label(v: object) -> bool:
    """A 0/1 label: a Python or NumPy integer equal to 0 or 1, never a bool or a float."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v in (0, 1)


_DROPPED = re.compile(r"[^\w\s]|_")


def tokenize(text: str) -> list[str]:
    """Lowercase, drop non-alphanumeric characters, split on whitespace.

    Punctuation is removed (not replaced by spaces), so "don't" -> "dont".
    Idempotent on its own space-joined output.  A character is kept iff
    ``ch.isalnum() or ch.isspace()``: `\\w` is exactly `isalnum` plus the
    underscore, and `\\s` exactly `isspace`.
    """
    return _DROPPED.sub("", text.lower()).split()


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing required field {key!r}")
    val = obj[key]
    if not isinstance(val, kind):
        raise SchemaError(f"{where}: field {key!r} must be {kind.__name__}, got {type(val).__name__}")
    return val


def parse_document(line: str, line_no: int | None = None) -> Document:
    """Parse one corpus JSONL line into a Document.

    Raises ParseError for invalid JSON and SchemaError for structural
    problems; both mention the line number when one is provided.
    """
    where = f"line {line_no}" if line_no is not None else "line"
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise ParseError(f"{where}: invalid JSON ({e.msg} at col {e.colno})") from None
    except RecursionError:
        raise ParseError(f"{where}: invalid JSON (nesting too deep)") from None
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected a JSON object")

    doc_id = _require(obj, "id", str, where)
    reference = _require(obj, "reference_summary", str, where)
    raw_sections = _require(obj, "sections", list, where)
    if not raw_sections:
        raise SchemaError(f"{where}: document {doc_id!r} has an empty sections list")

    sections: list[Section] = []
    pos = 0
    for si, raw in enumerate(raw_sections):
        if not isinstance(raw, dict):
            raise SchemaError(f"{where}: section {si} must be an object")
        title = _require(raw, "title", str, f"{where} section {si}")
        raw_sents = _require(raw, "sentences", list, f"{where} section {si}")
        sents = []
        for text in raw_sents:
            if not isinstance(text, str):
                raise SchemaError(f"{where}: section {si} contains a non-string sentence")
            sents.append(Sentence(text=text, tokens=tuple(tokenize(text)), doc_position=pos, section_index=si))
            pos += 1
        sections.append(Section(index=si, title=title, sentences=tuple(sents)))
    if pos == 0:
        raise SchemaError(f"{where}: document {doc_id!r} has no sentences")
    return Document(id=doc_id, sections=tuple(sections), reference_summary=reference)


def serialize_document(doc: Document) -> str:
    obj = {
        "id": doc.id,
        "reference_summary": doc.reference_summary,
        "sections": [
            {"title": sec.title, "sentences": [s.text for s in sec.sentences]} for sec in doc.sections
        ],
    }
    return json.dumps(obj, ensure_ascii=False)


def truncate_document(doc: Document, max_sentences: int) -> Document:
    """Drop sentences past max_sentences (and any sections they emptied)."""
    if doc.n_sentences <= max_sentences:
        return doc
    log.warning(
        "doc %s: truncated from %d to %d sentences", doc.id, doc.n_sentences, max_sentences
    )
    sections = []
    for sec in doc.sections:
        kept = tuple(s for s in sec.sentences if s.doc_position < max_sentences)
        if kept:
            sections.append(Section(index=sec.index, title=sec.title, sentences=kept))
    return Document(id=doc.id, sections=tuple(sections), reference_summary=doc.reference_summary)


# ---------------------------------------------------------------------------
# file IO
# ---------------------------------------------------------------------------

HEADER_KEY = "artifact"


@dataclass
class LoadReport:
    documents: list[Document] = field(default_factory=list)
    header: dict | None = None
    problems: list[str] = field(default_factory=list)
    truncated: int = 0

    @property
    def n_sentences(self) -> int:
        return sum(d.n_sentences for d in self.documents)

    @property
    def n_sections(self) -> int:
        return sum(len(d.sections) for d in self.documents)


def _artifact_lines(path: str | Path, kind: str, header: dict) -> Iterator[tuple[int, str | ParseError]]:
    """Yield (line number, stripped text) for each non-blank line of a JSONL artifact file.

    A line-1 JSON object carrying HEADER_KEY is not yielded; its items go into
    `header`.  A line that is not valid UTF-8 is yielded as a ParseError, in
    place of its text, naming the file offset of its first bad byte.
    """
    prefix = f"{kind} " if kind else ""
    offset = 0
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            start, offset = offset, offset + len(raw)
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                yield line_no, ParseError(
                    f"{prefix}line {line_no}: not valid UTF-8 at byte offset {start + e.start}"
                )
                continue
            if not line:
                continue
            if line_no == 1:
                try:
                    obj = json.loads(line)
                except (json.JSONDecodeError, RecursionError):
                    obj = None
                if isinstance(obj, dict) and HEADER_KEY in obj:
                    header.update(obj)
                    continue
            yield line_no, line


def _write_jsonl(path: str | Path, kind: str, header: dict | None, rows: Iterable[str]) -> None:
    """Write the {HEADER_KEY: kind, **header} line (if header is given), then one serialized row per line."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({HEADER_KEY: kind, **header}, ensure_ascii=False) + "\n")
        for row in rows:
            fh.write(row + "\n")


def write_table(path: str | Path, config_hash: str, columns: list[str],
                rows: Iterable[Iterable[str]], sep: str) -> None:
    """Write the config hash comment line, then the column row and the value rows, fields joined by sep."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_hash={config_hash}\n")
        for row in [columns, *rows]:
            fh.write(sep.join(row) + "\n")


def load_corpus(path: str | Path, max_sentences: int | None = None) -> LoadReport:
    """Read a corpus JSONL file, tolerating bad lines.

    Per-line failures (undecodable bytes included) are collected into
    report.problems rather than raised; callers choose how strict to be.  A
    document whose id repeats an earlier kept document's is a problem too, and
    only the first copy is kept.  An optional artifact header on the first
    line is returned separately, never treated as a document.
    """
    report = LoadReport()
    header: dict = {}
    first_line: dict[str, int] = {}
    for line_no, line in _artifact_lines(path, "", header):
        if isinstance(line, ParseError):
            report.problems.append(str(line))
            continue
        try:
            doc = parse_document(line, line_no)
        except CorpusError as e:
            report.problems.append(str(e))
            continue
        if doc.id in first_line:
            report.problems.append(
                f"line {line_no}: duplicate document id {doc.id!r} (first on line {first_line[doc.id]})"
            )
            continue
        first_line[doc.id] = line_no
        if max_sentences is not None and doc.n_sentences > max_sentences:
            doc = truncate_document(doc, max_sentences)
            report.truncated += 1
        report.documents.append(doc)
    report.header = header or None
    return report


def write_corpus(docs: Iterable[Document], path: str | Path, header: dict | None = None) -> None:
    _write_jsonl(path, "corpus", header, (serialize_document(doc) for doc in docs))


def write_labels(
    labeled: Iterable[tuple[str, Iterable[int]]], path: str | Path, header: dict | None = None
) -> None:
    rows = (json.dumps({"id": doc_id, "labels": [int(x) for x in labels]}) for doc_id, labels in labeled)
    _write_jsonl(path, "labels", header, rows)


def write_summaries(records: Iterable[dict], path: str | Path, config_hash: str) -> None:
    """Write a summaries file: header, then one {id, selected, sentences, scores} row per record."""
    rows = (json.dumps(record, ensure_ascii=False) for record in records)
    _write_jsonl(path, "summaries", {"config_hash": config_hash}, rows)


def _read_records(
    path: str | Path, kind: str, key: str, valid: Callable[[object], bool], shape: str
) -> tuple[dict[str, dict], dict | None]:
    """Read a `kind` JSONL file into {id: record}, plus any artifact header; raise on the first bad line.

    Every record must be a JSON object with "id" and a list `key` whose items
    all pass `valid`; an id may appear only once.
    """
    records: dict[str, dict] = {}
    first_line: dict[str, int] = {}
    header: dict = {}
    for line_no, line in _artifact_lines(path, kind, header):
        if isinstance(line, ParseError):
            raise line
        where = f"{kind} line {line_no}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"{where}: invalid JSON ({e.msg})") from None
        except RecursionError:
            raise ParseError(f"{where}: invalid JSON (nesting too deep)") from None
        if not isinstance(obj, dict) or "id" not in obj or key not in obj:
            raise SchemaError(f"{where}: expected {{id, {key}, ...}}")
        if not isinstance(obj[key], list) or not all(valid(v) for v in obj[key]):
            raise SchemaError(f"{where}: {key} must be {shape}")
        doc_id = str(obj["id"])
        if doc_id in first_line:
            raise SchemaError(f"{where}: duplicate id {doc_id!r} (first on line {first_line[doc_id]})")
        first_line[doc_id] = line_no
        records[doc_id] = obj
    return records, header or None


def read_labels(path: str | Path) -> tuple[dict[str, list[int]], dict | None]:
    """Read a labels JSONL file into {id: labels}, plus any artifact header."""
    records, header = _read_records(path, "labels", "labels", _is_label, "a 0/1 list")
    return {doc_id: [int(v) for v in rec["labels"]] for doc_id, rec in records.items()}, header


def read_summaries(path: str | Path) -> tuple[dict[str, dict], dict | None]:
    """Read a summaries JSONL file into {id: record}, plus any artifact header."""
    return _read_records(path, "summaries", "sentences", lambda t: isinstance(t, str), "a list of strings")
