"""Output checks for the artifacts a workload's CLI phases write.

Each check parses the artifact on its own, without sectsum's readers, and
returns the ids of documents whose output is invalid, with one message per
problem.  The corpus is read from the normalized file `sectsum ingest` wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def budget(n_sentences: int, ratio: float) -> int:
    return max(1, math.ceil(ratio * n_sentences))


def read_corpus(path: Path) -> dict[str, list[str]]:
    """{doc id: sentence texts in document order}, header line skipped."""
    docs: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            obj = json.loads(line)
            if "artifact" in obj:
                continue
            docs[obj["id"]] = [s for sec in obj["sections"] for s in sec["sentences"]]
    return docs


def _rows(path: Path, artifact: str, problems: list[str]) -> dict[str, dict]:
    """JSONL rows keyed by id after a header line naming the artifact."""
    rows: dict[str, dict] = {}
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or json.loads(lines[0]).get("artifact") != artifact:
        problems.append(f"{path.name}: first line is not a {artifact} header")
        return rows
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"{path.name} line {line_no}: invalid JSON")
            continue
        if not isinstance(obj, dict) or not isinstance(obj.get("id"), str):
            problems.append(f"{path.name} line {line_no}: row without an id")
        elif obj["id"] in rows:
            problems.append(f"{path.name} line {line_no}: duplicate id {obj['id']}")
        else:
            rows[obj["id"]] = obj
    return rows


def _coverage(kind: str, corpus: dict, rows: dict, bad: set, problems: list[str]) -> None:
    for doc_id in sorted(set(corpus) - set(rows)):
        bad.add(doc_id)
        problems.append(f"{kind}: no row for {doc_id}")
    for doc_id in sorted(set(rows) - set(corpus)):
        bad.add(doc_id)
        problems.append(f"{kind}: row for unknown id {doc_id}")


def check_labels(corpus: dict[str, list[str]], path: Path, ratio: float) -> tuple[set, list[str]]:
    """0/1 labels, one per sentence, at most the selection budget chosen."""
    problems: list[str] = []
    rows = _rows(path, "labels", problems)
    bad: set[str] = set() if rows else set(corpus)
    _coverage("labels", corpus, rows, bad, problems)
    for doc_id, row in rows.items():
        if doc_id not in corpus:
            continue
        labels, n = row.get("labels"), len(corpus[doc_id])
        if not isinstance(labels, list) or len(labels) != n:
            problems.append(f"labels {doc_id}: expected {n} labels")
        elif any(v not in (0, 1) or isinstance(v, bool) for v in labels):
            problems.append(f"labels {doc_id}: values other than 0/1")
        elif sum(labels) > budget(n, ratio):
            problems.append(f"labels {doc_id}: {sum(labels)} chosen, budget {budget(n, ratio)}")
        else:
            continue
        bad.add(doc_id)
    return bad, problems


def check_summaries(corpus: dict[str, list[str]], path: Path, ratio: float) -> tuple[set, list[str]]:
    """Valid indices in document order, texts matching the corpus, within budget."""
    problems: list[str] = []
    rows = _rows(path, "summaries", problems)
    bad: set[str] = set() if rows else set(corpus)
    _coverage("summaries", corpus, rows, bad, problems)
    for doc_id, row in rows.items():
        if doc_id not in corpus:
            continue
        texts = corpus[doc_id]
        sel, sents, scores = row.get("selected"), row.get("sentences"), row.get("scores")
        if not isinstance(sel, list) or not sel or not all(
            isinstance(i, int) and not isinstance(i, bool) and 0 <= i < len(texts) for i in sel
        ):
            problems.append(f"summaries {doc_id}: selected indices missing or out of range")
        elif any(a >= b for a, b in zip(sel, sel[1:])):
            problems.append(f"summaries {doc_id}: selected indices not in document order")
        elif len(sel) > budget(len(texts), ratio):
            problems.append(f"summaries {doc_id}: {len(sel)} selected, budget {budget(len(texts), ratio)}")
        elif sents != [texts[i] for i in sel]:
            problems.append(f"summaries {doc_id}: sentence texts do not match the corpus")
        elif not isinstance(scores, list) or len(scores) != len(sel) or not all(
            isinstance(s, (int, float)) and 0.0 <= s <= 1.0 for s in scores
        ):
            problems.append(f"summaries {doc_id}: scores are not one probability per selection")
        else:
            continue
        bad.add(doc_id)
    return bad, problems


def check_scores(doc_ids: set[str], path: Path, stdout: str) -> tuple[set, list[str], float]:
    """One finite row of three recalls in [0, 1] per document; returns the
    mean ROUGE-1 recall, which must agree with the mean `evaluate` printed."""
    problems: list[str] = []
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2 or not lines[0].startswith("# config_hash=") or lines[1].split("\t")[0] != "id":
        return set(doc_ids), [f"{path.name}: missing hash or column header"], math.nan
    seen: dict[str, float] = {}
    bad: set[str] = set()
    for line in lines[2:]:
        cells = line.split("\t")
        try:
            values = [float(c) for c in cells[1:]]
        except ValueError:
            values = []
        if len(cells) != 4 or len(values) != 3 or not all(
            math.isfinite(v) and 0.0 <= v <= 1.0 for v in values
        ):
            bad.add(cells[0])
            problems.append(f"scores: bad row {line!r}")
        elif cells[0] in seen:
            bad.add(cells[0])
            problems.append(f"scores: duplicate row for {cells[0]}")
        else:
            seen[cells[0]] = values[0]
    for doc_id in sorted(doc_ids - set(seen)):
        bad.add(doc_id)
        problems.append(f"scores: no row for {doc_id}")
    mean = sum(seen.values()) / len(seen) if seen else math.nan
    printed = [tok.split("=", 1)[1] for tok in stdout.split() if tok.startswith("rouge1_recall=")]
    if not printed or not math.isclose(float(printed[0]), mean, abs_tol=5.1e-5):
        problems.append(f"scores: printed mean {printed} disagrees with the rows' mean {mean:.6f}")
        bad.update(doc_ids)
    return bad, problems, mean
