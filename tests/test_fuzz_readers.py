"""Every reader of an input file, fed truncated and byte-flipped copies of a small valid file,
raises only its documented error (load_corpus collects problems and never raises)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import doc_from_sections
from sectsum.autodiff import Tensor
from sectsum.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from sectsum.config import ConfigError, parse_config_file
from sectsum.corpus import (
    CorpusError,
    load_corpus,
    read_labels,
    read_summaries,
    write_corpus,
    write_labels,
    write_summaries,
)

FUZZ = settings(max_examples=200, deadline=None)

HEADER = {"config_hash": "0" * 64}


def _mangled(data: bytes):
    """`data` with up to four bytes XOR-ed with a nonzero mask, then cut at any length."""
    flips = st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)), max_size=4)

    def apply(cut_and_flips):
        cut, changes = cut_and_flips
        buf = bytearray(data)
        for i, mask in changes:
            buf[i] ^= mask
        return bytes(buf[:cut])

    return st.tuples(st.integers(0, len(data)), flips).map(apply)


def _valid_files(root) -> dict[str, bytes]:
    docs = [
        doc_from_sections("d0", [["alpha beta gamma.", "delta epsilon."], ["zeta eta theta."]],
                          reference="alpha"),
        doc_from_sections("d1", [["gamma delta.", "eta theta alpha."]], reference="theta"),
    ]
    write_corpus(docs, root / "corpus.jsonl", header={**HEADER, "max_sentences": 3})
    write_labels([("d0", [1, 0, 0]), ("d1", [0, 1])], root / "labels.jsonl", header=HEADER)
    write_summaries(
        [{"id": "d0", "selected": [0], "sentences": ["alpha beta gamma."], "scores": [0.9]},
         {"id": "d1", "selected": [1], "sentences": ["eta theta alpha."], "scores": [0.4]}],
        root / "summaries.jsonl", HEADER["config_hash"],
    )
    (root / "run.cfg").write_text(
        "# tiny\nd_model = 8\nglobal_policy = stride\ntrigram_threshold = none\n"
        "budget_ratio = 0.25\nreinforced = true\n"
    )
    params = {
        "bias": Tensor(np.zeros(3)),
        "table": Tensor(np.arange(6.0).reshape(2, 3)),
        "w": Tensor(np.array([[0.5, -1.0]])),
    }
    save_checkpoint(params, root / "model.ckpt", seed=0, config_hash=HEADER["config_hash"])
    return {name: (root / name).read_bytes() for name in
            ("corpus.jsonl", "labels.jsonl", "summaries.jsonl", "run.cfg", "model.ckpt")}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid(fuzz_dir) -> dict[str, bytes]:
    return _valid_files(fuzz_dir)


def test_valid_files_read_cleanly(fuzz_dir, valid):
    assert not load_corpus(fuzz_dir / "corpus.jsonl").problems
    assert read_labels(fuzz_dir / "labels.jsonl")[0] == {"d0": [1, 0, 0], "d1": [0, 1]}
    assert set(read_summaries(fuzz_dir / "summaries.jsonl")[0]) == {"d0", "d1"}
    assert parse_config_file(fuzz_dir / "run.cfg")["trigram_threshold"] is None
    assert set(load_checkpoint(fuzz_dir / "model.ckpt")[0]) == {"bias", "table", "w"}


def _read_mangled(data, fuzz_dir, valid, name: str, reader, error) -> None:
    """Write a mangled copy of the valid file `name` and read it; only `error` may escape the reader."""
    path = fuzz_dir / f"mangled-{name}"
    path.write_bytes(data.draw(_mangled(valid[name])))
    try:
        reader(path)
    except error:
        pass


@FUZZ
@given(data=st.data())
def test_load_corpus_never_raises(fuzz_dir, valid, data):
    path = fuzz_dir / "mangled-corpus.jsonl"
    path.write_bytes(data.draw(_mangled(valid["corpus.jsonl"])))
    report = load_corpus(path, max_sentences=2)
    assert all(doc.n_sentences <= 2 for doc in report.documents)


@FUZZ
@given(data=st.data())
def test_read_labels_raises_only_corpus_errors(fuzz_dir, valid, data):
    _read_mangled(data, fuzz_dir, valid, "labels.jsonl", read_labels, CorpusError)


@FUZZ
@given(data=st.data())
def test_read_summaries_raises_only_corpus_errors(fuzz_dir, valid, data):
    _read_mangled(data, fuzz_dir, valid, "summaries.jsonl", read_summaries, CorpusError)


@FUZZ
@given(data=st.data())
def test_parse_config_file_raises_only_config_errors(fuzz_dir, valid, data):
    _read_mangled(data, fuzz_dir, valid, "run.cfg", parse_config_file, ConfigError)


@FUZZ
@given(data=st.data())
def test_load_checkpoint_raises_only_checkpoint_errors(fuzz_dir, valid, data):
    _read_mangled(data, fuzz_dir, valid, "model.ckpt", load_checkpoint, CheckpointError)
