"""The seed-1 benchmark walkthroughs keep the bytes of every artifact a checkpoint shapes.

Checkpoint bits depend on the BLAS build, so `data/artifacts.sha256` holds one
section per OpenBLAS build string.  The labels, which hold on every build, are
pinned in `data/labels.sha256` (see test_encoder).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io

import numpy as np
import pytest

from helpers import DATA_DIR, load_perfbench_gen
from sectsum.cli import main

RECORDED = DATA_DIR / "artifacts.sha256"


def _blas_build() -> str | None:
    """The build string of the OpenBLAS that NumPy links (perfbench's `blas_config`),
    with its runs of spaces made single; None if NumPy links no OpenBLAS."""
    with contextlib.suppress(OSError):
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        for name in ("scipy_openblas_get_config64_", "openblas_get_config"):
            if hasattr(lib, name):
                get_config = getattr(lib, name)
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return " ".join(get_config().decode("utf-8", "replace").split())
    return None


def _sections() -> dict[str, dict[str, str]]:
    """The recorded SHA-256s by artifact path, by BLAS build."""
    sections: dict[str, dict[str, str]] = {}
    for line in RECORDED.read_text().splitlines():
        if line.startswith("["):
            section = sections.setdefault(line.strip("[]"), {})
        elif line and not line.startswith("#"):
            digest, path = line.split()
            section[path] = digest
    return sections


def _walkthrough(gen, name: str, root) -> dict[str, bytes]:
    """Every artifact of the workload's seed-1 walkthrough after labelling, by path:
    checkpoint, metrics, summaries, scores and `evaluate`'s stdout."""
    paths = gen.workload_files(gen.WORKLOADS[name], 1, root)
    cfg = ["--config", str(paths["config"])]
    corpus = root / "corpus.jsonl"
    assert main(["ingest", *cfg, "--input", str(paths["raw"]), "--out", str(corpus)]) == 0
    train_corpus, labels = corpus, root / "labels.jsonl"
    if "train_raw" in paths:  # summarize-mixed trains on a corpus of its own
        train_corpus, labels = root / "train_corpus.jsonl", root / "train_labels.jsonl"
        assert main(["ingest", *cfg, "--input", str(paths["train_raw"]), "--out", str(train_corpus)]) == 0
    assert main(["label", *cfg, "--corpus", str(train_corpus), "--out", str(labels)]) == 0
    runs = {"": []}
    if name == "pipeline-short":
        runs["acc3."] = ["--accumulation-steps", "3"]
    out = {}
    for tag, flags in runs.items():
        ckpt, metrics = root / f"model.{tag}ckpt", root / f"metrics.{tag}csv"
        assert main(["train", *cfg, "--corpus", str(train_corpus), "--labels", str(labels),
                     "--checkpoint-out", str(ckpt), "--metrics-out", str(metrics), *flags]) == 0
        out[ckpt.name], out[metrics.name] = ckpt.read_bytes(), metrics.read_bytes()
    summaries, scores, stdout = root / "summaries.jsonl", root / "scores.tsv", io.StringIO()
    assert main(["summarize", *cfg, "--corpus", str(corpus), "--checkpoint", str(root / "model.ckpt"),
                 "--out", str(summaries)]) == 0
    with contextlib.redirect_stdout(stdout):
        assert main(["evaluate", *cfg, "--summaries", str(summaries), "--corpus", str(corpus),
                     "--out", str(scores)]) == 0
    out.update({summaries.name: summaries.read_bytes(), scores.name: scores.read_bytes(),
                "evaluate.out": stdout.getvalue().encode("utf-8")})
    return {f"{name}/{path}": data for path, data in out.items()}


def test_seed1_walkthroughs_keep_the_recorded_bytes_of_this_blas_build(tmp_path):
    gen = load_perfbench_gen()
    got = {}
    for name in ("pipeline-short", "pipeline-long", "summarize-mixed"):
        artifacts = _walkthrough(gen, name, tmp_path / name)
        got.update({path: hashlib.sha256(data).hexdigest() for path, data in artifacts.items()})
    build = _blas_build()
    section = f"[{build}]\n" + "".join(f"{digest}  {path}\n" for path, digest in got.items())
    recorded = _sections().get(build)
    if recorded is None:
        pytest.skip(f"{RECORDED.name} has no section for this BLAS build; to pin it, add:\n{section}")
    assert got == recorded, f"artifact bytes moved; this build's section now reads:\n{section}"
