"""`train` forks nothing and writes the same bytes at every usable CPU count
and every OPENBLAS_NUM_THREADS: the CLI runs its subcommand at one OpenBLAS
thread and gives the caller its own count back.

The CPU count is set through `cli._usable_cpus`, the seam of `label` and
`summarize`.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sectsum
from helpers import load_perfbench_gen
from sectsum import cli as cli_module
from sectsum.cli import _usable_cpus, main


def test_a_platform_without_fork_uses_one_cpu(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert _usable_cpus() == 1


def test_the_cli_pins_one_blas_thread_and_gives_the_caller_its_count_back(tmp_path, monkeypatch):
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    names = [name for name in cli_module._OPENBLAS_THREADS if hasattr(lib, name.format("get"))]
    if not names:
        pytest.skip("NumPy links no OpenBLAS")
    set_threads = cli_module._SETTER((names[0].format("set"), lib))
    get_threads = cli_module._GETTER((names[0].format("get"), lib))
    inside = []

    def evaluate(args, cfg):
        inside.append(get_threads())
        return 0

    monkeypatch.setitem(cli_module._COMMANDS, "evaluate", evaluate)
    caller = get_threads()
    set_threads(2)
    try:
        rc = main(["evaluate", "--summaries", str(tmp_path / "s"), "--corpus", str(tmp_path / "c"),
                   "--out", str(tmp_path / "o")])
        after = get_threads()
    finally:
        set_threads(caller)
    assert rc == 0 and inside == [1] and after == 2


# ---------------------------------------------------------------------------
# `train` through the CLI
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def seed1(tmp_path_factory):
    """`train` arguments (config, corpus, labels) of the seed-1 benchmark pipelines, by workload."""
    gen = load_perfbench_gen()
    root = tmp_path_factory.mktemp("seed1")
    out = {}
    for name in ("pipeline-short", "pipeline-long"):
        paths = gen.workload_files(gen.WORKLOADS[name], 1, root / name)
        corpus, labels = root / name / "corpus.jsonl", root / name / "labels.jsonl"
        cfg = ["--config", str(paths["config"])]
        assert main(["ingest", *cfg, "--input", str(paths["raw"]), "--out", str(corpus)]) == 0
        assert main(["label", *cfg, "--corpus", str(corpus), "--out", str(labels)]) == 0
        out[name] = [*cfg, "--corpus", str(corpus), "--labels", str(labels)]
    return out


@pytest.mark.parametrize("workload", ["pipeline-short", "pipeline-long"])
def test_train_forks_nothing_and_writes_the_same_bytes_at_any_cpu_count(seed1, workload, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("train forked"))
    outputs = {}
    for count in (1, 2, 3):
        monkeypatch.setattr(cli_module, "_usable_cpus", lambda: count)
        ckpt, metrics = tmp_path / f"{count}.ckpt", tmp_path / f"{count}.csv"
        rc = main(["train", *seed1[workload], "--checkpoint-out", str(ckpt), "--metrics-out", str(metrics)])
        assert rc == 0
        outputs[count] = (ckpt.read_bytes(), metrics.read_bytes())
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]


def test_train_through_the_cli_writes_the_one_thread_bytes_at_any_blas_thread_count(seed1, tmp_path):
    # the CLI runs its subcommand at one OpenBLAS thread: left to OpenBLAS, two threads round
    # pipeline-long's long weight-gradient products and n x n maps differently
    src = str(Path(sectsum.__file__).parent.parent)
    unset = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    unset["PYTHONPATH"] = os.pathsep.join(filter(None, [src, unset.get("PYTHONPATH")]))
    outputs = {}
    for threads in ("1", "2", None):
        ckpt, metrics = tmp_path / f"{threads}.ckpt", tmp_path / f"{threads}.csv"
        subprocess.run(
            [sys.executable, "-m", "sectsum.cli", "train", *seed1["pipeline-long"],
             "--checkpoint-out", str(ckpt), "--metrics-out", str(metrics)],
            env=unset if threads is None else {**unset, "OPENBLAS_NUM_THREADS": threads},
            check=True, capture_output=True,
        )
        outputs[threads] = (ckpt.read_bytes(), metrics.read_bytes())
    assert outputs["2"] == outputs["1"], "OPENBLAS_NUM_THREADS=2"
    assert outputs[None] == outputs["1"], "OPENBLAS_NUM_THREADS unset"
