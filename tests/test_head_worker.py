"""`train`'s head worker: a sublayer split over two processes keeps every bit of
the serial one, a stale backward is refused, and `train` writes the same bytes
at every CPU count and every OPENBLAS_NUM_THREADS, forks only where it may, and
leaves no process behind.

The CPU count is set through `cli._usable_cpus`, the seam of `label` and
`summarize`, and `workers._usable_cpus`, where `train` reads it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sectsum
from helpers import assert_no_children, deadline, load_perfbench_gen
from sectsum import attention
from sectsum import autodiff as ad
from sectsum import cli as cli_module
from sectsum import training
from sectsum import workers
from sectsum.attention import build_attention_mask, global_attention, init_attention_params, transformer_layer
from sectsum.autodiff import Tensor
from sectsum.cli import main
from sectsum.workers import WorkerError, split_heads

COUNTS = (1, 2, 3)


def _processes(monkeypatch, count: int) -> None:
    monkeypatch.setattr(cli_module, "_usable_cpus", lambda: count)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: count)


# ---------------------------------------------------------------------------
# one sublayer, split or serial
# ---------------------------------------------------------------------------


def _params_of(params):
    linears = [lin for head in params.heads for lin in attention._projections(head)]
    linears += [params.output, params.ffn_inner, params.ffn_outer]
    return [t for lin in linears for t in (lin.weight, lin.bias)] + [
        params.attn_gain, params.attn_bias, params.ffn_gain, params.ffn_bias]


def _case(seed: int, n: int, window: int, heads: int, glob: list[int]):
    rng = np.random.default_rng(seed)
    mask = build_attention_mask([n], window, [glob])
    d = heads * int(rng.choice([1, 2, 4]))
    x = rng.standard_normal((mask.padded_len, d))
    w = rng.standard_normal((mask.padded_len, d))
    return x, w, mask, init_attention_params(rng, d, heads, 5)


def _cases():
    """Edge cases first, then random ones: 66 in all."""
    cases = [
        _case(0, 1, 1, 2, []),                   # one sentence
        _case(1, 1, 3, 3, [0]),                  # one sentence, global, pad rows
        _case(2, 9, 9, 2, []),                   # one chunk, no global rows
        _case(3, 9, 2, 3, list(range(9))),       # every row global, several chunks, a pad row
        _case(4, 30, 4, 8, [0, 7, 8, 29]),       # eight heads, several chunks
        _case(5, 12, 20, 8, list(range(12))),    # eight heads, one chunk, every row global
    ]
    rng = np.random.default_rng(7)
    for seed in range(60):
        n = int(rng.integers(1, 40))
        k = int(rng.choice([0, n, int(rng.integers(0, n + 1))]))
        glob = sorted(int(v) for v in rng.choice(n, size=k, replace=False))
        cases.append(_case(100 + seed, n, int(rng.integers(1, n + 2)), int(rng.choice([2, 3, 8])), glob))
    return cases


def _run(op, x, w, mask, params):
    """Output, input gradient and every parameter gradient of one loss through
    `op`, then the output of a forward under no_grad."""
    x = Tensor(x, requires_grad=True)
    tensors = _params_of(params)
    for t in tensors:
        t.grad = None
    out = op(x, mask, params)
    ad.backward(ad.tsum(ad.mul(out, Tensor(w))))
    with ad.no_grad():
        frozen = op(Tensor(x.data), mask, params).data
    return [out.data, x.grad, frozen] + [t.grad for t in tensors]


def _sublayer(x, mask, params):
    return global_attention(x, mask, params, len(params.heads))


def test_split_sublayers_keep_every_bit_of_the_serial_ones(monkeypatch):
    cases = _cases()
    serial = [[_run(op, *case) for op in (transformer_layer, _sublayer)] for case in cases]
    parent = os.getpid()
    local_heads = []
    head_forward = attention._head_forward

    def counting(x, head, layout, inv_sqrt_d, keep):
        if os.getpid() == parent:
            local_heads.append(id(head))
        return head_forward(x, head, layout, inv_sqrt_d, keep)

    monkeypatch.setattr(attention, "_head_forward", counting)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(workers, "_MIN_ROWS", 1)  # the bits do not depend on the length
    with split_heads([case[3] for case in cases], [case[2].layout for case in cases]):
        split = [[_run(op, *case) for op in (transformer_layer, _sublayer)] for case in cases]
    assert_no_children()
    for case, want_ops, got_ops in zip(cases, serial, split):
        for want, got in zip(want_ops, got_ops):
            for a, b in zip(want, got):
                if a is None:  # the global projections of a document with no global rows
                    assert b is None
                else:
                    assert a.shape == b.shape and a.strides == b.strides and np.array_equal(a, b)
    # this process ran only the lower half of the heads: two forwards per op and case
    assert len(local_heads) == sum(4 * (len(case[3].heads) // 2) for case in cases)
    assert set(local_heads) == {id(h) for case in cases for h in case[3].heads[:len(case[3].heads) // 2]}


def test_a_backward_of_a_replaced_forward_is_refused(monkeypatch):
    x, w, mask, params = _case(0, 200, 50, 2, [3, 8])
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    with split_heads([params], [mask.layout]):
        first = transformer_layer(Tensor(x, requires_grad=True), mask, params)
        second = transformer_layer(Tensor(x, requires_grad=True), mask, params)
        ad.backward(ad.tsum(second))  # the worker holds the state of the latest forward
        with pytest.raises(WorkerError, match="backward of forward 1, but the state kept is of forward 2"):
            ad.backward(ad.tsum(first))
    assert_no_children()


def test_one_cpu_one_head_or_short_documents_fork_nothing(monkeypatch):
    _, _, long_mask, params = _case(0, 200, 50, 2, [3, 8])
    _, _, short_mask, _ = _case(0, 150, 50, 2, [3, 8])
    _, _, _, one_head = _case(1, 200, 50, 1, [3, 8])
    assert (long_mask.padded_len, short_mask.padded_len) == (workers._MIN_ROWS, 150)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    for count, layers, mask in ((1, [params], long_mask), (2, [one_head], long_mask), (2, [params], short_mask)):
        monkeypatch.setattr(workers, "_usable_cpus", lambda: count)
        with split_heads(layers, [mask.layout]):
            assert attention._head_worker is None


def test_a_platform_without_fork_uses_one_cpu(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert workers._usable_cpus() == 1


# ---------------------------------------------------------------------------
# `train` through the CLI
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def seed1(tmp_path_factory):
    """`train` arguments (config, corpus, labels) of the seed-1 benchmark pipelines, by workload,
    and under "raw" their raw corpora."""
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
        out.setdefault("raw", {})[name] = str(paths["raw"])
    return out


def _train(args, out_dir, *extra) -> tuple:
    ckpt, metrics = out_dir / "model.ckpt", out_dir / "metrics.csv"
    rc = main(["train", *args, *extra, "--checkpoint-out", str(ckpt), "--metrics-out", str(metrics)])
    return rc, ckpt, metrics


@pytest.mark.parametrize("workload, forks", [("pipeline-short", 0), ("pipeline-long", 1)])
def test_train_writes_the_same_bytes_at_every_cpu_count(seed1, workload, forks, tmp_path, monkeypatch):
    # pipeline-short's 40-sentence documents are below _MIN_ROWS, so it never forks
    fork = os.fork
    forked = []
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    outputs = {}
    for count in COUNTS:
        _processes(monkeypatch, count)
        forked.clear()
        (tmp_path / str(count)).mkdir()
        rc, ckpt, metrics = _train(seed1[workload], tmp_path / str(count))
        assert rc == 0 and len(forked) == (forks if count > 1 else 0)
        outputs[count] = (ckpt.read_bytes(), metrics.read_bytes())
        assert_no_children()
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


def test_train_with_one_head_forks_nothing(seed1, tmp_path, monkeypatch):
    labels = tmp_path / "labels.jsonl"
    one_head = [*seed1["pipeline-long"][:2], "--heads", "1"]
    raw = seed1["raw"]["pipeline-long"]
    assert main(["ingest", *one_head, "--input", raw, "--out", str(tmp_path / "corpus.jsonl")]) == 0
    assert main(["label", *one_head, "--corpus", str(tmp_path / "corpus.jsonl"), "--out", str(labels)]) == 0
    _processes(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one head"))
    rc, ckpt, _ = _train([*one_head, "--corpus", str(tmp_path / "corpus.jsonl"), "--labels", str(labels)],
                         tmp_path, "--epochs", "1")
    assert rc == 0 and ckpt.exists()


@pytest.mark.parametrize("count", [2, 3])
def test_a_head_worker_killed_mid_run_fails_train_and_never_hangs(seed1, tmp_path, capsys, monkeypatch, count):
    parent = os.getpid()
    band_backward = attention._band_backward

    def dying(g, state, layout):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return band_backward(g, state, layout)

    monkeypatch.setattr(attention, "_band_backward", dying)
    _processes(monkeypatch, count)
    capsys.readouterr()
    with deadline(60):
        rc, ckpt, metrics = _train(seed1["pipeline-long"], tmp_path)
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "sectsum train: the head worker process was killed by signal 9 before returning its heads' results"]
    assert not ckpt.exists() and not metrics.exists()
    assert_no_children()


def test_a_diverged_run_leaves_no_worker(seed1, tmp_path, capsys, monkeypatch):
    _processes(monkeypatch, 2)
    rc, ckpt, _ = _train(seed1["pipeline-long"], tmp_path, "--lr-scale", "1e308")
    assert rc == 1 and "non-finite" in capsys.readouterr().err
    assert not ckpt.exists()
    assert_no_children()


def test_an_interrupt_in_the_parent_leaves_no_worker(seed1, tmp_path, monkeypatch):
    def interrupted(params, lr):
        raise KeyboardInterrupt

    monkeypatch.setattr(training, "sgd_step", interrupted)
    _processes(monkeypatch, 2)
    with deadline(60), pytest.raises(KeyboardInterrupt):
        _train(seed1["pipeline-long"], tmp_path)
    assert_no_children()
