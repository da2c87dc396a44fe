"""Scaling benchmark plumbing (the scaling claims themselves live in test_acceptance)."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from sectsum import autodiff as ad
from sectsum.attention import build_attention_mask, global_attention, init_attention_params, select_global
from sectsum.bench import BenchPoint, _peak_bytes, doubling_ratios, run_bench, write_bench_tsv
from sectsum.config import RunConfig


def test_run_bench_produces_positive_measurements():
    points = run_bench([8, 16], RunConfig(window=4, global_ratio=10.0, d_model=8, heads=2), repeats=1)
    assert [p.n for p in points] == [8, 16]
    for p in points:
        assert p.sparse_ms > 0 and p.dense_ms > 0
        assert p.sparse_peak_bytes > 0 and p.dense_peak_bytes > 0


def test_run_bench_cross_checks_when_window_covers_document():
    # w >= n forces the sparse path through the dense-equivalence check
    points = run_bench([4], RunConfig(window=4, global_ratio=0.0, d_model=8, heads=2), repeats=1)
    assert points[0].n == 4


def test_run_bench_validates_arguments():
    with pytest.raises(ValueError, match="n >= window"):
        run_bench([4], RunConfig(window=8, global_ratio=0.0, d_model=8, heads=2), repeats=1)
    with pytest.raises(ValueError, match="repeats"):
        run_bench([8], RunConfig(window=4, global_ratio=0.0, d_model=8, heads=2), repeats=0)


def test_a_no_grad_sparse_call_at_800_rows_peaks_under_twice_the_per_head_bytes():
    """All heads' projections and band chunks are alive at once, but the
    global rows' (globals × rows) scores are built one head at a time and no
    chunk state is kept.  8.7 MB is twice the 4.34 MB that running the whole
    sublayer one head at a time peaked at; this code reads 6.70 MB, and
    every head's global scores at once read 15.9 MB."""
    cfg = RunConfig()
    n = 800
    mask = build_attention_mask([n], 50, [select_global(n, 20.0)])
    x = ad.Tensor(np.random.default_rng(0).standard_normal((mask.padded_len, cfg.d_model)))
    params = init_attention_params(np.random.default_rng(0), cfg.d_model, cfg.heads, 1)
    sparse = functools.partial(global_attention, x, mask, params, cfg.heads)
    sparse()  # the mask's band layout is built on first use, and run_bench times before it measures
    assert _peak_bytes(sparse) < 8.7e6


def test_doubling_ratios_skip_non_doubling_steps():
    points = [
        BenchPoint(100, 1.0, 10.0, 1000, 4000),
        BenchPoint(200, 2.0, 40.0, 2000, 16000),
        BenchPoint(300, 9.9, 99.0, 9000, 90000),  # 200 -> 300 is not a doubling
        BenchPoint(700, 1.0, 1.0, 1, 1),  # nor is 300 -> 700
    ]
    assert doubling_ratios(points, "sparse_ms") == [(100, 200, 2.0)]
    assert doubling_ratios(points, "dense_ms") == [(100, 200, 4.0)]
    assert doubling_ratios(points, "sparse_peak_bytes") == [(100, 200, 2.0)]


def test_write_bench_tsv_format(tmp_path):
    path = tmp_path / "bench.tsv"
    write_bench_tsv([BenchPoint(8, 1.2345, 6.789, 100, 400)], path, "abc")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_hash=abc"
    assert lines[1] == "n\tsparse_ms\tdense_ms\tsparse_peak_bytes\tdense_peak_bytes"
    assert lines[2] == "8\t1.234\t6.789\t100\t400"
