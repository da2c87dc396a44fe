"""Wall-clock and peak-allocation scaling of sparse vs dense attention.

Times one attention layer (the sparse chunked path against the dense O(n²)
reference) over a range of document lengths at fixed window.  Timing and
memory are measured in separate runs because tracemalloc itself slows
execution.  Each time is the fastest of its repeats (see _fastest_ms): a
stall on a shared machine only ever adds time, so the minimum keeps the call
it disturbed least.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .attention import (
    build_attention_mask,
    full_attention_reference,
    global_attention,
    init_attention_params,
    select_global,
)
from .corpus import write_table
from .rouge import stable_seed


@dataclass(frozen=True)
class BenchPoint:
    n: int
    sparse_ms: float
    dense_ms: float
    sparse_peak_bytes: int
    dense_peak_bytes: int


def _fastest_ms(fns, repeats: int) -> list[float]:
    """Each function's fastest of `repeats` timed calls, in milliseconds.

    Every round times every function, each right after an untimed call that
    warms the caches with its arrays, so a stall spoils one round of all the
    functions rather than every repeat of one.
    """
    best = [float("inf")] * len(fns)
    with ad.no_grad():
        for _ in range(repeats):
            for i, fn in enumerate(fns):
                fn()
                t0 = time.perf_counter()
                fn()
                best[i] = min(best[i], (time.perf_counter() - t0) * 1000.0)
    return best


def _peak_bytes(fn) -> int:
    with ad.no_grad():
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    return int(peak)


def run_bench(
    n_list: list[int],
    window: int,
    global_ratio: float,
    repeats: int = 5,
    *,
    d_model: int = 64,
    heads: int = 4,
    global_policy: str = "stride",
    seed: int = 0,
) -> list[BenchPoint]:
    """Measure both implementations at each n; cross-check outputs at w >= n."""
    for n in n_list:
        if n < window:
            raise ValueError(f"bench requires n >= window, got n={n} < window={window}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    params = init_attention_params(np.random.default_rng(seed), d_model, heads, 1)
    cases = []
    for n in n_list:
        globals_ = select_global(n, global_ratio, global_policy, stable_seed(seed, "bench-globals", n))
        mask = build_attention_mask([n], window, [globals_])
        rng = np.random.default_rng(stable_seed(seed, "bench-input", n))
        x = ad.Tensor(rng.standard_normal((mask.padded_len, d_model)))
        sparse = functools.partial(global_attention, x, mask, params, heads)
        dense = functools.partial(full_attention_reference, x, mask, params, heads)
        if window >= n:
            with ad.no_grad():
                gap = float(np.abs(sparse().data - dense().data).max())
            if gap > 1e-10:
                raise ValueError(
                    f"sparse/dense cross-check failed at n={n}: max abs difference {gap:.3e}"
                )
        cases.append((sparse, dense))
    ms = _fastest_ms([fn for case in cases for fn in case], repeats)
    return [
        BenchPoint(
            n=n,
            sparse_ms=ms[2 * i],
            dense_ms=ms[2 * i + 1],
            sparse_peak_bytes=_peak_bytes(sparse),
            dense_peak_bytes=_peak_bytes(dense),
        )
        for i, (n, (sparse, dense)) in enumerate(zip(n_list, cases))
    ]


def doubling_ratios(points: list[BenchPoint], attr: str) -> list[tuple[int, int, float]]:
    """(n_prev, n, ratio) for consecutive points where n doubles."""
    out = []
    for prev, curr in zip(points, points[1:]):
        if curr.n == 2 * prev.n:
            base = getattr(prev, attr)
            out.append((prev.n, curr.n, getattr(curr, attr) / base if base else float("inf")))
    return out


def write_bench_tsv(points: list[BenchPoint], path, config_hash: str) -> None:
    columns = ["n", "sparse_ms", "dense_ms", "sparse_peak_bytes", "dense_peak_bytes"]
    rows = (
        [str(p.n), f"{p.sparse_ms:.3f}", f"{p.dense_ms:.3f}", str(p.sparse_peak_bytes), str(p.dense_peak_bytes)]
        for p in points
    )
    write_table(path, config_hash, columns, rows, "\t")
