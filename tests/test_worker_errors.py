"""A head worker's error reaches the parent as a WorkerError carrying the first
1,024 bytes of its message, one pipe write, and the worker is reaped."""

from __future__ import annotations

import os

import numpy as np
import pytest

from helpers import assert_no_children, deadline
from sectsum import attention
from sectsum import workers
from sectsum.attention import build_attention_mask, init_attention_params, transformer_layer
from sectsum.autodiff import Tensor
from sectsum.workers import WorkerError, split_heads


def test_a_long_worker_error_arrives_cut_to_its_first_1024_bytes(monkeypatch):
    parent = os.getpid()
    message = "".join(f"{i:05d}" for i in range(600))  # 3,000 bytes, no two cuts alike
    band_forward = attention._band_forward

    def failing(q, k, v, layout):
        if os.getpid() != parent:
            raise RuntimeError(message)
        return band_forward(q, k, v, layout)

    rng = np.random.default_rng(0)
    mask = build_attention_mask([workers._MIN_ROWS], 50, [[3, 8]])
    params = init_attention_params(rng, 8, 2, 5)
    x = rng.standard_normal((mask.padded_len, 8))
    monkeypatch.setattr(attention, "_band_forward", failing)
    monkeypatch.setattr(workers, "_usable_cpus", lambda: 2)
    with deadline(60), pytest.raises(WorkerError) as caught:
        with split_heads([params], [mask.layout]):
            transformer_layer(Tensor(x), mask, params)
    assert str(caught.value) == "the head worker failed: " + f"RuntimeError: {message}"[:1024]
    assert_no_children()
