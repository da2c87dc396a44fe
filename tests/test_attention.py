"""Attention masks, global-position selection, and the sparse attention layers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import composed_global_attention, composed_transformer_layer
from sectsum import autodiff as ad
from sectsum.attention import (
    AttentionMask,
    build_attention_mask,
    full_attention_reference,
    global_attention,
    init_attention_params,
    select_global,
    sliding_window_attention,
    transformer_layer,
)
from sectsum.autodiff import DimensionError, Tensor

# ---------------------------------------------------------------------------
# mask construction
# ---------------------------------------------------------------------------


def test_mask_three_document_fixture():
    """Three docs of 6/2/6 sentences, first doc global at its fourth sentence."""
    mask = build_attention_mask([6, 2, 6], window=4, global_positions=[[3], [], []])
    assert mask.padded_len == 8
    expected = [
        [1, 1, 1, 2, 1, 1, 0, 0],
        [1, 1, 0, 0, 0, 0, 0, 0],
        [1, 1, 1, 1, 1, 1, 0, 0],
    ]
    assert mask.values.tolist() == expected


def test_mask_pads_to_window_multiple():
    assert build_attention_mask([5], window=4).padded_len == 8
    assert build_attention_mask([8], window=4).padded_len == 8
    assert build_attention_mask([3], window=5).padded_len == 5


def test_mask_without_globals_has_no_twos():
    mask = build_attention_mask([4, 7], window=3)
    assert not (mask.values == 2).any()


def test_mask_caps_padding_at_max_sentences():
    # a document at a max_sentences = 10 cap still pads up to the next window multiple
    mask = build_attention_mask([10], window=4)
    assert mask.padded_len == 12


def test_mask_validates_arguments():
    with pytest.raises(ValueError, match="window"):
        build_attention_mask([3], window=0)
    with pytest.raises(ValueError, match="nonempty"):
        build_attention_mask([], window=2)
    with pytest.raises(ValueError, match="length must be"):
        build_attention_mask([0], window=2)
    with pytest.raises(ValueError, match="outside document"):
        build_attention_mask([3], window=2, global_positions=[[3]])
    with pytest.raises(ValueError, match="entries for"):
        build_attention_mask([3, 3], window=2, global_positions=[[0]])


@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60)
def test_mask_invariants(lengths, window):
    mask = build_attention_mask(lengths, window)
    assert mask.padded_len % window == 0
    assert mask.padded_len >= max(lengths)
    assert mask.padded_len - max(lengths) < window
    for b, n in enumerate(lengths):
        row = mask.values[b]
        assert (row[:n] == 1).all()
        assert (row[n:] == 0).all()


# ---------------------------------------------------------------------------
# global position selection
# ---------------------------------------------------------------------------


def test_select_global_extremes():
    assert select_global(10, 0.0) == []
    assert select_global(5, 100.0) == [0, 1, 2, 3, 4]


def test_select_global_stride_fixture():
    # 20% of 10 sentences -> the centers of two equal strides
    assert select_global(10, 20.0, policy="stride") == [2, 7]


def test_select_global_random_is_seeded_and_valid():
    a = select_global(20, 30.0, policy="random", seed=5)
    b = select_global(20, 30.0, policy="random", seed=5)
    c = select_global(20, 30.0, policy="random", seed=6)
    assert a == b
    assert a != c
    assert a == sorted(set(a))
    assert all(0 <= p < 20 for p in a)
    assert len(a) == 6


def test_select_global_validates():
    with pytest.raises(ValueError, match="ratio"):
        select_global(10, -1.0)
    with pytest.raises(ValueError, match="policy"):
        select_global(10, 10.0, policy="middle")


@given(
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0, max_value=100, allow_nan=False),
)
@settings(max_examples=80)
def test_select_global_count_rule(n, ratio):
    got = select_global(n, ratio, policy="stride")
    expected_k = min(n, int(np.floor(n * ratio / 100.0 + 0.5)))
    assert len(got) == expected_k
    assert got == sorted(set(got))
    assert all(0 <= p < n for p in got)


# ---------------------------------------------------------------------------
# attention layers vs dense reference
# ---------------------------------------------------------------------------


def _params(rng, d, heads, ffn_dim=7):
    return init_attention_params(rng, d, heads, ffn_dim)


def _rand_case(seed, *, with_globals, window=None, n=None):
    rng = np.random.default_rng(seed)
    n = n if n is not None else int(rng.integers(2, 17))
    heads = int(rng.choice([1, 2, 4]))
    d = int(rng.choice([1, 2, 4, 8])) * heads
    window = window if window is not None else int(rng.integers(1, n + 1))
    if with_globals:
        k = int(rng.integers(0, n + 1))
        glob = sorted(int(v) for v in rng.choice(n, size=k, replace=False)) if k else []
    else:
        glob = []
    mask = build_attention_mask([n], window, [glob])
    x = Tensor(rng.standard_normal((mask.padded_len, d)))
    params = _params(rng, d, heads)
    return x, mask, params, heads


def test_wide_window_matches_dense_reference():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 17))
        x, mask, params, heads = _rand_case(seed, with_globals=False, window=n, n=n)
        with ad.no_grad():
            sparse = sliding_window_attention(x, mask, params, mask.window, heads)
            dense = full_attention_reference(x, mask, params, heads)
        np.testing.assert_allclose(sparse.data, dense.data, atol=1e-10, rtol=0)


def test_sparse_with_globals_matches_dense_reference():
    for seed in range(40):
        x, mask, params, heads = _rand_case(seed, with_globals=True)
        with ad.no_grad():
            sparse = global_attention(x, mask, params, heads)
            dense = full_attention_reference(x, mask, params, heads)
        np.testing.assert_allclose(sparse.data, dense.data, atol=1e-10, rtol=0)


def test_sliding_and_global_forms_agree_bit_exactly():
    """With no global rows the sparse layer is the sliding view, and the
    sliding view treats global marks as local: both hold to the bit."""
    for seed in range(40):
        x, mask, params, heads = _rand_case(seed, with_globals=True)
        n = int((mask.values[0] > 0).sum())
        plain = build_attention_mask([n], mask.window)
        with ad.no_grad():
            sliding_marked = sliding_window_attention(x, mask, params, mask.window, heads)
            sliding_plain = sliding_window_attention(x, plain, params, plain.window, heads)
            global_plain = global_attention(x, plain, params, heads)
        assert np.array_equal(global_plain.data, sliding_plain.data)
        assert np.array_equal(sliding_marked.data, global_plain.data)


def test_all_rows_global_matches_dense_reference():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        heads = int(rng.choice([1, 2]))
        d = int(rng.choice([2, 4])) * heads
        mask = build_attention_mask([n], window=2, global_positions=[list(range(n))])
        x = Tensor(rng.standard_normal((mask.padded_len, d)))
        params = _params(rng, d, heads)
        with ad.no_grad():
            sparse = global_attention(x, mask, params, heads)
            dense = full_attention_reference(x, mask, params, heads)
        np.testing.assert_allclose(sparse.data, dense.data, atol=1e-10, rtol=0)
        assert (mask.values == 2).sum() == n


def test_pad_rows_come_out_zero():
    x, mask, params, heads = _rand_case(3, with_globals=True, window=2, n=5)
    assert mask.padded_len > 5
    with ad.no_grad():
        out = global_attention(x, mask, params, heads)
    assert (out.data[5:] == 0.0).all()


def test_single_sentence_attends_to_itself():
    rng = np.random.default_rng(0)
    mask = build_attention_mask([1], window=1)
    d = 4
    x = Tensor(rng.standard_normal((1, d)))
    params = _params(rng, d, heads=1)
    with ad.no_grad():
        out = sliding_window_attention(x, mask, params, 1, 1)
        # probability mass has nowhere else to go: output = W_o(v(x))
        expected = params.output(params.heads[0].value(x))
    np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


def test_pad_row_contents_cannot_influence_real_rows():
    x, mask, params, heads = _rand_case(11, with_globals=True, window=2, n=5)
    n, pad = 5, mask.padded_len
    assert pad > n
    rng = np.random.default_rng(99)
    noisy = x.data.copy()
    noisy[n:] = rng.standard_normal((pad - n, x.shape[1])) * 100.0
    with ad.no_grad():
        base = global_attention(x, mask, params, heads)
        poked = global_attention(Tensor(noisy), mask, params, heads)
        layer_base = transformer_layer(x, mask, params)
        layer_poked = transformer_layer(Tensor(noisy), mask, params)
    np.testing.assert_allclose(base.data[:n], poked.data[:n], atol=1e-10, rtol=0)
    np.testing.assert_allclose(layer_base.data[:n], layer_poked.data[:n], atol=1e-10, rtol=0)


def test_global_columns_visible_outside_band():
    # row 0 with window 1 cannot see column 5 locally, but can once 5 is global
    rng = np.random.default_rng(7)
    d = 4
    base_x = rng.standard_normal((6, d))
    params = _params(np.random.default_rng(1), d, heads=1)
    poked_x = base_x.copy()
    poked_x[5] += 3.0

    def row0(xdata, glob):
        mask = build_attention_mask([6], window=1, global_positions=[glob])
        with ad.no_grad():
            return global_attention(Tensor(xdata), mask, params, 1).data[0]

    without = np.max(np.abs(row0(base_x, []) - row0(poked_x, [])))
    with_glob = np.max(np.abs(row0(base_x, [5]) - row0(poked_x, [5])))
    assert without == 0.0
    assert with_glob > 1e-6


def test_transformer_layer_composition_and_shape():
    x, mask, params, heads = _rand_case(21, with_globals=True)
    with ad.no_grad():
        out = transformer_layer(x, mask, params)
        attn = global_attention(x, mask, params, heads)
        h_mid = ad.add(x, ad.layer_norm(attn, params.attn_gain, params.attn_bias))
        ff = params.ffn_outer(ad.relu(params.ffn_inner(h_mid)))
        expected = ad.add(h_mid, ad.layer_norm(ff, params.ffn_gain, params.ffn_bias))
    assert out.shape == x.shape
    np.testing.assert_allclose(out.data, expected.data, atol=1e-12)


def test_attention_input_validation():
    rng = np.random.default_rng(0)
    params = _params(rng, 4, heads=2)
    mask = build_attention_mask([4], window=2)
    x = Tensor(np.zeros((4, 4)))
    with pytest.raises(DimensionError, match="one document"):
        two = build_attention_mask([4, 4], window=2)
        sliding_window_attention(Tensor(np.zeros((4, 4))), two, params, 2, 2)
    with pytest.raises(DimensionError, match="does not match"):
        sliding_window_attention(Tensor(np.zeros((6, 4))), mask, params, 2, 2)
    with pytest.raises(ValueError, match="multiple of window"):
        sliding_window_attention(x, mask, params, 3, 2)
    with pytest.raises(DimensionError, match="heads"):
        sliding_window_attention(x, mask, params, 2, 4)
    with pytest.raises(ValueError, match="divide"):
        init_attention_params(rng, 6, 4, 8)


def test_attention_gradients_flow_to_all_local_params():
    x, mask, params, heads = _rand_case(5, with_globals=True)
    out = transformer_layer(x, mask, params)
    ad.backward(ad.tsum(ad.mul(out, out)))
    head = params.heads[0]
    for lin in (head.query, head.key, head.value, params.output, params.ffn_inner, params.ffn_outer):
        assert lin.weight.grad is not None
        assert np.abs(lin.weight.grad).max() > 0
    for t in (params.attn_gain, params.attn_bias, params.ffn_gain, params.ffn_bias):
        assert t.grad is not None


# ---------------------------------------------------------------------------
# fused graph nodes vs the composition they replaced
# ---------------------------------------------------------------------------


def _layer_outputs_and_grads(layer, x, mask, params, seed):
    """Output, input gradient and every parameter gradient of one loss through `layer`."""
    x = Tensor(x.data, requires_grad=True)
    for t in _param_tensors(params):
        t.grad = None
    w = np.random.default_rng(seed).standard_normal(x.shape)
    out = layer(x, mask, params)
    ad.backward(ad.tsum(ad.mul(out, Tensor(w))))
    return [out.data, x.grad] + [t.grad for t in _param_tensors(params)]


def _param_tensors(params):
    linears = [getattr(h, part) for h in params.heads
               for part in ("query", "key", "value", "global_query", "global_key", "global_value")]
    linears += [params.output, params.ffn_inner, params.ffn_outer]
    return [t for lin in linears for t in (lin.weight, lin.bias)] + [
        params.attn_gain, params.attn_bias, params.ffn_gain, params.ffn_bias]


def _sublayer(x, mask, params):
    return global_attention(x, mask, params, len(params.heads))


def _assert_fused_equals_composed(x, mask, params, seed):
    """The layer node, and the attention sublayer node, against their op-by-op graphs."""
    for fused_op, composed_op in ((transformer_layer, composed_transformer_layer),
                                  (_sublayer, composed_global_attention)):
        fused = _layer_outputs_and_grads(fused_op, x, mask, params, seed)
        composed = _layer_outputs_and_grads(composed_op, x, mask, params, seed)
        assert len(fused) == len(composed)
        for got, want in zip(fused, composed):
            if want is None:  # a tensor the op does not read (no global rows, or FFN of the sublayer)
                assert got is None
            else:
                assert got.shape == want.shape and np.array_equal(got, want)


def test_fused_layer_equals_composed_graph_on_random_cases():
    for seed in range(60):
        x, mask, params, _ = _rand_case(seed, with_globals=True)
        _assert_fused_equals_composed(x, mask, params, seed)


@pytest.mark.parametrize(
    "n, window, heads, glob",
    [
        (47, 5, 2, [3, 9, 20, 21, 40]),   # ten chunks with globals, three pad rows
        (60, 6, 4, []),                   # multi-chunk, no globals
        (9, 2, 2, list(range(9))),        # every row global, one pad row
        (7, 4, 2, [1, 5]),                # one pad row in the last chunk
        (33, 4, 1, [0, 16, 32]),          # one head
    ],
    ids=["multi-chunk", "no-globals", "all-global", "pad-rows", "one-head"],
)
def test_fused_layer_equals_composed_graph_on_edge_cases(n, window, heads, glob):
    rng = np.random.default_rng(n)
    mask = build_attention_mask([n], window, [glob])
    x = Tensor(rng.standard_normal((mask.padded_len, 4 * heads)))
    params = _params(rng, 4 * heads, heads)
    _assert_fused_equals_composed(x, mask, params, n)


@pytest.mark.parametrize(
    "seed",
    [5, 17, 28, 18, 39, 31, 43],
    ids=["dhead1-4heads-a", "dhead1-4heads-b", "dhead1-4heads-c", "dhead1-2heads-a", "dhead1-2heads-b",
         "window1-a", "window1-b"],
)
def test_stacked_heads_equal_composed_graph_where_a_stack_changes_operand_layouts(seed):
    """Random cases where stacking the heads gives a slice another layout
    than one head's array had unless the sublayer copies it: with d_head 1 a
    gathered or merged operand turns strided, and window 1 makes one-row chunks."""
    x, mask, params, _ = _rand_case(seed, with_globals=True)
    assert params.heads[0].query.out_features == 1 or mask.window == 1
    _assert_fused_equals_composed(x, mask, params, seed)


def test_global_query_gradient_lands_on_its_rows_as_np_add_at_put_it(monkeypatch):
    """The global queries' input gradients, put in place at the global rows,
    have the bits np.add.at into zeros gave them: a -0.0 lands as 0.0 + -0.0.
    Every other projection contributes -0.0 throughout, so a -0.0 that
    landed as is would survive in the sublayer's input gradient."""
    from sectsum import attention

    rng = np.random.default_rng(11)
    mask = build_attention_mask([9], 4, [[1, 4, 7]])
    layout = mask.layout
    params = _params(rng, 8, 2)
    x = rng.standard_normal((mask.padded_len, 8))
    g = rng.standard_normal((mask.padded_len, 8))
    real, d_rows = attention._input_gradient, []

    def signed_zeros(g_out, wt):
        d_in = real(g_out, wt)
        if g_out.shape[-2] != layout.glob.size:  # a global query's gradient has only the global rows
            return np.full_like(d_in, -0.0)
        d_in[:, ::2] = -0.0
        d_rows.append(d_in)
        return d_in

    monkeypatch.setattr(attention, "_input_gradient", signed_zeros)
    _, state = attention._attention_forward(x, layout, params, True)
    dx = attention._attention_backward(g, state, layout, params, None)
    assert len(d_rows) == len(params.heads)
    want = np.zeros_like(x)
    placed = np.full_like(x, -0.0)
    for rows in d_rows:  # head by head
        np.add.at(want, layout.glob, rows)
        placed[layout.glob] += rows
    assert np.signbit(d_rows).any() and want.tobytes() != placed.tobytes()
    assert dx.tobytes() == want.tobytes()


def test_layer_node_passes_gradient_checks():
    # four chunks, globals inside other rows' bands, two pad rows: the 1e-4 layer bound of criterion 03
    mask = build_attention_mask([10], 3, [[2, 7]])
    assert mask.padded_len == 12
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((mask.padded_len, 6)), requires_grad=True)
    params = _params(rng, 6, 2)
    w = Tensor(rng.standard_normal((mask.padded_len, 6)))

    def loss(_):
        return ad.tsum(ad.mul(transformer_layer(x, mask, params), w))

    head0, head1 = params.heads
    targets = [x, head0.query.weight, head0.key.bias, head0.value.weight, head1.global_query.weight,
               head1.global_key.weight, head1.global_value.bias, params.output.weight,
               params.ffn_inner.weight, params.ffn_outer.bias, params.attn_gain, params.ffn_bias]
    for target in targets:
        assert ad.grad_check(loss, target) < 1e-4
