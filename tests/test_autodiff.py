"""Reverse-mode autodiff engine: op semantics, gradients, and grad_check."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import composed_linear
from sectsum import autodiff as ad
from sectsum.autodiff import DimensionError, Linear, Tensor

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def small_arrays(shape):
    return arrays(np.float64, shape, elements=finite)


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------


def test_linear_fixture():
    x = Tensor([[1.0, 2.0]])
    layer = Linear(weight=Tensor([[1.0, 1.0]]), bias=Tensor([1.0]))
    assert layer(x).data.tolist() == [[4.0]]


def test_linear_rejects_bad_shapes():
    layer = Linear(weight=Tensor([[1.0, 1.0]]), bias=Tensor([1.0]))
    with pytest.raises(DimensionError):
        ad.linear(Tensor([1.0, 2.0]), layer)  # 1-D input
    with pytest.raises(DimensionError):
        ad.linear(Tensor([[1.0, 2.0, 3.0]]), layer)  # wrong width


def test_softmax_fixture_quarter_three_quarters():
    y = ad.softmax(Tensor([0.0, math.log(3.0)]))
    assert y.data == pytest.approx([0.25, 0.75], abs=1e-15)


def test_softmax_is_shift_stable():
    y = ad.softmax(Tensor([1000.0, 1000.0]))
    assert y.data.tolist() == [0.5, 0.5]


@given(small_arrays((3, 5)))
def test_softmax_rows_are_distributions(x):
    y = ad.softmax(Tensor(x), axis=-1).data
    assert np.all(y >= 0)
    assert y.sum(axis=-1) == pytest.approx(np.ones(3), abs=1e-12)


def test_layer_norm_constant_row_maps_to_bias():
    gain, bias = Tensor([2.0, 2.0, 2.0]), Tensor([5.0, 6.0, 7.0])
    y = ad.layer_norm(Tensor([[4.0, 4.0, 4.0]]), gain, bias)
    np.testing.assert_allclose(y.data, [[5.0, 6.0, 7.0]], atol=1e-12)


def test_layer_norm_unit_pair():
    y = ad.layer_norm(Tensor([[1.0, -1.0]]), Tensor([1.0, 1.0]), Tensor([0.0, 0.0]))
    # variance epsilon keeps the output a hair inside ±1
    np.testing.assert_allclose(y.data, [[1.0, -1.0]], rtol=1e-4)
    assert abs(y.data[0, 0]) < 1.0


def test_layer_norm_zero_gain_collapses_to_bias():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((4, 3)))
    y = ad.layer_norm(x, Tensor(np.zeros(3)), Tensor([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(y.data, np.tile([1.0, 2.0, 3.0], (4, 1)))


def test_layer_norm_validates_affine_shapes():
    with pytest.raises(DimensionError):
        ad.layer_norm(Tensor([[1.0, 2.0]]), Tensor([1.0]), Tensor([0.0, 0.0]))


@given(small_arrays((2, 6)))
def test_layer_norm_standardizes_rows(x):
    y = ad.layer_norm(Tensor(x), Tensor(np.ones(6)), Tensor(np.zeros(6))).data
    assert y.mean(axis=-1) == pytest.approx(np.zeros(2), abs=1e-9)
    # unit variance only up to the epsilon shrink, so bound from above
    assert np.all(y.var(axis=-1) <= 1.0 + 1e-9)


def test_matmul_validates_shapes():
    with pytest.raises(DimensionError, match="2-D"):
        ad.matmul(Tensor([1.0]), Tensor([[1.0]]))
    with pytest.raises(DimensionError, match="align"):
        ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0]]))


def test_operator_sugar_matches_ops():
    a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
    assert (a + b).data.tolist() == [4.0, 6.0]
    assert (a * b).data.tolist() == [3.0, 8.0]
    assert (-a).data.tolist() == [-1.0, -2.0]


def test_narrow_values_and_errors():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    assert ad.narrow(x, 0, 1, 2).data.tolist() == x.data[1:3].tolist()
    assert ad.narrow(x, 1, 2, 2).data.tolist() == x.data[:, 2:4].tolist()
    with pytest.raises(DimensionError):
        ad.narrow(x, 0, 2, 5)
    with pytest.raises(DimensionError):
        ad.narrow(x, 2, 0, 1)


def test_concat_values_and_empty_error():
    a, b = Tensor([[1.0], [2.0]]), Tensor([[3.0], [4.0]])
    assert ad.concat([a, b], axis=0).data.tolist() == [[1.0], [2.0], [3.0], [4.0]]
    assert ad.concat([a, b], axis=1).data.tolist() == [[1.0, 3.0], [2.0, 4.0]]
    with pytest.raises(DimensionError):
        ad.concat([])


def test_gather_and_scatter_rows():
    x = Tensor(np.arange(6.0).reshape(3, 2))
    assert ad.gather_rows(x, [2, 0, 2]).data.tolist() == [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]]
    with pytest.raises(IndexError):
        ad.gather_rows(x, [3])
    y = ad.scatter_rows(Tensor([[1.0, 2.0]]), [1], n_rows=3)
    assert y.data.tolist() == [[0.0, 0.0], [1.0, 2.0], [0.0, 0.0]]
    with pytest.raises(DimensionError):
        ad.scatter_rows(Tensor([[1.0, 2.0]]), [0, 1], n_rows=3)


def test_tsum_sums_every_entry():
    x = Tensor(np.arange(6.0).reshape(2, 3))
    assert ad.tsum(x).data == 15.0


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def test_backward_square_fixture():
    x = Tensor([1.0, 2.0], requires_grad=True)
    ad.backward(ad.tsum(x * x))
    assert x.grad.tolist() == [2.0, 4.0]


def test_backward_accumulates_on_repeat():
    x = Tensor([1.0, 2.0], requires_grad=True)
    out = ad.tsum(x * x)
    ad.backward(out)
    ad.backward(out)
    assert x.grad.tolist() == [4.0, 8.0]


def test_backward_frees_each_pass_gradient_once_its_node_has_run():
    # a is read by b (twice) and by c; w is a second leaf, read last
    x = Tensor([0.5, -1.0], requires_grad=True)
    w = Tensor([2.0, 3.0], requires_grad=True)
    a = ad.tanh(x)
    b = a * a
    c = (b + a) * w
    out = ad.tsum(c)
    held = {}
    for name, node in (("a", a), ("b", b), ("c", c), ("out", out)):
        def spy(g, run=node._backward, name=name):
            held[name] = set(ad._pass_grads)
            run(g)
        node._backward = spy
    ad.backward(out)
    # when a node's backward runs, every node after it in the sweep has
    # dropped its entry, its own included; only leaves keep theirs
    assert held["out"] == set()
    assert held["c"] == set()
    assert held["b"] == {id(w), id(a)}
    assert held["a"] == {id(w)}
    t = np.tanh(x.data)
    np.testing.assert_allclose(x.grad, w.data * (2 * t + 1) * (1 - t * t), rtol=1e-12)
    np.testing.assert_allclose(w.grad, t * t + t, rtol=1e-12)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(DimensionError):
        ad.backward(x * x)


def test_backward_diamond_graph_sums_paths():
    # y = x*x + x*x uses the same node twice; grads must sum over both paths
    x = Tensor([3.0], requires_grad=True)
    sq = x * x
    ad.backward(ad.tsum(sq + sq))
    assert x.grad.tolist() == [12.0]


def test_broadcast_gradients_unbroadcast():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    ad.backward(ad.tsum(x + b))
    assert b.grad.tolist() == [2.0, 2.0, 2.0]
    assert x.grad.tolist() == np.ones((2, 3)).tolist()


def test_gather_rows_gradient_sums_duplicates():
    x = Tensor(np.zeros((3, 2)), requires_grad=True)
    ad.backward(ad.tsum(ad.gather_rows(x, [1, 1, 0])))
    assert x.grad.tolist() == [[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]]


def test_clamp_indices_vectorised(caplog):
    got = ad.clamp_indices(np.array([0, 5, 2]), 3)
    assert got.tolist() == [0, 2, 2]
    assert any("clamped" in r.message for r in caplog.records)
    with pytest.raises(ValueError, match="negative"):
        ad.clamp_indices(np.array([-1]), 3)


def test_no_grad_blocks_graph_recording():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with ad.no_grad():
        y = ad.tsum(x * x)
    assert not y.requires_grad
    with pytest.raises(ValueError, match="not require grad"):
        ad.backward(y)
    assert x.grad is None
    assert ad.tsum(x * x).requires_grad  # recording resumes after the block


def test_zero_grads_and_global_norm():
    a = Tensor([0.0], requires_grad=True)
    b = Tensor([0.0, 0.0], requires_grad=True)
    a.grad = np.array([3.0])
    b.grad = np.array([0.0, 4.0])
    assert ad.global_grad_norm([a, b]) == pytest.approx(5.0)
    ad.zero_grads([a, b])
    assert a.grad is None and b.grad is None


def test_init_param_range_and_determinism():
    a = ad.init_param(np.random.default_rng(7), (50, 3))
    b = ad.init_param(np.random.default_rng(7), (50, 3))
    assert a.requires_grad
    assert (a.data == b.data).all()
    assert a.data.min() >= -0.1 and a.data.max() <= 0.1
    layer = ad.init_linear(np.random.default_rng(1), 4, 6)
    assert layer.weight.shape == (4, 6) and layer.bias.shape == (4,)


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------


def test_grad_check_smooth_composite_under_1e6():
    rng = np.random.default_rng(11)
    W = Tensor(rng.standard_normal((3, 4)) * 0.5)
    x = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    err = ad.grad_check(lambda t: ad.tsum(ad.tanh(ad.matmul(W, t))), x)
    assert err < 1e-6


def test_grad_check_constant_function_is_exact():
    x = Tensor([1.0, 2.0], requires_grad=True)
    assert ad.grad_check(lambda t: Tensor(3.14) + ad.tsum(t * 0.0), x) == 0.0


def test_grad_check_rejects_bad_inputs():
    x = Tensor([1.0], requires_grad=False)
    with pytest.raises(ValueError, match="require grad"):
        ad.grad_check(lambda t: ad.tsum(t), x)
    y = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(DimensionError):
        ad.grad_check(lambda t: t * t, y)


@pytest.mark.parametrize(
    "name,fn",
    [
        ("sigmoid", lambda t: ad.tsum(ad.sigmoid(t))),
        ("tanh", lambda t: ad.tsum(ad.tanh(t))),
        ("exp", lambda t: ad.tsum(ad.exp(t * 0.3))),
        ("log", lambda t: ad.tsum(ad.log(ad.exp(t) + 1.5))),
        ("mul", lambda t: ad.tsum(t * t * 0.5)),
    ],
)
def test_grad_check_elementwise_ops_under_1e6(name, fn):
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal(6), requires_grad=True)
    assert ad.grad_check(fn, x) < 1e-6


@pytest.mark.parametrize(
    "name,builder",
    [
        ("softmax", lambda t: ad.tsum(ad.softmax(t, axis=-1) * ad.softmax(t, axis=-1))),
        ("layer_norm", lambda t: ad.tsum(
            ad.layer_norm(t, Tensor(np.full(4, 1.3)), Tensor(np.full(4, -0.2)))
            * ad.layer_norm(t, Tensor(np.full(4, 1.3)), Tensor(np.full(4, -0.2)))
        )),
        ("matmul", lambda t: ad.tsum(ad.matmul(t, ad.transpose(t)))),
        ("reshape", lambda t: ad.tsum(ad.reshape(t, (4, 3)) * 2.0)),
        ("narrow", lambda t: ad.tsum(ad.narrow(t, 1, 1, 2) * ad.narrow(t, 1, 0, 2))),
        ("concat", lambda t: ad.tsum(ad.concat([t, t * 2.0], axis=0) * 1.5)),
        ("gather", lambda t: ad.tsum(ad.gather_rows(t, [0, 2, 2]) * 0.7)),
        ("scatter", lambda t: ad.tsum(ad.scatter_rows(t, [4, 1, 2], 6) * 1.1)),
        ("mean", lambda t: ad.scale(ad.tsum(t * t), 1.0 / t.size)),
    ],
)
def test_grad_check_structural_ops_under_1e4(name, builder):
    rng = np.random.default_rng(17)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    assert ad.grad_check(builder, x) < 1e-4


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_grad_check_linear_chain_property(seed):
    rng = np.random.default_rng(seed)
    layer = ad.init_linear(rng, 3, 5)
    x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    err = ad.grad_check(lambda t: ad.tsum(ad.tanh(layer(t))), x)
    assert err < 1e-5


def _linear_pair_grads(x_data, layers, w):
    """Output and every gradient of sum(w * [layer(x) for layer in layers])."""
    x = Tensor(x_data, requires_grad=True)
    for layer in layers:
        layer.weight.grad = layer.bias.grad = None
    out = ad.concat([layer(x) for layer in layers], axis=1)
    ad.backward(ad.tsum(ad.mul(out, Tensor(w))))
    return [out.data, x.grad] + [t.grad for layer in layers for t in (layer.weight, layer.bias)]


@pytest.mark.parametrize("seed", range(60))
def test_fused_linear_equals_composed_graph(monkeypatch, seed):
    # two layers read one input and their outputs meet in a column concat, so
    # x sums two gradients and each layer receives a strided slice of one;
    # seed 0 is the (rows=36, out=16) shape where a transposed view rounds
    # differently from its copy
    rng = np.random.default_rng(seed)
    n, d_in = (36, 64) if seed == 0 else (int(rng.integers(1, 40)), int(rng.integers(1, 70)))
    outs = (16, 16) if seed == 0 else tuple(int(o) for o in rng.integers(1, 20, size=2))
    layers = [ad.init_linear(rng, d_out, d_in) for d_out in outs]
    x_data = rng.standard_normal((n, d_in))
    w = rng.standard_normal((n, sum(outs)))
    fused = _linear_pair_grads(x_data, layers, w)
    with monkeypatch.context() as m:
        m.setattr(ad, "linear", composed_linear)
        composed = _linear_pair_grads(x_data, layers, w)
    for got, want in zip(fused, composed):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_linear_is_one_graph_node():
    rng = np.random.default_rng(0)
    layer = ad.init_linear(rng, 3, 5)
    x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    y = layer(x)
    assert y._parents == (x, layer.weight, layer.bias)
    assert ad.grad_check(lambda t: ad.tsum(ad.mul(layer(t), layer(t))), layer.weight) < 1e-6
