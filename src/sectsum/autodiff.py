"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: each operation returns a new :class:`Tensor` that remembers its
parents and a closure that routes the incoming gradient to them.  Calling
:func:`backward` on a scalar walks the recorded op nodes once in reverse
topological order.  An op node holds the gradients it receives, summed, in
its ``_pass`` slot until its backward routes them, and then drops them, as
no later node adds to it, so the sweep holds only gradients still to be
routed.  A leaf takes each gradient into ``.grad`` as it arrives: the first
copied, later ones added in place.  Gradients accumulate in ``.grad`` until
explicitly cleared, so two backward calls on the same graph double every
leaf gradient.  Graphs are rebuilt on every forward pass.

A model's parameters live in a :class:`ParamStore`: one float64 vector holds
every parameter's values and another their gradients, and each tensor's
``.data`` and ``grad_view`` are views into them.  The sweep copies a
parameter's first gradient into its ``grad_view``, which ``.grad`` then is,
and adds later ones in place, so an update is a few passes over the whole
vectors.  A leaf reached twice in one sweep adds each gradient in turn,
(g + g1) + g2; no ``Model`` parameter is reached twice.  A sweep that
raises may leave part of its gradients in the leaves.

Everything is float64 on purpose: the engine is meant for desk-scale models
whose correctness is checked against central finite differences, and the
extra precision keeps those comparisons honest.

An op is a forward computed on ``.data`` plus a backward closure, recorded
with :func:`_make`; the closure routes its output gradient to the parents
through :func:`_accumulate`.  Larger ops write their backward out by hand the
same way; :func:`linear` and :func:`layer_norm` keep their arithmetic in
array-level forward/backward pairs that ``attention.transformer_layer``, one
node per layer, calls too.  A fused op keeps the bits of the ops it replaces
only if it replays their expressions and adds the gradients of an input they
share in the order the sweep added them.  It asks :func:`recording` before
keeping state for its backward, so that under :func:`no_grad` it keeps none.
A backward must not write into the gradient it receives, nor into any array
it has handed to ``_accumulate``: the first gradient an op node receives is
stored as is, not copied, so another node may still read it.  Arrays it
allocates itself it may fill in place before handing them on.  The other
side of that contract: a store's update writes every parameter's ``.data``
in place, so a graph still alive at an update would see the new values
wherever it kept a parameter's array rather than a copy.  Free the graph
(drop the loss) before updating, as ``training.train`` does.

The engine is not re-entrant: whether ops record (``_grad_enabled``) is a
module global, so two threads must not build graphs at the same time, and a
sweep keeps its gradients on the graph's op nodes and leaves, so two sweeps
must not run over one graph at once; a backward closure must not start one.
"""

from __future__ import annotations

import contextlib
import logging
import math
import mmap
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

# not named `log`: that name is taken by the elementwise logarithm op below
logger = logging.getLogger(__name__)


class DimensionError(ValueError):
    """Raised when operand shapes do not line up for an operation."""


_grad_enabled: bool = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / benchmarking)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A numpy float64 array plus the bookkeeping needed for backprop."""

    __slots__ = ("data", "grad", "grad_view", "requires_grad", "_parents", "_backward", "_pass")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, copy=True)
        self.grad: np.ndarray | None = None
        # a parameter's place in its ParamStore's gradient vector, which
        # .grad becomes on its first gradient; None outside a store
        self.grad_view: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None
        # an op node's gradient received in the running sweep and not yet routed
        self._pass: np.ndarray | None = None

    # -- convenience -----------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return neg(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def recording(parents: Sequence[Tensor]) -> bool:
    """Whether an op over `parents` records a graph node, and so keeps what its backward reads."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward: Callable[[np.ndarray], None]) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.grad_view = None
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    out._pass = None
    if recording(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t._backward is None:  # a leaf takes each gradient as it arrives; a first -0.0 is copied
        if t.grad is not None:
            t.grad += g
        elif t.grad_view is not None:
            np.copyto(t.grad_view, g)
            t.grad = t.grad_view
        else:
            t.grad = g.copy()
    elif t._pass is None:
        # stored as is, unless a strided view: BLAS may round one differently
        # from the dense copy every later matmul saw before this was dropped
        t._pass = g if g.flags.forc else np.array(g, copy=True)
    else:
        t._pass = t._pass + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting expanded it."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def neg(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, -g)

    return _make(-a.data, (a,), backward)


def scale(a, factor: float) -> Tensor:
    """Multiply by a python constant (no graph node for the constant)."""
    a = _as_tensor(a)
    factor = float(factor)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * factor)

    return _make(a.data * factor, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes do not align: {a.shape} @ {b.shape}")
    data = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), backward)


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D tensor, got {a.shape}")

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.T)

    return _make(a.data.T.copy(), (a,), backward)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    """`a` in a new shape; its data is a view where NumPy can make one (no op writes in place)."""
    a = _as_tensor(a)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    keep = a.data > 0

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * keep)

    return _make(np.where(keep, a.data, 0.0), (a,), backward)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    y = np.tanh(a.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * (1.0 - y * y))

    return _make(y, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    # piecewise form avoids overflow in exp for large |x|
    x = a.data
    y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * y * (1.0 - y))

    return _make(y, (a,), backward)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    y = np.exp(a.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * y)

    return _make(y, (a,), backward)


def log(a) -> Tensor:
    a = _as_tensor(a)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g / a.data)

    return _make(np.log(a.data), (a,), backward)


def tsum(a) -> Tensor:
    """The sum of every entry, as a scalar."""
    a = _as_tensor(a)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(np.asarray(a.data.sum(), dtype=np.float64), (a,), backward)


def softmax_forward(x: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable softmax of an array along `axis` (max-subtraction)."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(y: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:
    """Jacobian-vector product of the softmax `y` with the output gradient `g`."""
    return y * (g - (g * y).sum(axis=axis, keepdims=True))


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax along `axis` (max-subtraction)."""
    a = _as_tensor(a)
    y = softmax_forward(a.data, axis)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, softmax_backward(y, g, axis))

    return _make(y, (a,), backward)


def layer_norm_forward(
    x: np.ndarray, gain: Tensor, bias: Tensor, eps: float = 1e-5
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """LayerNorm of an array's last axis, and the (xhat, 1/std) its backward reuses."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    return xhat * gain.data + bias.data, (xhat, inv)


def layer_norm_backward(
    g: np.ndarray, saved: tuple[np.ndarray, np.ndarray], gain: Tensor, bias: Tensor
) -> np.ndarray:
    """Add the gain and bias gradients of :func:`layer_norm_forward` into the
    running sweep; return the input gradient."""
    xhat, inv = saved
    flat_axes = tuple(range(g.ndim - 1))
    _accumulate(gain, (g * xhat).sum(axis=flat_axes))
    _accumulate(bias, g.sum(axis=flat_axes))
    dxhat = g * gain.data
    term = dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * term


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The epsilon sits inside the square root: (var + eps) ** -0.5.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim ({d},)"
        )
    y, saved = layer_norm_forward(x.data, gain, bias, eps)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, layer_norm_backward(g, saved, gain, bias))

    return _make(y, (x, gain, bias), backward)


def gather_rows(x, indices) -> Tensor:
    """Select rows `x[indices]`; gradient scatter-adds back (duplicates sum)."""
    x = _as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DimensionError(f"gather_rows expects a 1-D index array, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise IndexError(f"gather_rows index out of range for {x.shape[0]} rows")
    data = x.data[idx]

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        _accumulate(x, gx)

    return _make(data.copy(), (x,), backward)


def scatter_rows(x, indices, n_rows: int) -> Tensor:
    """Place rows of `x` at `indices` in an otherwise-zero (n_rows, d) tensor."""
    x = _as_tensor(x)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.shape != (x.shape[0],):
        raise DimensionError(f"scatter_rows needs one index per row: {idx.shape} vs {x.shape}")
    data = np.zeros((n_rows,) + x.shape[1:], dtype=np.float64)
    data[idx] = x.data

    def backward(g: np.ndarray) -> None:
        _accumulate(x, g[idx])

    return _make(data, (x,), backward)


def narrow(x, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of `length` entries along `axis` (0 or 1)."""
    x = _as_tensor(x)
    if axis not in (0, 1) or x.ndim < axis + 1:
        raise DimensionError(f"narrow supports axis 0/1 on ≥{axis + 1}-D tensors, got {x.shape}")
    if start < 0 or start + length > x.shape[axis]:
        raise DimensionError(f"narrow range [{start}, {start + length}) exceeds axis {axis} of {x.shape}")
    sl = (slice(start, start + length),) if axis == 0 else (slice(None), slice(start, start + length))
    data = x.data[sl].copy()

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        gx[sl] = g
        _accumulate(x, gx)

    return _make(data, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("concat of an empty sequence")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]

    def backward(g: np.ndarray) -> None:
        offset = 0
        for t, s in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(offset, offset + s)
            _accumulate(t, g[tuple(sl)])
            offset += s

    return _make(data, tuple(tensors), backward)


# ---------------------------------------------------------------------------
# linear layers and embeddings
# ---------------------------------------------------------------------------


@dataclass
class Linear:
    """Affine map y = x @ weight.T + bias with weight shape (out, in)."""

    weight: Tensor
    bias: Tensor

    def __call__(self, x) -> Tensor:
        return linear(x, self)

    @property
    def out_features(self) -> int:
        return self.weight.shape[0]

    @property
    def in_features(self) -> int:
        return self.weight.shape[1]


def linear_forward(x: np.ndarray, layer: Linear) -> tuple[np.ndarray, np.ndarray]:
    """x @ weight.T + bias, and the transposed weight its backward reuses."""
    # the copy keeps the BLAS call the composed transpose → matmul → add made
    wt = layer.weight.data.T.copy()
    return x @ wt + layer.bias.data, wt


def linear_grads(g: np.ndarray, x: np.ndarray, wt: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bias, weight and input gradients of :func:`linear_forward`."""
    return g.sum(axis=0), (x.T @ g).T, g @ wt.T


def linear_backward(g: np.ndarray, x: np.ndarray, wt: np.ndarray, layer: Linear) -> np.ndarray:
    """Add the bias and weight gradients of :func:`linear_forward` into the
    running sweep; return the input gradient."""
    d_bias, d_weight, dx = linear_grads(g, x, wt)
    _accumulate(layer.bias, d_bias)
    _accumulate(layer.weight, d_weight)
    return dx


def linear(x, layer: Linear) -> Tensor:
    x = _as_tensor(x)
    if x.ndim != 2:
        raise DimensionError(f"linear expects (rows, features), got {x.shape}")
    if x.shape[1] != layer.in_features:
        raise DimensionError(
            f"linear input width {x.shape} incompatible with weight {layer.weight.shape}"
        )
    y, wt = linear_forward(x.data, layer)

    def backward(g: np.ndarray) -> None:
        _accumulate(x, linear_backward(g, x.data, wt, layer))

    return _make(y, (x, layer.weight, layer.bias), backward)


def clamp_indices(indices: np.ndarray, n_rows: int, *, warn_label: str = "embedding") -> np.ndarray:
    """Embedding-table row indices, with overshoots clamped to the last row.

    A negative index is a caller bug and raises ValueError; an index at or
    past `n_rows` is clamped to the final row with one logged warning per
    call (the documented behaviour for out-of-vocabulary buckets).
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and idx.min() < 0:
        raise ValueError(f"{warn_label}: negative index {int(idx.min())}")
    if idx.size and idx.max() >= n_rows:
        logger.warning(
            "%s: %d indices clamped to table size %d", warn_label, int((idx >= n_rows).sum()), n_rows
        )
        idx = np.minimum(idx, n_rows - 1)
    return idx


# ---------------------------------------------------------------------------
# graph traversal
# ---------------------------------------------------------------------------


def backward(out: Tensor) -> None:
    """Backpropagate from a scalar: a reverse-topological sweep of the graph's op nodes.

    Each call adds dLoss/dLeaf into every requires_grad leaf's .grad, one
    gradient at a time as the sweep routes them (pure accumulation: two calls
    without zeroing double the grads).  An op node's ``_pass`` holds its
    gradient only until its backward has routed it; none holds one once the
    call returns or raises.
    """
    if out.size != 1:
        raise DimensionError(f"backward expects a scalar output, got shape {out.shape}")
    if not out.requires_grad:
        raise ValueError("backward on a tensor that does not require grad (graph not recorded?)")

    topo: list[Tensor] = []  # the op nodes, leaves left out
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._backward is not None and id(p) not in visited:
                stack.append((p, False))

    try:
        _accumulate(out, np.ones_like(out.data))
        for node in reversed(topo):
            # taken: in reverse topological order nothing adds to it afterwards
            g, node._pass = node._pass, None
            if g is not None:
                node._backward(g)
    finally:
        for node in topo:
            node._pass = None


# ---------------------------------------------------------------------------
# parameter helpers
# ---------------------------------------------------------------------------


def init_param(rng: np.random.Generator, shape: tuple[int, ...]) -> Tensor:
    """Learned-parameter initialiser: uniform(-0.1, 0.1) from the run generator."""
    return Tensor(rng.uniform(-0.1, 0.1, size=shape), requires_grad=True)


def init_linear(rng: np.random.Generator, n_out: int, n_in: int) -> Linear:
    return Linear(init_param(rng, (n_out, n_in)), init_param(rng, (n_out,)))


# The norm squares at most this many floats (128 KiB) at a time where rows
# allow: a transient that stays in cache and below malloc's mmap threshold, so
# it is not paged in afresh on every update (~0.15 ms of a ~0.6 ms norm).
_NORM_CHUNK = 16384


class ParamStore:
    """Every parameter's data in one float64 vector and its gradient in another.

    Each tensor's ``.data`` becomes a C-contiguous view into :attr:`data` and
    its ``grad_view`` one into :attr:`grad`, so an update is a few passes over
    whole vectors.  Tensors of one size sit side by side, so the norm squares
    and sums a block of them at a time.  A tensor's gradient is zero wherever
    its ``.grad`` is None, which :meth:`zero_grads` keeps; the gradient
    vector is ``np.zeros``, whose pages stay untouched until a backward
    writes them.  A layer split by :func:`sectsum.workers.split_heads` holds
    views of a store, as every ``Model``'s do, and :attr:`data` lies in shared
    memory, so the worker forked after it is built reads every update in place.
    """

    def __init__(self, tensors: Iterable[Tensor]):
        self.tensors = list(tensors)
        by_size: dict[int, list[int]] = {}
        for i, t in enumerate(self.tensors):
            by_size.setdefault(t.data.size, []).append(i)
        total = sum(t.data.size for t in self.tensors)
        self.data = np.frombuffer(mmap.mmap(-1, 8 * total)) if total else np.empty(0)
        self.grad = np.zeros(total)
        # gradient blocks of same-size tensors, one row each, of at most
        # _NORM_CHUNK floats where rows allow, and the rows' positions in `tensors`
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        start = 0
        for size, members in by_size.items():
            rows = max(1, _NORM_CHUNK // size)
            for chunk in (members[r:r + rows] for r in range(0, len(members), rows)):
                self._blocks.append((self.grad[start:start + size * len(chunk)].reshape(len(chunk), size),
                                     np.array(chunk)))
                for i in chunk:
                    t = self.tensors[i]
                    view = self.data[start:start + size].reshape(t.data.shape)
                    view[...] = t.data
                    t.data, t.grad = view, None
                    t.grad_view = self.grad[start:start + size].reshape(view.shape)
                    start += size

    def grad_norm(self) -> float:
        """Global L2 norm of the gradients: each tensor's sum of squares,
        added one at a time in tensor order."""
        sums = np.empty(len(self.tensors))
        for block, members in self._blocks:
            sums[members] = (block * block).sum(axis=1)  # one row's sum is its tensor's (g*g).sum()
        total = 0.0
        for s in sums.tolist():  # not sum(): from Python 3.12 it adds floats with compensation
            total += s
        return math.sqrt(total)

    def zero_grads(self) -> None:
        """Set every ``.grad`` to None and the gradient vector to zero; a
        vector no tensor holds a gradient in is already zero and left alone."""
        if any(t.grad is not None for t in self.tensors):
            self.grad.fill(0.0)
        for t in self.tensors:
            t.grad = None


# ---------------------------------------------------------------------------
# gradient verification
# ---------------------------------------------------------------------------


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """Compare analytic gradients of scalar-valued `f` against central differences.

    Returns max over coordinates of |analytic - numeric| / max(|analytic|,
    |numeric|, 1e-8).  `f` must rebuild its graph on each call and not mutate
    external state.
    """
    if not x.requires_grad:
        raise ValueError("grad_check input must require grad")
    x.grad = None
    out = f(x)
    if out.size != 1:
        raise DimensionError(f"grad_check target must be scalar, got shape {out.shape}")
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f(x).data.reshape(-1)[0])
            flat[i] = orig - h
            fm = float(f(x).data.reshape(-1)[0])
            flat[i] = orig
            num_flat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    x.grad = None
    return float(rel.max()) if rel.size else 0.0
