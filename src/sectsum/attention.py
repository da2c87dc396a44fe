"""Sparse sentence-level attention: sliding window plus global positions.

The mask encodes, per padded position, 0 = padding, 1 = local attention,
2 = local + global.  Local attention is banded (each position sees up to w
neighbors on each side) and computed chunk-wise — w query rows at a time
against a 3w-wide key span — so cost stays O(n·w) and no n×n matrix is ever
materialized.  Global rows recompute their output over all valid positions
through a separate set of projections, and every row may attend *to* the
global columns (symmetric visibility).

Pad positions are excluded with additive -1e9 scores before the softmax, and
pad rows are zeroed after it: a softmax over an all-masked row is uniform
noise, so an explicit validity multiply is required.

Everything the path needs from the mask alone (the band chunks and their
additive masks, the global rows, the validity columns) is its
:class:`BandLayout`, built once per mask and shared by every layer and every
forward that reuses the mask.

The sliding view and the sparse layer run one path (:func:`global_attention`).
The band, the global rows and the sublayer each have an array-level forward
and a written-out backward, from which :func:`transformer_layer` records one
autodiff graph node per layer: a default-config cross-entropy loss graph has
191 nodes (136 of them parameters) at every document length.  They replay
the op-by-op graph kept in ``tests/helpers.py`` expression for expression
and operand layout for operand layout, and, as floating-point addition does
not associate, sum the layer input's gradient in that graph's order (see
:func:`_attention_backward`), so outputs and gradients keep their bits.

A recording forward saves only what its backward reads and cannot rebuild
as the same bytes.  Per chunk, the band saves its bounds, its query rows (a
view) and its softmax probabilities, plus the head's keys; the backward
rebuilds the transposed key-span copy and the contiguous band and global
halves of the probabilities exactly as the forward built them (copies, not
views: BLAS may round a strided operand differently).  The FFN saves its
hidden layer and rebuilds the ReLU mask as ``hidden > 0``.  Under
:func:`~sectsum.autodiff.no_grad` nothing is saved for backward, so only one
head's intermediates are alive at a time.

The heads of a sublayer are independent until they are merged, so while
`train` runs, :func:`sectsum.workers.split_heads` may hand the upper half of
them to a forked worker process (see ``_head_worker``).  Both processes run
:func:`_head_forward` and :func:`_head_backward` on the same operands; the
worker returns each projection's gradients unsummed, and
:func:`_attention_backward` adds them in the serial order, so the split keeps
every bit, and this process holds no saved state of the worker's heads.

:func:`full_attention_reference` is a dense O(n²) form written out on its
own, the oracle in tests and the quadratic baseline in benchmarks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

NEG_INF = -1e9


@dataclass(frozen=True)
class BandLayout:
    """What the sparse path derives from one document's mask, parameters aside."""

    valid_col: np.ndarray     # float column: 1 on real rows, 0 on pad rows
    glob: np.ndarray          # global rows, ascending
    keep_col: np.ndarray      # float column: valid rows that are not global
    valid_scores: np.ndarray  # additive score row: 0 on valid columns, NEG_INF on pad
    chunks: list[tuple]       # see _band_chunks


@dataclass(frozen=True)
class AttentionMask:
    """Per-document padded attention pattern.

    values[b][i] is 0 for padding, 1 for local-only, 2 for local+global.
    padded_len is always a multiple of the window.
    """

    values: np.ndarray
    window: int
    padded_len: int

    @functools.cached_property
    def layout(self) -> BandLayout:
        """The band layout of the first (in practice the only) document.

        Built on first use and kept with the mask, so every layer, and every
        forward that reuses the mask, shares one.
        """
        row = self.values[0]
        valid = row > 0
        glob = np.nonzero(row == 2)[0]
        keep_local = valid.copy()
        keep_local[glob] = False
        return BandLayout(
            valid_col=valid.astype(np.float64)[:, None],
            glob=glob,
            keep_col=keep_local.astype(np.float64)[:, None],
            valid_scores=np.where(valid, 0.0, NEG_INF)[None, :],
            chunks=_band_chunks(valid, self.window, glob),
        )


def build_attention_mask(
    doc_lengths: list[int],
    window: int,
    global_positions: list[list[int]] | None = None,
) -> AttentionMask:
    """Build the 0/1/2 mask for a batch of documents.

    padded_len is the smallest multiple of `window` covering
    max(doc_lengths); global positions must index real sentences of their
    document.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not doc_lengths:
        raise ValueError("doc_lengths must be nonempty")
    for b, n in enumerate(doc_lengths):
        if n < 1:
            raise ValueError(f"doc {b}: length must be >= 1, got {n}")
    padded_len = ((max(doc_lengths) + window - 1) // window) * window
    values = np.zeros((len(doc_lengths), padded_len), dtype=np.int8)
    for b, n in enumerate(doc_lengths):
        values[b, :n] = 1
    if global_positions is not None:
        if len(global_positions) != len(doc_lengths):
            raise ValueError(
                f"global_positions has {len(global_positions)} entries for "
                f"{len(doc_lengths)} documents"
            )
        for b, positions in enumerate(global_positions):
            for p in positions:
                if not 0 <= p < doc_lengths[b]:
                    raise ValueError(
                        f"doc {b}: global position {p} outside document of length {doc_lengths[b]}"
                    )
                values[b, p] = 2
    return AttentionMask(values=values, window=window, padded_len=padded_len)


def select_global(n: int, ratio_percent: float, policy: str = "stride", seed: int = 0) -> list[int]:
    """Pick k = round(n·ratio/100) global positions, sorted ascending.

    stride: the centers of k equal strides (deterministic, evenly spread);
    random: seeded sample without replacement.
    """
    if not 0 <= ratio_percent <= 100:
        raise ValueError(f"global ratio must be in [0, 100], got {ratio_percent}")
    k = min(n, int(math.floor(n * ratio_percent / 100.0 + 0.5)))
    if k <= 0:
        return []
    if policy == "stride":
        return [int(math.floor((i + 0.5) * n / k)) for i in range(k)]
    if policy == "random":
        rng = np.random.default_rng(seed)
        return sorted(int(x) for x in rng.choice(n, size=k, replace=False))
    raise ValueError(f"unknown global selection policy {policy!r}")


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


@dataclass
class HeadParams:
    query: ad.Linear
    key: ad.Linear
    value: ad.Linear
    global_query: ad.Linear
    global_key: ad.Linear
    global_value: ad.Linear


@dataclass
class AttentionParams:
    """One transformer layer: per-head projections, output proj, FFN, norms."""

    heads: list[HeadParams]
    output: ad.Linear
    ffn_inner: ad.Linear
    ffn_outer: ad.Linear
    attn_gain: ad.Tensor
    attn_bias: ad.Tensor
    ffn_gain: ad.Tensor
    ffn_bias: ad.Tensor

    @property
    def d_model(self) -> int:
        return self.output.out_features


def init_attention_params(
    rng: np.random.Generator, d_model: int, n_heads: int, ffn_dim: int
) -> AttentionParams:
    if d_model % n_heads != 0:
        raise ValueError(f"heads ({n_heads}) must divide d_model ({d_model})")
    d_head = d_model // n_heads
    heads = [
        HeadParams(
            query=ad.init_linear(rng, d_head, d_model),
            key=ad.init_linear(rng, d_head, d_model),
            value=ad.init_linear(rng, d_head, d_model),
            global_query=ad.init_linear(rng, d_head, d_model),
            global_key=ad.init_linear(rng, d_head, d_model),
            global_value=ad.init_linear(rng, d_head, d_model),
        )
        for _ in range(n_heads)
    ]
    return AttentionParams(
        heads=heads,
        output=ad.init_linear(rng, d_model, d_model),
        ffn_inner=ad.init_linear(rng, ffn_dim, d_model),
        ffn_outer=ad.init_linear(rng, d_model, ffn_dim),
        attn_gain=ad.init_param(rng, (d_model,)),
        attn_bias=ad.init_param(rng, (d_model,)),
        ffn_gain=ad.init_param(rng, (d_model,)),
        ffn_bias=ad.init_param(rng, (d_model,)),
    )


def _check_inputs(x: ad.Tensor, mask: AttentionMask, params: AttentionParams, heads: int):
    if mask.values.shape[0] != 1:
        raise ad.DimensionError(
            f"attention ops process one document at a time; mask batch is {mask.values.shape[0]}"
        )
    n_pad = mask.padded_len
    if x.shape != (n_pad, params.d_model):
        raise ad.DimensionError(f"input {x.shape} does not match (padded_len={n_pad}, d={params.d_model})")
    if n_pad % mask.window != 0:
        raise ValueError(f"padded length {n_pad} is not a multiple of window {mask.window}")
    if len(params.heads) != heads:
        raise ad.DimensionError(f"params carry {len(params.heads)} heads, caller asked for {heads}")


def _band_chunks(valid: np.ndarray, window: int, glob: np.ndarray) -> list[tuple]:
    """Per chunk of w query rows: (lo, hi, klo, khi, additive band mask).

    The key span [klo, khi) reaches w past the chunk on each side; the mask
    keeps |i - j| <= w over valid, non-glob columns.  It is float32, which
    holds 0 and NEG_INF exactly, and adding it to float64 scores gives
    float64, so it costs half the memory for the same scores.
    """
    n_pad = valid.size
    band_ok = valid.copy()
    band_ok[glob] = False
    positions = np.arange(n_pad)
    chunks = []
    for lo in range(0, n_pad, window):
        hi = lo + window
        klo, khi = max(0, lo - window), min(n_pad, hi + window)
        in_band = (
            np.abs(positions[lo:hi, None] - positions[None, klo:khi]) <= window
        ) & band_ok[None, klo:khi]
        chunks.append((lo, hi, klo, khi, np.where(in_band, np.float32(0.0), np.float32(NEG_INF))))
    return chunks


def _split_columns(a: np.ndarray, at: int) -> tuple[np.ndarray, np.ndarray]:
    # contiguous halves: BLAS may round a strided operand differently
    return np.ascontiguousarray(a[:, :at]), np.ascontiguousarray(a[:, at:])


def _band_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, layout: BandLayout) -> tuple[np.ndarray, tuple]:
    """Chunked band attention for one head, and the state its backward reuses.

    Each chunk of w query rows scores its 3w key span; the glob columns are
    masked out of the band and appended as extra targets for every row (so
    band ∩ global never double counts).  Pad rows come out as zeros.  Every
    matmul operand keeps the layout the op-by-op graph gave it (transposed
    key copies, contiguous probability halves), as BLAS may round another
    layout differently.
    """
    glob = layout.glob
    k_glob_t = k[glob].T.copy()
    v_glob = v[glob]
    saved = []
    outs = []
    for lo, hi, klo, khi, additive in layout.chunks:
        q_c = q[lo:hi]
        k_span_t = k[klo:khi].T.copy()
        scores = q_c @ k_span_t + additive
        if glob.size:
            scores = np.concatenate([scores, q_c @ k_glob_t], axis=1)
        probs = ad.softmax_forward(scores, axis=1)
        p_band, p_glob = _split_columns(probs, khi - klo)
        out = p_band @ v[klo:khi]
        if glob.size:
            out = out + p_glob @ v_glob
        outs.append(out)
        saved.append((lo, hi, klo, khi, q_c, probs))
    banded = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)
    return banded * layout.valid_col, (k, v, k_glob_t, v_glob, saved)


def _band_backward(g: np.ndarray, state: tuple, layout: BandLayout) -> tuple[np.ndarray, ...]:
    """(dq, dk, dv) of :func:`_band_forward`: the softmax Jacobian-vector
    product per chunk; dk and dv sum the overlapping spans in chunk order,
    then add the glob columns."""
    k, v, k_glob_t, v_glob, saved = state
    glob = layout.glob
    g = g * layout.valid_col
    dq, dk, dv = np.zeros_like(v), np.zeros_like(v), np.zeros_like(v)
    dk_glob = dv_glob = 0.0
    for lo, hi, klo, khi, q_c, probs in saved:
        # rebuilt as the forward built them, copies and all, so the matmuls see the same operands
        k_span_t = k[klo:khi].T.copy()
        p_band, p_glob = _split_columns(probs, khi - klo)
        g_c = g[lo:hi]
        dp = g_c @ v[klo:khi].T
        if glob.size:
            dp = np.concatenate([dp, g_c @ v_glob.T], axis=1)
        ds_band, ds_glob = _split_columns(ad.softmax_backward(probs, dp, axis=1), khi - klo)
        dq[lo:hi] = ds_band @ k_span_t.T
        dk[klo:khi] += (q_c.T @ ds_band).T
        dv[klo:khi] += p_band.T @ g_c
        if glob.size:
            dq[lo:hi] += ds_glob @ k_glob_t.T
            dk_glob = dk_glob + (q_c.T @ ds_glob).T
            dv_glob = dv_glob + p_glob.T @ g_c
    if glob.size:
        dk[glob] += dk_glob
        dv[glob] += dv_glob
    return dq, dk, dv


def _global_rows_forward(
    local: np.ndarray, q_glob: np.ndarray, k: np.ndarray, v: np.ndarray, layout: BandLayout, inv_sqrt_d: float
) -> tuple[np.ndarray, tuple]:
    """Replace the glob rows of `local` by attention over all valid positions.

    `q_glob` holds the glob rows' query projections before the 1/√d scale;
    they score every key, pad columns masked, and their softmax-weighted
    values overwrite those rows of the banded output.
    """
    qg = q_glob * inv_sqrt_d
    kt = k.T.copy()
    probs = ad.softmax_forward(qg @ kt + layout.valid_scores, axis=1)
    placed = np.zeros_like(local)
    placed[layout.glob] = probs @ v
    return local * layout.keep_col + placed, (qg, kt, v, probs)


def _global_rows_backward(
    g: np.ndarray, state: tuple, layout: BandLayout, inv_sqrt_d: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d local, d q_glob, dk, dv) of :func:`_global_rows_forward`."""
    qg, kt, v, probs = state
    g_glob = g[layout.glob]
    ds = ad.softmax_backward(probs, g_glob @ v.T, axis=1)
    return g * layout.keep_col, (ds @ kt.T) * inv_sqrt_d, (qg.T @ ds).T, probs.T @ g_glob


def _attention_tensors(params: AttentionParams, with_global: bool) -> list[ad.Tensor]:
    """The parameters the attention sublayer reads; the global projections only with global rows."""
    parts = ("query", "key", "value") + (("global_query", "global_key", "global_value") if with_global else ())
    linears = [getattr(head, part) for head in params.heads for part in parts] + [params.output]
    return [t for lin in linears for t in (lin.weight, lin.bias)]


def _plus(total: np.ndarray | None, d: np.ndarray) -> np.ndarray:
    return d if total is None else total + d


def _projections(head: HeadParams) -> tuple[ad.Linear, ...]:
    """A head's projections in the order its backward routes them."""
    return (head.query, head.key, head.value, head.global_query, head.global_key, head.global_value)


def _inv_sqrt_d(params: AttentionParams) -> float:
    return 1.0 / math.sqrt(params.heads[0].query.out_features)


def _head_forward(x: np.ndarray, head: HeadParams, layout: BandLayout, inv_sqrt_d: float, keep: bool):
    """One head's projections, band and global rows: its output and, when
    `keep`, the state its backward reads (else None, and each part is freed
    as soon as the next is built)."""
    q, q_wt = ad.linear_forward(x, head.query)
    k, k_wt = ad.linear_forward(x, head.key)
    v, v_wt = ad.linear_forward(x, head.value)
    out, band = _band_forward(q * inv_sqrt_d, k, v, layout)
    if not keep:
        band = None
    if not layout.glob.size:
        return out, (q_wt, k_wt, v_wt, band, None) if keep else None
    x_glob = x[layout.glob]
    qg, qg_wt = ad.linear_forward(x_glob, head.global_query)
    kg, kg_wt = ad.linear_forward(x, head.global_key)
    vg, vg_wt = ad.linear_forward(x, head.global_value)
    out, rows = _global_rows_forward(out, qg, kg, vg, layout, inv_sqrt_d)
    return out, (q_wt, k_wt, v_wt, band, (rows, x_glob, qg_wt, kg_wt, vg_wt)) if keep else None


def _head_backward(g: np.ndarray, x: np.ndarray, state: tuple, layout: BandLayout, inv_sqrt_d: float):
    """One head's gradients, one projection at a time in :func:`_projections`
    order (the global three only with global rows): yields its (bias, weight,
    input contribution).  The global query's contribution is its gathered rows
    put in place.  Lazy, so only one projection's gradients are alive at once."""
    q_wt, k_wt, v_wt, band, global_state = state
    if global_state is not None:
        rows, x_glob, qg_wt, kg_wt, vg_wt = global_state
        g, dqg, dkg, dvg = _global_rows_backward(g, rows, layout, inv_sqrt_d)
    dq, dk, dv = _band_backward(g, band, layout)
    yield ad.linear_grads(dq * inv_sqrt_d, x, q_wt)
    yield ad.linear_grads(dk, x, k_wt)
    yield ad.linear_grads(dv, x, v_wt)
    if global_state is not None:
        d_bias, d_weight, d_rows = ad.linear_grads(dqg, x_glob, qg_wt)
        gathered = np.zeros_like(x)
        gathered[layout.glob] += d_rows  # global rows are unique, so each entry is 0.0 + d (-0.0 lands as 0.0)
        yield d_bias, d_weight, gathered
        yield ad.linear_grads(dkg, x, kg_wt)
        yield ad.linear_grads(dvg, x, vg_wt)


def _route(head: HeadParams, grads, dx: np.ndarray | None) -> np.ndarray:
    """Add a head's parameter gradients into the sweep, and its input
    contributions to `dx` one at a time."""
    for lin, (d_bias, d_weight, contribution) in zip(_projections(head), grads):
        ad._accumulate(lin.bias, d_bias)
        ad._accumulate(lin.weight, d_weight)
        dx = _plus(dx, contribution)
    return dx


# The head worker of a running `train` (a workers.HeadWorker, set and cleared
# by workers.split_heads), else None.  Like autodiff's recording switch it is
# process state: the sublayers it knows run heads [H/2, H) in its process.
_head_worker = None


def _attention_forward(x: np.ndarray, layout: BandLayout, params: AttentionParams, keep: bool):
    """The sparse attention sublayer on arrays: its output and, when `keep`,
    the state :func:`_attention_backward` reads (else None).

    With a head worker that knows this sublayer, the worker runs the upper
    half of the heads while this process runs the lower half, on the same
    operands, so the merged heads keep their bits.
    """
    inv_sqrt_d = _inv_sqrt_d(params)
    remote = None if _head_worker is None else _head_worker.forward(x, layout, params, keep)
    per_head, heads_state = [], []
    for head in params.heads if remote is None else params.heads[:remote.first]:
        out, state = _head_forward(x, head, layout, inv_sqrt_d, keep)
        per_head.append(out)
        heads_state.append(state)
    if remote is not None:
        per_head.extend(remote.outputs())
    merged = per_head[0] if len(per_head) == 1 else np.concatenate(per_head, axis=1)
    projected, out_wt = ad.linear_forward(merged, params.output)
    state = (x, merged, out_wt, heads_state, inv_sqrt_d, remote) if keep else None
    return projected * layout.valid_col, state


def _attention_backward(
    g: np.ndarray, state: tuple, layout: BandLayout, params: AttentionParams, dx: np.ndarray | None
) -> np.ndarray:
    """Route the sublayer's parameter gradients; return `dx` plus its input gradient.

    The input gradient is summed one contribution at a time in the order the
    op-by-op graph's sweep summed it, heads ascending (see
    :func:`_head_backward`), as floating-point addition does not associate;
    summing a head's contributions first changes bits.  A `dx` of None takes
    the first contribution as is; that is a head of this process, so no
    contribution the worker shares is kept.
    """
    x, merged, out_wt, heads_state, inv_sqrt_d, remote = state
    g_merged = ad.linear_backward(g * layout.valid_col, merged, out_wt, params.output)
    if remote is not None:
        remote.backward(g_merged)
    d_head = g_merged.shape[1] // len(params.heads)
    for h, (head, head_state) in enumerate(zip(params.heads, heads_state)):
        g_head = g_merged[:, h * d_head:(h + 1) * d_head]
        dx = _route(head, _head_backward(g_head, x, head_state, layout, inv_sqrt_d), dx)
    if remote is not None:
        for head, grads in zip(params.heads[remote.first:], remote.gradients()):
            dx = _route(head, grads, dx)
    return dx


def _ffn_forward(h: np.ndarray, params: AttentionParams, keep: bool):
    """Linear → ReLU → Linear on arrays, and, when `keep`, the state its backward reads (else None)."""
    inner, inner_wt = ad.linear_forward(h, params.ffn_inner)
    hidden = np.where(inner > 0, inner, 0.0)
    del inner  # not read again: without it, only the hidden layer's array is alive in the outer matmul
    out, outer_wt = ad.linear_forward(hidden, params.ffn_outer)
    return out, (inner_wt, hidden, outer_wt) if keep else None


def _add_norm(x: np.ndarray, sub: np.ndarray, gain: ad.Tensor, bias: ad.Tensor, keep: bool):
    """x + LayerNorm(sub), and, when `keep`, the state the LayerNorm's backward reads (else None)."""
    normed, state = ad.layer_norm_forward(sub, gain, bias)
    return x + normed, state if keep else None


def sliding_window_attention(
    x: ad.Tensor, mask: AttentionMask, params: AttentionParams, window: int, heads: int
) -> ad.Tensor:
    """Pure banded local attention at `window`; global marks count as local."""
    local = AttentionMask(values=np.minimum(mask.values, 1), window=window, padded_len=mask.padded_len)
    return global_attention(x, local, params, heads)


def global_attention(x: ad.Tensor, mask: AttentionMask, params: AttentionParams, heads: int) -> ad.Tensor:
    """The full sparse attention: banded local plus symmetric global visibility.

    Per head, every row attends to its chunked band plus the global columns;
    rows marked 2 then replace that output with one over all valid positions
    through the separate global projections.  The heads are merged,
    output-projected and pad rows zeroed.  With no global rows this is
    :func:`sliding_window_attention`.  Records one graph node.
    """
    _check_inputs(x, mask, params, heads)
    layout = mask.layout
    parents = (x, *_attention_tensors(params, bool(layout.glob.size)))
    out, state = _attention_forward(x.data, layout, params, ad.recording(parents))

    def backward(g: np.ndarray) -> None:
        ad._accumulate(x, _attention_backward(g, state, layout, params, None))

    return ad._make(out, parents, backward)


def full_attention_reference(
    x: ad.Tensor, mask: AttentionMask, params: AttentionParams, heads: int
) -> ad.Tensor:
    """Dense O(n²) attention with identical semantics; oracle/baseline only.

    Kept apart from :func:`global_attention`, global branch included, so tests
    check the sparse path against independent code.
    """
    _check_inputs(x, mask, params, heads)
    mask_vals = mask.values[0]
    n_pad = mask.padded_len
    valid = mask_vals > 0
    glob_flags = mask_vals == 2
    glob = np.nonzero(glob_flags)[0]
    d_head = params.heads[0].query.out_features

    positions = np.arange(n_pad)
    in_band = np.abs(positions[:, None] - positions[None, :]) <= mask.window
    # local rows: banded valid non-global targets, plus every global column
    local_allowed = (in_band & valid[None, :] & ~glob_flags[None, :]) | glob_flags[None, :]
    local_additive = np.where(local_allowed, 0.0, NEG_INF)

    per_head = []
    for head in params.heads:
        q = ad.scale(head.query(x), 1.0 / math.sqrt(d_head))
        scores = ad.add(ad.matmul(q, ad.transpose(head.key(x))), ad.Tensor(local_additive))
        local_out = ad.matmul(ad.softmax(scores, axis=1), head.value(x))
        local_out = ad.mul(local_out, ad.Tensor(valid.astype(np.float64)[:, None]))
        if glob.size:
            q_glob = ad.scale(head.global_query(ad.gather_rows(x, glob)), 1.0 / math.sqrt(d_head))
            g_scores = ad.matmul(q_glob, ad.transpose(head.global_key(x)))
            g_scores = ad.add(g_scores, ad.Tensor(np.where(valid, 0.0, NEG_INF)[None, :]))
            glob_out = ad.matmul(ad.softmax(g_scores, axis=1), head.global_value(x))
            keep_local = (valid & ~glob_flags).astype(np.float64)[:, None]
            local_out = ad.add(
                ad.mul(local_out, ad.Tensor(keep_local)), ad.scatter_rows(glob_out, glob, n_pad)
            )
        per_head.append(local_out)
    merged = per_head[0] if heads == 1 else ad.concat(per_head, axis=1)
    return ad.mul(params.output(merged), ad.Tensor(valid.astype(np.float64)[:, None]))


def transformer_layer(h_prev: ad.Tensor, mask: AttentionMask, params: AttentionParams) -> ad.Tensor:
    """One layer, keeping the residual-of-normalized-sublayer order:

    h~ = h_prev + LayerNorm(SparseAttention(h_prev))
    h  = h~ + LayerNorm(FFN(h~)),  FFN = Linear → ReLU → Linear

    Records one graph node.  Its backward sums the input gradient as the
    op-by-op graph did: the output gradient plus the FFN input's gradient,
    then the attention contributions of :func:`_attention_backward`.
    """
    _check_inputs(h_prev, mask, params, len(params.heads))
    layout = mask.layout
    parents = (
        h_prev,
        *_attention_tensors(params, bool(layout.glob.size)),
        params.ffn_inner.weight, params.ffn_inner.bias, params.ffn_outer.weight, params.ffn_outer.bias,
        params.attn_gain, params.attn_bias, params.ffn_gain, params.ffn_bias,
    )
    x = h_prev.data
    keep = ad.recording(parents)
    attn, attn_state = _attention_forward(x, layout, params, keep)
    h_mid, attn_norm = _add_norm(x, attn, params.attn_gain, params.attn_bias, keep)
    ff, ffn_state = _ffn_forward(h_mid, params, keep)
    out, ff_norm = _add_norm(h_mid, ff, params.ffn_gain, params.ffn_bias, keep)

    def backward(g: np.ndarray) -> None:
        inner_wt, hidden, outer_wt = ffn_state
        d_ff = ad.layer_norm_backward(g, ff_norm, params.ffn_gain, params.ffn_bias)
        d_hidden = ad.linear_backward(d_ff, hidden, outer_wt, params.ffn_outer)
        # hidden > 0 is inner > 0 element for element (NaN included), so the forward keeps no mask
        g_mid = g + ad.linear_backward(d_hidden * (hidden > 0), h_mid, inner_wt, params.ffn_inner)
        d_attn = ad.layer_norm_backward(g_mid, attn_norm, params.attn_gain, params.attn_bias)
        ad._accumulate(h_prev, _attention_backward(d_attn, attn_state, layout, params, g_mid))

    return ad._make(out, parents, backward)
