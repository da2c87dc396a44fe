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
The band and the sublayer each have an array-level forward and a written-out
backward, from which :func:`transformer_layer` records one autodiff graph
node per layer: a default-config cross-entropy loss graph has 191 nodes (136
of them parameters) at every document length.  They replay the op-by-op
graph kept in ``tests/helpers.py`` expression for expression and operand
layout for operand layout, and, as floating-point addition does not
associate, sum the layer input's gradient in that graph's order (see
:func:`_attention_backward`), so outputs and gradients keep their bits.

The heads are stacked along a leading axis: the projections, the band's
chunks and the parameter gradients run once for every head on (heads, rows,
d_head) arrays, and a 3-D matmul makes one BLAS call per slice.  Each slice
keeps the layout one head's operand had, as BLAS may round another layout
differently: the stacked transposed weights are copied to C order (a stack
of ``W.T`` views is F-ordered per slice); gathered global rows are
contiguous and the merged heads C-ordered (with d_head 1 a fancy-indexed
gather is strided and a transpose an F-ordered view); and the global keys'
gradient stays a transposed view, so its bias sum runs pairwise along rows.

A recording forward saves only what its backward reads and cannot rebuild
as the same bytes: the stacked projections and the softmax probabilities of
each band chunk and each head's global rows; the backward rebuilds the
key-span copies and probability halves as the forward built them.  The FFN
saves its hidden layer and rebuilds the ReLU mask as ``hidden > 0``.  Under
:func:`~sectsum.autodiff.no_grad` nothing is saved: one chunk's
probabilities and one head's (globals × rows) scores are alive at a time.

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
    return np.ascontiguousarray(a[..., :at]), np.ascontiguousarray(a[..., at:])


def _band_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray, layout: BandLayout, keep: bool):
    """Chunked band attention for every head, and, when `keep`, the state its backward reuses.

    Each chunk of w query rows scores its 3w key span; the glob columns are masked out of the band and
    appended as extra targets for every row (so band ∩ global never double counts).  Pad rows are zeros.
    """
    glob = layout.glob
    k_glob_t = k.take(glob, axis=1).mT.copy()
    v_glob = v.take(glob, axis=1)
    saved, outs = [], []
    for lo, hi, klo, khi, additive in layout.chunks:
        q_c = q[:, lo:hi]
        scores = q_c @ k[:, klo:khi].mT.copy() + additive
        if glob.size:
            scores = np.concatenate([scores, q_c @ k_glob_t], axis=2)
        probs = ad.softmax_forward(scores, axis=2)
        p_band, p_glob = _split_columns(probs, khi - klo)
        out = p_band @ v[:, klo:khi]
        if glob.size:
            out = out + p_glob @ v_glob
        outs.append(out)
        if keep:
            saved.append(probs)
        del probs, p_band, p_glob  # not alive in the next chunk's softmax
    banded = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=1)
    return banded * layout.valid_col, (q, k, v, k_glob_t, v_glob, saved) if keep else None


def _band_backward(g: np.ndarray, state: tuple, layout: BandLayout, d_qkv: np.ndarray) -> None:
    """Write the (dq, dk, dv) of :func:`_band_forward` into the zeros `d_qkv`:
    the softmax Jacobian-vector product per chunk; dk and dv sum the
    overlapping spans in chunk order, then add the glob columns."""
    q, k, v, k_glob_t, v_glob, saved = state
    dq, dk, dv = d_qkv
    glob = layout.glob
    g = g * layout.valid_col
    dk_glob = dv_glob = 0.0
    for (lo, hi, klo, khi, _), probs in zip(layout.chunks, saved):
        q_c, g_c = q[:, lo:hi], g[:, lo:hi]
        dp = g_c @ v[:, klo:khi].mT
        if glob.size:
            dp = np.concatenate([dp, g_c @ v_glob.mT], axis=2)
        ds_band, ds_glob = _split_columns(ad.softmax_backward(probs, dp, axis=2), khi - klo)
        del dp  # every head's chunk: freed before the copies below
        # rebuilt as the forward built them, copies and all, so the matmuls see the same operands
        k_span_t = k[:, klo:khi].mT.copy()
        p_band, p_glob = _split_columns(probs, khi - klo)
        dq[:, lo:hi] = ds_band @ k_span_t.mT
        dk[:, klo:khi] += (q_c.mT @ ds_band).mT
        dv[:, klo:khi] += p_band.mT @ g_c
        if glob.size:
            dq[:, lo:hi] += ds_glob @ k_glob_t.mT
            dk_glob = dk_glob + (q_c.mT @ ds_glob).mT
            dv_glob = dv_glob + p_glob.mT @ g_c
    if glob.size:
        dk[:, glob] += dk_glob
        dv[:, glob] += dv_glob


def _attention_linears(params: AttentionParams, with_global: bool) -> tuple[list[ad.Linear], list[ad.Linear]]:
    """Kind-major, heads within each kind: the projections of every row, then the global queries."""
    parts = ("query", "key", "value") + (("global_value", "global_key") if with_global else ())
    every_row = [getattr(head, part) for part in parts for head in params.heads]
    return every_row, [head.global_query for head in params.heads] if with_global else []


def _attention_tensors(params: AttentionParams, with_global: bool) -> list[ad.Tensor]:
    """The parameters the attention sublayer reads; the global projections only with global rows."""
    every_row, global_queries = _attention_linears(params, with_global)
    return [t for lin in every_row + global_queries + [params.output] for t in (lin.weight, lin.bias)]


def _project(x: np.ndarray, linears: list[ad.Linear]) -> tuple[np.ndarray, np.ndarray]:
    """`x @ W.T + b` for a stack of projections in one matmul, and the stacked transposed weights."""
    # a C-order copy: each slice is the `W.T.copy()` that :func:`ad.linear_forward` multiplies by
    wt = np.stack([lin.weight.data for lin in linears]).mT.copy()
    out = x @ wt
    out += np.stack([lin.bias.data for lin in linears])[:, None]
    return out, wt


def _project_backward(g: np.ndarray, x: np.ndarray, linears: list[ad.Linear]) -> None:
    """Add each projection's bias and weight gradients of :func:`_project` into the running sweep."""
    for lin, d_bias, d_weight in zip(linears, g.sum(axis=1), x.T @ g):
        ad._accumulate(lin.bias, d_bias)
        ad._accumulate(lin.weight, d_weight.T)


def _input_gradient(g: np.ndarray, wt: np.ndarray) -> np.ndarray:
    """The input gradient `g @ W` of :func:`_project`'s projections `wt` (one, or a stack)."""
    return g @ wt.mT


def _attention_forward(x: np.ndarray, layout: BandLayout, params: AttentionParams, keep: bool):
    """The sparse attention sublayer on arrays: its output and, when `keep`,
    the state :func:`_attention_backward` reads (else None)."""
    glob, n_heads = layout.glob, len(params.heads)
    inv_sqrt_d = 1.0 / math.sqrt(params.heads[0].query.out_features)
    every_row, global_queries = _attention_linears(params, bool(glob.size))
    proj, wt = _project(x, every_row)
    proj[:n_heads] *= inv_sqrt_d
    out, band = _band_forward(*proj[:3 * n_heads].reshape(3, n_heads, len(x), -1), layout, keep)
    rows = None
    if glob.size:
        q_glob, q_glob_wt = _project(x[glob], global_queries)
        q_glob *= inv_sqrt_d
        kg_t = proj[4 * n_heads:].mT.copy()
        placed = np.zeros_like(out)
        saved = []
        for h in range(n_heads):
            probs = ad.softmax_forward(q_glob[h] @ kg_t[h] + layout.valid_scores, axis=1)
            placed[h, glob] = probs @ proj[3 * n_heads + h]
            if keep:
                saved.append(probs)
            del probs  # not alive in the next head's softmax
        out = out * layout.keep_col + placed
        rows = (q_glob, q_glob_wt, kg_t, saved)
    # C order even where the transpose alone would be a view (d_head 1): the per-head concatenation's layout
    merged = np.ascontiguousarray(out.transpose(1, 0, 2)).reshape(len(x), -1)
    projected, out_wt = ad.linear_forward(merged, params.output)
    state = (x, proj, wt, every_row, global_queries, band, rows, merged, out_wt, inv_sqrt_d) if keep else None
    return projected * layout.valid_col, state


def _attention_backward(
    g: np.ndarray, state: tuple, layout: BandLayout, params: AttentionParams, dx: np.ndarray | None
) -> np.ndarray:
    """Route the sublayer's parameter gradients; add its input gradient into `dx` (in place) and return it.

    The input gradient is summed one projection at a time in the order the
    op-by-op graph's sweep summed it, as floating-point addition does not
    associate: per head, ascending, the query, key and value, then the global
    query's rows put in place, the global keys and the global values.  A `dx`
    of None takes the first contribution as is.
    """
    x, proj, wt, every_row, global_queries, band, rows, merged, out_wt, inv_sqrt_d = state
    glob, n_heads = layout.glob, len(params.heads)
    g_merged = ad.linear_backward(g * layout.valid_col, merged, out_wt, params.output)
    g = np.ascontiguousarray(g_merged.reshape(len(x), n_heads, -1).transpose(1, 0, 2))
    # query, key, value and global value gradients; the global keys' stays the transposed view (qg.T @ ds).T was
    d_proj = np.zeros_like(proj[:4 * n_heads])
    if glob.size:
        q_glob, q_glob_wt, kg_t, saved = rows
        g_glob = g.take(glob, axis=1)
        d_q_glob, d_kg = np.empty_like(q_glob), np.empty_like(kg_t).mT
        for h, probs in enumerate(saved):
            ds = ad.softmax_backward(probs, g_glob[h] @ proj[3 * n_heads + h].T, axis=1)
            d_q_glob[h] = (ds @ kg_t[h].T) * inv_sqrt_d
            d_kg[h] = (q_glob[h].T @ ds).T
            d_proj[3 * n_heads + h] = probs.T @ g_glob[h]
        g = g * layout.keep_col
    _band_backward(g, band, layout, d_proj[:3 * n_heads].reshape(3, *g.shape))
    d_proj[:n_heads] *= inv_sqrt_d
    _project_backward(d_proj, x, every_row[:len(d_proj)])
    if glob.size:
        _project_backward(d_kg, x, every_row[len(d_proj):])
        _project_backward(d_q_glob, x[glob], global_queries)
        placed = np.zeros_like(x)
    # -0.0 is the additive identity, so a first contribution lands as is
    dx = np.full_like(x, -0.0) if dx is None else dx
    for h in range(n_heads):
        # one head at a time: every head's (rows × d_model) contributions at once cost MBs on long documents
        d_x = _input_gradient(d_proj[h::n_heads], wt[h:len(d_proj):n_heads])  # query, key, value(, global value)
        for d in d_x[:3]:
            dx += d
        if glob.size:
            # global rows are unique, so this is the 0.0 + d that += into zeros gave (-0.0 lands as 0.0)
            placed[glob] = _input_gradient(d_q_glob[h], q_glob_wt[h]) + 0.0
            for d in (placed, _input_gradient(d_kg[h], wt[len(d_proj) + h]), d_x[3]):
                dx += d
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
