"""Forked workers: the CPUs a process may use, one fork lifecycle, and `train`'s head worker.

`cli` spreads the documents of `label` and `summarize` over the usable CPUs.
`train` cannot split its documents, as each one's update feeds the next, so
it splits each attention sublayer instead: the heads of one layer are
independent until they are merged.  :func:`split_heads` forks one
:class:`HeadWorker`, which runs heads [H/2, H) of every sublayer it was
given while the parent runs heads [0, H/2).

Both sides run the same per-head array code of :mod:`sectsum.attention` on
the same operands, so every output and gradient keeps its bits:

- the layer input (forward) and the merged heads' gradient (backward) reach
  the worker as C-contiguous copies, the layout the parent's heads read;
- the worker reads its heads' weights and biases, updates included, in
  the parameter store, which it shares with the parent;
- the worker sends back each head's output, and each projection's bias and
  weight gradients and input contribution, unsummed; the parent adds them
  in the order the serial loop does, heads ascending.

Requests and replies go through one anonymous shared memory block, sized
for the longest document, with one byte down a pipe each way; a worker's
error message follows its reply byte.  The worker keeps each sublayer's
backward state from its latest recording forward, tagged with a sequence
number, and refuses a backward for any other forward.  Each worker is a
:class:`Child`: one that dies fails the call with a :class:`WorkerError`,
and leaving the call, by return or by exception, kills and reaps it.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import signal

import numpy as np

from . import attention
from .attention import AttentionParams, BandLayout


class WorkerError(RuntimeError):
    """A worker process ended, or failed, without returning its results."""


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


class Child:
    """A forked process that runs ``body(*args)``, ignoring SIGINT (the parent
    decides when it stops), and exits 0 if the body returns, 1 if it raises.
    `who` and `what` name it and its results in the :class:`WorkerError` of
    one that ends otherwise; :meth:`kill` it on the way out."""

    def __init__(self, who: str, what: str, body, *args):
        self._who, self._what = who, what
        self.pid = os.fork()  # None once reaped
        if self.pid == 0:  # the child never returns from here
            code = 1
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                body(*args)
                code = 0
            finally:
                os._exit(code)

    def reap(self) -> None:
        """Wait for the child to end; a WorkerError unless it exited 0."""
        status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        self.pid = None
        if status != 0:
            how = f"was killed by signal {-status}" if status < 0 else f"exited {status}"
            raise WorkerError(f"{self._who} {how} before returning {self._what}")

    def kill(self) -> None:
        """Kill and reap the child, busy or not, unless it was reaped already."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


# A document shorter than this many padded rows runs all its heads in this
# process.  There a head's forward takes 0.2-0.5 ms, and what the split costs
# eats what it saves: the worker wakes ~0.1 ms after a request on a 2-vCPU VM,
# with cold caches, and the two vCPUs slow each other's small NumPy calls by
# a quarter or more.  Measured on such a VM (train, split against serial,
# paired runs): 40-sentence documents (pipeline-short) -7% to +4% over three
# sets, 100 +4%, 150 -1%, 200 +11%, and pipeline-long's 300-500 +12%.
_MIN_ROWS = 200


@contextlib.contextmanager
def split_heads(layers: list[AttentionParams], layouts: list[BandLayout]):
    """Run the upper half of the heads of `layers`, on documents of `layouts`,
    in one forked worker for the duration of the block.

    The parameters of `layers` are views of a
    :class:`~sectsum.autodiff.ParamStore`, as every ``Model``'s are: the
    worker reads them there.  Layers with one head, and documents of fewer
    than _MIN_ROWS padded rows, run in this process.  With one usable CPU,
    or nothing left to split, nothing is forked and the block runs as it
    would without this.
    """
    layers = [layer for layer in layers if len(layer.heads) >= 2]
    layouts = [layout for layout in layouts if layout.valid_col.shape[0] >= _MIN_ROWS]
    if not layers or not layouts or _usable_cpus() < 2:
        yield
        return
    worker = HeadWorker(layers, layouts)
    attention._head_worker = worker
    try:
        yield
    finally:
        attention._head_worker = None
        worker.close()


_FORWARD, _BACKWARD = 1, 2
_HEADER = 8  # int64 slots before the float64 data: op, layer, layout, seq, keep; 8 keeps it 64-byte aligned
_MESSAGE = 1024  # bytes of a worker's error message, sent after its reply byte: one pipe write


def _remote_heads(layer: AttentionParams) -> list:
    """The heads the worker runs: [H/2, H)."""
    return layer.heads[len(layer.heads) // 2:]


def _per_head(layer: AttentionParams, n: int) -> int:
    """Floats of one worker head's results at padded length n: its forward
    output, or its backward's six (bias, weight, contribution) triples."""
    d, d_head = layer.d_model, layer.heads[0].query.out_features
    return max(n * d_head, 6 * (d_head + d_head * d + n * d))


class HeadWorker:
    """One forked process that runs heads [H/2, H) of the sublayers of `layers`
    on documents whose band layouts are among `layouts` (see the module
    docstring).  Built by :func:`split_heads`, which also closes it.

    The shared block holds, after its header, the layer input or merged
    heads' gradient of the current request, then its results.
    """

    def __init__(self, layers: list[AttentionParams], layouts: list[BandLayout]):
        self._layers, self._layouts = layers, layouts
        self._layer_index = {id(layer): i for i, layer in enumerate(layers)}
        self._layout_index = {id(layout): i for i, layout in enumerate(layouts)}
        longest = max(layout.valid_col.shape[0] for layout in layouts)
        self._results = _HEADER + longest * max(layer.d_model for layer in layers)
        size = self._results + max(len(_remote_heads(layer)) * _per_head(layer, longest) for layer in layers)
        self._block = np.frombuffer(mmap.mmap(-1, 8 * size))
        self._header = self._block[:_HEADER].view(np.int64)
        self._seq = 0
        requests_r, self._requests = os.pipe()
        self._replies, replies_w = os.pipe()
        self._child = Child("the head worker process", "its heads' results", self._serve, requests_r, replies_w)
        os.close(requests_r)
        os.close(replies_w)

    def _io_array(self, n: int, d: int) -> np.ndarray:
        return self._block[_HEADER:_HEADER + n * d].reshape(n, d)

    # -- the parent's side -------------------------------------------------
    def forward(self, x: np.ndarray, layout: BandLayout, params: AttentionParams, keep: bool):
        """Start the worker heads' forward; a :class:`RemoteHeads` to collect
        it, or None when this worker does not know the sublayer or document."""
        li, pi = self._layer_index.get(id(params)), self._layout_index.get(id(layout))
        if li is None or pi is None:
            return None
        self._io_array(*x.shape)[...] = x
        if keep:
            self._seq += 1
        seq = self._seq if keep else 0
        self._send(_FORWARD, li, pi, seq, keep)
        return RemoteHeads(self, params, layout, li, pi, seq)

    def _send(self, op: int, *args: int) -> None:
        if self._child.pid is None:
            raise WorkerError("the head worker has stopped")
        self._header[:len(args) + 1] = (op, *args)
        try:
            os.write(self._requests, b"\1")
        except BrokenPipeError:
            self._child.reap()

    def _reply(self) -> None:
        # one read takes the whole reply: it is one write of at most 1 + _MESSAGE bytes, below PIPE_BUF
        reply = os.read(self._replies, 1 + _MESSAGE)
        if not reply:
            self._child.reap()
        if reply != b"\0":
            raise WorkerError(f"the head worker failed: {reply[1:].decode('utf-8', 'replace')}")

    def close(self) -> None:
        """Stop the worker, busy or not, and reap it."""
        os.close(self._requests)
        os.close(self._replies)
        self._child.kill()

    # -- the worker's side -------------------------------------------------
    def _serve(self, requests: int, replies: int) -> None:
        os.close(self._requests)
        os.close(self._replies)
        saved: dict[int, tuple] = {}  # layer index -> (seq, layout index, x, worker heads' states)
        while os.read(requests, 1):
            op, li, pi, seq, keep = (int(v) for v in self._header[:5])
            try:
                if op == _FORWARD:
                    self._serve_forward(li, pi, seq, bool(keep), saved)
                else:
                    self._serve_backward(li, pi, seq, saved)
                reply = b"\0"
            except Exception as e:  # reported to the parent, which raises it
                reply = b"\1" + f"{type(e).__name__}: {e}".encode("utf-8")[:_MESSAGE]
            os.write(replies, reply)

    def _serve_forward(self, li: int, pi: int, seq: int, keep: bool, saved: dict) -> None:
        layer, layout = self._layers[li], self._layouts[pi]
        n = layout.valid_col.shape[0]
        x = self._io_array(n, layer.d_model).copy()
        inv_sqrt_d = attention._inv_sqrt_d(layer)
        states = []
        o = self._results
        for head in _remote_heads(layer):
            out, state = attention._head_forward(x, head, layout, inv_sqrt_d, keep)
            self._block[o:o + out.size] = out.ravel()
            o += out.size
            states.append(state)
        if keep:
            saved[li] = (seq, pi, x, states)

    def _serve_backward(self, li: int, pi: int, seq: int, saved: dict) -> None:
        seq_saved, pi_saved, x, states = saved.get(li, (0, -1, None, None))
        if (seq_saved, pi_saved) != (seq, pi):
            raise RuntimeError(f"layer {li}: backward of forward {seq}, but the state kept is of forward {seq_saved}")
        layer, layout = self._layers[li], self._layouts[pi]
        n, d = x.shape
        g_merged = self._io_array(n, d).copy()
        first = len(layer.heads) // 2
        d_head = layer.heads[0].query.out_features
        inv_sqrt_d = attention._inv_sqrt_d(layer)
        block = self._block
        for j, state in enumerate(states):
            h = first + j
            g_head = g_merged[:, h * d_head:(h + 1) * d_head]
            o = self._results + j * _per_head(layer, n)
            for d_bias, d_weight, contribution in attention._head_backward(g_head, x, state, layout, inv_sqrt_d):
                block[o:o + d_head] = d_bias
                o += d_head
                block[o:o + d_weight.size] = d_weight.T.ravel()  # x.T @ g, C-contiguous
                o += d_weight.size
                block[o:o + contribution.size] = contribution.ravel()
                o += contribution.size


class RemoteHeads:
    """The worker's half of one sublayer call: its outputs, then its gradients."""

    def __init__(self, worker: HeadWorker, params: AttentionParams, layout: BandLayout,
                 li: int, pi: int, seq: int):
        self._worker, self._params, self._layout = worker, params, layout
        self._li, self._pi, self._seq = li, pi, seq
        self.first = len(params.heads) // 2  # the first head the worker runs

    def outputs(self) -> list[np.ndarray]:
        """The worker heads' outputs, as views of the block valid until the next request."""
        worker = self._worker
        worker._reply()
        n, d_head = self._layout.valid_col.shape[0], self._params.heads[0].query.out_features
        o, size = worker._results, n * d_head
        return [worker._block[o + j * size:o + (j + 1) * size].reshape(n, d_head)
                for j in range(len(self._params.heads) - self.first)]

    def backward(self, g_merged: np.ndarray) -> None:
        """Start the worker heads' backward from the merged heads' gradient."""
        self._worker._io_array(*g_merged.shape)[...] = g_merged
        self._worker._send(_BACKWARD, self._li, self._pi, self._seq, 1)

    def gradients(self):
        """Per worker head, its (bias, weight, input contribution) triples in
        projection order: gradients copied out, contributions views of the
        block valid until the next request."""
        worker = self._worker
        worker._reply()
        params, block = self._params, worker._block
        n, d = self._layout.valid_col.shape[0], params.d_model
        d_head = params.heads[0].query.out_features
        projections = 6 if self._layout.glob.size else 3
        for j in range(len(params.heads) - self.first):
            o = worker._results + j * _per_head(params, n)
            triples = []
            for _ in range(projections):
                d_bias = block[o:o + d_head].copy()
                o += d_head
                # the weight gradient in the layout the serial (x.T @ g).T has
                d_weight = block[o:o + d * d_head].reshape(d, d_head).copy().T
                o += d * d_head
                triples.append((d_bias, d_weight, block[o:o + n * d].reshape(n, d)))
                o += n * d
            yield triples
