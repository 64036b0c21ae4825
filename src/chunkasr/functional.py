"""Small numeric primitives shared by the engine and the reference paths.

Everything here is a pure per-position function or a plain matmul, plus the
Workspace that holds a caller's scratch buffers; windowing, masking and
segmentation logic live with their owners so the reference implementations
stay independent of the fast path.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import fields, is_dataclass, replace

import numpy as np

LN_EPS = 1e-5
# A kernel call of at least this many FLOPs runs its rows in two halves on
# two threads (Workspace.split). Split against whole, best of 100 on a
# 2-vCPU Xeon (numpy 2.4.6, one BLAS thread), where a handoff to the worker
# and back costs about 40 us and each of two halves running at once runs
# at 60-85% of its speed alone:
# ff_forward with its layer norm took 1.21x at 17 MFLOP (256 rows of
# d=64), 1.02x at 34 and 0.72x at 67; at d=256 0.98x at 34 and 0.86x at
# 67; project_frames 1.13x at 25 MFLOP and 0.75x at 50 (d=256);
# chunk_attention 1.20x at 11 MFLOP and 0.86x at 22 (d=64). The default
# model's calls stay below 13 MFLOP on the benchmark's workloads; the
# paper-scale model's first step makes calls of 49-393 MFLOP.
SPLIT_FLOP = 32e6
# Workspace.take holds a buffer only for a request of at least this many
# bytes and serves a smaller one with np.empty, which costs 0.3 us where a
# held buffer costs 1.0 us. The default model's requests take 36-192 KiB at
# budget 16 on the benchmark's workloads, a paper-scale encode's 1.5-2.3
# MiB. Holding those cut a 30 s paper-scale encode from about 30k to 4k
# minor faults; serving the default model's with np.empty made the
# benchmark's many-short steps 3% faster (2-vCPU Xeon, numpy 2.4.6).
HOLD_BYTES = 1 << 20


def cast_params(params, dtype):
    """Copy of a parameter container with every array converted to ``dtype``.

    Walks dataclass fields and lists, so one call converts a whole encoder;
    arrays already in ``dtype`` are shared, not copied, and non-array fields
    are kept as they are.
    """
    if is_dataclass(params):
        return replace(params, **{f.name: cast_params(getattr(params, f.name), dtype)
                                  for f in fields(params)})
    if isinstance(params, list):
        return [cast_params(p, dtype) for p in params]
    if isinstance(params, np.ndarray):
        return params.astype(dtype, copy=False)
    return params


class Workspace:
    """Scratch buffers that one caller reuses across calls, one per name, and
    the worker thread that runs half of each large kernel call.

    take(name, shape, dtype) returns a C-contiguous array. A request of at
    least HOLD_BYTES is served from the named buffer, which is allocated
    again only when a request needs more bytes than it holds; a smaller
    one gets a new np.empty array and leaves the buffer as it is, so a
    workspace whose requests all stay below HOLD_BYTES holds nothing. The
    array holds whatever its last user left there, so its user writes
    every element before reading it, and it stays valid until the next
    take of that name. A Workspace is created by the code whose calls
    share it, and dropped with it.

    Inside a ``with`` block, unless the process may run on only one CPU,
    split() runs each kernel call of at least SPLIT_FLOP FLOPs in two
    halves, one of them on a worker thread. The first such call starts the
    worker, and the block's exit joins it, so a workspace whose calls all
    stay below the gate starts no thread. BLAS and numpy's loops release
    the interpreter lock, so the halves overlap. The kernels that split are
    ff_forward, attention.project_frames (the K|V and query matmuls),
    attention.chunk_attention (by chunk row) and conv.conv_module_forward
    (its two pointwise layers with their GLU, norm and swish).
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self._may_split = False
        self._worker: threading.Thread | None = None
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        self._errors: queue.SimpleQueue = queue.SimpleQueue()

    def __enter__(self) -> "Workspace":
        self._may_split = len(os.sched_getaffinity(0)) > 1
        return self

    def __exit__(self, *_) -> None:
        self._may_split = False
        if self._worker is not None:
            self._calls.put(None)
            self._worker.join()
            self._worker = None

    def _serve(self) -> None:
        while (call := self._calls.get()) is not None:
            try:
                call()
            except BaseException as exc:   # split raises it in the caller's thread
                self._errors.put(exc)
            else:
                self._errors.put(None)

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        if nbytes < HOLD_BYTES:
            return np.empty(shape, dtype)
        buf = self._buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)

    def split(self, flop: float, run, *sizes: int) -> None:
        """Call run(*rows), rows holding a slice of [0, n) for each n in ``sizes``.

        A call of ``flop`` >= SPLIT_FLOP whose sizes are all 2 or more runs
        as two inside a ``with`` block on more than one CPU: run gets the
        first half of every size here and the second half on the worker,
        which this call starts if it has not run yet. Each half writes only
        its own rows of arrays the caller allocated, and takes no buffer
        of this workspace. The halves run the same numpy calls on their rows
        as one call does, and each output row is computed on its own, so
        the outputs do not depend on whether the call split. Returns once
        both halves have; an exception of either is raised here, the
        caller's half's first.
        """
        if not self._may_split or flop < SPLIT_FLOP or min(sizes) < 2:
            run(*(slice(0, n) for n in sizes))
            return
        if self._worker is None:
            self._worker = threading.Thread(target=self._serve, name="chunkasr-split")
            self._worker.start()
        self._calls.put(lambda: run(*(slice(n // 2, n) for n in sizes)))
        try:
            run(*(slice(0, n // 2) for n in sizes))
        finally:
            error = self._errors.get()
        if error is not None:
            raise error


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function through the identity sigmoid(x) = (1 + tanh(x / 2)) / 2.

    tanh saturates at +-1 instead of overflowing, so every finite or infinite
    input is safe and the output stays in [0, 1]; NaN stays NaN. The absolute
    error is at most eps of the dtype (the relative error of very small
    outputs is larger, as 1/2 + 1/2 tanh cancels). swish and glu go through
    this function rather than their own tanh forms, so one kernel serves all
    three and the benchmark's functional.sigmoid span times all of them.
    The result goes into ``out`` when one is given, else into a new array.
    """
    t = np.multiply(x, 0.5, out=out)
    np.tanh(t, out=t)
    t *= 0.5
    t += 0.5
    return t


def swish(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x * sigmoid(x), into ``out`` when one is given (it must not overlap x)."""
    y = sigmoid(x, out=out)
    y *= x
    return y


def glu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gated linear unit over the last axis: first half gated by the second.

    The gate is computed into ``out`` when one is given (it must not
    overlap x), else into a new array, and the first half is multiplied in.
    """
    half = x.shape[-1] // 2
    y = sigmoid(x[..., half:], out=out)
    y *= x[..., :half]
    return y


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Normalize over the feature axis only; statistics never mix positions.

    One centred buffer, ``out`` when one is given (it may be x itself), else
    a new array, holds the result; the variance, scale and shift work on it
    in place.
    """
    # the arithmetic of x.mean(axis=-1, keepdims=True), without its wrapper
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= x.shape[-1]
    xc = np.subtract(x, mean, out=out)
    var = np.einsum("...i,...i->...", xc, xc)[..., None]
    var /= x.shape[-1]
    var += LN_EPS
    xc /= np.sqrt(var, out=var)
    xc *= scale
    xc += shift
    return xc


def ff_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray,
               w2: np.ndarray, b2: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Position-wise feed-forward with swish activation.

    The (n, d_ff) hidden activations and their sigmoid live in the
    "ff.hidden" and "ff.gate" buffers of ``ws`` (a new Workspace when none
    is given), where the bias and the swish run in place. The n rows go
    through ws.split as one call of 4 n d d_ff FLOPs.
    """
    ws = Workspace() if ws is None else ws
    shape, dtype = x.shape[:-1] + w1.shape[-1:], np.result_type(x, w1)
    hidden = ws.take("ff.hidden", shape, dtype)
    gate = ws.take("ff.gate", shape, dtype)
    out = np.empty(x.shape[:-1] + w2.shape[-1:], np.result_type(dtype, w2, b2))

    def run(rows):
        h = np.matmul(x[rows], w1, out=hidden[rows])
        h += b1
        h *= sigmoid(h, out=gate[rows])
        np.matmul(h, w2, out=out[rows])
        out[rows] += b2

    ws.split(4 * x.size * w1.shape[-1], run, x.shape[0])
    return out
