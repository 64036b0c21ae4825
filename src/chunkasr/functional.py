"""Small numeric primitives shared by the engine and the reference paths.

Everything here is a pure per-position function or a plain matmul, plus the
Workspace that holds a caller's scratch buffers; windowing, masking and
segmentation logic live with their owners so the reference implementations
stay independent of the fast path.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass, replace

import numpy as np

LN_EPS = 1e-5


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
    """Scratch buffers that one caller reuses across calls, one per name.

    take(name, shape, dtype) returns a C-contiguous array on the named
    buffer, which is allocated again only when a request needs more bytes
    than it holds. The array holds whatever its last user left there, so
    its user writes every element before reading it, and it stays valid
    until the next take of that name. A Workspace is created by the code
    whose calls share it, and dropped with it.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.size < nbytes:
            buf = self._buffers[name] = np.empty(nbytes, np.uint8)
        return buf[:nbytes].view(dtype).reshape(shape)


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


def swish(x: np.ndarray) -> np.ndarray:
    return x * sigmoid(x)


def glu(x: np.ndarray) -> np.ndarray:
    """Gated linear unit over the last axis: first half gated by the second."""
    half = x.shape[-1] // 2
    return x[..., :half] * sigmoid(x[..., half:])


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Normalize over the feature axis only; statistics never mix positions.

    One centred buffer is allocated; the variance, scale and shift work on it
    in place, and the input is left untouched.
    """
    xc = x - x.mean(axis=-1, keepdims=True)
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
    is given), where the bias and the swish run in place.
    """
    ws = Workspace() if ws is None else ws
    shape, dtype = x.shape[:-1] + w1.shape[-1:], np.result_type(x, w1)
    h = np.matmul(x, w1, out=ws.take("ff.hidden", shape, dtype))
    h += b1
    h *= sigmoid(h, out=ws.take("ff.gate", shape, dtype))
    return h @ w2 + b2
