"""Small numeric primitives shared by the engine and the reference paths.

Everything here is a pure per-position function or a plain matmul; windowing,
masking and segmentation logic live with their owners so the reference
implementations stay independent of the fast path.
"""

from __future__ import annotations

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


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function through the identity sigmoid(x) = (1 + tanh(x / 2)) / 2.

    tanh saturates at +-1 instead of overflowing, so every finite or infinite
    input is safe and the output stays in [0, 1]; NaN stays NaN. The absolute
    error is at most eps of the dtype (the relative error of very small
    outputs is larger, as 1/2 + 1/2 tanh cancels). swish and glu go through
    this function rather than their own tanh forms, so one kernel serves all
    three and the benchmark's functional.sigmoid span times all of them.
    """
    t = np.tanh(x * 0.5)
    t *= 0.5
    t += 0.5
    return t


def swish(x: np.ndarray) -> np.ndarray:
    return x * sigmoid(x)


def glu(x: np.ndarray) -> np.ndarray:
    """Gated linear unit over the last axis: first half gated by the second."""
    half = x.shape[-1] // 2
    return x[..., :half] * sigmoid(x[..., half:])


def layer_norm(x: np.ndarray, scale: np.ndarray, shift: np.ndarray,
               eps: float = LN_EPS) -> np.ndarray:
    """Normalize over the feature axis only; statistics never mix positions.

    One centred buffer is allocated; the variance, scale and shift work on it
    in place, and the input is left untouched.
    """
    xc = x - x.mean(axis=-1, keepdims=True)
    var = np.einsum("...i,...i->...", xc, xc)[..., None]
    var /= x.shape[-1]
    var += eps
    xc /= np.sqrt(var, out=var)
    xc *= scale
    xc += shift
    return xc


def ff_forward(x: np.ndarray, w1: np.ndarray, b1: np.ndarray,
               w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Position-wise feed-forward with swish activation."""
    return swish(x @ w1 + b1) @ w2 + b2
