"""Conformer convolution module on each audio's contiguous frames.

The engine hands the module one buffer with a segment per audio, back to
back: the audio's layer-normed conv inputs from l_conv = (k - 1) / 2 frames
before the first output of the step (or from the audio start) up to the
layer's attention frontier. The depthwise kernel is symmetric, so output
frame t reads inputs t - l_conv .. t + l_conv, and the engine's frontiers
keep every such read inside t's segment unless it falls past a real audio
boundary, where a full-sequence conv reads zero padding. Each segment is
therefore convolved as its own zero-padded ("same") sequence, with no rows
and no masks. Normalization is a LayerNorm over the feature axis only, so
it never mixes positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .functional import glu, layer_norm, swish


@dataclass
class ConvParams:
    ln_g: np.ndarray       # (d,) the sublayer's input layer norm, run by the caller
    ln_b: np.ndarray       # (d,)
    pw_in_w: np.ndarray    # (d, 2d) pointwise expansion feeding the GLU
    pw_in_b: np.ndarray    # (2d,)
    dw_w: np.ndarray       # (kernel_size, d) depthwise kernel per channel
    dw_ln_g: np.ndarray    # (d,) post-conv layer norm
    dw_ln_b: np.ndarray    # (d,)
    pw_out_w: np.ndarray   # (d, d)
    pw_out_b: np.ndarray   # (d,)


def depthwise_conv(x: np.ndarray, kernel: np.ndarray, seg, at) -> np.ndarray:
    """Depthwise "same" convolution of each segment, read at buffer frames.

    x is (sum(seg), d): segments of seg[i] frames back to back. Output j is
    sum_w kernel[w] * x[at[j] + w - (k - 1) / 2], channels independent,
    where a read outside at[j]'s own segment is zero.
    """
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"kernel size must be odd, got {k}")
    seg = np.asarray(seg, dtype=np.int64)
    at = np.asarray(at, dtype=np.int64)
    if not at.size:
        return np.zeros((0, x.shape[1]), np.result_type(x, kernel))
    half = (k - 1) // 2
    # half zero frames before every segment and after the last one
    owner = np.repeat(np.arange(seg.size), seg)
    padded = np.zeros((x.shape[0] + (seg.size + 1) * half, x.shape[1]), x.dtype)
    padded[np.arange(x.shape[0]) + (owner + 1) * half] = x
    windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=0)
    y = np.einsum("pcw,wc->pc", windows, kernel)
    return y[at + half * owner[at]]


def conv_module_forward(x: np.ndarray, params: ConvParams, seg, at) -> np.ndarray:
    """Convolution block at buffer frames ``at``; the caller adds the residual.

    x holds the sublayer's layer-normed inputs, one segment of seg[i] frames
    per audio, and ``params`` must already be in its dtype. Pointwise
    (d -> 2d) and GLU run on every buffer frame, the depthwise conv on each
    segment, then layer norm (feature axis) -> swish -> pointwise (d -> d)
    only on the output frames.
    """
    gated = glu(x @ params.pw_in_w + params.pw_in_b)
    y = depthwise_conv(gated, params.dw_w, seg, at)
    y = swish(layer_norm(y, params.dw_ln_g, params.dw_ln_b))
    return y @ params.pw_out_w + params.pw_out_b
