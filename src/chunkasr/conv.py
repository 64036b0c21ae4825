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
from .functional import Workspace, glu, layer_norm, swish


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
    where a read outside at[j]'s own segment is zero. The segments are
    copied once into a zeroed buffer with (k - 1) / 2 zero frames around
    each, and the k-frame windows are a view on that buffer's strides.
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
    padded = np.zeros((x.shape[0] + (seg.size + 1) * half, x.shape[1]), x.dtype)
    a = 0
    for i, n in enumerate(seg.tolist(), 1):
        padded[a + i * half:a + i * half + n] = x[a:a + n]
        a += n
    # windows[p, :, w] is padded[p + w]
    rows, cols = padded.strides
    windows = np.ndarray((padded.shape[0] - k + 1, padded.shape[1], k), padded.dtype,
                         padded, 0, (rows, cols, rows))
    y = np.einsum("pcw,wc->pc", windows, kernel)
    return y[at + half * np.repeat(np.arange(seg.size), seg)[at]]


def conv_module_forward(x: np.ndarray, params: ConvParams, seg, at,
                        ws: Workspace | None = None) -> np.ndarray:
    """Convolution block at buffer frames ``at``; the caller adds the residual.

    x holds the sublayer's layer-normed inputs, one segment of seg[i] frames
    per audio, and ``params`` must already be in its dtype. Pointwise
    (d -> 2d) and GLU run on every buffer frame, the depthwise conv on each
    segment, then layer norm (feature axis) -> swish -> pointwise (d -> d)
    only on the output frames. The two pointwise stages each go through
    ws.split (a Workspace with no worker when none is given), the first
    as one call of 4 n d^2 FLOPs over the n buffer frames, the second of
    2 m d^2 over the m output frames; the depthwise conv runs here.
    """
    ws = Workspace() if ws is None else ws
    n, d = x.shape[0], params.dw_w.shape[1]
    pre = np.empty((n, 2 * d), np.result_type(x, params.pw_in_w, params.pw_in_b))
    gated = np.empty((n, d), pre.dtype)

    def pointwise_in(rows):
        np.matmul(x[rows], params.pw_in_w, out=pre[rows])
        pre[rows] += params.pw_in_b
        glu(pre[rows], out=gated[rows])

    ws.split(4 * x.size * d, pointwise_in, n)
    y = depthwise_conv(gated, params.dw_w, seg, at)
    out = np.empty(y.shape, np.result_type(y, params.pw_out_w, params.pw_out_b))

    def pointwise_out(rows):
        # the norm runs in place on y, which only this call reads, and the
        # swish into the rows of gated, which depthwise_conv has copied
        z = layer_norm(y[rows], params.dw_ln_g, params.dw_ln_b, out=y[rows])
        np.matmul(swish(z, out=gated[rows]), params.pw_out_w, out=out[rows])
        out[rows] += params.pw_out_b

    ws.split(2 * y.size * d, pointwise_out, y.shape[0])
    return out
