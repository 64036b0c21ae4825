"""Conformer convolution module executed chunk-wise with left caches.

The depthwise kernel is symmetric, so a chunk row needs l_conv = (k - 1) / 2
frames of margin on each side. Rows may carry any margin width; only output
positions with full in-row support are returned, and the per-step validity
tracking guarantees every emitted frame had real support. Normalization is a
LayerNorm over the feature axis only, so masking cannot bias its statistics.

Masking detail: the gated activations are re-zeroed at masked positions right
before the depthwise conv. A full-sequence conv zero-pads at real audio
boundaries, so zeroing there (rather than letting the pointwise bias leak in)
is what keeps chunk-wise outputs equal to the full-sequence ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError
from .functional import cast_params, glu, layer_norm, swish


@dataclass
class ConvParams:
    pw_in_w: np.ndarray    # (d, 2d) pointwise expansion feeding the GLU
    pw_in_b: np.ndarray    # (2d,)
    dw: np.ndarray         # (kernel_size, d) depthwise kernel per channel
    ln_scale: np.ndarray   # (d,) post-conv layer norm
    ln_shift: np.ndarray   # (d,)
    pw_out_w: np.ndarray   # (d, d)
    pw_out_b: np.ndarray   # (d,)

    @property
    def kernel_size(self) -> int:
        return self.dw.shape[0]


def chunk_depthwise_conv(rows: np.ndarray, kernel: np.ndarray,
                         mask: np.ndarray | None = None) -> np.ndarray:
    """Depthwise convolution over rows, returning fully supported positions.

    rows is (B, W, d); output is (B, W - (k - 1), d) with
    out[b, p] = sum_k kernel[k] * rows[b, p + k], channels independent. Masked
    input positions are zeroed first, matching the zero padding a
    full-sequence conv sees at real audio boundaries.
    """
    rows = np.asarray(rows)
    kernel = np.asarray(kernel, dtype=rows.dtype)
    k = kernel.shape[0]
    if k % 2 == 0:
        raise ConfigError(f"kernel size must be odd, got {k}")
    if rows.shape[1] < k:
        raise ConfigError(
            f"rows of width {rows.shape[1]} are shorter than the kernel reach {k}; "
            "margins must satisfy the cache formula"
        )
    if mask is not None:
        rows = np.where(np.asarray(mask, dtype=bool)[..., None], rows,
                        np.zeros((), dtype=rows.dtype))
    windows = np.lib.stride_tricks.sliding_window_view(rows, k, axis=1)
    return np.einsum("bpcw,wc->bpc", windows, kernel)


def conv_module_forward(rows: np.ndarray, params: ConvParams,
                        mask: np.ndarray | None = None) -> np.ndarray:
    """Convolution block on gathered rows; the caller adds the residual.

    pointwise (d -> 2d) -> GLU -> depthwise -> layer norm (feature axis,
    valid positions only) -> swish -> pointwise (d -> d). Rows carry the
    sublayer's pre-normalized values with symmetric l_conv margins; the output
    drops the margins, one vector per fully supported position.
    """
    rows = np.asarray(rows)
    p = cast_params(params, rows.dtype)
    if mask is not None:
        rows = np.where(np.asarray(mask, dtype=bool)[..., None], rows,
                        np.zeros((), dtype=rows.dtype))
    gated = glu(rows @ p.pw_in_w + p.pw_in_b)
    y = chunk_depthwise_conv(gated, p.dw, mask)
    y = swish(layer_norm(y, p.ln_scale, p.ln_shift))
    return y @ p.pw_out_w + p.pw_out_b
