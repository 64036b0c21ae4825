"""Relative multi-head self-attention over chunk rows.

Each row holds l left-context, c chunk, and r lookahead positions. Queries are
the c chunk positions; keys and values are all l + c + r positions, so the
relative-distance geometry is identical for every row. The lookahead frames
act only as keys here: the row that holds them as its chunk computes their
outputs. The per-pair score is

    e[j, t] = ((x_j Wq + u) . (x_t Wk) + (x_j Wq + v) . (R_{j-t} Wr)) / sqrt(d_k)

which is the four-term content/position/bias sum with the two bias terms
folded in. Masked keys receive -inf before the softmax so their weight is
exactly zero; row values are re-zeroed at masked positions on entry, making
outputs bit-wise independent of whatever a masked slot holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chunking import ChunkBatch


class DistanceRangeError(ValueError):
    """Requested relative distance falls outside the encoding table."""


@dataclass(frozen=True)
class RelPosTable:
    """Sinusoidal encodings for every relative distance one row can produce."""

    min_dist: int
    max_dist: int
    encodings: np.ndarray  # (max_dist - min_dist + 1, d_model) float64


@dataclass
class AttentionParams:
    ln_g: np.ndarray  # (d,) the sublayer's input layer norm, run by the caller
    ln_b: np.ndarray  # (d,)
    wq: np.ndarray  # (d, d)
    wk: np.ndarray  # (d, d)
    wv: np.ndarray  # (d, d)
    wr: np.ndarray  # (d, d)
    u: np.ndarray   # (d,)
    v: np.ndarray   # (d,)
    wo: np.ndarray  # (d, d)
    bo: np.ndarray  # (d,)


def rel_pos_encoding(distance: int, d_model: int) -> np.ndarray:
    """Transformer-XL style sinusoid: sin/cos of distance / 10000^(2i/d)."""
    inv = 10000.0 ** (-np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    vec = np.empty(d_model, dtype=np.float64)
    vec[0::2] = np.sin(distance * inv)
    vec[1::2] = np.cos(distance * inv)
    return vec


def build_rel_pos_table(l_att: int, c: int, r: int, d_model: int,
                        l_max: int | None = None) -> RelPosTable:
    """Encodings for distances in [-(c + r), l_att + c + r].

    Covers every (query - key) offset reachable inside one row window; raises
    if that span exceeds the configured maximum stored distance.
    """
    min_dist = -(c + r)
    max_dist = l_att + c + r
    if l_max is not None and max(abs(min_dist), max_dist) > l_max:
        raise DistanceRangeError(
            f"window needs distances in [{min_dist}, {max_dist}] but l_max={l_max}"
        )
    enc = np.stack([rel_pos_encoding(d, d_model)
                    for d in range(min_dist, max_dist + 1)])
    return RelPosTable(min_dist=min_dist, max_dist=max_dist, encodings=enc)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    *lead, d = x.shape
    return x.reshape(*lead, n_heads, d // n_heads).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    x = x.swapaxes(-3, -2)
    *lead, n_heads, d_k = x.shape[:-1] + x.shape[-1:]
    return x.reshape(*x.shape[:-2], n_heads * d_k)


def _score_batch(rows: np.ndarray, p: AttentionParams, table: RelPosTable,
                 l: int, c: int, r: int, n_heads: int) -> np.ndarray:
    """Per-head logits (B, H, c, l+c+r) of each row's chunk queries.

    ``rows`` are pre-normalized and mask-zeroed; ``p`` must already be in
    their dtype. Chunk query i and key t are l + i - t apart, so one row
    needs only the W + c - 1 distances from l + c - 1 down to l - (W - 1),
    W = l + c + r. The positional term is one matmul against those
    distances in descending order; query i's scores are then entries
    c - 1 - i + t of its row of that product, which makes the (c, W) score
    block a skewed view (offset c - 1, row stride n - 1) of the contiguous
    (c, n) product: the relative shift of Transformer-XL, with no gather.
    """
    dtype = rows.dtype
    width = l + c + r
    d_k = rows.shape[-1] // n_heads
    qh = _split_heads(rows[:, l:l + c] @ p.wq, n_heads)     # (B, H, c, d_k)
    kh = _split_heads(rows @ p.wk, n_heads)                 # (B, H, W, d_k)
    scores = (qh + p.u.reshape(n_heads, 1, d_k)) @ kh.swapaxes(-1, -2)  # (B, H, c, W)
    lo = l - (width - 1) - table.min_dist    # table index of the smallest distance
    hi = l + c - 1 - table.min_dist          # and of the largest
    if lo < 0 or hi >= table.encodings.shape[0]:
        raise DistanceRangeError("row geometry exceeds the positional table")
    n = hi - lo + 1
    desc = np.ascontiguousarray(table.encodings[lo:hi + 1][::-1], dtype=dtype)
    rho_h = (desc @ p.wr).reshape(n, n_heads, d_k).transpose(1, 2, 0)  # (H, d_k, n)
    pos = np.ascontiguousarray((qh + p.v.reshape(n_heads, 1, d_k)) @ rho_h)  # (B, H, c, n)
    step = pos.itemsize
    scores += np.lib.stride_tricks.as_strided(
        pos[..., c - 1:], shape=scores.shape,
        strides=pos.strides[:2] + ((n - 1) * step, step), writeable=False)
    del pos   # the largest buffer; freed before the softmax needs its own
    scores *= 1.0 / math.sqrt(d_k)
    return scores


def masked_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Softmax over the last axis restricted to masked-true keys.

    Masked keys get weight exactly 0 (via a -inf logit before normalization).
    A query with at least one valid key sums to 1; a fully masked query gets
    an all-zero weight row. Works in one full-size buffer; ``logits`` is not
    modified.
    """
    weights = logits.copy()
    np.copyto(weights, -np.inf, where=~np.asarray(mask, dtype=bool))
    peak = weights.max(axis=-1, keepdims=True)
    peak[~np.isfinite(peak)] = 0     # so exp(-inf - peak) is exactly 0
    weights -= peak
    np.exp(weights, out=weights)
    denom = weights.sum(axis=-1, keepdims=True)
    denom[~(denom > 0)] = 1
    weights /= denom
    return weights


def chunk_attention(batch: ChunkBatch, params: AttentionParams, table: RelPosTable,
                    n_heads: int) -> np.ndarray:
    """Attention outputs (B, c, d) at the chunk positions of gathered rows.

    Equals dense full-sequence relative attention restricted by the window
    mask, audio by audio; rows whose keys are entirely masked yield zeros.
    The r lookahead positions serve only as keys and values: a later row
    computes their outputs. ``params`` must already be in the rows' dtype.
    """
    rows = np.where(batch.mask[..., None], batch.rows,
                    np.zeros((), dtype=batch.rows.dtype))
    dtype = rows.dtype
    logits = _score_batch(rows, params, table, batch.l, batch.c, batch.r, n_heads)
    weights = masked_softmax(logits, batch.mask[:, None, None, :])
    vh = _split_heads(rows @ params.wv, n_heads)          # (B, H, W, d_k)
    zh = weights @ vh                                     # (B, H, c, d_k)
    out = _merge_heads(zh) @ params.wo + params.bo
    any_key = batch.mask.any(axis=-1)
    return np.where(any_key[:, None, None], out, np.zeros((), dtype=dtype))
