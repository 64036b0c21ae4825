"""Relative multi-head self-attention over chunk rows.

Each row holds l left-context, c chunk, and r lookahead positions. Queries are
the c + r chunk-plus-lookahead positions; keys and values are all l + c + r
positions, so the relative-distance geometry is identical for every row. The
per-pair score is

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
from .functional import cast_params


class DistanceRangeError(ValueError):
    """Requested relative distance falls outside the encoding table."""


@dataclass(frozen=True)
class RelPosTable:
    """Sinusoidal encodings for every relative distance one row can produce."""

    min_dist: int
    max_dist: int
    encodings: np.ndarray  # (max_dist - min_dist + 1, d_model) float64

    def slice(self, dtype=np.float64) -> np.ndarray:
        return self.encodings.astype(dtype, copy=False)


@dataclass
class AttentionParams:
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
    """Per-head logits (B, H, c+r, l+c+r) for pre-normalized, mask-zeroed rows.

    ``p`` must already be in the rows' dtype."""
    dtype = rows.dtype
    d_k = rows.shape[-1] // n_heads
    q_in = rows[:, l:, :]
    qh = _split_heads(q_in @ p.wq, n_heads)               # (B, H, c+r, d_k)
    kh = _split_heads(rows @ p.wk, n_heads)               # (B, H, W, d_k)
    uh = p.u.reshape(n_heads, 1, d_k)
    vh = p.v.reshape(n_heads, 1, d_k)
    content = (qh + uh) @ kh.swapaxes(-1, -2)             # (B, H, c+r, W)
    rho = table.slice(dtype) @ p.wr                       # (n_dist, d)
    rho_h = rho.reshape(-1, n_heads, d_k).transpose(1, 0, 2)  # (H, n_dist, d_k)
    pos_all = np.einsum("bhqe,hne->bhqn", qh + vh, rho_h)
    width = l + c + r
    dist = (l + np.arange(c + r))[:, None] - np.arange(width)[None, :]
    idx = dist - table.min_dist
    if idx.min() < 0 or idx.max() >= table.encodings.shape[0]:
        raise DistanceRangeError("row geometry exceeds the positional table")
    pos = np.take_along_axis(
        pos_all, np.broadcast_to(idx, pos_all.shape[:2] + idx.shape), axis=-1
    )
    return (content + pos) * (1.0 / math.sqrt(d_k))


def masked_softmax(logits: np.ndarray, mask: np.ndarray, beta: float = 1.0) -> np.ndarray:
    """Softmax over the last axis restricted to masked-true keys.

    Masked keys get weight exactly 0 (via a -inf logit before normalization).
    A query with at least one valid key sums to 1; a fully masked query gets
    an all-zero weight row.
    """
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape)
    neg = np.array(-np.inf, dtype=logits.dtype)
    shifted = np.where(mask, logits * beta, neg)
    peak = shifted.max(axis=-1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, np.zeros((), dtype=logits.dtype))
    weights = np.exp(shifted - peak)
    weights = np.where(mask, weights, np.zeros((), dtype=logits.dtype))
    denom = weights.sum(axis=-1, keepdims=True)
    safe = np.where(denom > 0, denom, np.ones((), dtype=logits.dtype))
    return weights / safe


def chunk_attention(batch: ChunkBatch, params: AttentionParams, table: RelPosTable,
                    n_heads: int, beta: float = 1.0) -> np.ndarray:
    """Attention outputs (B, c+r, d) for a batch of gathered rows.

    Equals dense full-sequence relative attention restricted by the window
    mask, audio by audio; rows whose keys are entirely masked yield zeros.
    """
    rows = np.where(batch.mask[..., None], batch.rows,
                    np.zeros((), dtype=batch.rows.dtype))
    dtype = rows.dtype
    p = cast_params(params, dtype)
    logits = _score_batch(rows, p, table, batch.l, batch.c, batch.r, n_heads)
    weights = masked_softmax(logits, batch.mask[:, None, None, :], beta)
    vh = _split_heads(rows @ p.wv, n_heads)               # (B, H, W, d_k)
    zh = weights @ vh                                     # (B, H, c+r, d_k)
    out = _merge_heads(zh) @ p.wo + p.bo
    any_key = batch.mask.any(axis=-1)
    return np.where(any_key[:, None, None], out, np.zeros((), dtype=dtype))
