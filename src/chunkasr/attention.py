"""Relative multi-head self-attention over chunk rows.

Each row holds l left-context, c chunk, and r lookahead positions. Queries are
the c chunk positions; keys and values are all l + c + r positions, so the
relative-distance geometry is identical for every row. The lookahead frames
act only as keys here: the row that holds them as its chunk computes their
outputs. The per-pair score is

    e[j, t] = ((x_j Wq + u) . (x_t Wk) + (x_j Wq + v) . (R_{j-t} Wr)) / sqrt(d_k)

which is the four-term content/position/bias sum with the two bias terms
folded in. The projections run once per frame, not once per row position:
project_frames turns a buffer of frames into each chunk's queries and one
K|V buffer, and the rows gathered from that buffer hold a position's key
and value side by side. A row's masked slots hold other frames, often of a
neighbouring audio, and chunk_attention alone clears them: it zeroes their
keys and values on entry and gives masked keys -inf before the softmax, so
their weight is exactly zero and outputs are bit-wise independent of
whatever a masked slot holds, inf and NaN included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chunking import ChunkBatch
from .functional import Workspace


class DistanceRangeError(ValueError):
    """Rows need relative distances that the positional table does not hold."""


@dataclass(frozen=True)
class RelPosTable:
    """Sinusoidal encodings that the chunk queries of [l | c | r] rows read,
    largest distance first: encodings[i] is distance l + c - 1 - i."""

    l: int
    c: int
    r: int
    encodings: np.ndarray  # (l + 2c + r - 1, d_model), float64 until cast


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


def rel_pos_encoding(distance, d_model: int) -> np.ndarray:
    """Transformer-XL style sinusoid: sin/cos of distance / 10000^(2i/d).

    ``distance`` is an int, or an array of them for one row per distance.
    """
    inv = 10000.0 ** (-np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    angle = np.multiply.outer(distance, inv)
    vec = np.empty(angle.shape[:-1] + (d_model,), dtype=np.float64)
    vec[..., 0::2] = np.sin(angle)
    vec[..., 1::2] = np.cos(angle)
    return vec


def build_rel_pos_table(l_att: int, c: int, r: int, d_model: int,
                        l_max: int | None = None) -> RelPosTable:
    """The positional table of [l_att | c | r] rows.

    Chunk query i sits at row position l_att + i and key t at t, so the
    distances l_att + i - t that the queries read run from l_att + c - 1 down
    to -(c + r - 1): l_att + 2c + r - 1 encodings, stored in that order.
    Raises DistanceRangeError if one of them is farther than l_max.
    """
    hi, lo = l_att + c - 1, -(c + r - 1)
    if l_max is not None and max(hi, -lo) > l_max:
        raise DistanceRangeError(f"rows need distances in [{lo}, {hi}] but l_max={l_max}")
    return RelPosTable(l=l_att, c=c, r=r,
                       encodings=rel_pos_encoding(np.arange(hi, lo - 1, -1), d_model))


def project_frames(h: np.ndarray, starts, c: int,
                   p: AttentionParams) -> tuple[np.ndarray, np.ndarray]:
    """The chunk queries and the K|V buffer of a buffer of frames h (n, d).

    Returns the (B, c, d) queries h[starts[b] + i] Wq of the chunks that
    start at buffer indices ``starts``, and the (n, 2d) buffer whose frame t
    holds its key h[t] Wk and its value h[t] Wv side by side, from which
    oct_segment gathers the rows. A partial chunk's queries past its own
    frames read whatever frames follow (the last one past the buffer end);
    their outputs are discarded.
    """
    n, d = h.shape
    at = np.minimum(np.asarray(starts, dtype=np.int64)[:, None] + np.arange(c), n - 1)
    kv = np.empty((n, 2 * d), np.result_type(h, p.wk))
    np.matmul(h, p.wk, out=kv[:, :d])
    np.matmul(h, p.wv, out=kv[:, d:])
    return h[at] @ p.wq, kv


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    *lead, d = x.shape
    return x.reshape(*lead, n_heads, d // n_heads).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    x = x.swapaxes(-3, -2)
    *lead, n_heads, d_k = x.shape[:-1] + x.shape[-1:]
    return x.reshape(*x.shape[:-2], n_heads * d_k)


def _score_batch(queries: np.ndarray, keys: np.ndarray, p: AttentionParams,
                 table: RelPosTable, n_heads: int, ws: Workspace) -> np.ndarray:
    """Per-head logits (B, H, c, l+c+r) of each row's chunk queries.

    ``queries`` (B, c, d) are each row's chunk queries and ``keys``
    (B, l+c+r, d) its mask-zeroed keys, in the table's geometry; ``p`` and
    ``table`` must already be in their dtype. Chunk query i and key t are
    l + i - t apart, the distance of the table's entry c - 1 - i + t. The
    positional term is one matmul against all n = l + 2c + r - 1 encodings,
    so query i's scores are entries c - 1 - i + t of its row of that product,
    which makes the (c, W) score block a skewed view (offset c - 1, row
    stride n - 1) of the contiguous (c, n) product: the relative shift of
    Transformer-XL, with no gather. The logits are the "att.scores" buffer
    of ``ws``, and the product its "att.pos" buffer.
    """
    c = table.c
    n = table.encodings.shape[0]
    b, w = keys.shape[:2]
    d_k = queries.shape[-1] // n_heads
    qh = _split_heads(queries, n_heads)                      # (B, H, c, d_k)
    kh = _split_heads(keys, n_heads)                         # (B, H, W, d_k)
    rho_h = np.ascontiguousarray(
        (table.encodings @ p.wr).reshape(n, n_heads, d_k).swapaxes(0, 1))  # (H, n, d_k)
    scores = np.matmul(qh + p.u.reshape(n_heads, 1, d_k), kh.swapaxes(-1, -2),
                       out=ws.take("att.scores", (b, n_heads, c, w),
                                   np.result_type(queries, p.u, keys)))
    pos = np.matmul(qh + p.v.reshape(n_heads, 1, d_k), rho_h.swapaxes(-1, -2),
                    out=ws.take("att.pos", (b, n_heads, c, n),
                                np.result_type(queries, p.v, rho_h)))
    step = pos.itemsize
    scores += np.lib.stride_tricks.as_strided(
        pos[..., c - 1:], shape=scores.shape,
        strides=pos.strides[:2] + ((n - 1) * step, step), writeable=False)
    scores *= 1.0 / math.sqrt(d_k)
    return scores


def masked_softmax(logits: np.ndarray, mask: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis restricted to masked-true keys.

    Masked keys get weight exactly 0 (via a -inf logit before normalization).
    A query with at least one valid key sums to 1; a fully masked query gets
    an all-zero weight row. Works in one full-size buffer, ``out`` when one
    is given (it must not overlap ``logits``), else a new array; ``logits``
    is not modified.
    """
    weights = np.empty_like(logits) if out is None else out
    np.copyto(weights, logits)
    np.copyto(weights, -np.inf, where=~np.asarray(mask, dtype=bool))
    peak = weights.max(axis=-1, keepdims=True)
    peak[~np.isfinite(peak)] = 0     # so exp(-inf - peak) is exactly 0
    weights -= peak
    np.exp(weights, out=weights)
    denom = weights.sum(axis=-1, keepdims=True)
    denom[~(denom > 0)] = 1
    weights /= denom
    return weights


def chunk_attention(batch: ChunkBatch, queries: np.ndarray, params: AttentionParams,
                    table: RelPosTable, n_heads: int,
                    ws: Workspace | None = None) -> np.ndarray:
    """Attention outputs (B, c, d) at the chunk positions of gathered rows.

    ``batch`` holds rows of a project_frames K|V buffer: position t of a row
    holds its frame's key and value side by side, (B, l + c + r, 2d).
    ``queries`` (B, c, d) are the rows' chunk queries from the same call.
    Masked keys and values, which may hold anything, are zeroed in place in
    ``batch.rows``.
    Equals dense full-sequence relative attention restricted by the window
    mask, audio by audio; rows whose keys are entirely masked yield zeros.
    The r lookahead positions serve only as keys and values: a later row
    computes their outputs. ``params`` and ``table`` must already be in the
    rows' dtype, and the table must be built for the batch's (l, c, r);
    rows, mask or queries of another shape raise DistanceRangeError.
    The logits, the positional product and the softmax weights are the
    "att.scores", "att.pos" and "att.weights" buffers of ``ws`` (a new
    Workspace when none is given).
    """
    l, c, r = batch.l, batch.c, batch.r
    if (l, c, r) != (table.l, table.c, table.r):
        raise DistanceRangeError(f"rows of (l, c, r) = {(l, c, r)} need "
                                 f"their own table, got one for {(table.l, table.c, table.r)}")
    kv, mask = batch.rows, batch.mask
    d = params.wo.shape[0]
    b = kv.shape[0]
    if kv.shape != (b, l + c + r, 2 * d) or mask.shape != kv.shape[:2] \
            or queries.shape != (b, c, d):
        raise DistanceRangeError(
            f"(l, c, r) = {(l, c, r)} and d = {d} need K|V rows {(b, l + c + r, 2 * d)}, "
            f"a mask {(b, l + c + r)} and queries {(b, c, d)}; got {kv.shape}, "
            f"{mask.shape} and {queries.shape}")
    ws = Workspace() if ws is None else ws
    kv[~mask] = 0
    logits = _score_batch(queries, kv[..., :d], params, table, n_heads, ws)
    weights = masked_softmax(logits, mask[:, None, None, :],
                             ws.take("att.weights", logits.shape, logits.dtype))
    zh = weights @ _split_heads(kv[..., d:], n_heads)     # (B, H, c, d_k)
    out = _merge_heads(zh) @ params.wo + params.bo
    out[~mask.any(axis=-1)] = 0
    return out
