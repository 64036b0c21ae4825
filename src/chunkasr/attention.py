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


# _row_max folds a row of at most this many bytes in halves and reduces a
# wider one. Fold against np.maximum.reduce over the last axis, best of 5 on
# a 2-vCPU Xeon (numpy 2.4.6), 512 and 1536 rows: float32 0.51-0.58x at 32
# keys (the default model's rows), 0.64-0.76x at 64, 0.89-0.99x at 128,
# 1.14-1.31x at 160 and 1.75-1.86x at 320 (the paper-scale rows); float64
# 0.83-0.93x at 32 and 1.16-1.33x at 47-64. The reduce pays a fixed cost per
# row, the fold one per entry, so the row's bytes set the crossover.
FOLD_ROW_BYTES = 256


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


def project_frames(h: np.ndarray, starts, c: int, p: AttentionParams,
                   ws: Workspace | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The chunk queries and the K|V buffer of a buffer of frames h (n, d).

    Returns the (B, c, d) queries h[starts[b] + i] Wq of the chunks that
    start at buffer indices ``starts``, and the (n, 2d) buffer whose frame t
    holds its key h[t] Wk and its value h[t] Wv side by side, from which
    oct_segment gathers the rows. A partial chunk's queries past its own
    frames read whatever frames follow (the last one past the buffer end);
    their outputs are discarded. The frames and the chunks go through
    ws.split (a Workspace with no worker when none is given) as one call
    of 4 n d^2 + 2 B c d^2 FLOPs.
    """
    n, d = h.shape
    at = np.minimum(np.asarray(starts, dtype=np.int64)[:, None] + np.arange(c), n - 1)
    kv = np.empty((n, 2 * d), np.result_type(h, p.wk))
    queries = np.empty(at.shape + (d,), np.result_type(h, p.wq))

    def run(frames, chunks):
        np.matmul(h[frames], p.wk, out=kv[frames, :d])
        np.matmul(h[frames], p.wv, out=kv[frames, d:])
        np.matmul(h[at[chunks]], p.wq, out=queries[chunks])

    (Workspace() if ws is None else ws).split(2 * d * d * (2 * n + at.size), run,
                                              n, at.shape[0])
    return queries, kv


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    *lead, d = x.shape
    return x.reshape(*lead, n_heads, d // n_heads).swapaxes(-3, -2)


def _score_batch(queries: np.ndarray, keys: np.ndarray, p: AttentionParams,
                 rho_h: np.ndarray, scores: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Per-head logits (B, H, c, l+c+r) of each row's chunk queries, in ``scores``.

    ``queries`` (B, c, d) are each row's chunk queries and ``keys``
    (B, l+c+r, d) its mask-zeroed keys; ``rho_h`` (H, n, d_k) are the
    table's n = l + 2c + r - 1 encodings projected by Wr, split by head.
    ``p`` and ``rho_h`` must already be in their dtype. Chunk query i and
    key t are l + i - t apart, the distance of the table's entry
    c - 1 - i + t. The positional term is one matmul against all n
    encodings, into ``pos`` (B, H, c, n), so query i's scores are entries
    c - 1 - i + t of its row of that product, which makes the (c, W) score
    block a skewed view (offset c - 1, row stride n - 1) of the contiguous
    (c, n) product: the relative shift of Transformer-XL, with no gather.
    """
    n_heads, n, d_k = rho_h.shape
    c = queries.shape[1]
    qh = _split_heads(queries, n_heads)                      # (B, H, c, d_k)
    kh = _split_heads(keys, n_heads)                         # (B, H, W, d_k)
    np.matmul(qh + p.u.reshape(n_heads, 1, d_k), kh.swapaxes(-1, -2), out=scores)
    np.matmul(qh + p.v.reshape(n_heads, 1, d_k), rho_h.swapaxes(-1, -2), out=pos)
    step = pos.itemsize
    scores += np.ndarray(scores.shape, pos.dtype, pos, (c - 1) * step,
                         pos.strides[:2] + ((n - 1) * step, step))
    scores *= 1.0 / math.sqrt(d_k)
    return scores


def _row_max(x: np.ndarray) -> np.ndarray:
    """The max over the last axis of x, keepdims, in a new array.

    A row of at most FOLD_ROW_BYTES is folded in halves: each np.maximum of
    its first and last (n + 1) // 2 entries halves the width, and the two
    halves overlap in one entry when n is odd. A wider row goes to
    np.maximum.reduce. Max is exact in any order, so both give the reduce's
    values, NaN included; only the sign of a zero peak may differ, and the
    softmax subtracts the peak before exp, which maps both zeros to 1.
    """
    n = x.shape[-1]
    if n * x.itemsize > FOLD_ROW_BYTES:
        return np.maximum.reduce(x, axis=-1, keepdims=True)
    if n == 1:
        return x.copy()
    while n > 1:
        h = (n + 1) // 2
        x = np.maximum(x[..., :h], x[..., n - h:n])
        n = h
    return x


def masked_softmax(logits: np.ndarray, mask: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis restricted to masked-true keys.

    Masked keys get weight exactly 0 (via a -inf logit before normalization).
    A query with at least one valid key sums to 1; a fully masked query gets
    an all-zero weight row. Works in one full-size buffer, ``out`` when one
    is given (it must not overlap ``logits``), else a new array; ``logits``
    is not modified. The row max comes from _row_max, a fold of halves on
    short rows.
    """
    weights = np.empty_like(logits) if out is None else out
    np.copyto(weights, logits)
    # -inf in the weights' dtype: a float64 one would go through a cast
    np.copyto(weights, np.array(-np.inf, weights.dtype), where=~np.asarray(mask, dtype=bool))
    peak = _row_max(weights)
    peak[~np.isfinite(peak)] = 0     # so exp(-inf - peak) is exactly 0
    weights -= peak
    np.exp(weights, out=weights)
    denom = np.add.reduce(weights, axis=-1, keepdims=True)
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
    Workspace when none is given). The rows go through ws.split as one
    call of 2 B c d (2 (l + c + r) + n + d) FLOPs, n = l + 2c + r - 1: the
    content and value products, the positional product and the output
    projection.
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
    n, d_k = table.encodings.shape[0], d // n_heads
    rho_h = np.ascontiguousarray(
        (table.encodings @ params.wr).reshape(n, n_heads, d_k).swapaxes(0, 1))  # (H, n, d_k)
    scores = ws.take("att.scores", (b, n_heads, c, l + c + r),
                     np.result_type(queries, params.u, kv))
    pos = ws.take("att.pos", (b, n_heads, c, n), np.result_type(queries, params.v, rho_h))
    weights = ws.take("att.weights", scores.shape, scores.dtype)
    heads = np.empty((b, c, n_heads, d_k), np.result_type(weights, kv))
    out = np.empty((b, c, d), np.result_type(heads, params.wo, params.bo))

    def run(rows):
        kv_rows, mask_rows = kv[rows], mask[rows]
        kv_rows[~mask_rows] = 0
        logits = _score_batch(queries[rows], kv_rows[..., :d], params, rho_h,
                              scores[rows], pos[rows])
        masked_softmax(logits, mask_rows[:, None, None, :], weights[rows])
        # each head's outputs land in its d_k columns of the (B, c, d) rows
        z = heads[rows]
        np.matmul(weights[rows], _split_heads(kv_rows[..., d:], n_heads), out=z.swapaxes(1, 2))
        o = np.matmul(z.reshape(z.shape[0], c, d), params.wo, out=out[rows])
        o += params.bo
        o[~mask_rows.any(axis=-1)] = 0

    if b:   # _score_batch's skewed view needs a row to lie on
        ws.split(2 * b * c * d * (2 * (l + c + r) + n + d), run, b)
    return out
