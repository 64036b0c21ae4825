import math

import numpy as np
import pytest

from chunkasr.attention import (AttentionParams, DistanceRangeError, _score_batch,
                                build_rel_pos_table, chunk_attention,
                                masked_softmax, project_frames, rel_pos_encoding)
from chunkasr.chunking import ChunkBatch, oct_segment
from chunkasr.config import ContextConfig
from chunkasr.functional import cast_params
from chunkasr.oracle import chunk_window_mask, dense_attention_reference
from conftest import rel_err


def attention_scores(row, p, table, n_heads):
    """Logits (H, c, l+c+r) of one row's chunk queries, as a one-row batch."""
    queries = row[table.l:table.l + table.c] @ p.wq
    n, d = table.encodings.shape
    rho_h = (table.encodings @ p.wr).reshape(n, n_heads, d // n_heads).swapaxes(0, 1)
    return _score_batch(queries[None], (row @ p.wk)[None], p, rho_h,
                        np.empty((1, n_heads, table.c, row.shape[0])),
                        np.empty((1, n_heads, table.c, n)))[0]


def gather(x, starts, p, table, lo=0, hi=None):
    """The chunk queries and K|V rows of chunks at ``starts`` of frames x."""
    queries, kv = project_frames(x, starts, table.c, p)
    return oct_segment(kv, starts, table.l, table.c, table.r, lo, hi), queries


def attend(x, starts, p, table, n_heads):
    """chunk_attention of the chunks at ``starts`` of frames x."""
    return chunk_attention(*gather(x, starts, p, table), p, table, n_heads)


def random_params(rng, d):
    def m():
        return rng.normal(size=(d, d)) / math.sqrt(d)
    return AttentionParams(ln_g=np.ones(d), ln_b=np.zeros(d),
                           wq=m(), wk=m(), wv=m(), wr=m(),
                           u=rng.normal(size=d), v=rng.normal(size=d),
                           wo=m(), bo=rng.normal(size=d))


def test_rel_pos_encoding_at_zero():
    vec = rel_pos_encoding(0, 8)
    assert np.array_equal(vec[0::2], np.zeros(4))
    assert np.array_equal(vec[1::2], np.ones(4))


def test_rel_pos_encoding_closed_form():
    d = 12
    for k in (-7, 1, 5, 30):
        vec = rel_pos_encoding(k, d)
        for i in range(d // 2):
            freq = k / (10000 ** (2 * i / d))
            assert vec[2 * i] == pytest.approx(math.sin(freq), abs=1e-12)
            assert vec[2 * i + 1] == pytest.approx(math.cos(freq), abs=1e-12)


def test_table_covers_row_window():
    # chunk queries of [8 | 4 | 4] rows read distances 11 down to -7
    table = build_rel_pos_table(l_att=8, c=4, r=4, d_model=8, l_max=11)
    assert (table.l, table.c, table.r) == (8, 4, 4)
    assert table.encodings.shape == (8 + 2 * 4 + 4 - 1, 8)
    for i, dist in enumerate(range(11, -8, -1)):
        assert np.array_equal(table.encodings[i], rel_pos_encoding(dist, 8))
    # a row geometry wider than the table is refused, not wrapped around
    p = random_params(np.random.default_rng(0), 8)
    with pytest.raises(DistanceRangeError):
        chunk_attention(*gather(np.zeros((12, 8)), [0], p, build_rel_pos_table(8, 4, 6, 8)),
                        p, table, 1)
    with pytest.raises(DistanceRangeError):
        build_rel_pos_table(l_att=8, c=4, r=4, d_model=8, l_max=10)
    with pytest.raises(DistanceRangeError):   # -(c + r - 1) is the farthest here
        build_rel_pos_table(l_att=0, c=2, r=10, d_model=8, l_max=10)


@pytest.mark.parametrize("l,c,r,d", [(0, 3, 2, 8),        # no left context
                                     (4, 3, 0, 8),        # no lookahead
                                     (128, 64, 128, 256)])  # the paper's geometry
def test_table_is_the_stacked_encodings_bit_for_bit(l, c, r, d):
    table = build_rel_pos_table(l, c, r, d)
    rows = np.stack([rel_pos_encoding(k, d) for k in range(l + c - 1, -(c + r), -1)])
    assert table.encodings.dtype == rows.dtype == np.float64
    assert np.array_equal(table.encodings.view(np.uint8), rows.view(np.uint8))


def test_table_of_another_geometry_with_as_many_rows_is_refused(rng):
    # (2, 2, 3) and (3, 2, 2) rows both read l + 2c + r - 1 = 8 distances,
    # but not the same ones
    d, heads = 8, 2
    p = random_params(rng, d)
    table = build_rel_pos_table(2, 2, 3, d)
    own = build_rel_pos_table(3, 2, 2, d)
    assert table.encodings.shape == own.encodings.shape == (8, d)
    batch, queries = gather(rng.normal(size=(9, d)), [0, 2, 4, 6, 8], p, own)
    with pytest.raises(DistanceRangeError, match=r"\(3, 2, 2\).*\(2, 2, 3\)"):
        chunk_attention(batch, queries, p, table, heads)
    assert chunk_attention(batch, queries, p, own, heads).shape == (5, 2, d)


def test_batch_of_another_shape_than_its_geometry_is_refused(rng):
    # the positional scores are a strided view sized by the rows: a batch
    # whose rows are wider than l + 2c + r - 1 must not reach it
    d, heads, (l, c, r) = 8, 2, (3, 2, 2)
    p = random_params(rng, d)
    table = build_rel_pos_table(l, c, r, d)
    batch, queries = gather(rng.normal(size=(9, d)), [0, 2, 4, 6, 8], p, table)
    width = l + 2 * c + r   # one past the l + 2c + r - 1 distances of the table
    bad = {
        "wide rows": (ChunkBatch(np.ones((5, width, 2 * d)), np.ones((5, width), bool),
                                 l, c, r), queries),
        "short mask": (ChunkBatch(batch.rows, batch.mask[:, 1:], l, c, r), queries),
        "K rows only": (ChunkBatch(batch.rows[..., :d], batch.mask, l, c, r), queries),
        "queries of another width": (batch, queries[..., :d // 2]),
        "queries of another count": (batch, queries[:, :1]),
        "queries of other rows": (batch, queries[1:]),
    }
    for name, (b, q) in bad.items():
        with pytest.raises(DistanceRangeError, match=r"need K\|V rows") as err:
            chunk_attention(b, q, p, table, heads)
        assert "\n" not in str(err.value), name
    assert chunk_attention(batch, queries, p, table, heads).shape == (5, c, d)


def test_scores_zero_inputs_zero_bias(rng):
    d, l, c, r = 4, 2, 2, 1
    p = random_params(rng, d)
    p.u = np.zeros(d)
    p.v = np.zeros(d)
    table = build_rel_pos_table(l, c, r, d)
    row = np.zeros((l + c + r, d))
    logits = attention_scores(row, p, table, n_heads=1)
    assert logits.shape == (1, c, l + c + r)
    assert np.allclose(logits, 0.0)


def test_scores_match_term_by_term_reference(rng):
    # literal four-term evaluation of the score for every (query, key) pair
    for l, c, r, n_heads in [(3, 2, 2, 1),    # the base case
                             (0, 3, 2, 1),    # no left context
                             (4, 3, 0, 1),    # no lookahead
                             (3, 1, 2, 1),    # one-frame chunks
                             (2, 3, 5, 1),    # c does not divide r
                             (5, 4, 3, 2)]:   # several heads
        d = 4 * n_heads
        d_k = d // n_heads
        p = random_params(rng, d)
        table = build_rel_pos_table(l, c, r, d)
        row = rng.normal(size=(l + c + r, d))
        logits = attention_scores(row, p, table, n_heads)
        assert logits.shape == (n_heads, c, l + c + r)
        for h in range(n_heads):
            heads = slice(h * d_k, (h + 1) * d_k)
            u, v = p.u[heads], p.v[heads]
            for qi in range(c):
                j = l + qi
                for t in range(l + c + r):
                    q = (row[j] @ p.wq)[heads]
                    k = (row[t] @ p.wk)[heads]
                    rho = (rel_pos_encoding(j - t, d) @ p.wr)[heads]
                    expected = (q @ k + q @ rho + u @ k + v @ rho) / math.sqrt(d_k)
                    assert logits[h, qi, t] == pytest.approx(expected, rel=1e-9)


def test_scores_equal_content_equal_distance_symmetry(rng):
    # two keys with identical content and identical relative distance from
    # their respective queries produce identical logits
    d, l, c, r = 8, 4, 4, 0
    p = random_params(rng, d)
    table = build_rel_pos_table(l, c, r, d)
    row = rng.normal(size=(l + c + r, d))
    row[1] = row[3]
    row[5] = row[7]  # queries at positions 5 and 7 share content too
    logits = attention_scores(row, p, table, n_heads=2)
    # query 5 vs key 1 has distance 4, query 7 vs key 3 has distance 4
    assert np.allclose(logits[:, 1, 1], logits[:, 3, 3])


def test_masked_softmax_single_valid_key():
    logits = np.array([[3.0, 1.0, -2.0]])
    mask = np.array([[False, True, False]])
    w = masked_softmax(logits, mask)
    assert np.array_equal(w, [[0.0, 1.0, 0.0]])


def test_masked_softmax_all_masked_row():
    w = masked_softmax(np.ones((2, 4)), np.zeros((2, 4), bool))
    assert np.array_equal(w, np.zeros((2, 4)))


def test_masked_softmax_uniform_logits(rng):
    mask = np.array([True, False, True, True, False])
    w = masked_softmax(np.zeros((1, 5)), mask[None])
    assert np.allclose(w[0][mask], 1 / 3)
    assert np.all(w[0][~mask] == 0)


def test_masked_softmax_rows_sum_to_one(rng):
    logits = rng.normal(size=(6, 3, 10)).astype(np.float32)
    mask = rng.random((6, 1, 10)) < 0.7
    mask[..., 0] = True
    w = masked_softmax(logits, mask)
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)


def test_chunk_attention_full_context_limit(rng):
    d, heads, t_len = 16, 2, 12
    p = random_params(rng, d)
    ctx = ContextConfig(l_att=t_len, c=t_len, r=t_len)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, d)
    x = rng.normal(size=(t_len, d))
    out = attend(x, [0], p, table, heads)
    ref = dense_attention_reference(x, p, np.ones((t_len, t_len), bool), heads)
    assert rel_err(out[0, :t_len], ref) <= 1e-12


def test_chunk_attention_matches_dense_reference_per_chunk(rng):
    d, heads = 8, 2
    ctx = ContextConfig(l_att=5, c=3, r=2)
    p = random_params(rng, d)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, d)
    for t_len in (7, 12, 16):
        x = rng.normal(size=(t_len, d))
        n = -(-t_len // ctx.c)
        out = attend(x, ctx.c * np.arange(n), p, table, heads)
        got = np.concatenate([out[j, :min(ctx.c, t_len - j * ctx.c)]
                              for j in range(n)])
        ref = dense_attention_reference(x, p, chunk_window_mask(t_len, ctx), heads)
        assert rel_err(got, ref) <= 1e-10


def test_chunk_attention_two_audio_batch_equals_solo(rng):
    d, heads = 8, 2
    ctx = ContextConfig(l_att=4, c=3, r=2)
    p = random_params(rng, d)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, d)
    xa = rng.normal(size=(8, d))
    xb = rng.normal(size=(5, d))

    def rows_for(x):
        return gather(x, ctx.c * np.arange(-(-x.shape[0] // ctx.c)), p, table)

    (ba, qa), (bb, qb) = rows_for(xa), rows_for(xb)
    combined = ChunkBatch(rows=np.concatenate([ba.rows, bb.rows]),
                          mask=np.concatenate([ba.mask, bb.mask]),
                          l=ctx.l_att, c=ctx.c, r=ctx.r)
    out = chunk_attention(combined, np.concatenate([qa, qb]), p, table, heads)
    solo_a = chunk_attention(ba, qa, p, table, heads)
    solo_b = chunk_attention(bb, qb, p, table, heads)
    assert np.array_equal(out[: ba.rows.shape[0]], solo_a)
    assert np.array_equal(out[ba.rows.shape[0]:], solo_b)


def test_window_bounds_keys_outside_have_no_effect(rng):
    # query j in chunk i sees no key before i*c - l_att or at/after (i+1)*c + r
    d, heads = 8, 1
    ctx = ContextConfig(l_att=3, c=3, r=2)
    p = random_params(rng, d)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, d)
    x = rng.normal(size=(12, d))
    starts = ctx.c * np.arange(4)
    base = attend(x, starts, p, table, heads)
    # chunk 1 covers frames 3..5, window is [0, 8); frames 8.. are invisible
    x2 = x.copy()
    x2[8:] += rng.normal(size=(4, d))
    out2 = attend(x2, starts, p, table, heads)
    assert np.array_equal(out2[1], base[1])


def test_poisoned_masked_keys_change_nothing_bitwise(rng):
    # masked K|V positions, keys and values alike, may hold anything: a
    # value slot left at inf or NaN would make its zero weight 0 * inf = NaN
    d, heads = 8, 2
    ctx = ContextConfig(l_att=4, c=3, r=2)
    p = random_params(rng, d)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, d)
    x = rng.normal(size=(7, d))
    for dtype in (np.float32, np.float64):
        pd, td = cast_params(p, dtype), cast_params(table, dtype)
        batch, queries = gather(x.astype(dtype), [0, 3, 6], pd, td)
        assert not batch.mask.all()
        base = chunk_attention(batch, queries, pd, td, heads)
        clean = batch.rows.copy()
        for poison in (rng.normal(size=clean.shape) * 1e6, np.inf, -np.inf, np.nan):
            batch.rows = np.where(batch.mask[..., None], clean, poison).astype(dtype)
            got = chunk_attention(batch, queries, pd, td, heads)
            assert got.dtype == dtype
            assert np.array_equal(got.view(np.uint8), base.view(np.uint8)), (dtype, poison)


def test_chunk_attention_of_no_rows_is_empty(rng):
    d, heads = 8, 2
    p = random_params(rng, d)
    table = build_rel_pos_table(4, 3, 2, d)
    out = attend(rng.normal(size=(5, d)), np.zeros(0, np.int64), p, table, heads)
    assert out.shape == (0, 3, d) and out.dtype == np.float64


def test_dtype_paths(rng):
    d, heads = 16, 2
    ctx = ContextConfig(l_att=6, c=4, r=3)
    p = random_params(rng, d)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, d)
    x = rng.normal(size=(20, d))
    n = 5
    ref = dense_attention_reference(x, p, chunk_window_mask(20, ctx), heads)
    for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
        out = attend(x.astype(dtype), ctx.c * np.arange(n), cast_params(p, dtype),
                     table, heads)
        assert out.dtype == dtype and out.shape == (n, ctx.c, d)
        got = np.concatenate([out[j, :ctx.c] for j in range(n)])
        assert rel_err(got, ref) <= tol


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_masked_softmax_bitwise_equals_reference_formula(rng, dtype):
    def reference(logits, mask):
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape)
        neg = np.array(-np.inf, dtype=logits.dtype)
        shifted = np.where(mask, logits, neg)
        peak = shifted.max(axis=-1, keepdims=True)
        peak = np.where(np.isfinite(peak), peak, np.zeros((), dtype=logits.dtype))
        weights = np.exp(shifted - peak)
        weights = np.where(mask, weights, np.zeros((), dtype=logits.dtype))
        denom = weights.sum(axis=-1, keepdims=True)
        safe = np.where(denom > 0, denom, np.ones((), dtype=logits.dtype))
        return weights / safe

    # widths 1-3 take the fold's single, even and odd (overlapping) halves,
    # 32 is the default model's row, and 320 is wide enough for the reduce
    for width in (1, 2, 3, 9, 32, 320):
        logits = (rng.normal(size=(3, 2, 5, width)) * 20).astype(dtype)
        logits[0, 0, 0, 2 % width] = np.inf
        logits[0, 1, 1, 4 % width] = -np.inf
        logits[1, 0, 2, :] = -np.inf
        logits[2, 1, 3, 0] = np.nan
        mask = rng.random((3, 1, 1, width)) < 0.7
        mask[0, ..., [2 % width, 4 % width]] = True    # +inf and -inf among the valid keys
        mask[2, ..., 0] = True                         # and a NaN
        mask[1] = False                                # fully masked rows
        before = logits.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            got = masked_softmax(logits, mask)
            want = reference(logits, mask)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want, equal_nan=True), width
        ok = ~np.isnan(want)
        assert np.array_equal(got[ok].view(np.uint8), want[ok].view(np.uint8)), width
        assert np.array_equal(logits.view(np.uint8), before.view(np.uint8)), width
        if width == 1:      # a lone valid key gets weight 1, a masked one 0
            assert np.array_equal(got[1], np.zeros_like(got[1]))
            assert (got[2][~np.isnan(logits[2])] == 1).all()
