import math

import numpy as np
import pytest

from chunkasr.attention import (AttentionParams, DistanceRangeError, _score_batch,
                                build_rel_pos_table, chunk_attention,
                                masked_softmax, rel_pos_encoding)
from chunkasr.chunking import ChunkBatch, oct_segment
from chunkasr.config import ContextConfig
from chunkasr.oracle import chunk_window_mask, dense_attention_reference
from conftest import rel_err


def attention_scores(row, p, table, l, c, r, n_heads):
    """Logits (H, c+r, l+c+r) of one row, scored as a one-row batch."""
    return _score_batch(row[None], p, table, l, c, r, n_heads)[0]


def random_params(rng, d):
    def m():
        return rng.normal(size=(d, d)) / math.sqrt(d)
    return AttentionParams(wq=m(), wk=m(), wv=m(), wr=m(),
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
    table = build_rel_pos_table(l_att=8, c=4, r=4, d_model=8, l_max=16)
    assert table.encodings.shape[0] == table.max_dist - table.min_dist + 1
    for dist in range(-8, 13):
        vec = table.encodings[dist - table.min_dist]
        assert np.array_equal(vec, rel_pos_encoding(dist, 8))
    # a row geometry wider than the table is refused, not wrapped around
    rows = np.zeros((1, 8 + 4 + 6, 8))
    with pytest.raises(DistanceRangeError):
        _score_batch(rows, random_params(np.random.default_rng(0), 8), table,
                     8, 4, 6, 1)
    with pytest.raises(DistanceRangeError):
        build_rel_pos_table(l_att=8, c=4, r=4, d_model=8, l_max=8)


def test_scores_zero_inputs_zero_bias(rng):
    d, l, c, r = 4, 2, 2, 1
    p = random_params(rng, d)
    p.u = np.zeros(d)
    p.v = np.zeros(d)
    table = build_rel_pos_table(l, c, r, d)
    row = np.zeros((l + c + r, d))
    logits = attention_scores(row, p, table, l, c, r, n_heads=1)
    assert logits.shape == (1, c + r, l + c + r)
    assert np.allclose(logits, 0.0)


def test_scores_match_term_by_term_reference(rng):
    # literal four-term evaluation of the score for every (query, key) pair
    d, l, c, r = 4, 3, 2, 2
    p = random_params(rng, d)
    table = build_rel_pos_table(l, c, r, d)
    row = rng.normal(size=(l + c + r, d))
    logits = attention_scores(row, p, table, l, c, r, n_heads=1)[0]
    for qi in range(c + r):
        j = l + qi
        for t in range(l + c + r):
            q = row[j] @ p.wq
            k = row[t] @ p.wk
            rho = rel_pos_encoding(j - t, d) @ p.wr
            expected = (q @ k + q @ rho + p.u @ k + p.v @ rho) / math.sqrt(d)
            assert logits[qi, t] == pytest.approx(expected, rel=1e-9)


def test_scores_equal_content_equal_distance_symmetry(rng):
    # two keys with identical content and identical relative distance from
    # their respective queries produce identical logits
    d, l, c, r = 8, 4, 4, 0
    p = random_params(rng, d)
    table = build_rel_pos_table(l, c, r, d)
    row = rng.normal(size=(l + c + r, d))
    row[1] = row[3]
    row[5] = row[7]  # queries at positions 5 and 7 share content too
    logits = attention_scores(row, p, table, l, c, r, n_heads=2)
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
    w = masked_softmax(logits, mask, beta=1.0)
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-6)


def test_chunk_attention_full_context_limit(rng):
    d, heads, t_len = 16, 2, 12
    p = random_params(rng, d)
    ctx = ContextConfig(l_att=t_len, c=t_len, r=t_len)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, d)
    x = rng.normal(size=(t_len, d))
    batch = oct_segment(x, [0], ctx.l_att, ctx.c, ctx.r)
    out = chunk_attention(batch, p, table, heads)
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
        batch = oct_segment(x, ctx.c * np.arange(n), ctx.l_att, ctx.c, ctx.r)
        out = chunk_attention(batch, p, table, heads)
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
        n = -(-x.shape[0] // ctx.c)
        return oct_segment(x, ctx.c * np.arange(n), ctx.l_att, ctx.c, ctx.r)

    ba, bb = rows_for(xa), rows_for(xb)
    combined = ChunkBatch(rows=np.concatenate([ba.rows, bb.rows]),
                          mask=np.concatenate([ba.mask, bb.mask]),
                          l=ctx.l_att, c=ctx.c, r=ctx.r)
    out = chunk_attention(combined, p, table, heads)
    solo_a = chunk_attention(ba, p, table, heads)
    solo_b = chunk_attention(bb, p, table, heads)
    assert np.array_equal(out[: ba.rows.shape[0]], solo_a)
    assert np.array_equal(out[ba.rows.shape[0]:], solo_b)


def test_window_bounds_keys_outside_have_no_effect(rng):
    # query j in chunk i sees no key before i*c - l_att or at/after (i+1)*c + r
    d, heads = 8, 1
    ctx = ContextConfig(l_att=3, c=3, r=2)
    p = random_params(rng, d)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, d)
    x = rng.normal(size=(12, d))
    n = 4
    base = chunk_attention(oct_segment(x, ctx.c * np.arange(n), ctx.l_att,
                                       ctx.c, ctx.r), p, table, heads)
    # chunk 1 covers frames 3..5, window is [0, 8); frames 8.. are invisible
    x2 = x.copy()
    x2[8:] += rng.normal(size=(4, d))
    out2 = chunk_attention(oct_segment(x2, ctx.c * np.arange(n), ctx.l_att,
                                       ctx.c, ctx.r), p, table, heads)
    assert np.array_equal(out2[1], base[1])


def test_poisoned_masked_keys_change_nothing_bitwise(rng):
    d, heads = 8, 2
    ctx = ContextConfig(l_att=4, c=3, r=2)
    p = random_params(rng, d)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, d)
    x = rng.normal(size=(7, d))
    batch = oct_segment(x, [0, 3, 6], ctx.l_att, ctx.c, ctx.r)
    base = chunk_attention(batch, p, table, heads)
    poison = rng.normal(size=batch.rows.shape) * 1e6
    batch.rows = np.where(batch.mask[..., None], batch.rows, poison)
    assert np.array_equal(chunk_attention(batch, p, table, heads), base)


def test_dtype_paths(rng):
    d, heads = 16, 2
    ctx = ContextConfig(l_att=6, c=4, r=3)
    p = random_params(rng, d)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, d)
    x = rng.normal(size=(20, d))
    n = 5
    ref = dense_attention_reference(x, p, chunk_window_mask(20, ctx), heads)
    for dtype, tol in ((np.float32, 1e-5), (np.float64, 1e-12)):
        batch = oct_segment(x.astype(dtype), ctx.c * np.arange(n),
                            ctx.l_att, ctx.c, ctx.r)
        out = chunk_attention(batch, p, table, heads)
        assert out.dtype == dtype
        got = np.concatenate([out[j, :ctx.c] for j in range(n)])
        assert rel_err(got, ref) <= tol

