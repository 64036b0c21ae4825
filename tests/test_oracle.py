import numpy as np
import pytest

from chunkasr.config import ContextConfig, ModelConfig
from chunkasr.encoder import encode_full, init_weights
from chunkasr.functional import cast_params
from chunkasr.oracle import (OracleReport, _chunk_attention_loop, chunk_window_mask,
                             compare, dense_attention_reference, full_context_encode,
                             full_subsample, loop_oct_encode, run_selftest)
from test_attention import random_params
from conftest import dropping_oldest_att_frame, rel_err


def test_all_true_mask_is_standard_relative_attention(rng):
    d = 8
    p = random_params(rng, d)
    x = rng.normal(size=(10, d))
    out = dense_attention_reference(x, p, np.ones((10, 10), bool), n_heads=2)
    # softmax rows over a full mask must be a convex mix of value rows
    assert out.shape == (10, d)
    assert np.all(np.isfinite(out))


def test_block_diagonal_mask_separates_audios(rng):
    d = 8
    p = random_params(rng, d)
    xa = rng.normal(size=(6, d))
    xb = rng.normal(size=(4, d))
    both = np.concatenate([xa, xb])
    mask = np.zeros((10, 10), bool)
    mask[:6, :6] = True
    mask[6:, 6:] = True
    joint = dense_attention_reference(both, p, mask, n_heads=2)
    solo_a = dense_attention_reference(xa, p, np.ones((6, 6), bool), n_heads=2)
    solo_b = dense_attention_reference(xb, p, np.ones((4, 4), bool), n_heads=2)
    assert rel_err(joint[:6], solo_a) <= 1e-12
    assert rel_err(joint[6:], solo_b) <= 1e-12


def test_window_mask_matches_summation_limits():
    ctx = ContextConfig(l_att=4, c=3, r=2)
    mask = chunk_window_mask(9, ctx)
    for j in range(9):
        i = j // 3
        for t in range(9):
            assert mask[j, t] == (i * 3 - 4 <= t < (i + 1) * 3 + 2)


# (l_att, c, r, L): r = 0 with a partial last chunk, l_att = 0 on whole
# chunks, a c that does not divide r, L < c, and a partial last chunk
WINDOWS = [(5, 4, 0, 18), (0, 3, 4, 12), (6, 4, 6, 22), (3, 8, 2, 5), (2, 4, 3, 9)]


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("l_att,c,r,L", WINDOWS)
def test_loop_windows_equal_dense_under_window_mask(l_att, c, r, L, heads, rng):
    # the two oracles share one attention formula, so only their windows can
    # differ: the loop's per-chunk slices against chunk_window_mask
    ctx = ContextConfig(l_att=l_att, c=c, r=r)
    p = random_params(rng, 16)
    h = rng.normal(size=(L, 16))
    loop = _chunk_attention_loop(h, p, ctx, heads)
    dense = dense_attention_reference(h, p, chunk_window_mask(L, ctx), heads)
    assert loop.dtype == dense.dtype == np.float64
    assert rel_err(loop, dense) <= 1e-12


def test_full_context_zero_layers_is_subsample(rng):
    model = ModelConfig(n_layers=0, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=1, vocab_size=4, l_max=32)
    w = init_weights(model, seed=0)
    feats = rng.normal(size=(64, 80)).astype(np.float32)
    out = full_context_encode(feats, w, model)
    assert np.array_equal(out, full_subsample(feats, w))


def test_full_context_deterministic(small_model, small_weights, rng):
    feats = rng.normal(size=(100, 80)).astype(np.float32)
    a = full_context_encode(feats, small_weights, small_model)
    b = full_context_encode(feats, small_weights, small_model)
    assert np.array_equal(a, b)


def test_loop_oracle_single_audio_matches_fast_path(small_model, small_ctx,
                                                    small_weights, rng):
    feats = {"a": rng.normal(size=(130, 80)).astype(np.float32)}
    fast = encode_full(feats, cast_params(small_weights, np.float64), small_ctx,
                       small_model, budget=10 ** 6)
    ref = loop_oct_encode(feats, small_weights, small_ctx, small_model)
    assert rel_err(fast["a"], ref["a"]) <= 1e-12


def test_loop_oracle_order_independent(small_model, small_ctx, small_weights, rng):
    fa = rng.normal(size=(90, 80)).astype(np.float32)
    fb = rng.normal(size=(50, 80)).astype(np.float32)
    one = loop_oct_encode({"a": fa, "b": fb}, small_weights, small_ctx, small_model)
    two = loop_oct_encode({"b": fb, "a": fa}, small_weights, small_ctx, small_model)
    assert np.array_equal(one["a"], two["a"])
    assert np.array_equal(one["b"], two["b"])


def test_compare_report_fields():
    rep = compare("demo", np.array([[1.0, 2.0]]), np.array([[1.0, 2.5]]), 1e-3)
    assert not rep.passed
    assert rep.first_divergent_index == 0
    assert rep.max_rel_err == pytest.approx(0.2)
    ok = compare("demo", np.ones(3), np.ones(3), 1e-6)
    assert ok.passed and ok.first_divergent_index is None
    assert "ok" in ok.line()


def test_selftest_all_green():
    reports = run_selftest(seed=0)
    assert all(isinstance(r, OracleReport) for r in reports)
    assert all(r.passed for r in reports), [r.line() for r in reports]
    names = {r.suite for r in reports}
    assert {"dense_att_f32", "dense_att_f64", "streaming", "masked_batch",
            "full_context", "poison", "ctc_split"} <= names


def test_selftest_catches_injected_cache_bug(monkeypatch):
    # an off-by-one in the attention cache must break both multi-step suites
    from chunkasr import encoder

    monkeypatch.setattr(encoder, "encode_step", dropping_oldest_att_frame())
    reports = run_selftest(seed=0)
    failed = {r.suite for r in reports if not r.passed}
    assert {"streaming", "masked_batch"} <= failed


POISONS = {"noise": lambda rows: np.isfinite(rows).all() and np.abs(rows).max() > 1e5,
           "+inf": lambda rows: np.isposinf(rows).any(),
           "-inf": lambda rows: np.isneginf(rows).any(),
           "nan": lambda rows: np.isnan(rows).any()}


@pytest.mark.parametrize("kind", list(POISONS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_selftest_poison_suite_catches_a_leaking_mask(monkeypatch, dtype, kind):
    # attention that reads the masked slots of rows of one dtype holding one
    # poison kind: the poison suite, and only it, must fail, so it covers both
    # dtypes and all four kinds
    from chunkasr import attention
    from chunkasr.chunking import ChunkBatch

    real = attention.chunk_attention

    def leaking(batch, *args):
        if batch.rows.dtype == dtype and POISONS[kind](batch.rows):
            batch = ChunkBatch(batch.rows, np.ones_like(batch.mask),
                               batch.l, batch.c, batch.r)
        return real(batch, *args)

    monkeypatch.setattr(attention, "chunk_attention", leaking)
    with np.errstate(all="ignore"):
        reports = run_selftest(seed=0)
    assert {r.suite for r in reports if not r.passed} == {"poison"}
