import numpy as np
import pytest

from chunkasr.config import ConfigError, ContextConfig, ModelConfig
from chunkasr.attention import build_rel_pos_table
from chunkasr.chunking import StreamState, carve_chunks, schedule_step
from chunkasr.conv import ConvParams, chunk_depthwise_conv, conv_module_forward
from chunkasr.encoder import encode_full, encode_step, init_weights, post_frames
from chunkasr.functional import layer_norm
from chunkasr.oracle import _conv_module_full, _depthwise_same_full, loop_oct_encode
from conftest import rel_err


def random_conv_params(rng, d, k):
    return ConvParams(
        pw_in_w=rng.normal(size=(d, 2 * d)) / np.sqrt(d),
        pw_in_b=rng.normal(size=2 * d) * 0.1,
        dw=rng.normal(size=(k, d)) / np.sqrt(k),
        ln_scale=1.0 + 0.1 * rng.normal(size=d),
        ln_shift=0.1 * rng.normal(size=d),
        pw_out_w=rng.normal(size=(d, d)) / np.sqrt(d),
        pw_out_b=rng.normal(size=d) * 0.1,
    )


def test_identity_kernel_passes_input_through(rng):
    d = 4
    rows = rng.normal(size=(2, 9, d))
    kernel = np.zeros((3, d))
    kernel[1] = 1.0
    out = chunk_depthwise_conv(rows, kernel)
    assert out.shape == (2, 7, d)
    assert np.allclose(out, rows[:, 1:8])


def test_depthwise_matches_full_sequence_on_interior(rng):
    d, k, c = 6, 5, 4
    l_conv = (k - 1) // 2
    x = rng.normal(size=(20, d))
    kernel = rng.normal(size=(k, d))
    full = _depthwise_same_full(x, kernel)
    starts = np.arange(0, 20, c)
    idx = starts[:, None] + np.arange(-l_conv, c + l_conv)[None, :]
    mask = (idx >= 0) & (idx < 20)
    rows = np.where(mask[..., None], x[np.clip(idx, 0, 19)], 0.0)
    out = chunk_depthwise_conv(rows, kernel, mask)
    got = np.concatenate([out[j] for j in range(len(starts))])
    assert rel_err(got, full) <= 1e-12


def test_depthwise_rejects_even_kernel_and_short_rows(rng):
    with pytest.raises(ConfigError):
        chunk_depthwise_conv(rng.normal(size=(1, 8, 2)), rng.normal(size=(4, 2)))
    with pytest.raises(ConfigError):
        chunk_depthwise_conv(rng.normal(size=(1, 2, 2)), rng.normal(size=(5, 2)))


def test_no_leak_between_audios_in_one_batch(rng):
    # rows from two audios packed together: poisoning the first audio's
    # content must not reach the second audio's outputs
    d, k = 4, 3
    ka = rng.normal(size=(k, d))
    rows = rng.normal(size=(4, 8, d))
    mask = np.ones((4, 8), bool)
    mask[2, :1] = False  # second audio's first row has no real left margin
    base = chunk_depthwise_conv(rows, ka, mask)
    rows2 = rows.copy()
    rows2[:2] += 100.0          # perturb only the first audio's rows
    rows2[2, 0] = 1e9           # and the masked margin of the second audio
    out2 = chunk_depthwise_conv(rows2, ka, mask)
    assert np.array_equal(out2[2:], base[2:])


def test_module_zero_input_zero_bias_gives_zero(rng):
    d, k = 6, 5
    p = random_conv_params(rng, d, k)
    p.pw_in_b = np.zeros(2 * d)
    p.pw_out_b = np.zeros(d)
    p.ln_shift = np.zeros(d)
    rows = np.zeros((2, 3 + 2 * ((k - 1) // 2), d))
    out = conv_module_forward(rows, p)
    assert np.allclose(out, 0.0)


def test_module_matches_straight_line_reference(rng, small_model):
    # gathered rows against the whole-sequence module on interior frames
    d, k, c = small_model.d_model, small_model.kernel_size, 4
    l_conv = (k - 1) // 2
    w = init_weights(small_model, seed=3)
    lw = w.layers[0]
    x = rng.normal(size=(24, d))
    h = layer_norm(x, lw.conv_ln_g.astype(np.float64), lw.conv_ln_b.astype(np.float64))
    full = _conv_module_full(x, lw, np.float64)
    starts = np.arange(0, 24, c)
    idx = starts[:, None] + np.arange(-l_conv, c + l_conv)[None, :]
    mask = (idx >= 0) & (idx < 24)
    rows = np.where(mask[..., None], h[np.clip(idx, 0, 23)], 0.0)
    out = conv_module_forward(rows, lw.conv, mask)
    got = np.concatenate([out[j] for j in range(len(starts))])
    assert rel_err(got, full) <= 1e-10


def test_module_poison_is_bitwise_invisible(rng):
    d, k = 4, 3
    p = random_conv_params(rng, d, k)
    rows = rng.normal(size=(3, 9, d)).astype(np.float32)
    mask = np.ones((3, 9), bool)
    mask[:, :2] = False
    mask[-1, -3:] = False
    rows = np.where(mask[..., None], rows, 0.0).astype(np.float32)
    base = conv_module_forward(rows, p, mask)
    rows2 = np.where(mask[..., None], rows,
                     rng.normal(size=rows.shape).astype(np.float32) * 1e5)
    assert np.array_equal(conv_module_forward(rows2, p, mask), base)


@pytest.mark.parametrize("kernel,cache", [(15, 7), (1, 0)])
def test_cache_length_follows_kernel(kernel, cache, rng):
    # after a step that emits 12 frames, every layer keeps (kernel - 1) / 2
    model = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=kernel, vocab_size=4, l_max=32)
    ctx = ContextConfig(l_att=4, c=4, r=2)
    feats = {"a": rng.normal(size=(8 * 30, 80)).astype(np.float32)}
    states = {"a": StreamState("a", post_frames(8 * 30))}
    plans = {"a": carve_chunks(30, ctx.c, "a")}
    sched = schedule_step(list(states.values()), plans, 3, ctx, 2, cache)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, 16, model.l_max)
    encode_step(states, sched, feats, init_weights(model, seed=2), ctx, model, table)
    assert states["a"].frames_consumed == 12
    assert [c.shape[0] for c in states["a"].conv_caches] == [cache, cache]


def test_streaming_two_step_equals_one_step_conv_path(rng):
    # whole-encoder check dominated by the conv margins: r < l_conv
    model = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=15, vocab_size=4, l_max=32)
    ctx = ContextConfig(l_att=4, c=4, r=2)
    w = init_weights(model, seed=5)
    feats = rng.normal(size=(170, 80)).astype(np.float32)
    one = encode_full({"a": feats}, w, ctx, model, budget=10 ** 6, dtype=np.float64)
    two = encode_full({"a": feats}, w, ctx, model, budget=3, dtype=np.float64)
    assert rel_err(two["a"], one["a"]) <= 1e-12


def test_layer_norm_statistics_over_features_only(rng):
    x = rng.normal(size=(5, 7, 16)) * 3 + 1
    y = layer_norm(x, np.ones(16), np.zeros(16))
    assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-4)
    assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)


def test_depthwise_receptive_field_is_exactly_lconv(rng):
    d, k = 3, 7
    l_conv = (k - 1) // 2
    kernel = rng.normal(size=(k, d))
    x = rng.normal(size=(1, 30, d))
    base = chunk_depthwise_conv(x, kernel)
    for pos, out_pos in [(0, 10), (30 - 1, 10)]:
        x2 = x.copy()
        x2[0, pos] += 5.0
        out2 = chunk_depthwise_conv(x2, kernel)
        # output j reads inputs [j, j + 2*l_conv]
        touched = [j for j in range(base.shape[1])
                   if j <= pos <= j + 2 * l_conv]
        untouched = [j for j in range(base.shape[1]) if j not in touched]
        assert np.array_equal(out2[0, untouched], base[0, untouched])
        assert not np.array_equal(out2[0, touched], base[0, touched])
