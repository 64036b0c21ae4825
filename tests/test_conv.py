import numpy as np
import pytest

from chunkasr.config import ConfigError, ContextConfig, ModelConfig
from chunkasr.attention import build_rel_pos_table
from chunkasr.chunking import StreamState, schedule_step
from chunkasr.conv import ConvParams, conv_module_forward, depthwise_conv
from chunkasr.encoder import encode_full, encode_step, init_weights, post_frames
from chunkasr.functional import Workspace, cast_params, layer_norm
from chunkasr.oracle import _conv_module_full, _depthwise_full
from conftest import rel_err


def random_conv_params(rng, d, k):
    return ConvParams(
        ln_g=np.ones(d), ln_b=np.zeros(d),
        pw_in_w=rng.normal(size=(d, 2 * d)) / np.sqrt(d),
        pw_in_b=rng.normal(size=2 * d) * 0.1,
        dw_w=rng.normal(size=(k, d)) / np.sqrt(k),
        dw_ln_g=1.0 + 0.1 * rng.normal(size=d),
        dw_ln_b=0.1 * rng.normal(size=d),
        pw_out_w=rng.normal(size=(d, d)) / np.sqrt(d),
        pw_out_b=rng.normal(size=d) * 0.1,
    )


def segment_layout(rng, lengths, d):
    """Back-to-back segments of the given lengths, and each one's first index."""
    x = rng.normal(size=(sum(lengths), d))
    return x, np.cumsum(lengths) - np.array(lengths)


def test_identity_kernel_passes_input_through(rng):
    d = 4
    x, _ = segment_layout(rng, [5, 4], d)
    kernel = np.zeros((3, d))
    kernel[1] = 1.0
    out = depthwise_conv(x, kernel, [5, 4], np.arange(9))
    assert out.shape == (9, d)
    assert np.array_equal(out, x)


def test_depthwise_matches_full_sequence_per_segment(rng):
    # every segment convolves as its own zero-padded sequence, including
    # segments shorter than the kernel reach and an empty one
    d, k = 6, 5
    lengths = [20, 1, 0, 3, 11]
    x, starts = segment_layout(rng, lengths, d)
    kernel = rng.normal(size=(k, d))
    out = depthwise_conv(x, kernel, lengths, np.arange(x.shape[0]))
    full = np.concatenate([_depthwise_full(x[s:s + n], kernel, 1)
                           for s, n in zip(starts, lengths)])
    assert rel_err(out, full) <= 1e-12
    # a subset of frames reads the same values
    at = np.array([2, 19, 20, 22, 30])
    assert np.array_equal(depthwise_conv(x, kernel, lengths, at), out[at])


def test_depthwise_rejects_even_kernel(rng):
    with pytest.raises(ConfigError):
        depthwise_conv(rng.normal(size=(8, 2)), rng.normal(size=(4, 2)), [8], [0])


def test_no_leak_between_audios_in_one_batch(rng):
    # outputs of one audio's segment read nothing of its neighbours', not
    # even where its kernel reaches past the segment's ends
    d, k = 4, 7
    lengths = [9, 12, 5]
    p = random_conv_params(rng, d, k)
    x, starts = segment_layout(rng, lengths, d)
    at = starts[1] + np.arange(lengths[1])
    base = conv_module_forward(x, p, lengths, at, Workspace())
    dirty = x.copy()
    dirty[:starts[1]] = rng.normal(size=(starts[1], d)) * 1e6
    dirty[starts[2]:] = np.nan    # any read of it would show
    with np.errstate(invalid="ignore"):
        assert np.array_equal(conv_module_forward(dirty, p, lengths, at, Workspace()), base)
        assert np.array_equal(depthwise_conv(dirty, p.dw_w, lengths, at),
                              depthwise_conv(x, p.dw_w, lengths, at))


def test_module_poison_is_bitwise_invisible(rng):
    # in float32, frames no output reads (farther than l_conv from every
    # output frame of their segment, or in a segment with no outputs) may
    # hold anything without changing a bit of the outputs
    d, k = 4, 3
    p = cast_params(random_conv_params(rng, d, k), np.float32)
    lengths = [9, 9, 9]
    x, starts = segment_layout(rng, lengths, d)
    x = x.astype(np.float32)
    at = np.concatenate([starts[0] + np.arange(2, 9), starts[2] + np.arange(2, 6)])
    read = np.zeros(x.shape[0], bool)
    for off in range(-(k // 2), k // 2 + 1):
        read[at + off] = True
    read[starts[1]:starts[2]] = False
    assert not read[starts[0]] and not read[-1]
    base = conv_module_forward(x, p, lengths, at, Workspace())
    dirty = np.where(read[:, None], x,
                     rng.normal(size=x.shape).astype(np.float32) * 1e5)
    assert np.array_equal(conv_module_forward(dirty, p, lengths, at, Workspace()), base)


def test_module_zero_input_zero_bias_gives_zero(rng):
    d, k = 6, 5
    p = random_conv_params(rng, d, k)
    p.pw_in_b = np.zeros(2 * d)
    p.pw_out_b = np.zeros(d)
    p.dw_ln_b = np.zeros(d)
    out = conv_module_forward(np.zeros((7, d)), p, [3, 4], np.arange(7), Workspace())
    assert np.allclose(out, 0.0)


def test_module_matches_straight_line_reference(rng, small_model):
    # normalized segments against the whole-sequence module of each segment
    d = small_model.d_model
    w = init_weights(small_model, seed=3)
    lw = cast_params(w.layers[0], np.float64)
    lengths = [24, 6, 17]
    x, starts = segment_layout(rng, lengths, d)
    h = layer_norm(x, lw.conv.ln_g, lw.conv.ln_b)
    out = conv_module_forward(h, lw.conv, lengths, np.arange(x.shape[0]), Workspace())
    full = np.concatenate([_conv_module_full(x[s:s + n], lw.conv)
                           for s, n in zip(starts, lengths)])
    assert rel_err(out, full) <= 1e-10


@pytest.mark.parametrize("kernel,cache", [(15, 7), (1, 0)])
def test_cache_length_follows_kernel(kernel, cache, rng):
    # after a step that emits 12 frames, every layer's conv cache holds
    # (kernel - 1) / 2 frames of left context before its output frontier,
    # then the conv inputs up to its attention frontier. With kernel 15 the
    # step subsamples 12 + 22 frames: layer 0's attention is exact up to
    # 4 * ((34 - 2) // 4) = 32 and its conv 7 short of that, and layer 1
    # follows from 25; with kernel 1 it subsamples 12 + 6 frames.
    att_end, conv_end = {15: ((32, 20), (25, 13)), 1: ((16, 12), (16, 12))}[kernel]
    model = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=kernel, vocab_size=4, l_max=32)
    ctx = ContextConfig(l_att=4, c=4, r=2)
    feats = {"a": rng.normal(size=(8 * 60, 80)).astype(np.float32)}
    states = {"a": StreamState("a", post_frames(8 * 60))}
    sched = schedule_step(list(states.values()), 3, ctx.c)
    table = cast_params(build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, 16, model.l_max),
                        np.float32)
    encode_step(states, sched, feats, init_weights(model, seed=2), ctx, model, table,
                Workspace())
    assert states["a"].frames_consumed == 12
    assert [c.shape[0] for c in states["a"].held[1::2]] == \
        [cache + a - o for a, o in zip(att_end, conv_end)]


def test_streaming_two_step_equals_one_step_conv_path(rng):
    # whole-encoder check dominated by the conv margins: r < l_conv
    model = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=15, vocab_size=4, l_max=32)
    ctx = ContextConfig(l_att=4, c=4, r=2)
    w = init_weights(model, seed=5)
    feats = rng.normal(size=(170, 80)).astype(np.float32)
    w = cast_params(w, np.float64)
    one = encode_full({"a": feats}, w, ctx, model, budget=10 ** 6)
    two = encode_full({"a": feats}, w, ctx, model, budget=3)
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
    x = rng.normal(size=(30, d))
    at = np.arange(30)
    base = depthwise_conv(x, kernel, [30], at)
    for pos in (0, 10, 30 - 1):
        x2 = x.copy()
        x2[pos] += 5.0
        out2 = depthwise_conv(x2, kernel, [30], at)
        # output j reads inputs [j - l_conv, j + l_conv]
        touched = abs(at - pos) <= l_conv
        assert np.array_equal(out2[~touched], base[~touched])
        assert not np.array_equal(out2[touched], base[touched])
