import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from chunkasr import chunking, encoder
from chunkasr.attention import build_rel_pos_table
from chunkasr.chunking import (ChunkingError, ChunkPlan, SchedulerError, StepSchedule,
                               StreamState, schedule_step)
from chunkasr.config import ContextConfig, ModelConfig, derive_l_conv, required_lookahead
from chunkasr.costmodel import batch_cost
from chunkasr.encoder import (CheckpointError, encode_full, encode_step,
                              init_model, init_weights, load_checkpoint, post_frames,
                              save_checkpoint, subsample_forward)
from chunkasr.frontend import HOP_SAMPLES, SAMPLE_RATE, WINDOW_SAMPLES
from chunkasr.functional import layer_norm
from chunkasr.oracle import (_chunk_attention_loop, _conv_module_full, _macaron_ff,
                             full_context_encode, full_subsample, loop_oct_encode)
from conftest import rel_err, write_cfkw


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------

def test_subsample_stride_arithmetic(small_model, small_weights, rng):
    # 8*c raw frames in, c frames out (c=4: 32 -> 4)
    feats = rng.normal(size=(32, 80))
    out = subsample_forward(feats, 0, 0, post_frames(32), small_weights.subsample,
                            32, np.float64)
    assert out.shape == (4, small_model.d_model)
    empty = subsample_forward(feats, 0, 5, 5, small_weights.subsample, 32, np.float64)
    assert empty.shape == (0, small_model.d_model)


def test_chunk_wise_subsample_equals_full_sequence(small_weights, rng):
    for t_raw in (32, 95, 200, 207):
        feats = rng.normal(size=(t_raw, 80)).astype(np.float32)
        full = full_subsample(feats, small_weights, np.float64)
        t_post = post_frames(t_raw)
        # piecewise with a 7-frame raw left margin, several split points
        for cut in {1, t_post // 2, t_post - 1} - {0}:
            p1 = subsample_forward(feats.astype(np.float64), 0, 0, cut,
                                   small_weights.subsample, t_raw, np.float64)
            buf = feats[max(0, 8 * cut - 7):].astype(np.float64)
            pad = 8 * t_post - t_raw
            if pad > 0:
                buf = np.concatenate([buf, np.zeros((pad, 80))])
            p2 = subsample_forward(buf, max(0, 8 * cut - 7), cut, t_post,
                                   small_weights.subsample, t_raw, np.float64)
            assert rel_err(np.concatenate([p1, p2]), full) <= 1e-12


def test_chunk_128_covers_10_seconds():
    # 128 post frames * 8 raw frames * 10 ms hop = 10.24 s
    assert 128 * 8 * 0.010 == pytest.approx(10.24)


def test_subsample_rejects_missing_margins(small_weights, rng):
    # post frames [1, 3) of a 21-frame audio read raw [8 - 7, min(24, 21))
    sub = small_weights.subsample
    feats = rng.normal(size=(21, 80))
    exact = subsample_forward(feats[1:], 1, 1, 3, sub, 21)
    np.testing.assert_array_equal(subsample_forward(feats, 0, 1, 3, sub, 21), exact)
    # frames past t_raw are never read, whatever they hold
    garbage = np.concatenate([feats, rng.normal(1e3, 1.0, size=(11, 80))])
    np.testing.assert_array_equal(subsample_forward(garbage[1:], 1, 1, 3, sub, 21), exact)
    with pytest.raises(SchedulerError, match="margin"):
        # without the 7-frame left margin
        subsample_forward(feats[8:], 8, 1, 3, sub, 21)
    with pytest.raises(SchedulerError, match="margin"):
        # one frame short on the left
        subsample_forward(feats[2:], 2, 1, 3, sub, 21)
    with pytest.raises(SchedulerError, match="margin"):
        # one frame short on the right
        subsample_forward(feats[1:20], 1, 1, 3, sub, 21)


def test_subsample_casts_only_its_window(small_model, small_weights):
    # a float64 step must not convert the whole float32 feature matrix
    big = np.ones((200_000, 80), np.float32)
    tracemalloc.start()
    try:
        out = subsample_forward(big, 0, 24_990, 25_000, small_weights.subsample,
                                200_000, np.float64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (10, small_model.d_model) and out.dtype == np.float64
    assert peak < 2 ** 20   # the whole matrix in float64 would be 122 MiB


# ---------------------------------------------------------------------------
# layer forward
# ---------------------------------------------------------------------------

def zero_branch_weights(model):
    w = init_weights(model, seed=0)
    lw = w.layers[0]
    lw.ff1.w2 = np.zeros_like(lw.ff1.w2)
    lw.ff1.b2 = np.zeros_like(lw.ff1.b2)
    lw.ff2.w2 = np.zeros_like(lw.ff2.w2)
    lw.ff2.b2 = np.zeros_like(lw.ff2.b2)
    lw.att.wo = np.zeros_like(lw.att.wo)
    lw.att.bo = np.zeros_like(lw.att.bo)
    lw.conv.pw_out_w = np.zeros_like(lw.conv.pw_out_w)
    lw.conv.pw_out_b = np.zeros_like(lw.conv.pw_out_b)
    rng = np.random.default_rng(1)
    lw.out_ln_g = rng.uniform(0.5, 1.5, size=lw.out_ln_g.shape).astype(np.float32)
    lw.out_ln_b = rng.normal(size=lw.out_ln_b.shape).astype(np.float32)
    return w


def test_zero_branch_layer_reduces_to_output_norm(small_ctx, rng):
    # with all residual branches zeroed the layer is exactly its final norm
    model = ModelConfig(n_layers=1, d_model=32, n_heads=2, d_ff=64,
                        kernel_size=15, vocab_size=8, l_max=64)
    w = zero_branch_weights(model)
    lw = w.layers[0]
    feats = rng.normal(size=(12 * 8 - 5, 80)).astype(np.float32)
    out = encode_full({"a": feats}, w, small_ctx, model, budget=2,
                      dtype=np.float64)["a"]
    x = full_subsample(feats, w, np.float64)
    expected = layer_norm(layer_norm(x, lw.out_ln_g, lw.out_ln_b),
                          w.after_ln_g, w.after_ln_b)
    assert rel_err(out, expected) <= 1e-12


def test_layer_matches_full_context_composition(small_model, rng):
    # one layer, windows covering everything, against the dense-layer oracle
    model = ModelConfig(n_layers=1, d_model=small_model.d_model,
                        n_heads=small_model.n_heads, d_ff=small_model.d_ff,
                        kernel_size=small_model.kernel_size,
                        vocab_size=8, l_max=256)
    ctx = ContextConfig(l_att=40, c=40, r=0)
    w = init_weights(model, seed=2)
    feats = rng.normal(size=(180, 80)).astype(np.float32)
    got = encode_full({"a": feats}, w, ctx, model, budget=100, dtype=np.float64)
    ref = full_context_encode(feats, w, model)
    assert rel_err(got["a"], ref) <= 1e-12


def encode_in_one_step(feats, w, ctx, model):
    return encode_full({"a": feats}, w, ctx, model, budget=10 ** 6)["a"]


def perturbed(feats, post_frame):
    # post frame t reads raw frames [8t - 7, 8t + 7], so raw frame 8t reaches
    # post frame t and no other
    out = feats.copy()
    out[8 * post_frame] += 1.0
    return out


def test_layer_receptive_field_grows_by_window_per_layer(rng):
    # with c=3, r=2 a single layer sees 2 future frames; stacking layers
    # extends the horizon chunk by chunk (frames 0..2 depend on 11 at N=4)
    model = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=1, vocab_size=4, l_max=32, seed=1)
    ctx = ContextConfig(l_att=6, c=3, r=2)
    w = init_weights(model, seed=4)
    feats = rng.normal(size=(20 * 8, 80)).astype(np.float32)
    base = encode_in_one_step(feats, w, ctx, model)
    # frame 5 is outside chunk 0's window [0, 5)
    out = encode_in_one_step(perturbed(feats, 5), w, ctx, model)
    assert np.array_equal(out[:3], base[:3])
    assert not np.array_equal(out[5], base[5])
    # frame 4 is inside the window
    out2 = encode_in_one_step(perturbed(feats, 4), w, ctx, model)
    assert not np.array_equal(out2[:3], base[:3])


# ---------------------------------------------------------------------------
# step driver
# ---------------------------------------------------------------------------

def test_single_short_audio_one_step(small_model, small_ctx, small_weights, rng):
    feats = rng.normal(size=(25, 80)).astype(np.float32)  # 4 post frames
    out = encode_full({"a": feats}, small_weights, small_ctx, small_model)
    assert out["a"].shape == (post_frames(25), small_model.d_model)


def test_streaming_forty_frame_audio_two_steps(rng):
    model = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=1, vocab_size=4, l_max=32)
    ctx = ContextConfig(l_att=8, c=4, r=2)
    w = init_weights(model, seed=6)
    feats = rng.normal(size=(320, 80)).astype(np.float32)  # 40 post frames
    single = encode_full({"a": feats}, w, ctx, model, budget=100, dtype=np.float64)
    stepped = encode_full({"a": feats}, w, ctx, model, budget=5, dtype=np.float64)
    assert rel_err(stepped["a"], single["a"]) <= 1e-4


def test_emitted_rows_match_schedule(small_model, small_ctx, small_weights, rng):
    # the two-audio step emits exactly the scheduled chunks' frames
    feats = {"x": rng.normal(size=(8 * 23, 80)).astype(np.float32)}
    t_post = post_frames(8 * 23)
    states = {"x": StreamState("x", t_post)}
    table = build_rel_pos_table(small_ctx.l_att, small_ctx.c, small_ctx.r,
                                small_model.d_model, small_model.l_max)
    sched = schedule_step(list(states.values()), 3, small_ctx.c)
    out = encode_step(states, sched, feats, small_weights, small_ctx,
                      small_model, table)
    assert out["x"].shape[0] == sum(p.valid_frames for p in sched.rows)
    assert states["x"].frames_consumed == out["x"].shape[0]


def test_full_encode_equals_loop_oracle_three_audios(small_model, small_ctx,
                                                     small_weights, rng):
    feats = {"a": rng.normal(size=(7 * 8, 80)).astype(np.float32),
             "b": rng.normal(size=(23 * 8, 80)).astype(np.float32),
             "c": rng.normal(size=(40 * 8 - 3, 80)).astype(np.float32)}
    got = encode_full(feats, small_weights, small_ctx, small_model, budget=4,
                      dtype=np.float64)
    ref = loop_oct_encode(feats, small_weights, small_ctx, small_model)
    for k in feats:
        assert rel_err(got[k], ref[k]) <= 1e-4


def test_receptive_field_bound_eleven_frames(rng):
    model = ModelConfig(n_layers=4, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=1, vocab_size=4, l_max=32)
    ctx = ContextConfig(l_att=6, c=3, r=2)
    w = init_weights(model, seed=9)
    feats = rng.normal(size=(30 * 8, 80)).astype(np.float32)
    base = encode_in_one_step(feats, w, ctx, model)
    for offset in (11, 12, 20):
        out = encode_in_one_step(perturbed(feats, 3 + offset), w, ctx, model)
        assert np.array_equal(out[:3], base[:3])
    out = encode_in_one_step(perturbed(feats, 3 + 10), w, ctx, model)
    assert not np.array_equal(out[:3], base[:3])


def test_zero_layer_model_is_subsample_only(rng):
    model = ModelConfig(n_layers=0, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=1, vocab_size=4, l_max=32)
    ctx = ContextConfig(l_att=4, c=4, r=0)
    w = init_weights(model, seed=1)
    feats = rng.normal(size=(100, 80)).astype(np.float32)
    got = encode_full({"a": feats}, w, ctx, model, budget=2, dtype=np.float64)
    assert rel_err(got["a"], full_subsample(feats, w, np.float64)) <= 1e-12


def test_encode_full_rejects_an_audio_without_frames(small_model, small_ctx,
                                                    small_weights, rng):
    feats = {"ok": rng.normal(size=(40, 80)).astype(np.float32),
             "void": np.zeros((0, 80), np.float32)}
    with pytest.raises(ChunkingError, match="void"):
        encode_full(feats, small_weights, small_ctx, small_model)


def run_step(states, sched, feats, w, ctx, model, dtype=np.float32):
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, model.d_model, model.l_max)
    return encode_step(states, sched, feats, w, ctx, model, table, dtype)


def test_encode_step_rejects_broken_schedules(small_model, small_ctx,
                                              small_weights, rng):
    c = small_ctx.c
    feats = {"x": rng.normal(size=(8 * 20, 80)).astype(np.float32)}

    def run(consumed, chunks, valid=c):
        states = {"x": StreamState("x", 20, frames_consumed=consumed)}
        sched = StepSchedule(rows=[ChunkPlan("x", i, valid) for i in chunks])
        return run_step(states, sched, feats, small_weights, small_ctx, small_model)

    # the first chunk must continue where the audio stopped
    with pytest.raises(SchedulerError, match="continue"):
        run(c, [2, 3])
    with pytest.raises(SchedulerError, match="continue"):
        run(c, [0, 1])
    # and the chunks of one audio must be contiguous
    with pytest.raises(SchedulerError, match="non-contiguous"):
        run(0, [0, 2])
    with pytest.raises(SchedulerError, match="non-contiguous"):
        run(0, [0, 1, 1])
    # and the chunks may not claim more frames than the audio has
    with pytest.raises(SchedulerError, match="lookahead shortfall"):
        run(0, [0, 1], valid=11)


def test_step_runs_each_op_once_per_sublayer(small_model, small_ctx,
                                             small_weights, rng, monkeypatch):
    # three audios in one step: each FF, the attention row gather and the
    # conv run once per layer, over all audios together
    calls = {"ff": 0, "gather": 0, "conv": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(encoder, "ff_forward", counting("ff", encoder.ff_forward))
    monkeypatch.setattr(chunking, "oct_segment",
                        counting("gather", chunking.oct_segment))
    monkeypatch.setattr(encoder, "conv_module_forward",
                        counting("conv", encoder.conv_module_forward))
    lengths = {"a": 50, "b": 23, "c": 9}
    feats = {k: rng.normal(size=(n, 80)).astype(np.float32)
             for k, n in lengths.items()}
    states = {k: StreamState(k, post_frames(n)) for k, n in lengths.items()}
    sched = schedule_step(list(states.values()), 100, small_ctx.c)
    assert list(dict.fromkeys(p.audio_id for p in sched.rows)) == ["a", "b", "c"]
    run_step(states, sched, feats, small_weights, small_ctx, small_model)
    assert calls == {"ff": 2 * small_model.n_layers,
                     "gather": small_model.n_layers,
                     "conv": small_model.n_layers}


def test_step_caches_hold_layer_inputs_before_the_emit_frontier(rng):
    # after a step, the attention cache is the attention input from l_att
    # frames before the attention frontier up to the subsample frontier, and
    # the conv cache the conv input from l_conv frames before the output
    # frontier up to the attention frontier; a short audio keeps what it has
    model = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=5, vocab_size=4, l_max=32)
    ctx = ContextConfig(l_att=4, c=3, r=2)
    w = init_weights(model, seed=3)
    lw = w.layers[0]
    feats = {"b": rng.normal(size=(9, 80)).astype(np.float32),     # 2 frames
             "a": rng.normal(size=(8 * 40, 80)).astype(np.float32)}
    states = {k: StreamState(k, post_frames(f.shape[0])) for k, f in feats.items()}
    sched = schedule_step(list(states.values()), 4, ctx.c)
    out = run_step(states, sched, feats, w, ctx, model, np.float64)
    assert {k: v.shape[0] for k, v in out.items()} == {"b": 2, "a": 9}
    # "a" subsamples its 9 frames and 5 of lookahead; chunk windows
    # [q - 4, q + 5) that end by frame 14 make attention exact up to 12, and
    # the conv (l_conv = 2) up to 10. "b" ends inside the step.
    frontiers = {"b": (2, 2, 2), "a": (14, 12, 10)}
    for aid, st in states.items():
        ready, att_end, conv_end = frontiers[aid]
        assert st.frames_subsampled == ready
        x = full_subsample(feats[aid], w, np.float64)
        x1 = x + _macaron_ff(x, lw.ff1, np.float64)
        h = layer_norm(x1, lw.att.ln_g, lw.att.ln_b)
        x2 = x1 + _chunk_attention_loop(h, lw, ctx, model, np.float64)
        att, conv = st.att_caches[0], st.conv_caches[0]
        att_from, conv_from = max(0, att_end - 4), max(0, conv_end - 2)
        assert att.shape[0] == ready - att_from and conv.shape[0] == att_end - conv_from
        assert rel_err(att, x1[att_from:ready]) <= 1e-12
        assert rel_err(conv, x2[conv_from:att_end]) <= 1e-12


# (n_layers, kernel_size, (l_att, c, r), budget, raw frames per audio): every
# batch takes several steps
GEOMETRIES = [
    (3, 5, (4, 3, 4), 1, (93, 200, 315)),   # lookahead 19 > the 12-frame audio; 3 does not divide 4
    (2, 3, (5, 4, 0), 4, (240, 73, 136)),   # r = 0
    (2, 7, (6, 4, 6), 16, (800, 557, 40)),  # budget 16; 4 does not divide 6
]


def geometry(case, seed):
    n_layers, kernel, (l_att, c, r), budget, lengths = case
    model = ModelConfig(n_layers=n_layers, d_model=8, n_heads=2, d_ff=16,
                        kernel_size=kernel, vocab_size=4, l_max=l_att + c + r)
    rng = np.random.default_rng(seed)
    feats = {f"a{i}": rng.normal(size=(t, 80)).astype(np.float32)
             for i, t in enumerate(lengths)}
    return model, ContextConfig(l_att, c, r), budget, init_weights(model, seed=seed), feats


@pytest.mark.parametrize("case", GEOMETRIES)
def test_every_frame_and_chunk_row_runs_once_per_layer(case, monkeypatch):
    model, ctx, budget, w, feats = geometry(case, seed=5)
    seen = {"rows": 0, "frames": 0, "steps": 0, "conv": 0}

    def counting(fn, key, size):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen[key] += size(args, out)
            return out
        return wrapped

    monkeypatch.setattr(encoder, "chunk_attention",
                        counting(encoder.chunk_attention, "rows",
                                 lambda args, out: args[0].rows.shape[0]))
    monkeypatch.setattr(encoder, "conv_module_forward",
                        counting(encoder.conv_module_forward, "conv",
                                 lambda args, out: out.shape[0]))
    monkeypatch.setattr(encoder, "subsample_forward",
                        counting(encoder.subsample_forward, "frames",
                                 lambda args, out: args[3] - args[2]))
    monkeypatch.setattr(encoder, "encode_step",
                        counting(encoder.encode_step, "steps", lambda args, out: 1))
    encode_full(feats, w, ctx, model, budget=budget)
    t_post = [post_frames(f.shape[0]) for f in feats.values()]
    seconds = [(WINDOW_SAMPLES + HOP_SAMPLES * (f.shape[0] - 1)) / SAMPLE_RATE
               for f in feats.values()]
    predicted = sum(a.rows for a in batch_cost(seconds, ctx, model).audios)
    assert seen["steps"] > 1
    assert seen["frames"] == sum(t_post)
    assert seen["rows"] == model.n_layers * sum(-(-t // ctx.c) for t in t_post)
    assert seen["rows"] == model.n_layers * predicted
    # the conv computes each frame once per layer, no chunk-row remainder
    assert seen["conv"] == model.n_layers * sum(t_post)


def oracle_layers(feats, w, ctx, model):
    """Loop-oracle attention input, conv input and output of every layer."""
    x = full_subsample(feats, w, np.float64)
    layers = []
    for lw in w.layers:
        x1 = x + _macaron_ff(x, lw.ff1, np.float64)
        h = layer_norm(x1, lw.att.ln_g, lw.att.ln_b)
        x2 = x1 + _chunk_attention_loop(h, lw, ctx, model, np.float64)
        x3 = x2 + _conv_module_full(x2, lw, np.float64)
        x = layer_norm(x3 + _macaron_ff(x3, lw.ff2, np.float64), lw.out_ln_g, lw.out_ln_b)
        layers.append((x1, x2, x))
    return x, layers


def exact_frontiers(ready, total, ctx, l_conv, n_layers):
    """(attention, output) frontier of each layer, from their definition: a
    chunk's attention output is exact once its whole window is, a conv
    output once l_conv exact frames follow it, and everything at the end."""
    out, f = [], ready
    for _ in range(n_layers):
        att = 0
        while att + ctx.c + ctx.r <= f:
            att += ctx.c
        att = total if f == total else att
        f = total if att == total else max(0, att - l_conv)
        out.append((att, f))
    return out


def assert_same(held, expected):
    assert held.shape == expected.shape
    assert rel_err(held, expected) <= 1e-12


@pytest.mark.parametrize("case", GEOMETRIES)
def test_held_frames_equal_oracle_layer_outputs(case):
    # after every step each audio holds exactly its exact frames past each
    # frontier, equal to the oracle's
    model, ctx, budget, w, feats = geometry(case, seed=6)
    l_conv = derive_l_conv(model.kernel_size)
    states = {k: StreamState(k, post_frames(f.shape[0])) for k, f in feats.items()}
    la = required_lookahead(ctx, model.n_layers, l_conv)
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, model.d_model, model.l_max)
    ref = {k: oracle_layers(f, w, ctx, model) for k, f in feats.items()}
    ready = dict.fromkeys(feats, 0)
    while True:
        sched = schedule_step(list(states.values()), budget, ctx.c)
        if sched is None:
            break
        start = {k: st.frames_consumed for k, st in states.items()}
        emit = dict.fromkeys(start, 0)
        for p in sched.rows:
            emit[p.audio_id] += p.valid_frames
        for aid, n in emit.items():
            if n:
                ready[aid] = max(ready[aid], min(start[aid] + n + la,
                                                 states[aid].total_frames))
        out = encode_step(states, sched, feats, w, ctx, model, table, np.float64)
        for aid, block in out.items():
            st, (top, layers) = states[aid], ref[aid]
            assert_same(block, layer_norm(top, w.after_ln_g, w.after_ln_b)
                        [start[aid]:st.frames_consumed])
            assert st.frames_subsampled == ready[aid]
            f_in = ready[aid]
            for k, (att_end, f_out) in enumerate(
                    exact_frontiers(ready[aid], st.total_frames, ctx, l_conv, model.n_layers)):
                x1, x2, _ = layers[k]
                assert_same(st.att_caches[k], x1[max(0, att_end - ctx.l_att):f_in])
                assert_same(st.conv_caches[k], x2[max(0, f_out - l_conv):att_end])
                f_in = f_out
            assert_same(st.out_cache, layers[-1][2][st.frames_consumed:f_in])


# ---------------------------------------------------------------------------
# weights and checkpoints
# ---------------------------------------------------------------------------

def test_init_weights_deterministic(small_model):
    a = init_weights(small_model, seed=3)
    b = init_weights(small_model, seed=3)
    assert np.array_equal(a.layers[1].att.wq, b.layers[1].att.wq)
    assert np.array_equal(a.subsample.blocks[0].pw_w, b.subsample.blocks[0].pw_w)
    c = init_weights(small_model, seed=4)
    assert not np.array_equal(a.layers[0].ff1.w1, c.layers[0].ff1.w1)


def test_init_model_draws_are_pinned():
    # sha256 over the name-sorted tensors (name, shape, float32 bytes), recorded
    # from the hand-written init at commit 0714a31, before config.weight_parts
    model = ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=12, kernel_size=3,
                        vocab_size=5, l_max=16)
    tensors = encoder._tensor_map(*init_model(model, seed=0))
    digest = hashlib.sha256()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f4")
        digest.update(name.encode() + repr(arr.shape).encode() + arr.tobytes())
    assert digest.hexdigest() == \
        "e67d0af26b586810d6b14325fb70aff31997049391483905e80a6ec35d89c1b9"


def test_init_scale_follows_fan_in(small_model):
    w = init_weights(small_model, seed=3)
    d = small_model.d_model
    assert np.abs(w.layers[0].att.wq).max() <= 1.0 / np.sqrt(d)
    assert np.abs(w.layers[0].conv.dw_w).max() <= 1.0 / np.sqrt(small_model.kernel_size)


def test_checkpoint_roundtrip_bitwise(tmp_path, small_model):
    w, head, vocab = init_model(small_model, seed=11)
    path = tmp_path / "m.cfkw"
    save_checkpoint(path, w, head, vocab)
    w2, head2, vocab2 = load_checkpoint(path)
    assert vocab2.tokens == vocab.tokens
    assert np.array_equal(head2.w, head.w)
    assert np.array_equal(w2.layers[2].conv.dw_w, w.layers[2].conv.dw_w)
    assert np.array_equal(w2.subsample.blocks[1].dw_w, w.subsample.blocks[1].dw_w)
    # saving the loaded weights reproduces the file byte for byte
    path2 = tmp_path / "m2.cfkw"
    save_checkpoint(path2, w2, head2, vocab2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_missing_tensors_reported(tmp_path, small_model):
    w, head, vocab = init_model(small_model, seed=11)
    path = tmp_path / "m.cfkw"
    save_checkpoint(path, w, head, vocab)
    from chunkasr.encoder import _tensor_map
    tensors = _tensor_map(w, head, vocab)
    dropped = {k: v for k, v in tensors.items() if not k.startswith("layer2.att")}
    bad = tmp_path / "bad.cfkw"
    write_cfkw(bad, dropped)
    with pytest.raises(CheckpointError, match="layer2.att"):
        load_checkpoint(bad)


def test_checkpoint_truncation_and_magic(tmp_path, small_model):
    w, head, vocab = init_model(small_model, seed=11)
    path = tmp_path / "m.cfkw"
    save_checkpoint(path, w, head, vocab)
    blob = path.read_bytes()
    trunc = tmp_path / "t.cfkw"
    trunc.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(trunc)
    junk = tmp_path / "j.cfkw"
    junk.write_bytes(b"WHAT" + blob[4:])
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(junk)


def test_checkpoint_tensors_are_own_writable_arrays(tmp_path, small_model):
    w, head, vocab = init_model(small_model, seed=11)
    path = tmp_path / "m.cfkw"
    save_checkpoint(path, w, head, vocab)
    loaded = encoder._read_tensors(path)
    assert loaded.keys() == encoder._tensor_map(w, head, vocab).keys()
    for arr in loaded.values():
        assert arr.dtype == np.float32 and arr.base is None
        assert arr.flags.writeable and arr.flags.aligned and arr.flags.c_contiguous


def test_checkpoint_version_and_trailing_bytes(tmp_path, small_model):
    w, head, vocab = init_model(small_model, seed=11)
    path = tmp_path / "m.cfkw"
    save_checkpoint(path, w, head, vocab)
    blob = path.read_bytes()
    extra = tmp_path / "e.cfkw"
    extra.write_bytes(blob + b"xyz")
    with pytest.raises(CheckpointError, match="3 trailing bytes"):
        load_checkpoint(extra)
    newer = tmp_path / "v.cfkw"
    newer.write_bytes(blob[:4] + struct.pack("<I", 2) + blob[8:])
    with pytest.raises(CheckpointError, match="unsupported version 2"):
        load_checkpoint(newer)
    table = tmp_path / "h.cfkw"
    table.write_bytes(blob[:13])
    with pytest.raises(CheckpointError, match="truncated tensor table"):
        load_checkpoint(table)


def test_rerun_determinism_end_to_end(small_model, small_ctx, small_weights, rng):
    feats = {"a": rng.normal(size=(150, 80)).astype(np.float32)}
    one = encode_full(feats, small_weights, small_ctx, small_model, budget=2)
    two = encode_full(feats, small_weights, small_ctx, small_model, budget=2)
    assert np.array_equal(one["a"], two["a"])


def test_outputs_own_their_data_and_equal_the_emitted_blocks(small_model, small_ctx,
                                                             small_weights, rng):
    feats = {"a": rng.normal(size=(150, 80)).astype(np.float32),
             "b": rng.normal(size=(61, 80)).astype(np.float32)}
    blocks = {aid: [] for aid in feats}

    def on_emit(aid, block, start):
        assert start == sum(b.shape[0] for b in blocks[aid])
        blocks[aid].append(block)

    out = encode_full(feats, small_weights, small_ctx, small_model, budget=1,
                      on_emit=on_emit)
    for aid, hidden in out.items():
        assert hidden.flags.c_contiguous and hidden.flags.owndata
        assert hidden.base is None and len(blocks[aid]) > 1
        assert np.array_equal(hidden, np.concatenate(blocks[aid]))


def test_working_memory_is_flat_in_duration(rng):
    model = ModelConfig(n_layers=1, d_model=64, n_heads=2, d_ff=64, kernel_size=3,
                        vocab_size=5, l_max=128)
    ctx = ContextConfig(l_att=16, c=64, r=16)
    w = init_weights(model, seed=1)
    encode_full({"a": rng.normal(size=(800, 80)).astype(np.float32)}, w, ctx, model)
    extra = []
    for t_post in (1000, 2000):   # outputs of 250 and 500 KiB
        feats = {"a": rng.normal(size=(8 * t_post, 80)).astype(np.float32)}
        tracemalloc.start()
        try:
            out = encode_full(feats, w, ctx, model, budget=1)["a"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - out.nbytes)
    assert abs(extra[1] - extra[0]) <= 16 * 1024


def test_checkpoint_rejects_non_numeric_layer_id(tmp_path):
    bad = tmp_path / "x.cfkw"
    write_cfkw(bad, {"layerX.a": np.zeros(2)})
    with pytest.raises(CheckpointError, match="layerX.a"):
        load_checkpoint(bad)


def test_checkpoint_rejects_layer_id_beyond_tensor_count(tmp_path):
    # one tensor cannot describe 10^8 layers; refused before any per-layer work
    bad = tmp_path / "big.cfkw"
    write_cfkw(bad, {"layer99999999.x": np.zeros(1)})
    with pytest.raises(CheckpointError, match="99999999"):
        load_checkpoint(bad)
