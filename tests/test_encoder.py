import hashlib
import struct
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from chunkasr import chunking, encoder, functional
from chunkasr.attention import build_rel_pos_table
from chunkasr.chunking import (ChunkingError, ChunkPlan, SchedulerError, StepSchedule,
                               StreamState, schedule_step)
from chunkasr.config import ContextConfig, ModelConfig, derive_l_conv, required_lookahead
from chunkasr.costmodel import batch_cost
from chunkasr.encoder import (CheckpointError, encode_full, encode_step,
                              init_model, init_weights, load_checkpoint, post_frames,
                              save_checkpoint, subsample_forward)
from chunkasr.frontend import HOP_SAMPLES, SAMPLE_RATE, WINDOW_SAMPLES
from chunkasr.functional import Workspace, cast_params, layer_norm
from chunkasr.oracle import (_chunk_attention_loop, _conv_module_full, _macaron_ff,
                             full_context_encode, full_subsample, loop_oct_encode)
from conftest import WIDE_CTX, WIDE_MODEL, rel_err, write_cfkw


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------

def test_subsample_stride_arithmetic(small_model, small_weights, rng):
    # 8*c raw frames in, c frames out (c=4: 32 -> 4)
    sub = cast_params(small_weights.subsample, np.float64)
    feats = rng.normal(size=(32, 80))
    out = subsample_forward(feats, sub, 0, post_frames(32))
    assert out.shape == (4, small_model.d_model)
    empty = subsample_forward(feats, sub, 5, 5)
    assert empty.shape == (0, small_model.d_model)


def test_chunk_wise_subsample_equals_full_sequence(small_weights, rng):
    sub = cast_params(small_weights.subsample, np.float64)
    for t_raw in (32, 95, 200, 207):
        feats = rng.normal(size=(t_raw, 80)).astype(np.float32)
        full = full_subsample(feats, small_weights, np.float64)
        t_post = post_frames(t_raw)
        # two ranges of the whole matrix, several split points
        for cut in {1, t_post // 2, t_post - 1} - {0}:
            p1 = subsample_forward(feats, sub, 0, cut)
            p2 = subsample_forward(feats, sub, cut, t_post)
            assert rel_err(np.concatenate([p1, p2]), full) <= 1e-12


def test_chunk_128_covers_10_seconds():
    # 128 post frames * 8 raw frames * 10 ms hop = 10.24 s
    assert 128 * 8 * 0.010 == pytest.approx(10.24)


def test_subsample_casts_only_its_window(small_model, small_weights):
    # a float64 step must not convert the whole float32 feature matrix
    sub = cast_params(small_weights.subsample, np.float64)
    big = np.ones((200_000, 80), np.float32)
    tracemalloc.start()
    try:
        out = subsample_forward(big, sub, 24_990, 25_000)
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
    out = encode_full({"a": feats}, cast_params(w, np.float64), small_ctx, model,
                      budget=2)["a"]
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
    got = encode_full({"a": feats}, cast_params(w, np.float64), ctx, model, budget=100)
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
    w = cast_params(w, np.float64)
    single = encode_full({"a": feats}, w, ctx, model, budget=100)
    stepped = encode_full({"a": feats}, w, ctx, model, budget=5)
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
    got = encode_full(feats, cast_params(small_weights, np.float64), small_ctx,
                      small_model, budget=4)
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
    got = encode_full({"a": feats}, cast_params(w, np.float64), ctx, model, budget=2)
    assert rel_err(got["a"], full_subsample(feats, w, np.float64)) <= 1e-12


def test_encode_full_rejects_an_audio_without_frames(small_model, small_ctx,
                                                    small_weights, rng):
    feats = {"ok": rng.normal(size=(40, 80)).astype(np.float32),
             "void": np.zeros((0, 80), np.float32)}
    with pytest.raises(ChunkingError, match="void"):
        encode_full(feats, small_weights, small_ctx, small_model)


def run_step(states, sched, feats, w, ctx, model, dtype=np.float32):
    """encode_step in ``dtype``, with the weights and table cast to it, in a
    workspace that may split large calls, as encode_full runs it."""
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, model.d_model, model.l_max)
    with Workspace() as ws:
        return encode_step(states, sched, feats, cast_params(w, dtype), ctx, model,
                           cast_params(table, dtype), ws)


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


def test_step_runs_each_op_once_per_sublayer(small_model, small_ctx, small_weights,
                                             wide_weights, rng, monkeypatch):
    # three audios in one step: each FF, the attention row gather, the
    # attention and the conv run once per layer, over all audios together;
    # in the wide model they run their rows in two halves below these names
    calls = Counter()

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(encoder, "ff_forward", counting("ff", encoder.ff_forward))
    monkeypatch.setattr(chunking, "oct_segment",
                        counting("gather", chunking.oct_segment))
    monkeypatch.setattr(encoder, "chunk_attention",
                        counting("attention", encoder.chunk_attention))
    monkeypatch.setattr(encoder, "conv_module_forward",
                        counting("conv", encoder.conv_module_forward))
    for model, ctx, w, scale in ((small_model, small_ctx, small_weights, 1),
                                 (WIDE_MODEL, WIDE_CTX, wide_weights, 48)):
        lengths = {"a": 50 * scale, "b": 23 * scale, "c": 9 * scale}
        feats = {k: rng.normal(size=(n, 80)).astype(np.float32)
                 for k, n in lengths.items()}
        states = {k: StreamState(k, post_frames(n)) for k, n in lengths.items()}
        sched = schedule_step(list(states.values()), 100, ctx.c)
        assert list(dict.fromkeys(p.audio_id for p in sched.rows)) == ["a", "b", "c"]
        calls.clear()
        run_step(states, sched, feats, w, ctx, model)
        assert calls == {"ff": 2 * model.n_layers, "gather": model.n_layers,
                         "attention": model.n_layers, "conv": model.n_layers}


def test_each_step_computes_its_frontiers_once(small_model, small_ctx, small_weights,
                                               rng, monkeypatch):
    # a step computes each scheduled audio's end frontiers once; its start
    # frontiers are the ones the audio's state kept from its last step
    computed, tables, audios = [], [], []
    frontiers_fn, layer_pass_fn = encoder._frontiers, encoder._layer_pass

    def frontiers(*args):
        computed.append(frontiers_fn(*args))
        return computed[-1]

    def layer_pass(*args):
        tables.append((args[7], args[2]))
        return layer_pass_fn(*args)

    def step(states, sched, *args):
        ids = list(dict.fromkeys(p.audio_id for p in sched.rows))
        before = [states[aid].front or [0] * (2 * small_model.n_layers + 1) for aid in ids]
        computed.clear()
        tables.clear()
        out = encode_step(states, sched, *args)
        after = [states[aid].front for aid in ids]
        assert computed == after
        for k, front in tables:
            assert front.tolist() == [[[f[j] for f in before], [f[j] for f in after]]
                                      for j in range(2 * k, 2 * k + 3)]
        audios.append(len(ids))
        return out

    monkeypatch.setattr(encoder, "_frontiers", frontiers)
    monkeypatch.setattr(encoder, "_layer_pass", layer_pass)
    monkeypatch.setattr(encoder, "encode_step", step)
    # "b" has 3 chunks, so its last one shares a budget-2 step with "a"
    feats = {"a": rng.normal(size=(8 * 30, 80)).astype(np.float32),
             "b": rng.normal(size=(8 * 11, 80)).astype(np.float32)}
    encode_full(feats, small_weights, small_ctx, small_model, budget=2)
    assert len(audios) > 2 and audios.count(2) == 1


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_step_outputs_and_caches_take_the_weights_dtype(small_model, small_ctx,
                                                        small_weights, rng, dtype):
    # the features' dtype plays no part: "b" is float64, "a" float32
    feats = {"b": rng.normal(size=(8 * 5, 80)),
             "a": rng.normal(size=(8 * 30, 80)).astype(np.float32)}
    states = {k: StreamState(k, post_frames(f.shape[0])) for k, f in feats.items()}
    sched = schedule_step(list(states.values()), 4, small_ctx.c)
    out = run_step(states, sched, feats, small_weights, small_ctx, small_model, dtype)
    assert set(out) == {"a", "b"}
    for aid, st in states.items():
        assert out[aid].dtype == dtype
        assert len(st.held) == 2 * small_model.n_layers + 1
        assert all(held.dtype == dtype for held in st.held)


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
        assert st.front == list(frontiers[aid])
        ready, att_end, conv_end = frontiers[aid]
        x = full_subsample(feats[aid], w, np.float64)
        x1 = x + _macaron_ff(x, lw.ff1, np.float64)
        h = layer_norm(x1, lw.att.ln_g, lw.att.ln_b)
        x2 = x1 + _chunk_attention_loop(h, lw, ctx, model, np.float64)
        att, conv = st.held[0], st.held[1]
        att_from, conv_from = max(0, att_end - 4), max(0, conv_end - 2)
        assert att.shape[0] == ready - att_from and conv.shape[0] == att_end - conv_from
        assert rel_err(att, x1[att_from:ready]) <= 1e-12
        assert rel_err(conv, x2[conv_from:att_end]) <= 1e-12


# (n_layers, kernel_size, (l_att, c, r), budget, raw frames per audio,
# (d_model, n_heads, d_ff)): every batch takes several steps
GEOMETRIES = [
    # lookahead 19 > the 12-frame audio; 3 does not divide 4
    (3, 5, (4, 3, 4), 1, (93, 200, 315), (8, 2, 16)),
    (2, 3, (5, 4, 0), 4, (240, 73, 136), (8, 2, 16)),   # r = 0
    (2, 7, (6, 4, 6), 16, (800, 557, 40), (8, 2, 16)),  # budget 16; 4 does not divide 6
]
# the wide model (conftest): its first step's kernel calls cross the split gate
WIDE = (WIDE_MODEL.n_layers, WIDE_MODEL.kernel_size, (WIDE_CTX.l_att, WIDE_CTX.c, WIDE_CTX.r),
        4, (2400, 1104, 432), (WIDE_MODEL.d_model, WIDE_MODEL.n_heads, WIDE_MODEL.d_ff))


def geometry(case, seed):
    n_layers, kernel, (l_att, c, r), budget, lengths, (d_model, n_heads, d_ff) = case
    model = ModelConfig(n_layers=n_layers, d_model=d_model, n_heads=n_heads, d_ff=d_ff,
                        kernel_size=kernel, vocab_size=4, l_max=l_att + c + r)
    rng = np.random.default_rng(seed)
    feats = {f"a{i}": rng.normal(size=(t, 80)).astype(np.float32)
             for i, t in enumerate(lengths)}
    return model, ContextConfig(l_att, c, r), budget, init_weights(model, seed=seed), feats


@pytest.mark.parametrize("case", GEOMETRIES + [WIDE])
def test_every_frame_and_chunk_row_runs_once_per_layer(case, monkeypatch):
    model, ctx, budget, w, feats = geometry(case, seed=5)
    seen = {"rows": 0, "frames": 0, "steps": 0, "conv": 0}

    def counting(fn, key, size):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen[key] += size(args, out)
            return out
        return wrapped

    def attention_rows(args, out):
        # rows of the per-frame K|V buffer and the chunks' own queries, so a
        # return to projecting every row position fails here
        batch, queries = args[:2]
        rows = batch.rows.shape[0]
        assert batch.rows.shape == (rows, ctx.l_att + ctx.c + ctx.r, 2 * model.d_model)
        assert queries.shape == (rows, ctx.c, model.d_model)
        return rows

    monkeypatch.setattr(encoder, "chunk_attention",
                        counting(encoder.chunk_attention, "rows", attention_rows))
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
    w64 = cast_params(w, np.float64)
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
        out = encode_step(states, sched, feats, w64, ctx, model, table)
        for aid, block in out.items():
            st, (top, layers) = states[aid], ref[aid]
            assert_same(block, layer_norm(top, w.after_ln_g, w.after_ln_b)
                        [start[aid]:st.frames_consumed])
            expected = exact_frontiers(ready[aid], st.total_frames, ctx, l_conv, model.n_layers)
            assert st.front == [ready[aid], *(f for pair in expected for f in pair)]
            f_in = ready[aid]
            for k, (att_end, f_out) in enumerate(expected):
                x1, x2, _ = layers[k]
                assert_same(st.held[2 * k], x1[max(0, att_end - ctx.l_att):f_in])
                assert_same(st.held[2 * k + 1], x2[max(0, f_out - l_conv):att_end])
                f_in = f_out
            assert_same(st.held[-1], layer_norm(top, w.after_ln_g, w.after_ln_b)
                        [st.frames_consumed:f_in])


def test_steps_after_every_frame_is_exact_emit_held_final_frames(
        small_model, small_ctx, small_weights, rng, monkeypatch):
    # the 36-frame lookahead covers the 30-frame audio, so the first step
    # makes every frame final; each later step only slices its chunk off
    # the held final frames and normalises nothing
    normed = []

    def counting(x, *args):
        normed.append(x.shape[0])
        return layer_norm(x, *args)

    monkeypatch.setattr(encoder, "layer_norm", counting)
    feats = {"a": rng.normal(size=(8 * 30, 80)).astype(np.float32)}
    st = StreamState("a", post_frames(8 * 30))
    assert required_lookahead(small_ctx, small_model.n_layers,
                              derive_l_conv(small_model.kernel_size)) > st.total_frames
    sched = schedule_step([st], 1, small_ctx.c)
    first = run_step({"a": st}, sched, feats, small_weights, small_ctx, small_model)["a"]
    final = np.concatenate([first, st.held[-1]])
    assert final.shape[0] == st.total_frames
    while (sched := schedule_step([st], 1, small_ctx.c)) is not None:
        normed.clear()
        start = st.frames_consumed
        block = run_step({"a": st}, sched, feats, small_weights, small_ctx,
                         small_model)["a"]
        assert sum(normed) == 0
        assert np.array_equal(block, final[start:st.frames_consumed])
    assert st.frames_consumed == st.total_frames


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_encode_runs_on_the_weights_given_in_their_dtype(small_model, small_ctx,
                                                         small_weights, rng, dtype,
                                                         monkeypatch):
    # no cast and no copied container: every step gets the caller's weights
    w = cast_params(small_weights, dtype)
    seen = []
    step = encoder.encode_step

    def recording(states, schedule, features, weights, *args):
        seen.append(weights)
        return step(states, schedule, features, weights, *args)

    monkeypatch.setattr(encoder, "encode_step", recording)
    out = encode_full({"a": rng.normal(size=(90, 80)).astype(np.float32)}, w,
                      small_ctx, small_model, budget=2)
    assert len(seen) > 1 and all(weights is w for weights in seen)
    assert out["a"].dtype == dtype


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_poisoned_masked_row_slots_change_no_output_bit(small_model, small_ctx,
                                                        small_weights, rng, dtype,
                                                        monkeypatch):
    # Every gathered row's masked slots are overwritten before attention reads
    # them. The short audio shares the first step with the long one, so its
    # rows' masked slots would otherwise hold the long audio's keys and values.
    feats = {"short": rng.normal(size=(41, 80)).astype(np.float32),
             "long": rng.normal(size=(370, 80)).astype(np.float32)}
    w = cast_params(small_weights, dtype)
    clean = encode_full(feats, w, small_ctx, small_model, budget=3)
    gather = chunking.oct_segment
    masked = []
    for poison in ("noise", np.inf, -np.inf, np.nan):
        def poisoned(*args, **kwargs):
            batch = gather(*args, **kwargs)
            fill = rng.normal(size=batch.rows.shape) * 1e6 if poison == "noise" else poison
            batch.rows = np.where(batch.mask[..., None], batch.rows,
                                  fill).astype(batch.rows.dtype)
            masked.append(int(np.count_nonzero(~batch.mask)))
            return batch

        monkeypatch.setattr(chunking, "oct_segment", poisoned)
        dirty = encode_full(feats, w, small_ctx, small_model, budget=3)
        for aid in feats:
            assert dirty[aid].dtype == dtype
            assert np.array_equal(dirty[aid].view(np.uint8), clean[aid].view(np.uint8)), \
                (aid, poison)
    assert sum(masked) > 0


WORKSPACE_BUFFERS = {"ff.hidden", "ff.gate", "att.scores", "att.pos", "att.weights"}


class PoisonedWorkspace(Workspace):
    """A Workspace that fills every array it hands out with ``fill``."""

    def __init__(self, fill, taken):
        super().__init__()
        self.fill, self.taken = fill, taken

    def take(self, name, shape, dtype):
        buf = super().take(name, shape, dtype)
        buf.fill(self.fill)
        self.taken.add(name)
        return buf


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("budget", [1, 4])
def test_poisoned_workspace_changes_no_output_bit(small_model, small_ctx, small_weights,
                                                  rng, dtype, budget, monkeypatch):
    # every consumer writes each workspace element it reads, so buffers full
    # of NaN or +inf before each use change nothing; "a" and "b" end in a
    # partial chunk (6 and 47 post frames, c = 4), "c" in a whole one
    feats = {"a": rng.normal(size=(41, 80)).astype(np.float32),
             "b": rng.normal(size=(370, 80)).astype(np.float32),
             "c": rng.normal(size=(128, 80)).astype(np.float32)}
    w = cast_params(small_weights, dtype)
    clean = encode_full(feats, w, small_ctx, small_model, budget=budget)
    for fill in (np.nan, np.inf):
        taken = set()
        monkeypatch.setattr(encoder, "Workspace", lambda: PoisonedWorkspace(fill, taken))
        dirty = encode_full(feats, w, small_ctx, small_model, budget=budget)
        assert taken == WORKSPACE_BUFFERS
        for aid in feats:
            assert dirty[aid].dtype == dtype
            assert np.array_equal(dirty[aid].view(np.uint8), clean[aid].view(np.uint8)), \
                (aid, fill)


def test_workspace_buffers_are_allocated_only_to_grow(wide_weights, rng, monkeypatch):
    # one workspace serves every step and layer of an encode; a request of
    # at least HOLD_BYTES lands on its name's buffer, which is allocated
    # again only when a request needs more bytes than any before, and a
    # smaller one gets an array of its own. The wide model at budget 1 makes
    # both: the short audio's step and the long one's 64-frame steps ask
    # for 0.02-0.37 MiB, the long one's first (448 frames) and last steps
    # for up to 2.2 MiB.
    takes = []

    class Recording(Workspace):
        def take(self, name, shape, dtype):
            buf = super().take(name, shape, dtype)
            takes.append((name, buf.nbytes, buf.base, self._buffers.get(name)))
            return buf

    steps = []
    step = encoder.encode_step

    def counting(*args):
        steps.append(args[-1])
        return step(*args)

    monkeypatch.setattr(encoder, "Workspace", Recording)
    monkeypatch.setattr(encoder, "encode_step", counting)
    feats = {"a": rng.normal(size=(41, 80)).astype(np.float32),
             "b": rng.normal(size=(6400, 80)).astype(np.float32)}
    encode_full(feats, wide_weights, WIDE_CTX, WIDE_MODEL, budget=1)
    assert len(steps) > 5 and all(ws is steps[0] for ws in steps)
    assert {name for name, _, _, _ in takes} == WORKSPACE_BUFFERS
    large = [t for t in takes if t[1] >= functional.HOLD_BYTES]
    small = [t for t in takes if t[1] < functional.HOLD_BYTES]
    assert len(large) >= len(WORKSPACE_BUFFERS) and len(small) > 5 * len(large)
    for name, nbytes, base, held in small:
        assert base is None, name       # an array that owns its data
    allocations = 0
    for name in WORKSPACE_BUFFERS:
        size, buffer = 0, None
        for key, nbytes, base, held in large:
            if key == name:
                grows = nbytes > size
                assert base is held and (base is not buffer) == grows, name
                size, buffer = max(size, nbytes), base
                allocations += grows
    assert allocations < len(large)


def test_default_model_encode_holds_no_buffer_and_starts_no_thread(rng, monkeypatch):
    # every request of the default model stays below HOLD_BYTES and every
    # kernel call below SPLIT_FLOP, at budgets 1 and 16
    model, ctx = ModelConfig(), ContextConfig()
    weights = init_weights(model, seed=3)
    workspaces = []

    class Recording(Workspace):
        def __init__(self):
            super().__init__()
            workspaces.append(self)

    monkeypatch.setattr(encoder, "Workspace", Recording)
    feats = {f"a{i}": rng.normal(size=(t, 80)).astype(np.float32)
             for i, t in enumerate((3001, 1207, 97, 640))}
    before = threading.active_count()
    for budget in (1, 16):
        during = []
        encode_full(feats, weights, ctx, model, budget=budget,
                    on_emit=lambda *_: during.append(threading.active_count()))
        assert set(during) == {before}
    assert len(workspaces) == 2
    assert all(ws._buffers == {} and ws._worker is None for ws in workspaces)


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
