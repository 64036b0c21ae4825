import numpy as np
import pytest

from chunkasr import chunking, encoder
from chunkasr.attention import build_rel_pos_table
from chunkasr.chunking import (ChunkPlan, SchedulerError, StepSchedule, StreamState,
                               carve_chunks, schedule_step)
from chunkasr.config import ContextConfig, ModelConfig, derive_l_conv
from chunkasr.encoder import (CheckpointError, encode_full, encode_step,
                              init_model, init_weights, load_checkpoint, post_frames,
                              save_checkpoint, subsample_forward)
from chunkasr.functional import layer_norm
from chunkasr.oracle import (_chunk_attention_loop, _macaron_ff, full_context_encode,
                             full_subsample, loop_oct_encode)
from conftest import rel_err, write_cfkw


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------

def test_subsample_stride_arithmetic(small_weights, rng):
    # 8*c raw frames in, c frames out (c=4: 32 -> 4)
    feats = rng.normal(size=(32, 80))
    out = subsample_forward(feats, 0, 0, post_frames(32), small_weights.subsample,
                            32, np.float64)
    assert out.shape == (4, small_weights.d_model)


def test_chunk_wise_subsample_equals_full_sequence(small_weights, rng):
    for t_raw in (32, 95, 200, 207):
        feats = rng.normal(size=(t_raw, 80)).astype(np.float32)
        full = full_subsample(feats, small_weights, np.float64)
        t_post = post_frames(t_raw)
        # piecewise with a 7-frame raw cache, several split points
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
    feats = rng.normal(size=(24, 80))
    with pytest.raises(SchedulerError, match="margin"):
        # asking for post frames [1, 3) without the 7-frame left margin
        subsample_forward(feats[8:], 8, 1, 3, small_weights.subsample, 24)


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
    plans = {"x": carve_chunks(t_post, small_ctx.c, "x")}
    table = build_rel_pos_table(small_ctx.l_att, small_ctx.c, small_ctx.r,
                                small_model.d_model, small_model.l_max)
    sched = schedule_step(list(states.values()), plans, 3, small_ctx,
                          small_model.n_layers, derive_l_conv(small_model.kernel_size))
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


def run_step(states, sched, feats, w, ctx, model, dtype=np.float32):
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, model.d_model, model.l_max)
    return encode_step(states, sched, feats, w, ctx, model, table, dtype)


def test_encode_step_rejects_broken_schedules(small_model, small_ctx,
                                              small_weights, rng):
    c = small_ctx.c
    feats = {"x": rng.normal(size=(8 * 20, 80)).astype(np.float32)}

    def run(consumed, chunks):
        states = {"x": StreamState("x", 20, frames_consumed=consumed)}
        sched = StepSchedule(rows=[ChunkPlan("x", i, c, False) for i in chunks],
                             lookahead={})
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


def test_step_runs_each_op_once_per_sublayer(small_model, small_ctx,
                                             small_weights, rng, monkeypatch):
    # three audios in one step: FF and the row gather run once per sublayer,
    # over all audios together
    calls = {"ff": 0, "gather": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(encoder, "ff_forward", counting("ff", encoder.ff_forward))
    monkeypatch.setattr(chunking, "oct_segment",
                        counting("gather", chunking.oct_segment))
    lengths = {"a": 50, "b": 23, "c": 9}
    feats = {k: rng.normal(size=(n, 80)).astype(np.float32)
             for k, n in lengths.items()}
    states = {k: StreamState(k, post_frames(n)) for k, n in lengths.items()}
    plans = {k: carve_chunks(st.total_frames, small_ctx.c, k)
             for k, st in states.items()}
    sched = schedule_step(list(states.values()), plans, 100, small_ctx,
                          small_model.n_layers, derive_l_conv(small_model.kernel_size))
    assert sched.audio_order() == ["a", "b", "c"]
    run_step(states, sched, feats, small_weights, small_ctx, small_model)
    assert calls == {"ff": 2 * small_model.n_layers,
                     "gather": 2 * small_model.n_layers}


def test_step_caches_hold_layer_inputs_before_the_emit_frontier(rng):
    # after a step, each layer's attention cache is the last l_att frames of
    # its attention input before the emit frontier and the conv cache the last
    # l_conv frames of the conv input; a short audio keeps what it has
    model = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=5, vocab_size=4, l_max=32)
    ctx = ContextConfig(l_att=4, c=3, r=2)
    w = init_weights(model, seed=3)
    lw = w.layers[0]
    feats = {"b": rng.normal(size=(9, 80)).astype(np.float32),     # 2 frames
             "a": rng.normal(size=(8 * 40, 80)).astype(np.float32)}
    states = {k: StreamState(k, post_frames(f.shape[0])) for k, f in feats.items()}
    plans = {k: carve_chunks(st.total_frames, ctx.c, k) for k, st in states.items()}
    sched = schedule_step(list(states.values()), plans, 4, ctx, 1, 2)
    out = run_step(states, sched, feats, w, ctx, model, np.float64)
    assert {k: v.shape[0] for k, v in out.items()} == {"b": 2, "a": 9}
    for aid, st in states.items():
        emit = st.frames_consumed
        x = full_subsample(feats[aid], w, np.float64)
        x1 = x + _macaron_ff(x, lw.ff1, np.float64)
        h = layer_norm(x1, lw.att_ln_g, lw.att_ln_b)
        x2 = x1 + _chunk_attention_loop(h, lw, ctx, model, np.float64)
        att, conv = st.att_caches[0], st.conv_caches[0]
        assert att.shape[0] == min(4, emit) and conv.shape[0] == min(2, emit)
        assert rel_err(att, x1[emit - att.shape[0]:emit]) <= 1e-12
        assert rel_err(conv, x2[emit - conv.shape[0]:emit]) <= 1e-12


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


def test_init_scale_follows_fan_in(small_model):
    w = init_weights(small_model, seed=3)
    d = small_model.d_model
    assert np.abs(w.layers[0].att.wq).max() <= 1.0 / np.sqrt(d)
    assert np.abs(w.layers[0].conv.dw).max() <= 1.0 / np.sqrt(small_model.kernel_size)


def test_checkpoint_roundtrip_bitwise(tmp_path, small_model):
    w, head, vocab = init_model(small_model, seed=11)
    path = tmp_path / "m.cfkw"
    save_checkpoint(path, w, head, vocab)
    w2, head2, vocab2 = load_checkpoint(path)
    assert vocab2.tokens == vocab.tokens
    assert np.array_equal(head2.w, head.w)
    assert np.array_equal(w2.layers[2].conv.dw, w.layers[2].conv.dw)
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


def test_rerun_determinism_end_to_end(small_model, small_ctx, small_weights, rng):
    feats = {"a": rng.normal(size=(150, 80)).astype(np.float32)}
    one = encode_full(feats, small_weights, small_ctx, small_model, budget=2)
    two = encode_full(feats, small_weights, small_ctx, small_model, budget=2)
    assert np.array_equal(one["a"], two["a"])


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
