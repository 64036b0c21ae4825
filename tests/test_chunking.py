import numpy as np
import pytest

from chunkasr import chunking, encoder
from chunkasr.attention import build_rel_pos_table
from chunkasr.chunking import ChunkPlan, StreamState, oct_segment, schedule_step
from chunkasr.config import ConfigError, ContextConfig, ModelConfig
from chunkasr.encoder import encode_full, encode_step, init_weights, post_frames
from chunkasr.functional import Workspace, cast_params


def partition(total_frames, c):
    """Every chunk of one audio, scheduled in a single step."""
    return schedule_step([StreamState("x", total_frames)], 10 ** 6, c).rows


def test_carve_23_frames_in_chunks_of_3():
    rows = partition(23, 3)
    assert [p.chunk_index for p in rows] == list(range(8))
    assert [p.valid_frames for p in rows] == [3] * 7 + [2]
    assert {p.audio_id for p in rows} == {"x"}


def test_carve_exact_fit():
    assert partition(3, 3) == [ChunkPlan("x", 0, 3)]


def test_carve_20_frames():
    rows = partition(20, 3)
    assert len(rows) == 7 and rows[-1].valid_frames == 2


def test_carve_empty_rejected():
    # an audio without frames, or with all of them emitted, has no chunk
    assert schedule_step([StreamState("x", 0)], 4, 3) is None
    assert schedule_step([StreamState("x", 20, frames_consumed=20)], 4, 3) is None


def test_oct_segment_resume_after_fifteen_decoded():
    # stream with the first 15 frames decoded; rows for chunks at 15/18/21
    flat = np.arange(26, dtype=np.float64)[:, None]
    batch = oct_segment(flat, [15, 18, 21], 4, 3, 2, 0, 26)
    assert batch.rows.shape == (3, 9, 1)
    assert batch.rows[0, :, 0].tolist() == [11, 12, 13, 14, 15, 16, 17, 18, 19]
    assert batch.mask.all(axis=1)[0]


def test_oct_segment_identity_single_chunk():
    flat = np.arange(10, dtype=np.float64)[:, None]
    batch = oct_segment(flat, [0], 0, 10, 0, 0, 10)
    assert np.array_equal(batch.rows[0], flat)
    assert batch.mask.all()


def test_oct_segment_matches_bruteforce_slices(rng):
    s_len, l, c, r = 50, 5, 4, 3
    flat = rng.normal(size=(s_len, 6))
    starts = list(range(0, s_len, c))
    batch = oct_segment(flat, starts, l, c, r, 0, s_len)
    for b, s in enumerate(starts):
        for p, idx in enumerate(range(s - l, s + c + r)):
            # in range: the mask bit and an exact copy; a masked slot's
            # contents are attention's to clear, so they are not pinned here
            assert batch.mask[b, p] == (0 <= idx < s_len)
            if batch.mask[b, p]:
                assert np.array_equal(batch.rows[b, p], flat[idx])


def test_oct_segment_negative_context_rejected(rng):
    with pytest.raises(ConfigError):
        oct_segment(rng.normal(size=(5, 2)), [0], -1, 2, 0, 0, 5)


def test_oct_then_unmask_recovers_sequence(rng):
    # lossless carving: chunk parts of the rows concatenate to the input
    flat = rng.normal(size=(37, 4))
    l, c, r = 6, 5, 2
    starts = list(range(0, 37, c))
    batch = oct_segment(flat, starts, l, c, r, 0, 37)
    pieces = [batch.rows[b, l:l + min(c, 37 - s)] for b, s in enumerate(starts)]
    assert np.array_equal(np.concatenate(pieces), flat)


def test_row_bounds_two_audio_layout():
    # X has 23 frames (8 chunks), rows 5..7 scheduled; Y has 10 frames,
    # rows 0..2 scheduled. l, c, r = 4, 3, 2. Both live in one buffer, X at
    # [0, 23) and Y at [23, 33), and each row is bounded by its own audio.
    flat = np.arange(33, dtype=np.float64)[:, None]
    starts = [15, 18, 21, 23, 26, 29]
    lo = [0, 0, 0, 23, 23, 23]
    hi = [23, 23, 23, 33, 33, 33]
    batch = oct_segment(flat, starts, 4, 3, 2, lo, hi)
    mask = batch.mask
    assert mask.shape == (6, 9)
    assert mask[0].sum() == 9 and mask[1].sum() == 9
    # X row 7 covers frames 17..25: the chunk pad at 23 and the two
    # lookahead slots past the audio end are masked
    assert mask[2].tolist() == [True] * 6 + [False] * 3
    # Y row 0 masks all 4 left positions
    assert mask[3].tolist() == [False] * 4 + [True] * 5
    assert mask[3].sum() == 5
    # Y row 1 masks only the frame before the audio start
    assert mask[4].sum() == 8
    # Y row 2 covers 2..10; frame 10 is past the 10-frame audio
    assert mask[5].sum() == 8
    # no unmasked slot holds the other audio's frames, and each holds its own
    # frame exactly; masked slots may hold anything, attention clears them
    assert np.all(batch.rows[:3][mask[:3]] < 23)
    assert np.all(batch.rows[3:][mask[3:]] >= 23)
    idx = np.array(starts)[:, None] + np.arange(-4, 5)
    assert np.array_equal(batch.rows[..., 0][mask], idx[mask])


def test_row_bounds_trivial_all_true():
    flat = np.ones((4, 2))
    assert oct_segment(flat, [0], 0, 4, 0, lo=0, hi=4).mask.all()
    # bounds past the buffer are clipped to it
    assert oct_segment(flat, [0], 2, 4, 2, lo=-5, hi=9).mask.sum() == 4


def make_states(lengths):
    return [StreamState(audio_id=k, total_frames=v) for k, v in lengths.items()]


def test_schedule_matches_two_audio_example():
    # X: 23 frames in chunks of 3, first 5 chunks done; Y: 3 chunks pending
    states = make_states({"x": 23, "y": 9})
    states[0].frames_consumed = 15
    sched = schedule_step(states, 8, 3)
    got = [(p.audio_id, p.chunk_index) for p in sched.rows]
    assert got == [("x", 5), ("x", 6), ("x", 7), ("y", 0), ("y", 1), ("y", 2)]
    assert [p.valid_frames for p in sched.rows] == [3, 3, 2, 3, 3, 3]


def test_schedule_single_step_no_lookahead():
    sched = schedule_step(make_states({"a": 10}), 100, 3)
    assert [p.valid_frames for p in sched.rows] == [3, 3, 3, 1]


def test_schedule_starts_at_the_emit_frontier_of_a_long_audio():
    # chunks are made from the state alone; carving this audio up front
    # would need 1.25e11 chunk plans
    state = StreamState("a", 10 ** 12, frames_consumed=8 * 10 ** 11)
    sched = schedule_step([state], 4, 8)
    assert sched.rows == [ChunkPlan("a", 10 ** 11 + i, 8) for i in range(4)]


def lookahead_step(total, budget):
    """One encode_step of a 2-layer, kernel-1 model with c=4, r=2 on an
    audio of ``total`` post frames; returns its state after the step."""
    model = ModelConfig(n_layers=2, d_model=16, n_heads=2, d_ff=32,
                        kernel_size=1, vocab_size=4, l_max=32)
    ctx = ContextConfig(l_att=8, c=4, r=2)
    feats = {"a": np.random.default_rng(0).normal(size=(8 * total, 80)).astype(np.float32)}
    states = {"a": StreamState("a", total)}
    sched = schedule_step(list(states.values()), budget, ctx.c)
    table = cast_params(build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, model.d_model,
                                            model.l_max), np.float32)
    encode_step(states, sched, feats, init_weights(model, seed=0), ctx, model, table,
                Workspace())
    return states["a"]


def test_schedule_lookahead_frames_for_forty_frame_audio():
    # N=2, kernel 1: the step emits chunks 0-4 and subsamples 6 lookahead
    # frames (frames 20..25); the next step resumes at frame 20.
    st = lookahead_step(40, 5)
    assert (st.frames_consumed, st.front[0]) == (20, 20 + 6)
    sched2 = schedule_step([st], 5, 4)
    assert sched2.rows[0].chunk_index * 4 == 20


def test_schedule_lookahead_clipped_at_audio_end():
    st = lookahead_step(22, 5)
    assert (st.frames_consumed, st.front[0]) == (20, 20 + 2)


def test_schedule_exhaustive_coverage_property(rng):
    # across all steps, every (audio, chunk) appears exactly once, in order,
    # and the chunks of an audio cover its frames
    for _ in range(20):
        lengths = {f"a{i}": int(rng.integers(1, 40))
                   for i in range(int(rng.integers(1, 5)))}
        budget = int(rng.integers(1, 7))
        states = make_states(lengths)
        by_id = {s.audio_id: s for s in states}
        seen = []
        frames = dict.fromkeys(lengths, 0)
        while True:
            sched = schedule_step(states, budget, 3)
            if sched is None:
                break
            assert len(sched.rows) <= budget
            for p in sched.rows:
                assert p.chunk_index * 3 == frames[p.audio_id]
                frames[p.audio_id] += p.valid_frames
                seen.append((p.audio_id, p.chunk_index))
            for aid, st in by_id.items():
                st.frames_consumed = frames[aid]
        expected = [(k, i) for k, v in lengths.items() for i in range(-(-v // 3))]
        assert sorted(seen) == sorted(expected)
        assert len(seen) == len(set(seen))
        assert frames == lengths


def test_schedule_requires_positive_budget():
    with pytest.raises(ConfigError):
        schedule_step([], 0, 3)
    with pytest.raises(ConfigError):
        schedule_step([StreamState("x", 5)], 4, 0)


def test_audios_finish_shortest_first_with_ties_in_input_order(rng):
    model = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=16, kernel_size=3,
                        vocab_size=4, l_max=16)
    ctx = ContextConfig(l_att=2, c=2, r=2)
    raw = {"long": 160, "tie0": 64, "short": 24, "tie1": 64, "mid": 100}
    feats = {aid: rng.normal(size=(t, 80)).astype(np.float32) for aid, t in raw.items()}
    last_emits = []

    def on_emit(aid, block, start):
        if start + block.shape[0] == post_frames(raw[aid]):
            last_emits.append(aid)

    out = encode_full(feats, init_weights(model, seed=0), ctx, model, budget=3,
                      on_emit=on_emit)
    assert last_emits == ["short", "tie0", "tie1", "mid", "long"]
    assert list(out) == list(raw)


def test_scheduling_work_is_linear_in_the_audio_count(monkeypatch):
    # 16,000 audios of 3 one-frame chunks at budget 16 take 3,000 steps; a
    # scheduler that walks the finished audios every step reads about 24M
    n_audios = 16000
    visits = 0
    schedule = chunking.schedule_step

    def counting_schedule(states, m_budget, c):
        def walk():
            nonlocal visits
            for state in states:
                visits += 1
                yield state
        return schedule(walk(), m_budget, c)

    def emit_only_step(states, sched, *args):
        for p in sched.rows:
            states[p.audio_id].frames_consumed += p.valid_frames
        return {}

    monkeypatch.setattr(chunking, "schedule_step", counting_schedule)
    monkeypatch.setattr(encoder, "encode_step", emit_only_step)
    model = ModelConfig(n_layers=0, d_model=2, n_heads=1, d_ff=1, kernel_size=1,
                        vocab_size=2, l_max=1)
    feats = np.zeros((24, 80), np.float32)      # 3 post frames
    encode_full(dict.fromkeys(map(str, range(n_audios)), feats),
                init_weights(model, seed=0), ContextConfig(l_att=0, c=1, r=0), model,
                budget=16)
    assert visits <= 2 * n_audios
