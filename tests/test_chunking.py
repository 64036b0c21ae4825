import numpy as np
import pytest

from chunkasr.chunking import (ChunkingError, StreamState, carve_chunks,
                               oct_segment, schedule_step)
from chunkasr.config import ConfigError, ContextConfig


def test_carve_23_frames_in_chunks_of_3():
    plans = carve_chunks(23, 3, "x")
    assert len(plans) == 8
    assert [p.valid_frames for p in plans] == [3] * 7 + [2]
    assert plans[-1].is_final and not plans[0].is_final


def test_carve_exact_fit():
    plans = carve_chunks(3, 3)
    assert len(plans) == 1 and plans[0].valid_frames == 3 and plans[0].is_final


def test_carve_20_frames():
    plans = carve_chunks(20, 3)
    assert len(plans) == 7 and plans[-1].valid_frames == 2


def test_carve_empty_rejected():
    with pytest.raises(ChunkingError):
        carve_chunks(0, 3)


def test_oct_segment_resume_after_fifteen_decoded():
    # stream with the first 15 frames decoded; rows for chunks at 15/18/21
    flat = np.arange(26, dtype=np.float64)[:, None]
    batch = oct_segment(flat, [15, 18, 21], l=4, c=3, r=2)
    assert batch.rows.shape == (3, 9, 1)
    assert batch.rows[0, :, 0].tolist() == [11, 12, 13, 14, 15, 16, 17, 18, 19]
    assert batch.mask.all(axis=1)[0]


def test_oct_segment_identity_single_chunk():
    flat = np.arange(10, dtype=np.float64)[:, None]
    batch = oct_segment(flat, [0], l=0, c=10, r=0)
    assert np.array_equal(batch.rows[0], flat)
    assert batch.mask.all()


def test_oct_segment_matches_bruteforce_slices(rng):
    s_len, l, c, r = 50, 5, 4, 3
    flat = rng.normal(size=(s_len, 6))
    starts = list(range(0, s_len, c))
    batch = oct_segment(flat, starts, l, c, r)
    for b, s in enumerate(starts):
        for p, idx in enumerate(range(s - l, s + c + r)):
            if 0 <= idx < s_len:
                assert batch.mask[b, p]
                assert np.array_equal(batch.rows[b, p], flat[idx])
            else:
                assert not batch.mask[b, p]
                assert np.all(batch.rows[b, p] == 0.0)


def test_oct_segment_negative_context_rejected(rng):
    with pytest.raises(ConfigError):
        oct_segment(rng.normal(size=(5, 2)), [0], l=-1, c=2, r=0)


def test_oct_then_unmask_recovers_sequence(rng):
    # lossless carving: chunk parts of the rows concatenate to the input
    flat = rng.normal(size=(37, 4))
    l, c, r = 6, 5, 2
    starts = list(range(0, 37, c))
    batch = oct_segment(flat, starts, l, c, r)
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
    # no row reads the other audio's frames; masked slots hold zeros
    assert np.all(batch.rows[:3][mask[:3]] < 23)
    assert np.all(batch.rows[3:][mask[3:]] >= 23)
    assert np.all(batch.rows[~mask] == 0.0)


def test_row_bounds_trivial_all_true():
    flat = np.ones((4, 2))
    assert oct_segment(flat, [0], 0, 4, 0, lo=0, hi=4).mask.all()
    # bounds past the buffer are clipped to it
    assert oct_segment(flat, [0], 2, 4, 2, lo=-5, hi=9).mask.sum() == 4


def make_states(lengths):
    return [StreamState(audio_id=k, total_frames=v) for k, v in lengths.items()]


def test_schedule_matches_two_audio_example():
    # X: 23 frames in chunks of 3, first 5 chunks done; Y: 3 chunks pending
    ctx = ContextConfig(l_att=4, c=3, r=2)
    states = make_states({"x": 23, "y": 9})
    states[0].frames_consumed = 15
    plans = {"x": carve_chunks(23, 3, "x"), "y": carve_chunks(9, 3, "y")}
    sched = schedule_step(states, plans, 8, ctx, n_layers=1, l_conv=0)
    got = [(p.audio_id, p.chunk_index) for p in sched.rows]
    assert got == [("x", 5), ("x", 6), ("x", 7), ("y", 0), ("y", 1), ("y", 2)]
    assert sched.lookahead == {}


def test_schedule_single_step_no_lookahead():
    ctx = ContextConfig(l_att=4, c=3, r=2)
    states = make_states({"a": 10})
    plans = {"a": carve_chunks(10, 3, "a")}
    sched = schedule_step(states, plans, 100, ctx, n_layers=4, l_conv=7)
    assert len(sched.rows) == 4
    assert sched.lookahead == {}


def test_schedule_lookahead_frames_for_forty_frame_audio():
    # c=4, r=2, N=2, kernel 1: the step emits chunks 0-4 and needs 6
    # lookahead frames (frames 20..25); the next step resumes at frame 20.
    ctx = ContextConfig(l_att=8, c=4, r=2)
    states = make_states({"a": 40})
    plans = {"a": carve_chunks(40, 4, "a")}
    sched = schedule_step(states, plans, 5, ctx, n_layers=2, l_conv=0)
    assert [p.chunk_index for p in sched.rows] == [0, 1, 2, 3, 4]
    assert sched.lookahead == {"a": 6}
    states[0].frames_consumed = 20
    sched2 = schedule_step(states, plans, 5, ctx, n_layers=2, l_conv=0)
    assert sched2.rows[0].chunk_index * ctx.c == 20


def test_schedule_lookahead_clipped_at_audio_end():
    ctx = ContextConfig(l_att=8, c=4, r=2)
    states = make_states({"a": 22})
    plans = {"a": carve_chunks(22, 4, "a")}
    sched = schedule_step(states, plans, 5, ctx, n_layers=2, l_conv=0)
    assert sum(p.valid_frames for p in sched.rows) == 20
    assert sched.lookahead == {"a": 2}


def test_schedule_exhaustive_coverage_property(rng):
    # across all steps, every (audio, chunk) appears exactly once, in order
    ctx = ContextConfig(l_att=4, c=3, r=2)
    for _ in range(20):
        lengths = {f"a{i}": int(rng.integers(1, 40))
                   for i in range(int(rng.integers(1, 5)))}
        budget = int(rng.integers(1, 7))
        states = make_states(lengths)
        plans = {k: carve_chunks(v, 3, k) for k, v in lengths.items()}
        seen = []
        last_index = {k: -1 for k in lengths}
        while True:
            sched = schedule_step(states, plans, budget, ctx, 2, 0)
            if sched is None:
                break
            for aid in sched.audio_order():
                rows = sched.rows_for(aid)
                for p in rows:
                    assert p.chunk_index == last_index[aid] + 1
                    last_index[aid] = p.chunk_index
                    seen.append((aid, p.chunk_index))
                emitted = sum(p.valid_frames for p in rows)
                states[[s.audio_id for s in states].index(aid)] \
                    .frames_consumed += emitted
        expected = [(k, p.chunk_index) for k, v in lengths.items()
                    for p in plans[k]]
        assert sorted(seen) == sorted(expected)
        assert len(seen) == len(set(seen))


def test_schedule_requires_positive_budget():
    ctx = ContextConfig()
    with pytest.raises(ConfigError):
        schedule_step([], {}, 0, ctx, 1, 0)
