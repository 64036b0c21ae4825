"""Seeded random-geometry sweep of the engine against the per-audio loop oracle.

Each case batches one to eight audios of different lengths into one
encode_full call and compares every audio with oracle.loop_oct_encode, for an
engine run in float64 (1e-8) and one in float32 (1e-4), with the audios in
input order and reversed, and with a second budget: 10^6 below a budget of
1,000, else 1. The fixed cases pin the edge geometries; the seeded ones vary
everything at once: layers, odd kernels up to 31, the context, budgets
log-spread from 1 to 10^6, d_model up to 64 over 1, 2, 4 and 8 heads, and
audios of one post frame, of whole chunks and of whole post frames among
lengths of up to 400 feature frames. Every case sets l_max to the farthest
relative distance its rows read, the least that validate accepts.
"""

import numpy as np
import pytest

from chunkasr import chunking
from chunkasr.config import ContextConfig, ModelConfig, farthest_distance
from chunkasr.encoder import encode_full, init_weights
from chunkasr.functional import cast_params
from chunkasr.oracle import loop_oct_encode
from conftest import rel_err

# (n_layers, kernel_size, l_att, c, r, budget)
FIXED = [
    (2, 5, 4, 3, 0, 2),    # r = 0
    (2, 3, 0, 3, 2, 3),    # l_att = 0
    (3, 1, 4, 2, 3, 2),    # kernel_size = 1
    (0, 3, 4, 4, 2, 2),    # no layers: subsample and nothing else
    (2, 7, 5, 3, 4, 1),    # budget = 1 with a c that does not divide r
    (2, 3, 2, 4, 7, 3),    # r > c, r not a multiple of c
]
SEEDED = 64
# the seeded cases cycle through these head counts
HEADS = [2, 4, 1, 8]


def draw(rng, n_heads):
    """(n_layers, kernel_size, l_att, c, r, budget, d_model, n_heads, d_ff)."""
    step = max(2, n_heads)      # d_model is even and a multiple of n_heads
    d_model = int(rng.choice(np.arange(step, 65, step)))
    return (int(rng.integers(0, 4)), int(rng.choice(np.arange(1, 32, 2))),
            int(rng.integers(0, 7)), int(rng.integers(1, 6)), int(rng.integers(0, 7)),
            int(10 ** rng.uniform(0, 6)), d_model, n_heads, 2 * d_model)


def geometries():
    rng = np.random.default_rng(2024)
    seeded = [draw(rng, HEADS[i % len(HEADS)]) for i in range(SEEDED)]
    # the last runs two layers on rows of one position, l_att + c + r = 1
    seeded[-1] = (2, seeded[-1][1], 0, 1, 0) + seeded[-1][5:]
    return FIXED + seeded


def lengths(rng, n, c):
    """n distinct feature-frame counts, each drawn as one of: 1-8 frames (one
    post frame), a multiple of 8c (whole chunks), a multiple of 8 (whole post
    frames), or any count up to 400."""
    out = []
    while len(out) < n:
        t = [int(rng.integers(1, 9)), 8 * c * int(rng.integers(1, 400 // (8 * c) + 1)),
             8 * int(rng.integers(1, 51)), int(rng.integers(1, 401))][int(rng.integers(4))]
        if t not in out:
            out.append(t)
    return out


def setup(case, seed):
    n_layers, kernel, l_att, c, r, budget, *dims = case
    d_model, n_heads, d_ff = dims or (8, 2, 16)
    model = ModelConfig(n_layers=n_layers, d_model=d_model, n_heads=n_heads, d_ff=d_ff,
                        kernel_size=kernel, vocab_size=4,
                        l_max=farthest_distance(l_att, c, r), seed=seed)
    ctx = ContextConfig(l_att=l_att, c=c, r=r)
    rng = np.random.default_rng(seed)
    feats = {f"a{i}": rng.normal(size=(t, 80)).astype(np.float32)
             for i, t in enumerate(lengths(rng, int(rng.integers(1, 9)), c))}
    return model, ctx, budget, init_weights(model, seed=seed + 1), feats


@pytest.mark.parametrize("index,case", list(enumerate(geometries())))
def test_masked_batch_matches_loop_oracle(index, case, monkeypatch):
    # Each case also runs with its audios in reverse order. Their feature
    # lengths are distinct, so the schedule and the outputs must not change.
    # Another budget changes the BLAS calls' heights, and so the low bits.
    model, ctx, budget, w, feats = setup(case, seed=100 + index)
    ref = loop_oct_encode(feats, w, ctx, model)
    schedule = chunking.schedule_step
    steps = []

    def recording_schedule(*args):
        steps.append(schedule(*args))
        return steps[-1]

    monkeypatch.setattr(chunking, "schedule_step", recording_schedule)
    other = 10 ** 6 if budget < 1000 else 1
    for dtype, tol, budget_tol in ((np.float64, 1e-8, 1e-10), (np.float32, 1e-4, 1e-5)):
        runs = []
        for order in (feats, dict(reversed(feats.items()))):
            steps.clear()
            got = encode_full(order, cast_params(w, dtype), ctx, model, budget=budget)
            assert list(got) == list(order)
            for aid in feats:
                assert got[aid].shape == ref[aid].shape and got[aid].dtype == dtype
                assert rel_err(got[aid], ref[aid]) <= tol, (aid, case, dtype)
            runs.append((got, list(steps)))
        (fwd, fwd_steps), (rev, rev_steps) = runs
        assert rev_steps == fwd_steps, (case, dtype)
        at_other = encode_full(feats, cast_params(w, dtype), ctx, model, budget=other)
        for aid in feats:
            assert np.array_equal(rev[aid], fwd[aid]), (aid, case, dtype)
            assert rel_err(at_other[aid], fwd[aid]) <= budget_tol, (aid, case, dtype, other)


def test_budget_one_equals_unbounded_budget():
    model, ctx, _, w, feats = setup((3, 5, 5, 3, 4, 1), seed=7)
    w = cast_params(w, np.float64)
    one = encode_full(feats, w, ctx, model, budget=1)
    big = encode_full(feats, w, ctx, model, budget=10 ** 6)
    for aid in feats:
        assert rel_err(one[aid], big[aid]) <= 1e-10
