"""Seeded random-geometry sweep of the engine against the per-audio loop oracle.

Each case batches several audios of different lengths into one encode_full
call and compares every audio with oracle.loop_oct_encode, for an engine run
in float64 (1e-8) and one in float32 (1e-4), with the audios in input order
and reversed. The fixed cases pin the edge geometries; the seeded ones vary
everything at once.
"""

import numpy as np
import pytest

from chunkasr import chunking
from chunkasr.config import ContextConfig, ModelConfig
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
SEEDED = 14
# (d_model, n_heads, d_ff): the fixed cases run the first, the seeded ones
# cycle through all four, so attention runs with 1, 2, 4 and 8 heads
MODELS = [(8, 2, 16), (16, 4, 32), (8, 1, 16), (32, 8, 64)]


def draw(rng):
    return (int(rng.integers(0, 4)), int(rng.choice([1, 3, 5, 7])),
            int(rng.integers(0, 7)), int(rng.integers(1, 6)),
            int(rng.integers(0, 7)), int(rng.integers(1, 5)))


def geometries():
    rng = np.random.default_rng(2024)
    seeded = [draw(rng) + MODELS[i % len(MODELS)] for i in range(SEEDED)]
    # the last runs two layers on rows of one position, l_att + c + r = 1
    seeded[-1] = (2, seeded[-1][1], 0, 1, 0) + seeded[-1][5:]
    return FIXED + seeded


def setup(case, seed):
    n_layers, kernel, l_att, c, r, budget, *dims = case
    d_model, n_heads, d_ff = dims or MODELS[0]
    model = ModelConfig(n_layers=n_layers, d_model=d_model, n_heads=n_heads, d_ff=d_ff,
                        kernel_size=kernel, vocab_size=4,
                        l_max=l_att + c + r, seed=seed)
    ctx = ContextConfig(l_att=l_att, c=c, r=r)
    rng = np.random.default_rng(seed)
    n_audios = int(rng.integers(2, 5))
    lengths = rng.choice(np.arange(3, 160), size=n_audios, replace=False)
    feats = {f"a{i}": rng.normal(size=(int(t), 80)).astype(np.float32)
             for i, t in enumerate(lengths)}
    return model, ctx, budget, init_weights(model, seed=seed + 1), feats


@pytest.mark.parametrize("index,case", list(enumerate(geometries())))
def test_masked_batch_matches_loop_oracle(index, case, monkeypatch):
    # Each case also runs with its audios in reverse order. Their feature
    # lengths are distinct, so the schedule and the outputs must not change.
    model, ctx, budget, w, feats = setup(case, seed=100 + index)
    ref = loop_oct_encode(feats, w, ctx, model)
    schedule = chunking.schedule_step
    steps = []

    def recording_schedule(*args):
        steps.append(schedule(*args))
        return steps[-1]

    monkeypatch.setattr(chunking, "schedule_step", recording_schedule)
    for dtype, tol in ((np.float64, 1e-8), (np.float32, 1e-4)):
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
        for aid in feats:
            assert np.array_equal(rev[aid], fwd[aid]), (aid, case, dtype)


def test_budget_one_equals_unbounded_budget():
    model, ctx, _, w, feats = setup((3, 5, 5, 3, 4, 1), seed=7)
    w = cast_params(w, np.float64)
    one = encode_full(feats, w, ctx, model, budget=1)
    big = encode_full(feats, w, ctx, model, budget=10 ** 6)
    for aid in feats:
        assert rel_err(one[aid], big[aid]) <= 1e-10
