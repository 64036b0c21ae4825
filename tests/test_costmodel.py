import numpy as np
import pytest

from chunkasr.config import ConfigError, ContextConfig, ModelConfig
from chunkasr.costmodel import (attention_flops, batch_cost, cost_csv,
                                format_cost_table, raw_frames_for_duration,
                                subsample_flops)

TABLE_DURATIONS = [1.0, 30.0, 60.0, 900.0, 1800.0, 3600.0]
PAPER_CTX = ContextConfig(l_att=128, c=64, r=128)


def paper_model():
    return ModelConfig(n_layers=17, d_model=512, n_heads=8, d_ff=2048,
                       kernel_size=15, vocab_size=5000, l_max=512)


def test_chunked_flops_linear_dense_quadratic():
    model = ModelConfig()
    ctx = ContextConfig(l_att=16, c=8, r=8)
    one = attention_flops(8 * 10, ctx, model)
    two = attention_flops(8 * 20, ctx, model)
    assert two == 2 * one
    # a full-context window grows with the audio, so its count is quadratic
    dense = [attention_flops(t, ContextConfig(l_att=0, c=t, r=0), model) for t in (80, 160)]
    assert dense[1] == 4 * dense[0]


def test_key_span_is_window_width():
    # [128, 64, 128]: every row sees 320 keys regardless of audio length;
    # only its 64 chunk positions query them
    per_row_keys = PAPER_CTX.l_att + PAPER_CTX.c + PAPER_CTX.r
    assert per_row_keys == 320
    model = paper_model()
    for t_post in (64, 640, 64000):
        n = -(-t_post // PAPER_CTX.c)
        flops = attention_flops(t_post, PAPER_CTX, model)
        assert flops == model.n_layers * n * 3 * 2 * 64 * 320 * 512


def test_full_context_config_degenerates_to_dense():
    # content scores, positional scores and value mixing: three L x L x d
    # matmuls per layer
    model = ModelConfig()
    for t_post in (13, 64, 200):
        ctx = ContextConfig(l_att=0, c=t_post, r=0)
        assert attention_flops(t_post, ctx, model) == \
            model.n_layers * 3 * 2 * t_post * t_post * model.d_model


def test_flops_cross_checked_against_dense_opcount():
    # the three L x L x d einsums of oracle.dense_attention_reference
    model = ModelConfig(n_layers=1)
    for t_len in (8, 16, 33):
        ctx = ContextConfig(l_att=0, c=t_len, r=0)
        assert attention_flops(t_len, ctx, model) == 3 * 2 * t_len * t_len * model.d_model


def test_table_durations_ratio_near_published_value():
    report = batch_cost(TABLE_DURATIONS, PAPER_CTX, paper_model())
    assert abs(report.ratio / 3.38 - 1.0) <= 0.05
    # the duration-level padding ratio that drives it
    assert abs(21600 / 6391 - 3.38) / 3.38 <= 0.03


def test_partial_chunk_bills_frames_once_and_queries_per_row():
    # 1 s is 13 post frames, one partial chunk of c = 64: the feed-forwards,
    # the conv and the K and V projections run on its 13 frames; the Q and
    # output projections on all 64 query positions of its one row
    model = paper_model()
    d, f, k, n = model.d_model, model.d_ff, model.kernel_size, model.n_layers
    a = batch_cost([1.0], PAPER_CTX, model).audios[0]
    assert (a.frames_post, a.rows) == (13, 1)
    assert a.ff_flops == n * 13 * 2 * 2 * 2 * d * f
    assert a.conv_flops == n * 13 * 2 * (2 * d * d + k * d + d * d)
    assert a.other_flops == (subsample_flops(a.frames_raw, model)
                             + n * 2 * d * d * 2 * (13 + 64)
                             + 2 * 13 * d * model.vocab_size)
    assert a.attention_flops == n * 3 * 2 * 64 * 320 * d


def test_single_audio_ratio_exactly_one():
    report = batch_cost([37.0], PAPER_CTX, paper_model())
    assert report.ratio == 1.0


def test_identical_durations_ratio_exactly_one():
    report = batch_cost([60.0] * 5, PAPER_CTX, paper_model())
    assert report.ratio == 1.0


def test_ratio_at_least_one_and_additive(rng):
    model = ModelConfig()
    ctx = ContextConfig(l_att=16, c=8, r=8)
    for _ in range(10):
        durations = [float(d) for d in rng.uniform(0.5, 120.0, size=4)]
        rep = batch_cost(durations, ctx, model)
        assert rep.ratio >= 1.0
        total = sum(a.total_flops for a in batch_cost(durations, ctx, model,
                                                      mode="masked").audios)
        assert total == rep.masked_total_flops
        perm = list(reversed(durations))
        assert batch_cost(perm, ctx, model).masked_total_flops == \
            rep.masked_total_flops


def test_nonpositive_duration_rejected():
    with pytest.raises(ConfigError):
        batch_cost([10.0, -1.0], PAPER_CTX, paper_model())
    with pytest.raises(ConfigError):
        batch_cost([], PAPER_CTX, paper_model())


def test_naive_mode_bills_longest():
    report = batch_cost([1.0, 10.0], PAPER_CTX, paper_model(), mode="naive")
    assert all(a.billed_seconds == 10.0 for a in report.audios)
    assert report.audios[0].seconds == 1.0


def test_raw_frame_formula():
    assert raw_frames_for_duration(1.0) == 98
    with pytest.raises(ConfigError):
        raw_frames_for_duration(0.0)


def test_report_rendering():
    report = batch_cost([1.0, 2.0], ContextConfig(16, 8, 8), ModelConfig())
    table = format_cost_table(report)
    assert "naive/masked ratio" in table
    assert "multiply-accumulate" in table
    csv = cost_csv(report)
    assert csv.startswith("audio_id,")
    assert csv.strip().endswith(str(report.ratio))
