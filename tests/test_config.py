import json

import pytest

from chunkasr.attention import DistanceRangeError, build_rel_pos_table
from chunkasr.config import (MODEL_CAPS, WEIGHT_CAP, ConfigError, ContextConfig,
                             ModelConfig, context_from_string, derive_l_conv,
                             farthest_distance, load_config, required_lookahead, validate,
                             weight_count)
from chunkasr.encoder import _tensor_map, init_model


def r_rel(ctx, n_layers):
    """The closed form r + max(c, r) * (N - 1) of the lookahead an N-layer,
    kernel-1 stack needs; required_lookahead equals it when r >= 1 and
    either c >= r or c divides r."""
    return ctx.r + max(ctx.c, ctx.r) * (n_layers - 1)


def test_r_rel_eleven_future_frames():
    assert required_lookahead(ContextConfig(l_att=6, c=3, r=2), 4, 0) == 11


def test_r_rel_single_layer_needs_only_r():
    assert required_lookahead(ContextConfig(l_att=6, c=3, r=2), 1, 0) == 2


def test_r_rel_large_config():
    # 128 + 128 * 16
    assert required_lookahead(ContextConfig(l_att=128, c=64, r=128), 17, 0) == 2176


def test_r_rel_matches_recurrence():
    import numpy as np
    rng = np.random.default_rng(0)
    for _ in range(100):
        c = int(rng.integers(1, 200))
        r = int(rng.integers(1, 200))
        n = int(rng.integers(1, 40))
        if c < r:
            r = c * -(-r // c)   # the closed form needs c >= r or c dividing r
        acc = r
        for _ in range(n - 1):
            acc += max(c, r)
        assert required_lookahead(ContextConfig(l_att=0, c=c, r=r), n, 0) == acc


def test_r_rel_monotone_and_differences():
    base = ContextConfig(l_att=4, c=5, r=3)
    for n in range(2, 10):
        cur = required_lookahead(base, n, 0)
        prev = required_lookahead(base, n - 1, 0)
        assert cur - prev == max(base.c, base.r)
        assert required_lookahead(ContextConfig(l_att=4, c=6, r=3), n, 0) >= cur
        assert required_lookahead(ContextConfig(l_att=4, c=5, r=4), n, 0) >= cur


def test_required_lookahead_rejects_negative_layers():
    with pytest.raises(ConfigError):
        required_lookahead(ContextConfig(), -1, 0)


@pytest.mark.parametrize("kernel,expect", [(15, 7), (1, 0), (31, 15)])
def test_l_conv(kernel, expect):
    assert derive_l_conv(kernel) == expect


def test_l_conv_even_kernel_rejected():
    with pytest.raises(ConfigError):
        derive_l_conv(14)


def test_required_lookahead_matches_r_rel_in_clean_regimes():
    # l_conv = 0, r >= 1 and (c >= r or r multiple of c)
    for c, r, n in [(3, 2, 4), (4, 2, 2), (2, 4, 3), (64, 128, 17), (5, 5, 6)]:
        ctx = ContextConfig(l_att=0, c=c, r=r)
        assert required_lookahead(ctx, n, 0) == r_rel(ctx, n)
    # with r = 0 no layer reads past its chunk, so nothing is needed
    assert required_lookahead(ContextConfig(l_att=0, c=4, r=0), 3, 0) == 0


def test_required_lookahead_covers_conv_margin():
    ctx = ContextConfig(l_att=8, c=4, r=4)
    assert required_lookahead(ctx, 1, 0) == 4
    # one layer with kernel 15 needs the conv s support past the chunk end
    assert required_lookahead(ctx, 1, 7) == 4 + 4 * 2
    assert required_lookahead(ctx, 0, 7) == 0


def test_required_lookahead_shrink_consistency():
    # applying the per-layer shrink n times leaves at least r valid frames
    for c, r, n, l_conv in [(3, 2, 4, 0), (2, 5, 3, 0), (4, 4, 5, 7), (6, 2, 3, 1)]:
        ctx = ContextConfig(l_att=0, c=c, r=r)
        v = required_lookahead(ctx, n, l_conv)
        for _ in range(n - 1):
            v = c * ((v - r) // c) - l_conv
        assert v >= r


def test_validate_ok():
    model = ModelConfig(n_layers=4, d_model=64, n_heads=4, kernel_size=15)
    assert validate(model, ContextConfig(l_att=8, c=4, r=4)) == []


def test_validate_divisibility():
    problems = validate(ModelConfig(d_model=66, n_heads=4), ContextConfig())
    assert any("divisible" in p for p in problems)


def test_validate_l_max_range():
    problems = validate(ModelConfig(l_max=8), ContextConfig(l_att=8, c=4, r=4))
    assert any("l_max" in p for p in problems)
    # l_max must cover the farthest distance the rows read, max(l_att + c, c + r) - 1
    for ctx, far in ((ContextConfig(16, 8, 8), 23), (ContextConfig(2, 3, 9), 11),
                     (ContextConfig(128, 64, 128), 191)):
        assert farthest_distance(ctx.l_att, ctx.c, ctx.r) == far
        assert validate(ModelConfig(l_max=far), ctx) == []
        assert validate(ModelConfig(l_max=far - 1), ctx) == [
            f"l_max ({far - 1}) must cover max(l_att + c, c + r) - 1 = {far} so every "
            "relative distance used by attention has an encoding row"]
        build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, 8, far)
        with pytest.raises(DistanceRangeError):
            build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, 8, far - 1)


def test_validate_reports_every_violation():
    problems = validate(
        ModelConfig(d_model=65, n_heads=4, kernel_size=4, l_max=1),
        ContextConfig(l_att=-1, c=0, r=-2))
    assert len(problems) >= 6


@pytest.mark.parametrize("field", sorted(MODEL_CAPS))
def test_validate_caps_each_size_field(field):
    cap = MODEL_CAPS[field]
    assert validate(ModelConfig(**{field: cap}), ContextConfig()) == []
    for value in (cap + 2, 10 ** 8 + 1):
        problems = validate(ModelConfig(**{field: value}), ContextConfig())
        assert f"{field} must be <= {cap}, got {value}" in problems


def test_weight_count_is_what_init_model_makes():
    model = ModelConfig(n_layers=3, d_model=12, n_heads=2, d_ff=20, kernel_size=5,
                        vocab_size=7)
    tensors = _tensor_map(*init_model(model))
    assert weight_count(model) == sum(t.size for name, t in tensors.items()
                                      if name != "vocab.utf8")


def test_validate_caps_the_weight_count():
    large = ModelConfig(n_layers=17, d_model=512, n_heads=8, d_ff=2048, kernel_size=31,
                        vocab_size=5000)
    assert 2 * weight_count(large) <= WEIGHT_CAP and validate(large, ContextConfig()) == []
    every_cap = ModelConfig(**MODEL_CAPS)
    assert validate(every_cap, ContextConfig()) == [
        f"weight count must be <= {WEIGHT_CAP}, got {weight_count(every_cap)}"]


def test_validate_rejects_a_negative_seed():
    assert validate(ModelConfig(seed=-1), ContextConfig()) == ["seed must be >= 0, got -1"]
    assert validate(ModelConfig(seed=0), ContextConfig()) == []


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_layers": 2, "d_model": 16, "n_heads": 2,
                                "l_att": 6, "c": 3, "r": 2}))
    model, ctx = load_config(path)
    assert model.n_layers == 2 and model.d_model == 16
    assert (ctx.l_att, ctx.c, ctx.r) == (6, 3, 2)


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_layer": 2}))
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)


def test_load_config_type_check(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"c": "four"}))
    with pytest.raises(ConfigError, match="integer"):
        load_config(path)


def test_context_from_string():
    assert context_from_string("128,64,128") == ContextConfig(128, 64, 128)
    with pytest.raises(ConfigError):
        context_from_string("1,2")
    with pytest.raises(ConfigError):
        context_from_string("a,b,c")
