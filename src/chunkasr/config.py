"""Hyperparameters and derived context quantities.

All context lengths (``l_att``, ``c``, ``r``) are expressed in post-subsample
frames: one frame is 80 ms of audio at the 8x subsampling used here, so a
chunk of 128 frames covers roughly 10.24 s. Configuration files are flat JSON
documents whose keys mirror the dataclass field names exactly; unknown keys
are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

from .frontend import N_MELS


class ConfigError(ValueError):
    """Invalid or inconsistent configuration. Carries every violation found."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class ContextConfig:
    """Attention/conv context geometry: left cache, chunk size, right context."""

    l_att: int = 16
    c: int = 8
    r: int = 8


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int = 4
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    kernel_size: int = 15
    vocab_size: int = 29
    l_max: int = 64
    seed: int = 0


def derive_l_conv(kernel_size: int) -> int:
    """Convolution cache length (kernel_size - 1) / 2 for a symmetric kernel."""
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ConfigError(f"kernel_size must be odd and >= 1, got {kernel_size}")
    return (kernel_size - 1) // 2


def required_lookahead(ctx: ContextConfig, n_layers: int, l_conv: int) -> int:
    """Lookahead frames a decode step must append so the emitted chunks come
    out exactly equal to the full-sequence computation.

    Attention validity is chunk-quantized (a frame is exact only if its whole
    chunk window was exact) and the depthwise conv consumes l_conv extra
    frames per layer, so the per-layer requirement is
    u <- r + c * ceil((u + l_conv) / c). With l_conv = 0, r >= 1 and either
    c >= r or r a multiple of c, that is r + max(c, r) * (n_layers - 1) for
    n_layers >= 1; with r = 0 it is 0.
    """
    if n_layers < 0:
        raise ConfigError(f"n_layers must be >= 0, got {n_layers}")
    u = 0
    for _ in range(n_layers):
        u = ctx.r + ctx.c * math.ceil((u + l_conv) / ctx.c)
    return u


def farthest_distance(l_att: int, c: int, r: int) -> int:
    """The farthest relative distance [l_att | c | r] rows read: l_att + c - 1 or c + r - 1."""
    return max(l_att + c, c + r) - 1


# Upper bounds on the fields that size the weights and the relative-position
# table. Each is at least 4x the paper-scale model (12 layers, d_model 256, d_ff
# 1024, kernel 31, l_max 191) and 2x a 17-layer, 512-wide large Conformer.
MODEL_CAPS = {"n_layers": 64, "d_model": 2048, "d_ff": 8192, "kernel_size": 255,
              "vocab_size": 65536, "l_max": 8192}
# The fields' product is capped too: 1 GB of float32, 2.3x the 108M weights
# of that large Conformer, where all six fields at their caps ask for 24 GiB.
WEIGHT_CAP = 250_000_000


def weight_parts(model: ModelConfig) -> list[tuple[str, tuple]]:
    """Every weight tensor of the model, one part per parameter container.

    Each part is (prefix, ((tensor, shape, fan_in), ...)), and prefix + tensor
    is the tensor's checkpoint name. Parts come in init order: the three
    subsample blocks and the subsample output, then per layer ff1, att, conv,
    ff2 and the layer's output norm, then the final norm and the CTC head.
    init_model draws uniform(-a, a), a = 1 / sqrt(fan_in), in this order;
    fan_in 0 marks a layer norm, whose gain (*_g) starts at 1 and shift at 0.
    """
    d, f, k, v = model.d_model, model.d_ff, model.kernel_size, model.vocab_size
    norm = (("ln_g", (d,), 0), ("ln_b", (d,), 0))
    ff = norm + (("w1", (d, f), d), ("b1", (f,), d), ("w2", (f, d), f), ("b2", (d,), f))
    att = norm + (("wq", (d, d), d), ("wk", (d, d), d), ("wv", (d, d), d),
                  ("wr", (d, d), d), ("u", (d,), d), ("v", (d,), d),
                  ("wo", (d, d), d), ("bo", (d,), d))
    conv = norm + (("pw_in_w", (d, 2 * d), d), ("pw_in_b", (2 * d,), d),
                   ("dw_w", (k, d), k), ("dw_ln_g", (d,), 0), ("dw_ln_b", (d,), 0),
                   ("pw_out_w", (d, d), d), ("pw_out_b", (d,), d))
    parts = [(f"subsample.b{j}.", (("dw_w", (3, c), 3), ("pw_w", (c, d), c),
                                   ("pw_b", (d,), c)))
             for j, c in enumerate((N_MELS, d, d))]
    parts.append(("subsample.", (("out_w", (d, d), d), ("out_b", (d,), d))))
    layer = [("ff1.", ff), ("att.", att), ("conv.", conv), ("ff2.", ff),
             ("", (("out_ln_g", (d,), 0), ("out_ln_b", (d,), 0)))]
    parts += [(f"layer{i}.{prefix}", tensors) for i in range(model.n_layers)
              for prefix, tensors in layer]
    return parts + [("", (("after_ln_g", (d,), 0), ("after_ln_b", (d,), 0))),
                    ("ctc.", (("w", (d, v), d), ("b", (v,), d)))]


def weight_count(model: ModelConfig) -> int:
    """Weights init_model makes: the sizes of every tensor in weight_parts."""
    return sum(math.prod(shape) for _, tensors in weight_parts(model)
               for _, shape, _ in tensors)


def validate(model: ModelConfig, ctx: ContextConfig, positional: bool = True) -> list[str]:
    """Check every invariant; returns all violations, not just the first.

    Besides the lower bounds, every field in MODEL_CAPS has an upper bound:
    n_layers <= 64, d_model <= 2048, d_ff <= 8192, kernel_size <= 255,
    vocab_size <= 65536 and l_max <= 8192, and within those the weight count
    is at most WEIGHT_CAP. So a config of a few bytes cannot start unbounded
    work in init_weights or build_rel_pos_table; l_max covers farthest_distance,
    so l_att, r <= l_max and c <= l_max + 1. With ``positional`` False that
    coverage goes unchecked: only the relative-position table needs it.
    """
    problems = []
    for name, cap in MODEL_CAPS.items():
        value = getattr(model, name)
        if value > cap:
            problems.append(f"{name} must be <= {cap}, got {value}")
    if not problems and (count := weight_count(model)) > WEIGHT_CAP:
        problems.append(f"weight count must be <= {WEIGHT_CAP}, got {count}")
    if model.seed < 0:
        problems.append(f"seed must be >= 0, got {model.seed}")
    if ctx.c < 1:
        problems.append(f"c must be >= 1, got {ctx.c}")
    if ctx.l_att < 0:
        problems.append(f"l_att must be >= 0, got {ctx.l_att}")
    if ctx.r < 0:
        problems.append(f"r must be >= 0, got {ctx.r}")
    if model.n_layers < 0:
        problems.append(f"n_layers must be >= 0, got {model.n_layers}")
    if model.d_model < 2 or model.d_model % 2 != 0:
        problems.append(f"d_model must be a positive even number, got {model.d_model}")
    if model.n_heads < 1:
        problems.append(f"n_heads must be >= 1, got {model.n_heads}")
    elif model.d_model % model.n_heads != 0:
        problems.append(
            f"d_model ({model.d_model}) not divisible by n_heads ({model.n_heads})"
        )
    if model.d_ff < 1:
        problems.append(f"d_ff must be >= 1, got {model.d_ff}")
    if model.kernel_size < 1 or model.kernel_size % 2 == 0:
        problems.append(f"kernel_size must be odd and >= 1, got {model.kernel_size}")
    if model.vocab_size < 2:
        problems.append(f"vocab_size must be >= 2 (blank + tokens), got {model.vocab_size}")
    far = farthest_distance(ctx.l_att, ctx.c, ctx.r)
    if positional and model.l_max < far:
        problems.append(
            f"l_max ({model.l_max}) must cover max(l_att + c, c + r) - 1 = {far} so "
            "every relative distance used by attention has an encoding row"
        )
    return problems


def require_valid(model: ModelConfig, ctx: ContextConfig, positional: bool = True) -> None:
    problems = validate(model, ctx, positional)
    if problems:
        raise ConfigError(problems)


def context_from_string(spec: str) -> ContextConfig:
    """Parse an "l_att,c,r" triple, e.g. "128,64,128"."""
    parts = spec.split(",")
    if len(parts) != 3:
        raise ConfigError(f"context must be 'l_att,c,r', got {spec!r}")
    try:
        l_att, c, r = (int(p) for p in parts)
    except ValueError:
        raise ConfigError(f"context values must be integers, got {spec!r}") from None
    return ContextConfig(l_att=l_att, c=c, r=r)


_MODEL_KEYS = {f.name for f in fields(ModelConfig)}
_CTX_KEYS = {f.name for f in fields(ContextConfig)}


def load_config(path) -> tuple[ModelConfig, ContextConfig]:
    """Load a flat JSON config; unknown keys are errors."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        # JSONDecodeError, UnicodeDecodeError, and int literals past Python's
        # digit limit are ValueErrors; deep nesting is a RecursionError
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a flat JSON object")
    problems = []
    unknown = sorted(set(raw) - _MODEL_KEYS - _CTX_KEYS)
    for key in unknown:
        problems.append(f"unknown config key {key!r}")
    for key, value in raw.items():
        if key in unknown:
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            problems.append(f"config key {key!r} must be an integer, got {value!r}")
    if problems:
        raise ConfigError(problems)
    model = ModelConfig(**{k: v for k, v in raw.items() if k in _MODEL_KEYS})
    ctx = ContextConfig(**{k: v for k, v in raw.items() if k in _CTX_KEYS})
    return model, ctx
