"""Analytic frame and FLOP accounting for chunked vs dense attention and
masked vs naive padded batching.

Conventions (also printed in report headers): one multiply-accumulate counts
as 2 FLOPs; only matmul-like terms are counted (norms, activations, and the
softmax are ignored). The feed-forwards, the conv module and the K and V
projections are billed once per frame; the Q and output projections on each
row's c chunk positions, so a partial last chunk pays for a whole one; the
attention window term per row, over its c queries and l_att + c + r keys.
That term counts content scores, positional scores, and value mixing, so a
full-context configuration (l_att = r = 0, c = L) degenerates to exactly the
dense count. The totals are a lower bound, even for an audio encoded in one
step: the engine's positional product runs each query over the table's
l_att + 2c + r - 1 entries, not l_att + c + r, and each chunk_attention call
projects the table (2 n d^2 FLOPs per layer per step, n entries), which is
not billed; on a 30 s paper-scale audio that is 0.149 + 0.602 GFLOP, 4.6% of
the 16.2 billed. An audio encoded in several steps also re-runs the K and V
projections, the conv's pointwise-in and its depthwise conv on the frames
held from the step before. Wall-clock seconds and memory are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import ConfigError, ContextConfig, ModelConfig
from .encoder import post_frames
from .frontend import SAMPLE_RATE, WINDOW_SAMPLES, N_MELS, num_frames

FLOP_NOTE = ("FLOPs: 1 multiply-accumulate = 2 FLOPs; matmul-like terms only "
             "(norms/activations ignored)")


def raw_frames_for_duration(seconds: float) -> int:
    if seconds <= 0:
        raise ConfigError(f"duration must be positive, got {seconds}")
    samples = int(round(seconds * SAMPLE_RATE))
    if samples < WINDOW_SAMPLES:
        raise ConfigError(f"duration {seconds}s is shorter than one "
                          f"{WINDOW_SAMPLES}-sample analysis window")
    return num_frames(samples)


def attention_flops(t_post: int, ctx: ContextConfig, model: ModelConfig) -> int:
    """Window-dependent attention FLOPs for one audio, all layers.

    Per row: content scores + positional scores + value mixing, each a
    c x (l_att + c + r) x d_model matmul (only the chunk positions query;
    the r lookahead positions are keys). Exactly linear in the chunk count
    n = ceil(T'/c) for a fixed context.
    """
    if t_post < 1:
        raise ConfigError(f"t_post must be >= 1, got {t_post}")
    n = -(-t_post // ctx.c)
    q = ctx.c
    w = ctx.l_att + ctx.c + ctx.r
    per_row = 3 * 2 * q * w * model.d_model
    return model.n_layers * n * per_row


def _layer_fixed_flops(frames: int, queries: int, model: ModelConfig) -> dict[str, int]:
    """One layer's FLOPs outside the attention window: K, V, conv and FF per
    frame, Q and output projections per query position."""
    d, ff, k = model.d_model, model.d_ff, model.kernel_size
    proj = 2 * d * d * 2 * (frames + queries)
    conv = frames * (2 * d * 2 * d + 2 * k * d + 2 * d * d)
    ffl = frames * 2 * 2 * (d * ff + ff * d)
    return {"att_proj": proj, "conv": conv, "ff": ffl}


def subsample_flops(t_raw: int, model: ModelConfig) -> int:
    d = model.d_model
    l1, l2, l3 = -(-t_raw // 2), -(-t_raw // 4), post_frames(t_raw)
    total = l1 * (2 * 3 * N_MELS + 2 * N_MELS * d)
    total += l2 * (2 * 3 * d + 2 * d * d)
    total += l3 * (2 * 3 * d + 2 * d * d)
    total += l3 * 2 * d * d
    return total


@dataclass
class AudioCost:
    audio_id: str
    seconds: float
    billed_seconds: float
    frames_raw: int
    frames_post: int
    rows: int
    attention_flops: int
    conv_flops: int
    ff_flops: int
    other_flops: int  # subsample + attention projections + ctc head

    @property
    def total_flops(self) -> int:
        return (self.attention_flops + self.conv_flops + self.ff_flops
                + self.other_flops)


@dataclass
class CostReport:
    """Per-audio accounting plus naive/masked batch totals.

    masked total is the sum of true per-audio costs; naive total bills every
    audio at the longest duration in the batch; ratio = naive / masked.
    """

    mode: str
    context: ContextConfig
    note: str
    audios: list[AudioCost] = field(default_factory=list)
    naive_total_flops: int = 0
    masked_total_flops: int = 0

    @property
    def ratio(self) -> float:
        return self.naive_total_flops / self.masked_total_flops


def _audio_cost(audio_id: str, seconds: float, billed: float, ctx: ContextConfig,
                model: ModelConfig) -> AudioCost:
    t_raw = raw_frames_for_duration(billed)
    t_post = post_frames(t_raw)
    rows = -(-t_post // ctx.c)
    fixed = _layer_fixed_flops(t_post, rows * ctx.c, model)
    att = attention_flops(t_post, ctx, model)
    conv = model.n_layers * fixed["conv"]
    ffl = model.n_layers * fixed["ff"]
    other = (subsample_flops(t_raw, model)
             + model.n_layers * fixed["att_proj"]
             + 2 * t_post * model.d_model * model.vocab_size)
    return AudioCost(audio_id=audio_id, seconds=seconds, billed_seconds=billed,
                     frames_raw=t_raw, frames_post=t_post, rows=rows,
                     attention_flops=att, conv_flops=conv, ff_flops=ffl,
                     other_flops=other)


def batch_cost(durations: list[float], ctx: ContextConfig, model: ModelConfig,
               mode: str = "masked") -> CostReport:
    """Cost of decoding one batch of audios, naive padded vs masked.

    The per-audio table reflects ``mode`` (naive bills every audio at the
    longest duration); both totals and their ratio are always included.
    """
    if not durations:
        raise ConfigError("durations must be nonempty")
    if mode not in ("naive", "masked"):
        raise ConfigError(f"mode must be 'naive' or 'masked', got {mode!r}")
    longest = max(durations)
    masked = [_audio_cost(f"a{i}", s, s, ctx, model)
              for i, s in enumerate(durations)]
    naive = [_audio_cost(f"a{i}", s, longest, ctx, model)
             for i, s in enumerate(durations)]
    return CostReport(mode=mode, context=ctx, note=FLOP_NOTE,
                      audios=naive if mode == "naive" else masked,
                      naive_total_flops=sum(a.total_flops for a in naive),
                      masked_total_flops=sum(a.total_flops for a in masked))


def format_cost_table(report: CostReport) -> str:
    header = (f"{'audio':<8} {'sec':>9} {'billed':>9} {'rows':>6} "
              f"{'att_flops':>14} {'conv_flops':>14} {'ff_flops':>14} "
              f"{'total':>15}")
    lines = [f"mode: {report.mode}  context: [{report.context.l_att},"
             f"{report.context.c},{report.context.r}]",
             report.note, header, "-" * len(header)]
    for a in report.audios:
        lines.append(f"{a.audio_id:<8} {a.seconds:>9.1f} {a.billed_seconds:>9.1f} "
                     f"{a.rows:>6d} {a.attention_flops:>14d} {a.conv_flops:>14d} "
                     f"{a.ff_flops:>14d} {a.total_flops:>15d}")
    lines.append("-" * len(header))
    lines.append(f"naive total:  {report.naive_total_flops:>18d}")
    lines.append(f"masked total: {report.masked_total_flops:>18d}")
    lines.append(f"naive/masked ratio: {report.ratio:.4f}")
    return "\n".join(lines)


def cost_csv(report: CostReport) -> str:
    rows = ["audio_id,seconds,billed_seconds,frames_raw,frames_post,rows,"
            "attention_flops,conv_flops,ff_flops,other_flops,total_flops"]
    for a in report.audios:
        rows.append(f"{a.audio_id},{a.seconds},{a.billed_seconds},{a.frames_raw},"
                    f"{a.frames_post},{a.rows},{a.attention_flops},{a.conv_flops},"
                    f"{a.ff_flops},{a.other_flops},{a.total_flops}")
    rows.append(f"ratio,{report.ratio}")
    return "\n".join(rows) + "\n"
