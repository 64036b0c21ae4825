"""Chunk carving, overlapping attention rows with their masks, and the scheduler.

An audio is treated as a batch of equal-sized chunks of c post-subsample
frames. Attention sees overlapping rows [start - l, start + c + r) gathered
from one flat buffer (the depthwise conv needs no rows: it runs on each
audio's contiguous frames). A decode step packs the regions of all its
audios into that buffer back to back, so every row carries its own [lo, hi)
bounds: the extent of its audio's frames in the buffer. Positions outside a
row's bounds carry a false mask bit and a 0.0 value, so windows never reach
into a neighbouring audio and randomizing masked positions can never change
downstream results bit-wise.

The scheduler packs pending chunks from several audios into one step, in
audio order then chunk order, up to a row budget. Every audio that continues
past the step also gets a lookahead tail, so that the emitted chunks are exact
at every layer. The engine computes each tail frame once and holds it until
a later step emits it or reads it as context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ContextConfig, ConfigError, required_lookahead


class ChunkingError(ValueError):
    """Empty input or malformed chunk geometry."""


class SchedulerError(RuntimeError):
    """Internal scheduling inconsistency (duplicate or non-contiguous rows)."""


@dataclass(frozen=True)
class ChunkPlan:
    audio_id: str
    chunk_index: int
    valid_frames: int
    is_final: bool


@dataclass
class ChunkBatch:
    """B gathered attention rows of l + c + r positions with a validity mask.

    rows[b][p] is 0.0 wherever mask[b][p] is False; attention re-applies the
    mask defensively so poisoned masked values never reach any output.
    """

    rows: np.ndarray   # (B, l + c + r, d)
    mask: np.ndarray   # (B, l + c + r) bool
    l: int
    c: int
    r: int

    @property
    def width(self) -> int:
        return self.l + self.c + self.r


@dataclass
class StreamState:
    """Per-audio decoding state: held frames and progress counters.

    Every sublayer has an exactness frontier that only moves forward (see
    encoder._frontiers). Each layer's attention cache holds its exact
    attention inputs from l_att frames before its attention frontier to its
    input frontier; its conv cache holds the conv inputs from l_conv frames
    before its output frontier to its attention frontier. Frames between two
    frontiers wait in a cache until a later step makes the windows that read
    them exact. Caches hold only frames that actually exist; before warm-up
    the missing history shows up as masked attention-row positions and as
    the conv's zero padding at the audio start, never as fabricated history.
    """

    audio_id: str
    total_frames: int                      # post-subsample frames in the audio
    frames_consumed: int = 0               # emit frontier
    frames_subsampled: int = 0             # subsample frontier
    raw_cache: np.ndarray | None = None    # (<=l_raw, n_mels) raw fbank frames
                                           # before the subsample frontier
    att_caches: list[np.ndarray] = field(default_factory=list)  # per layer, attention inputs
    conv_caches: list[np.ndarray] = field(default_factory=list) # per layer, conv inputs
    out_cache: np.ndarray | None = None    # last layer's outputs past the emit frontier

    @property
    def done(self) -> bool:
        return self.frames_consumed >= self.total_frames


@dataclass
class StepSchedule:
    """One decode step: scheduled chunk rows plus per-audio lookahead frames."""

    rows: list[ChunkPlan]
    lookahead: dict[str, int]

    def rows_for(self, audio_id: str) -> list[ChunkPlan]:
        return [p for p in self.rows if p.audio_id == audio_id]

    def audio_order(self) -> list[str]:
        seen: dict[str, None] = {}
        for p in self.rows:
            seen.setdefault(p.audio_id, None)
        return list(seen)


def carve_chunks(total_frames: int, c: int, audio_id: str = "audio") -> list[ChunkPlan]:
    """Split total_frames into ceil(T/c) chunk plans; only the last is partial."""
    if c < 1:
        raise ConfigError(f"c must be >= 1, got {c}")
    if total_frames < 1:
        raise ChunkingError(f"cannot carve an empty input (T={total_frames})")
    count = math.ceil(total_frames / c)
    plans = []
    for i in range(count):
        valid = min(c, total_frames - i * c)
        plans.append(ChunkPlan(audio_id, i, valid, is_final=(i == count - 1)))
    return plans


def oct_segment(flat: np.ndarray, starts, l: int, c: int, r: int,
                lo=0, hi=None) -> ChunkBatch:
    """Gather overlapping rows [s - l, s + c + r) from a flat buffer.

    ``starts`` are buffer indices of each chunk's first frame. Row b may read
    only buffer positions in [lo[b], hi[b]) (scalars apply to every row; the
    default is the whole buffer); positions outside are masked and
    zero-filled, in-range positions are exact copies.
    """
    if l < 0 or r < 0:
        raise ConfigError(f"context lengths must be >= 0, got l={l}, r={r}")
    if c < 1:
        raise ConfigError(f"c must be >= 1, got {c}")
    flat = np.asarray(flat)
    n = flat.shape[0]
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    lo = np.maximum(np.asarray(lo, dtype=np.int64), 0)
    hi = np.minimum(np.asarray(n if hi is None else hi, dtype=np.int64), n)
    idx = starts[:, None] + np.arange(-l, c + r, dtype=np.int64)[None, :]
    mask = (idx >= np.reshape(lo, (-1, 1))) & (idx < np.reshape(hi, (-1, 1)))
    if n == 0:
        rows = np.zeros(idx.shape + flat.shape[1:], flat.dtype)
    else:
        rows = flat[np.clip(idx, 0, n - 1)]
        rows[~mask] = 0
    return ChunkBatch(rows=rows, mask=mask, l=l, c=c, r=r)


def schedule_step(states: list[StreamState], plans: dict[str, list[ChunkPlan]],
                  m_budget: int, ctx: ContextConfig, n_layers: int,
                  l_conv: int) -> StepSchedule | None:
    """Pick the next chunks across audios, audio order then chunk order.

    At most ``m_budget`` chunk rows are scheduled. Each scheduled audio that
    still has frames past its scheduled chunks gets a lookahead tail of
    required_lookahead frames (clipped to what remains); the tail is computed
    now but emitted by later steps. Returns None when nothing is pending.
    """
    if m_budget < 1:
        raise ConfigError(f"m_budget must be >= 1, got {m_budget}")
    rows: list[ChunkPlan] = []
    lookahead: dict[str, int] = {}
    la = required_lookahead(ctx, n_layers, l_conv)
    for state in states:
        if state.done or len(rows) >= m_budget:
            continue
        pending = [p for p in plans[state.audio_id]
                   if p.chunk_index * ctx.c >= state.frames_consumed]
        take = pending[: m_budget - len(rows)]
        if not take:
            continue
        rows.extend(take)
        emitted = sum(p.valid_frames for p in take)
        remaining = state.total_frames - state.frames_consumed - emitted
        if remaining > 0:
            lookahead[state.audio_id] = min(la, remaining)
    if not rows:
        return None
    return StepSchedule(rows=rows, lookahead=lookahead)
