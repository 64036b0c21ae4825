"""The chunk scheduler, and overlapping attention rows with their masks.

An audio is treated as a batch of equal-sized chunks of c post-subsample
frames. Attention sees overlapping rows [start - l, start + c + r) gathered
from one flat buffer (the depthwise conv needs no rows: it runs on each
audio's contiguous frames). A decode step packs the regions of all its
audios into that buffer back to back, so every row carries its own [lo, hi)
bounds: the extent of its audio's frames in the buffer. Positions outside a
row's bounds carry a false mask bit and a 0.0 value, so windows never reach
into a neighbouring audio and randomizing masked positions can never change
downstream results bit-wise.

The scheduler fills a row budget from the front of the audio order it is
given, taking each audio's next chunks from its emit frontier, and makes a
ChunkPlan only for the chunks it takes; encode_full gives it the pending
audios shortest first. The encoder step derives each audio's lookahead
tail, which brings the emitted chunks to exactness at every layer; it
computes each tail frame once and holds it until a later step emits it or
reads it as context.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError


class ChunkingError(ValueError):
    """Empty input or malformed chunk geometry."""


class SchedulerError(RuntimeError):
    """Scheduled rows that skip, repeat or overrun an audio's chunks."""


@dataclass(frozen=True)
class ChunkPlan:
    audio_id: str
    chunk_index: int
    valid_frames: int


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
    No raw features are held: the subsample reads the raw frames each step
    needs, its left margin included, straight from the audio's features,
    which stay resident for the whole encode.
    """

    audio_id: str
    total_frames: int                      # post-subsample frames in the audio
    frames_consumed: int = 0               # emit frontier
    frames_subsampled: int = 0             # subsample frontier
    att_caches: list[np.ndarray] = field(default_factory=list)  # per layer, attention inputs
    conv_caches: list[np.ndarray] = field(default_factory=list) # per layer, conv inputs
    out_cache: np.ndarray | None = None    # last layer's outputs past the emit frontier


@dataclass
class StepSchedule:
    """One decode step: the chunk rows it emits, audio after audio."""

    rows: list[ChunkPlan]


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


def schedule_step(states: Iterable[StreamState], m_budget: int,
                  c: int) -> StepSchedule | None:
    """Fill a row budget from the front of ``states``, in the order given.

    Takes every pending chunk of the first audio, then of the next, until
    ``m_budget`` chunk rows are scheduled; it reads no state past the one
    that fills the budget. An audio's pending chunks start at chunk
    ceil(frames_consumed / c), the first to begin at or past its emit
    frontier; only an audio's last chunk is partial. Returns None when
    nothing is pending.
    """
    if m_budget < 1 or c < 1:
        raise ConfigError(f"m_budget and c must be >= 1, got {m_budget} and {c}")
    rows: list[ChunkPlan] = []
    for state in states:
        at = c * -(-state.frames_consumed // c)
        while at < state.total_frames and len(rows) < m_budget:
            rows.append(ChunkPlan(state.audio_id, at // c, min(c, state.total_frames - at)))
            at += c
        if len(rows) == m_budget:
            break
    return StepSchedule(rows) if rows else None
