"""The chunk scheduler, and overlapping attention rows with their masks.

An audio is treated as a batch of equal-sized chunks of c post-subsample
frames. Attention sees overlapping rows [start - l, start + c + r) gathered
from one flat buffer of per-frame keys and values (the depthwise conv needs
no rows: it runs on each audio's contiguous frames). A decode step packs
the regions of all its audios into that buffer back to back, so every row
carries its own [lo, hi) bounds: the extent of its audio's frames in the
buffer. Positions outside a row's bounds carry a false mask bit and hold
whatever buffer frame the clipped index reads, often a neighbouring audio's;
attention, the only consumer of the rows, clears them, so no masked slot can
change an output bit-wise.

The scheduler fills a row budget from the front of the audio order it is
given, taking each audio's next chunks from its emit frontier, and makes a
ChunkPlan only for the chunks it takes; encode_full gives it the pending
audios shortest first.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError


class ChunkingError(ValueError):
    """An audio with no feature frames."""


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

    A row position holds one frame of the buffer it was gathered from; for
    attention, that frame's key and value side by side. Where mask[b][p] is
    False, rows[b][p] is not part of the row and may hold anything:
    attention clears those slots before it reads them.
    """

    rows: np.ndarray   # (B, l + c + r, width of a buffer frame)
    mask: np.ndarray   # (B, l + c + r) bool
    l: int
    c: int
    r: int

    @property
    def width(self) -> int:
        return self.l + self.c + self.r


@dataclass
class StreamState:
    """Per-audio decoding state: emit frontier, exactness frontiers, held frames.

    ``front`` and ``held`` are all a step carries to the next: the 2L + 1
    frontiers as of its last step (front[0] is the subsample frontier) and
    the exact frames later steps still read or emit; encoder._frontiers
    says what each entry is and holds. Both are empty before the first
    step, and ``held`` again once the audio has finished. The subsample
    reads raw frames straight from the audio's features, which stay resident.
    """

    audio_id: str
    total_frames: int                      # post-subsample frames in the audio
    frames_consumed: int = 0               # emit frontier
    front: list[int] = field(default_factory=list)
    held: list[np.ndarray] = field(default_factory=list)


@dataclass
class StepSchedule:
    """One decode step: the chunk rows it emits, audio after audio."""

    rows: list[ChunkPlan]


def oct_segment(flat: np.ndarray, starts, l: int, c: int, r: int, lo, hi) -> ChunkBatch:
    """Gather overlapping rows [s - l, s + c + r) from a flat buffer.

    ``starts`` are buffer indices of each chunk's first frame. Row b may read
    only buffer positions in [lo[b], hi[b]) (scalars apply to every row);
    in-range positions are exact copies, and positions outside are masked
    and hold the buffer frame at the index clipped to [0, n).
    """
    if l < 0 or r < 0:
        raise ConfigError(f"context lengths must be >= 0, got l={l}, r={r}")
    if c < 1:
        raise ConfigError(f"c must be >= 1, got {c}")
    flat = np.asarray(flat)
    n = flat.shape[0]
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    lo = np.maximum(np.asarray(lo, dtype=np.int64), 0)
    hi = np.minimum(np.asarray(hi, dtype=np.int64), n)
    idx = starts[:, None] + np.arange(-l, c + r, dtype=np.int64)[None, :]
    mask = (idx >= np.reshape(lo, (-1, 1))) & (idx < np.reshape(hi, (-1, 1)))
    if n == 0:
        rows = np.zeros(idx.shape + flat.shape[1:], flat.dtype)
    else:
        rows = flat[np.minimum(np.maximum(idx, 0), n - 1)]
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
