"""CTC projection head and streaming-safe greedy decoding.

Greedy decoding is per-frame argmax, collapse consecutive repeats, drop
blanks. The carry is the last argmax id (blank included), which makes
decoding invariant to how the frame sequence is split: a blank between equal
tokens resets the repeat collapse exactly as in a whole-audio decode. Argmax
ties break toward the lowest token index for cross-platform determinism.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field

import numpy as np

BLANK_ID = 0


class VocabError(ValueError):
    """Duplicate tokens or a malformed vocabulary."""


@dataclass
class Vocab:
    """Ordered token strings with the blank reserved at index 0."""

    tokens: list[str]

    def __post_init__(self):
        if len(self.tokens) < 2:
            raise VocabError("vocabulary needs the blank plus at least one token")
        if len(set(self.tokens)) != len(self.tokens):
            raise VocabError("vocabulary tokens must be unique")

    def text(self, ids) -> str:
        return "".join(self.tokens[i] for i in ids)


def default_vocab(size: int = 29) -> Vocab:
    """Character vocabulary: blank, space, a-z, apostrophe (truncated to size)."""
    tokens = ["<blk>", " "] + list(string.ascii_lowercase) + ["'"]
    if size > len(tokens):
        tokens += [f"<x{i}>" for i in range(size - len(tokens))]
    return Vocab(tokens=tokens[:size])


@dataclass
class CtcHead:
    w: np.ndarray  # (d_model, vocab)
    b: np.ndarray  # (vocab,)


def project_logits(hidden: np.ndarray, head: CtcHead) -> np.ndarray:
    """Linear projection of hidden frames to vocabulary logits."""
    w = head.w.astype(hidden.dtype, copy=False)
    b = head.b.astype(hidden.dtype, copy=False)
    return hidden @ w + b


def greedy_decode(logits: np.ndarray, carry: int = BLANK_ID) -> tuple[list[int], int]:
    """Greedy CTC over a logit block; carry makes chunked decoding exact.

    Returns the emitted token ids and the updated carry (the last frame's
    argmax id). Initialize the carry to blank at audio start.
    """
    state = DecodeState(carry=carry)
    state.feed(logits, 0)
    return state.tokens, state.carry


@dataclass
class DecodeState:
    """Accumulates tokens and frame spans across emitted blocks of one audio."""

    carry: int = BLANK_ID
    tokens: list[int] = field(default_factory=list)
    spans: list[tuple[int, int]] = field(default_factory=list)

    def feed(self, logits: np.ndarray, start_frame: int) -> None:
        if logits.shape[0] == 0:
            return
        path = np.argmax(logits, axis=-1)
        for t, a in enumerate(path):
            a = int(a)
            frame = start_frame + t
            if a != BLANK_ID and a != self.carry:
                self.tokens.append(a)
                self.spans.append((frame, frame + 1))
            elif a != BLANK_ID and self.spans and self.spans[-1][1] == frame:
                self.spans[-1] = (self.spans[-1][0], frame + 1)
            self.carry = a


def format_transcript_line(audio_id: str, ids, vocab: Vocab,
                           spans=None) -> str:
    """One output line: id<TAB>text, plus token=start-end spans if given."""
    line = f"{audio_id}\t{vocab.text(ids)}"
    if spans is not None:
        marks = ",".join(f"{vocab.tokens[i]}={a}-{b}"
                         for i, (a, b) in zip(ids, spans))
        line += f"\t{marks}"
    return line
