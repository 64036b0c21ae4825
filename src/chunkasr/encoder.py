"""Subsampling front block, the chunked encoder stack, and the step driver.

The engine processes audio as decode steps. A step covers the scheduled
chunks (emitted) plus a lookahead tail that brings them to exactness at
every layer. Each sublayer of each audio has an exactness frontier: the
subsample's grows with the region, attention's follows its input in whole
chunk windows, and the depthwise conv's trails attention's by l_conv frames.
A layer runs only on what crossed its frontiers this step; the exact frames
past the emit frontier stay in the audio's state, so every frame goes
through every layer once, whatever the budget. The new frames of all audios
at a layer are packed back to back into one ragged (sum of new frames, d)
buffer, so each position-wise op (feed-forward, layer norm) runs once. The
two sequential sublayers read one buffer of every audio's [held | new]
segment. Attention projects each frame of that buffer to its key and value
once and gathers overlapping [l_att | c | r] chunk rows of them for all
audios at once, each row masked to its own audio's segment; the conv runs
straight on the segments, each convolved as its own zero-padded sequence.
Both put their outputs back with one indexing, and neither reads into a
neighbouring audio. The step sizes the lookahead so every emitted frame
is exact, which makes multi-step, batched, and single-step runs agree.

Each encode_full call runs its steps in one functional.Workspace, whose
docstring gives the rules for its held buffers and its split kernel calls.

Checkpoint container ("CFKW"): magic, u32 version, u32 tensor count, then per
tensor {u16 name length, name bytes, u8 rank, u32 dims..., float32
little-endian payload}, each name once and each rank at most 64. The weight
tensors are named and shaped by config.weight_parts; one more tensor,
vocab.utf8, holds the newline-joined tokens as bytes.
"""

from __future__ import annotations

import math
import os
import struct
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import chunking
from .attention import (AttentionParams, RelPosTable, build_rel_pos_table, chunk_attention,
                        chunk_rows)
from .chunking import ChunkingError, ChunkPlan, SchedulerError, StepSchedule, StreamState
from .config import (ContextConfig, ModelConfig, derive_l_conv, require_valid,
                     required_lookahead, weight_parts)
from .conv import ConvParams, conv_module_forward
from .ctc import CtcHead, Vocab, VocabError, default_vocab
from .functional import Workspace, cast_params, ff_forward, layer_norm, swish

DEFAULT_BUDGET = 16   # chunk rows per decode step
CHECKPOINT_MAGIC = b"CFKW"
CHECKPOINT_VERSION = 1
VOCAB_TENSOR = "vocab.utf8"


class CheckpointError(ValueError):
    """Unknown/missing tensor names, shape mismatches, or truncation."""


@dataclass
class FeedForwardParams:
    ln_g: np.ndarray
    ln_b: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class LayerWeights:
    ff1: FeedForwardParams
    att: AttentionParams
    conv: ConvParams
    ff2: FeedForwardParams
    out_ln_g: np.ndarray
    out_ln_b: np.ndarray


@dataclass
class SubsampleBlock:
    dw_w: np.ndarray  # (3, ch_in) stride-2 depthwise kernel
    pw_w: np.ndarray  # (ch_in, ch_out)
    pw_b: np.ndarray  # (ch_out,)


@dataclass
class SubsampleWeights:
    blocks: list[SubsampleBlock]  # three stride-2 depthwise-separable blocks
    out_w: np.ndarray             # (d_model, d_model)
    out_b: np.ndarray


@dataclass
class EncoderWeights:
    subsample: SubsampleWeights
    layers: list[LayerWeights]
    after_ln_g: np.ndarray
    after_ln_b: np.ndarray


def post_frames(t_raw: int) -> int:
    """Post-subsample length for t_raw feature frames: ceil(t_raw / 8)."""
    return -(-t_raw // 8)


# ---------------------------------------------------------------------------
# weight init / checkpoint container
# ---------------------------------------------------------------------------

def _assemble(model: ModelConfig, tensor) -> tuple[EncoderWeights, CtcHead]:
    """Encoder weights and CTC head from tensor(prefix, name, shape, fan_in),
    called for each entry of config.weight_parts(model) in table order."""
    parts = iter(weight_parts(model))

    def build(cls, **children):
        prefix, tensors = next(parts)
        return cls(**children, **{name: tensor(prefix, name, shape, fan_in)
                                  for name, shape, fan_in in tensors})

    blocks = [build(SubsampleBlock) for _ in range(3)]
    subsample = build(SubsampleWeights, blocks=blocks)
    layers = [build(LayerWeights, ff1=build(FeedForwardParams), att=build(AttentionParams),
                    conv=build(ConvParams), ff2=build(FeedForwardParams))
              for _ in range(model.n_layers)]
    return build(EncoderWeights, subsample=subsample, layers=layers), build(CtcHead)


def _containers(weights: EncoderWeights, head: CtcHead | None) -> list:
    """The containers of config.weight_parts' parts, in table order; the CTC
    head's only when ``head`` is given."""
    out = [*weights.subsample.blocks, weights.subsample]
    for lw in weights.layers:
        out += (lw.ff1, lw.att, lw.conv, lw.ff2, lw)
    out.append(weights)
    if head is not None:
        out.append(head)
    return out


def init_model(model: ModelConfig,
               seed: int | None = None) -> tuple[EncoderWeights, CtcHead, Vocab]:
    """Deterministic uniform(-a, a) init, a = 1/sqrt(fan_in), in the order of
    config.weight_parts: the encoder from ``seed`` (default model.seed), the
    CTC head from seed + 1. Layer norms start at gain 1 and shift 0."""
    seed = model.seed if seed is None else seed
    encoder_rng, head_rng = np.random.default_rng(seed), np.random.default_rng(seed + 1)

    def init(prefix, name, shape, fan_in):
        if not fan_in:
            return (np.ones if name.endswith("_g") else np.zeros)(shape, np.float32)
        a = 1.0 / math.sqrt(fan_in)
        rng = head_rng if prefix == "ctc." else encoder_rng
        return rng.uniform(-a, a, size=shape).astype(np.float32)

    weights, head = _assemble(model, init)
    return weights, head, default_vocab(model.vocab_size)


def init_weights(model: ModelConfig, seed: int | None = None) -> EncoderWeights:
    """The encoder weights init_model makes."""
    return init_model(model, seed)[0]


def _tensor_map(weights: EncoderWeights, head: CtcHead, vocab: Vocab) -> dict[str, np.ndarray]:
    layout = weight_parts(ModelConfig(n_layers=len(weights.layers)))  # names only
    tensors = {prefix + name: getattr(obj, name)
               for (prefix, entries), obj in zip(layout, _containers(weights, head))
               for name, _, _ in entries}
    for tok in vocab.tokens:
        if "\n" in tok:
            raise CheckpointError(f"token {tok!r} contains a newline")
    blob = "\n".join(vocab.tokens).encode("utf-8")
    tensors[VOCAB_TENSOR] = np.frombuffer(blob, dtype=np.uint8).astype(np.float32)
    return tensors


def save_checkpoint(path, weights: EncoderWeights, head: CtcHead, vocab: Vocab) -> None:
    tensors = _tensor_map(weights, head, vocab)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def _read_tensors(path) -> dict[str, np.ndarray]:
    """Every tensor of a CFKW file, each payload read straight into its array.

    A payload is checked against the file size before its array is
    allocated, so a few-byte file cannot ask for a large allocation.
    """
    with open(path, "rb") as fh:
        size_on_disk = os.fstat(fh.fileno()).st_size

        def take(n: int) -> bytes:
            raw = fh.read(n)
            if len(raw) < n:
                raise CheckpointError(f"{path}: truncated tensor table")
            return raw

        head = fh.read(12)
        if len(head) < 12 or head[:4] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint container")
        version, count = struct.unpack_from("<II", head, 4)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<H", take(2))
            try:
                name = take(nlen).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: a tensor name is not valid UTF-8") from None
            if name in tensors:
                raise CheckpointError(f"{path}: tensor {name!r} appears twice")
            (rank,) = struct.unpack("<B", take(1))
            if rank > 64:   # NumPy 2's limit on the dimensions of an array
                raise CheckpointError(f"{path}: tensor {name!r} has rank {rank}, above 64")
            dims = struct.unpack(f"<{rank}I", take(4 * rank))
            size = math.prod(dims)   # exact, where an int64 product would wrap
            if fh.tell() + 4 * size > size_on_disk:
                raise CheckpointError(f"{path}: truncated payload for tensor {name!r}")
            arr = np.empty(dims, dtype="<f4")
            if fh.readinto(arr) != arr.nbytes:
                raise CheckpointError(f"{path}: truncated payload for tensor {name!r}")
            tensors[name] = arr
        trailing = size_on_disk - fh.tell()
    if trailing:
        raise CheckpointError(f"{path}: {trailing} trailing bytes")
    return tensors


def load_checkpoint(path) -> tuple[EncoderWeights, CtcHead, Vocab]:
    """Parse a checkpoint; save -> load is a bitwise identity.

    The expected tensor-name set is reconstructed from the layer count found
    in the file; missing and unknown names are both reported, and vocab.utf8
    must hold bytes that decode to a valid Vocab. Shapes are not checked
    here: check_shapes compares them with a model config.
    """
    tensors = _read_tensors(path)
    n_layers = 0
    for name in tensors:
        if name.startswith("layer"):
            tag = name.split(".", 1)[0][5:]
            if not (tag.isascii() and tag.isdigit()):
                raise CheckpointError(f"{path}: tensor {name!r} has no numeric layer id")
            if int(tag) >= len(tensors):
                raise CheckpointError(f"{path}: tensor {name!r} names layer {int(tag)}, "
                                      f"but the file holds only {len(tensors)} tensors")
            n_layers = max(n_layers, int(tag) + 1)
    missing: list[str] = []

    def take(prefix, name, *_):
        name = prefix + name
        if name not in tensors:
            missing.append(name)
            return np.zeros(0, np.float32)
        return tensors.pop(name)

    # only the layer count matters for the names
    weights, head = _assemble(ModelConfig(n_layers=n_layers), take)
    vocab_arr = take("", VOCAB_TENSOR)
    if missing:
        raise CheckpointError(f"{path}: missing tensors: {', '.join(sorted(missing))}")
    if tensors:
        raise CheckpointError(f"{path}: unknown tensors: {', '.join(sorted(tensors))}")
    if not np.all((vocab_arr >= 0) & (vocab_arr <= 255) & (np.floor(vocab_arr) == vocab_arr)):
        raise CheckpointError(f"{path}: {VOCAB_TENSOR} holds values that are not bytes")
    try:
        vocab = Vocab(tokens=vocab_arr.astype(np.uint8).tobytes().decode("utf-8").split("\n"))
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: {VOCAB_TENSOR} is not valid UTF-8") from None
    except VocabError as exc:
        raise CheckpointError(f"{path}: {VOCAB_TENSOR}: {exc}") from None
    return weights, head, vocab


def check_shapes(weights: EncoderWeights, model: ModelConfig,
                 head: CtcHead | None = None) -> list[str]:
    """Every tensor whose shape differs from the one config.weight_parts gives
    it under ``model``, by name; the CTC head's too when ``head`` is given."""
    if len(weights.layers) != model.n_layers:
        return [f"checkpoint has {len(weights.layers)} layers, config says {model.n_layers}"]
    problems = []
    for (prefix, tensors), obj in zip(weight_parts(model), _containers(weights, head)):
        for name, shape, _ in tensors:
            got = getattr(obj, name).shape
            if got != shape:
                problems.append(f"{prefix}{name} has shape {got}, config says {shape}")
    return problems


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------

def subsample_forward(feats: np.ndarray, sub: SubsampleWeights, post_start: int,
                      post_end: int) -> np.ndarray:
    """Post-subsample frames [post_start, post_end) of one audio's features.

    Three stride-2 depthwise-separable blocks (kernel 3, swish), then a
    linear projection, in the dtype of ``sub``. ``feats`` is the audio's
    whole (T, 80) feature matrix. Post frame t reads raw [8t - 7, 8t + 7],
    so the block [a, b) reads raw [8a - 7, 8b), and chunk-wise output equals
    full-sequence subsampling exactly. Each level copies only its inputs
    inside [0, limit), limit being T halved (rounded up) per level, into one
    zeroed buffer: only those raw frames are copied and cast, and the zeros
    stand for the frames before the start and past the end. The level's
    stride-2 windows of 3 frames are a view on that buffer's strides.
    """
    dtype = sub.out_w.dtype
    if post_end <= post_start:
        return np.zeros((0, sub.out_w.shape[1]), dtype)
    x, x_start, limit = feats, 0, feats.shape[0]
    for shift, blk in zip((4, 2, 1), sub.blocks):
        s, e = shift * (post_start - 1) + 1, shift * post_end  # this level's outputs
        lo, hi = max(2 * s - 1, 0), min(2 * e, limit)          # its in-range inputs
        buf = np.zeros((2 * (e - s) + 1, x.shape[1]), dtype)  # inputs [2s - 1, 2e)
        buf[lo - 2 * s + 1:hi - 2 * s + 1] = x[lo - x_start:hi - x_start]
        # windows[t, :, w] is buf[2t + w]
        rows, cols = buf.strides
        windows = np.ndarray((e - s, buf.shape[1], 3), dtype, buf, 0, (2 * rows, cols, rows))
        h = np.einsum("tcw,wc->tc", windows, blk.dw_w) @ blk.pw_w
        h += blk.pw_b
        x, x_start, limit = swish(h), s, -(-limit // 2)
    y = x @ sub.out_w
    y += sub.out_b
    return y


# ---------------------------------------------------------------------------
# layer engine
# ---------------------------------------------------------------------------

@dataclass
class _AudioStep:
    state: StreamState
    start: list[int]      # the frontiers state.front held when the step began
    emit: int             # frames emitted this step
    cov: int              # new frames in the current layer buffer: the layer's
                          # inputs before _layer_pass, the frames it ran after


def _frontiers(ready: int, total: int, ctx: ContextConfig, l_conv: int,
               n_layers: int) -> list[int]:
    """Exactness frontiers of every sublayer of one audio, 2L + 1 of them.

    Entry 0 is ``ready``, the post frames subsampled so far, of ``total``;
    entries 2k + 1 and 2k + 2 are layer k's attention and output frontiers.
    Every frame below a frontier is exact. Attention validity is whole
    chunk windows ([l_att | c | r] must lie below the input frontier) and
    the conv then needs l_conv frames past each output; once an input
    reaches the audio end, every later frontier is the end too.

    An audio's StreamState.held is indexed like these entries: held[j] ends
    at entry j. held[2k] holds layer k's attention inputs from l_att frames
    before its attention frontier on, held[2k + 1] its conv inputs from
    l_conv frames before its output frontier on, and held[2L] the final
    frames, past the last layer's norm, from the emit frontier on. Frames
    between two frontiers wait there until a later step makes the windows
    that read them exact. Only frames that exist are held: before warm-up
    the missing history shows up as masked attention-row positions and as
    the conv's zero padding at the audio start.
    """
    front = [ready]
    for _ in range(n_layers):
        att = total if front[-1] == total else max(0, ctx.c * ((front[-1] - ctx.r) // ctx.c))
        front += [att, total if att == total else max(0, att - l_conv)]
    return front


def _sublayer(steps: list[_AudioStep], j: int, x: np.ndarray, ln_g, ln_b, l: int,
              run) -> np.ndarray:
    """A residual sublayer over the held and new inputs of every audio.

    Frontiers j and j + 1 of each audio are the sublayer's input and output
    frontiers, at the start of the step in its start and at the end in its
    state.front. Audio i holds its inputs up to the start input frontier in
    held[j], and x its inputs up to the end one, back to back with the
    other audios'. ``run(h, seg, at, local)`` gets attention.chunk_rows'
    inputs: the normalized [held_i | new_i] buffer h, each audio's segment
    length in it, and every frame between the output frontiers as a buffer
    index and a place among its audio's outputs. It returns one output per
    such frame, read from that frame's own segment only, whose inputs are
    all exact. Each audio's held[j] becomes its inputs from l frames before
    its new output frontier on. Returns the residual sums at the new output frames, audio
    after audio.
    """
    parts, seg, at = [], [], 0
    for a in steps:
        held, new = a.state.held[j], a.state.front[j] - a.start[j]
        parts += (held, x[at:at + new])
        seg.append(held.shape[0] + new)
        at += new
    ext = np.concatenate(parts)
    outputs, base = [], 0
    for a, n in zip(steps, seg):
        lo, hi = a.start[j + 1], a.state.front[j + 1]
        shift = base + n - a.state.front[j]    # buffer index minus absolute frame
        a.state.held[j] = ext[max(base, hi - l + shift):base + n].copy()
        outputs.append((lo + shift, hi + shift))
        base += n
    at = np.concatenate([np.arange(lo, hi) for lo, hi in outputs])
    local = np.concatenate([np.arange(hi - lo) for lo, hi in outputs])
    y = run(layer_norm(ext, ln_g, ln_b), seg, at, local)
    y += ext[at]
    return y


def _half_ff(x: np.ndarray, ff: FeedForwardParams, ws: Workspace) -> np.ndarray:
    """x + ff(layer_norm(x)) / 2, the residual half-step, in the FF's output."""
    y = ff_forward(layer_norm(x, ff.ln_g, ff.ln_b), ff.w1, ff.b1, ff.w2, ff.b2, ws)
    y *= 0.5
    y += x
    return y


def _layer_pass(steps: list[_AudioStep], x: np.ndarray, lw: LayerWeights, table: RelPosTable,
                ctx: ContextConfig, model: ModelConfig, layer_idx: int,
                ws: Workspace) -> np.ndarray:
    """One encoder layer over the frames that became exact at its input.

    Composition: half-step FF, relative MHSA over attention.chunk_rows' rows,
    convolution module, half-step FF, per-layer output norm; residuals throughout.
    Frontiers 2k, 2k + 1 and 2k + 2 of each audio, k = ``layer_idx``, are
    this layer's input, attention and output frontiers, at the start of the
    step in the audio's start and at its end in its state.front; x holds
    the inputs between them. The FF runs on those new inputs, attention on
    the chunk rows whose window became exact, the conv, FF and output norm
    on the frames that became exact; each sublayer reads its left context
    and the frames still pending from the audio's held frames. The FF and
    attention temporaries go into ``ws``. Returns the new outputs.
    """
    def attend(h, seg, at, local):
        batch, q, index = chunk_rows(h, seg, at, local, lw.att, ctx.l_att, ctx.c, ctx.r, ws)
        return chunk_attention(batch, q, lw.att, table, model.n_heads, ws)[index]

    x = _half_ff(x, lw.ff1, ws)
    j = 2 * layer_idx
    x = _sublayer(steps, j, x, lw.att.ln_g, lw.att.ln_b, ctx.l_att, attend)
    x = _sublayer(steps, j + 1, x, lw.conv.ln_g, lw.conv.ln_b,
                  derive_l_conv(model.kernel_size),
                  lambda h, seg, at, _local: conv_module_forward(h, lw.conv, seg, at, ws))
    for a in steps:
        a.cov = a.state.front[j + 2] - a.start[j + 2]
    x = _half_ff(x, lw.ff2, ws)
    return layer_norm(x, lw.out_ln_g, lw.out_ln_b, x)


# ---------------------------------------------------------------------------
# step driver
# ---------------------------------------------------------------------------

def encode_step(states: dict[str, StreamState], schedule: StepSchedule,
                features: dict[str, np.ndarray], weights: EncoderWeights,
                ctx: ContextConfig, model: ModelConfig, table: RelPosTable,
                ws: Workspace) -> dict[str, np.ndarray]:
    """Run one scheduled step; returns the emitted hidden frames per audio.

    Each audio's region is its scheduled chunks plus a lookahead tail of
    required_lookahead frames, clipped at the audio end, which brings the
    scheduled chunks to exactness at every layer. The region is subsampled
    only past the subsample frontier, straight from the audio's resident
    ``features``; the frontiers it reaches are computed once per audio and
    kept in its state as the next step's start. Each layer runs only on the
    frames that became exact at its input this step, packed for all audios
    into one buffer. Exact frames past each frontier stay in the held
    frames, so no frame is computed twice at any layer. The last layer's new
    frames take the final norm as they become exact, and the emitted frames
    are the first ones of each audio's held final frames, sliced off them.
    Outputs and held frames are in the dtype of ``weights``; ``table`` must
    be built for ``ctx`` and be in that dtype too, as encode_full passes
    them. The layers' temporaries go into ``ws``, encode_full's workspace.
    """
    dtype = weights.after_ln_g.dtype
    l_conv = derive_l_conv(model.kernel_size)
    la = required_lookahead(ctx, model.n_layers, l_conv)
    by_audio: dict[str, list[ChunkPlan]] = {}
    for p in schedule.rows:
        by_audio.setdefault(p.audio_id, []).append(p)
    steps: list[_AudioStep] = []
    hidden: list[np.ndarray] = []
    for aid, rows in by_audio.items():
        st = states[aid]
        start = st.frames_consumed
        if rows[0].chunk_index * ctx.c != start:
            raise SchedulerError(
                f"audio {aid!r}: first scheduled chunk {rows[0].chunk_index} does "
                f"not continue at frame {start}"
            )
        for p, q in zip(rows, rows[1:]):
            if q.chunk_index != p.chunk_index + 1:
                raise SchedulerError(f"audio {aid!r}: non-contiguous chunks scheduled")
        if not st.held:
            st.held = [np.zeros((0, model.d_model), dtype)] * (2 * model.n_layers + 1)
            st.front = [0] * (2 * model.n_layers + 1)
        emit = sum(p.valid_frames for p in rows)
        done = st.front[0]
        end = max(done, min(start + emit + la, st.total_frames))
        hidden.append(subsample_forward(features[aid], weights.subsample, done, end))
        steps.append(_AudioStep(state=st, start=st.front, emit=emit, cov=end - done))
        st.front = _frontiers(end, st.total_frames, ctx, l_conv, model.n_layers)
    x = np.concatenate(hidden)
    del hidden
    for k in range(model.n_layers):
        if not x.shape[0]:   # nothing new at this layer, so nothing above it
            break
        x = _layer_pass(steps, x, weights.layers[k], table, ctx, model, k, ws)
    if model.n_layers and x.shape[0]:
        x = layer_norm(x, weights.after_ln_g, weights.after_ln_b)
    out: dict[str, np.ndarray] = {}
    at = 0
    for a in steps:
        st = a.state
        held = np.concatenate([st.held[-1], x[at:at + a.cov]]) if a.cov else st.held[-1]
        at += a.cov
        if held.shape[0] < a.emit:
            raise SchedulerError(
                f"audio {st.audio_id!r}: lookahead shortfall: {held.shape[0]} exact "
                f"frames, {a.emit} scheduled"
            )
        out[st.audio_id], st.held[-1] = held[:a.emit], held[a.emit:]
        st.frames_consumed += a.emit
    return out


def encode_full(features: dict[str, np.ndarray], weights: EncoderWeights,
                ctx: ContextConfig, model: ModelConfig, budget: int = DEFAULT_BUDGET,
                on_emit=None) -> dict[str, np.ndarray]:
    """Decode every audio to hidden frames with masked-batch endless decoding.

    Loops schedule and step until all chunks are emitted; deterministic for
    fixed weights and inputs. Each step's row budget goes to the pending
    audios shortest first (equal feature lengths in input order), so the
    audios finish in that order, and an audio's held frames are released
    once it has finished. ``on_emit`` is called as
    on_emit(audio_id, block, start_frame) after each step. Each audio's
    (post_frames(T), d_model) output is allocated once, and every emitted
    block is copied into it at its start frame. The returned dict is in
    input order. The encode runs in the dtype of ``weights``, as
    encode_step reads it, and every step shares one Workspace that lives
    for this call. With more than one CPU in the process's affinity mask,
    the workspace's pool thread runs half of each kernel call past
    functional.SPLIT_FLOP; it is joined before this call returns or raises.
    """
    require_valid(model, ctx)
    dtype = weights.after_ln_g.dtype
    table = cast_params(build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, model.d_model,
                                            model.l_max), dtype)
    states: dict[str, StreamState] = {}
    out: dict[str, np.ndarray] = {}
    for aid, feats in features.items():
        t_post = post_frames(feats.shape[0])
        if not t_post:
            raise ChunkingError(f"audio {aid!r} is empty: it has no feature frames")
        states[aid] = StreamState(audio_id=aid, total_frames=t_post)
        out[aid] = np.empty((t_post, model.d_model), dtype)
    # Shortest first by feature frames, which orders total_frames the same
    # way and leaves fewer ties to input order (sorted() is stable).
    # schedule_step fills the budget from the front, so in this closed batch
    # only the audio(s) at the front make progress and their remaining frames
    # only shrink: the order stays shortest-remaining-first, and the finished
    # audios are always a prefix of it, dropped before each step.
    pending = deque(sorted(states.values(),
                           key=lambda st: features[st.audio_id].shape[0]))
    with Workspace() as ws:
        while True:
            while pending and pending[0].frames_consumed == pending[0].total_frames:
                done = pending.popleft()
                done.held = []
            sched = chunking.schedule_step(pending, budget, ctx.c)
            if sched is None:
                break
            emitted = encode_step(states, sched, features, weights, ctx, model, table, ws)
            for aid, block in emitted.items():
                start = states[aid].frames_consumed - block.shape[0]
                if on_emit is not None:
                    on_emit(aid, block, start)
                out[aid][start:start + block.shape[0]] = block
    return out
