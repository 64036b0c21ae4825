"""Subsampling front block, the chunked encoder stack, and the step driver.

The engine processes audio as decode steps. A step covers the scheduled
chunks (emitted) plus a lookahead tail (computed, discarded, re-derived from
raw input next step). The step regions of all its audios are packed back to
back into one ragged (sum of regions, d) buffer, with per-audio offsets, and
every layer runs over that buffer: each position-wise op (feed-forward,
layer norm) runs once, and each sequential sublayer makes one gather of
overlapping chunk rows for all audios from [cache | region] buffers, runs
one batched attention or convolution, and puts the chunk outputs back with
one indexing. Every row is bounded by its own audio's frames, so windows
never cross into a neighbour. A per-audio validity frontier tracks how many
lookahead frames are still exact: attention quantizes validity to whole
chunk windows and the depthwise conv consumes l_conv more frames per layer.
The scheduler sizes the lookahead so every emitted frame stays exact, which
makes multi-step, batched, and single-step runs agree on emitted frames.

Checkpoint container ("CFKW"): magic, u32 version, u32 tensor count, then per
tensor {u16 name length, name bytes, u8 rank, u32 dims..., float32
little-endian payload}. Tensor names are fixed strings:

    subsample.b{j}.dw_w / pw_w / pw_b          j in 0..2
    subsample.out_w / out_b
    layer{i}.ff1.ln_g / ln_b / w1 / b1 / w2 / b2
    layer{i}.att.ln_g / ln_b / wq / wk / wv / wr / u / v / wo / bo
    layer{i}.conv.ln_g / ln_b / pw_in_w / pw_in_b / dw_w / dw_ln_g / dw_ln_b
                / pw_out_w / pw_out_b
    layer{i}.ff2.ln_g / ln_b / w1 / b1 / w2 / b2
    layer{i}.out_ln_g / out_ln_b
    after_ln_g / after_ln_b
    ctc.w / ctc.b
    vocab.utf8                                  newline-joined tokens as bytes
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import chunking
from .attention import AttentionParams, RelPosTable, build_rel_pos_table, chunk_attention
from .chunking import ChunkBatch, SchedulerError, StepSchedule, StreamState
from .config import ContextConfig, ModelConfig, derive_l_conv, require_valid
from .conv import ConvParams, conv_module_forward
from .ctc import CtcHead, Vocab, default_vocab
from .frontend import N_MELS
from .functional import cast_params, ff_forward, layer_norm, swish

CHECKPOINT_MAGIC = b"CFKW"
CHECKPOINT_VERSION = 1
RAW_CACHE_FRAMES = 7  # stride-2 kernel-3 stack reads 7 raw frames left of a block


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
    att_ln_g: np.ndarray
    att_ln_b: np.ndarray
    att: AttentionParams
    conv_ln_g: np.ndarray
    conv_ln_b: np.ndarray
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

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def d_model(self) -> int:
        return self.after_ln_g.shape[0]

    @property
    def kernel_size(self) -> int:
        return self.layers[0].conv.kernel_size if self.layers else 1


def post_frames(t_raw: int) -> int:
    """Post-subsample length for t_raw feature frames: ceil(t_raw / 8)."""
    return -(-t_raw // 8)


# ---------------------------------------------------------------------------
# weight init / checkpoint container
# ---------------------------------------------------------------------------

def _uniform(rng, shape, fan_in, dtype=np.float32):
    a = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-a, a, size=shape).astype(dtype)


def _init_ff(rng, d, d_ff):
    return FeedForwardParams(
        ln_g=np.ones(d, np.float32), ln_b=np.zeros(d, np.float32),
        w1=_uniform(rng, (d, d_ff), d), b1=_uniform(rng, (d_ff,), d),
        w2=_uniform(rng, (d_ff, d), d_ff), b2=_uniform(rng, (d,), d_ff),
    )


def init_weights(model: ModelConfig, seed: int | None = None) -> EncoderWeights:
    """Deterministic uniform(-a, a) init, a = 1/sqrt(fan_in), fixed draw order:
    subsample blocks then layers 0..N-1 (ff1, attention, conv, ff2)."""
    rng = np.random.default_rng(model.seed if seed is None else seed)
    d, k = model.d_model, model.kernel_size
    blocks = []
    ch_in = N_MELS
    for _ in range(3):
        blocks.append(SubsampleBlock(
            dw_w=_uniform(rng, (3, ch_in), 3),
            pw_w=_uniform(rng, (ch_in, d), ch_in),
            pw_b=_uniform(rng, (d,), ch_in),
        ))
        ch_in = d
    sub = SubsampleWeights(blocks=blocks,
                           out_w=_uniform(rng, (d, d), d),
                           out_b=_uniform(rng, (d,), d))
    layers = []
    for _ in range(model.n_layers):
        ff1 = _init_ff(rng, d, model.d_ff)
        attp = AttentionParams(
            wq=_uniform(rng, (d, d), d), wk=_uniform(rng, (d, d), d),
            wv=_uniform(rng, (d, d), d), wr=_uniform(rng, (d, d), d),
            u=_uniform(rng, (d,), d), v=_uniform(rng, (d,), d),
            wo=_uniform(rng, (d, d), d), bo=_uniform(rng, (d,), d),
        )
        cp = ConvParams(
            pw_in_w=_uniform(rng, (d, 2 * d), d), pw_in_b=_uniform(rng, (2 * d,), d),
            dw=_uniform(rng, (k, d), k),
            ln_scale=np.ones(d, np.float32), ln_shift=np.zeros(d, np.float32),
            pw_out_w=_uniform(rng, (d, d), d), pw_out_b=_uniform(rng, (d,), d),
        )
        ff2 = _init_ff(rng, d, model.d_ff)
        layers.append(LayerWeights(
            ff1=ff1,
            att_ln_g=np.ones(d, np.float32), att_ln_b=np.zeros(d, np.float32),
            att=attp,
            conv_ln_g=np.ones(d, np.float32), conv_ln_b=np.zeros(d, np.float32),
            conv=cp,
            ff2=ff2,
            out_ln_g=np.ones(d, np.float32), out_ln_b=np.zeros(d, np.float32),
        ))
    return EncoderWeights(subsample=sub, layers=layers,
                          after_ln_g=np.ones(d, np.float32),
                          after_ln_b=np.zeros(d, np.float32))


def init_model(model: ModelConfig, seed: int | None = None,
               vocab: Vocab | None = None) -> tuple[EncoderWeights, CtcHead, Vocab]:
    """Encoder weights plus CTC head and vocabulary from one seeded stream."""
    seed = model.seed if seed is None else seed
    weights = init_weights(model, seed)
    rng = np.random.default_rng(seed + 1)
    if vocab is None:
        vocab = default_vocab(model.vocab_size)
    d = model.d_model
    head = CtcHead(w=_uniform(rng, (d, len(vocab.tokens)), d),
                   b=_uniform(rng, (len(vocab.tokens),), d))
    return weights, head, vocab


def _tensor_map(weights: EncoderWeights, head: CtcHead, vocab: Vocab) -> dict[str, np.ndarray]:
    tensors: dict[str, np.ndarray] = {}
    for j, blk in enumerate(weights.subsample.blocks):
        tensors[f"subsample.b{j}.dw_w"] = blk.dw_w
        tensors[f"subsample.b{j}.pw_w"] = blk.pw_w
        tensors[f"subsample.b{j}.pw_b"] = blk.pw_b
    tensors["subsample.out_w"] = weights.subsample.out_w
    tensors["subsample.out_b"] = weights.subsample.out_b
    for i, lw in enumerate(weights.layers):
        pre = f"layer{i}"
        for tag, ff in (("ff1", lw.ff1), ("ff2", lw.ff2)):
            for name in ("ln_g", "ln_b", "w1", "b1", "w2", "b2"):
                tensors[f"{pre}.{tag}.{name}"] = getattr(ff, name)
        tensors[f"{pre}.att.ln_g"] = lw.att_ln_g
        tensors[f"{pre}.att.ln_b"] = lw.att_ln_b
        for name in ("wq", "wk", "wv", "wr", "u", "v", "wo", "bo"):
            tensors[f"{pre}.att.{name}"] = getattr(lw.att, name)
        tensors[f"{pre}.conv.ln_g"] = lw.conv_ln_g
        tensors[f"{pre}.conv.ln_b"] = lw.conv_ln_b
        tensors[f"{pre}.conv.pw_in_w"] = lw.conv.pw_in_w
        tensors[f"{pre}.conv.pw_in_b"] = lw.conv.pw_in_b
        tensors[f"{pre}.conv.dw_w"] = lw.conv.dw
        tensors[f"{pre}.conv.dw_ln_g"] = lw.conv.ln_scale
        tensors[f"{pre}.conv.dw_ln_b"] = lw.conv.ln_shift
        tensors[f"{pre}.conv.pw_out_w"] = lw.conv.pw_out_w
        tensors[f"{pre}.conv.pw_out_b"] = lw.conv.pw_out_b
        tensors[f"{pre}.out_ln_g"] = lw.out_ln_g
        tensors[f"{pre}.out_ln_b"] = lw.out_ln_b
    tensors["after_ln_g"] = weights.after_ln_g
    tensors["after_ln_b"] = weights.after_ln_b
    tensors["ctc.w"] = head.w
    tensors["ctc.b"] = head.b
    for tok in vocab.tokens:
        if "\n" in tok:
            raise CheckpointError(f"token {tok!r} contains a newline")
    blob = "\n".join(vocab.tokens).encode("utf-8")
    tensors["vocab.utf8"] = np.frombuffer(blob, dtype=np.uint8).astype(np.float32)
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
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint container")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    off = 12
    tensors: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off:off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<B", blob, off)
            off += 1
            dims = struct.unpack_from(f"<{rank}I", blob, off)
            off += 4 * rank
            size = int(np.prod(dims)) if rank else 1
            end = off + 4 * size
            if end > len(blob):
                raise CheckpointError(f"{path}: truncated payload for tensor {name!r}")
            tensors[name] = np.frombuffer(blob[off:end], dtype="<f4").reshape(dims).copy()
            off = end
    except struct.error:
        raise CheckpointError(f"{path}: truncated tensor table") from None
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return tensors


def load_checkpoint(path) -> tuple[EncoderWeights, CtcHead, Vocab]:
    """Parse a checkpoint; save -> load is a bitwise identity.

    The expected tensor-name set is reconstructed from the layer count found
    in the file; missing and unknown names are both reported.
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

    def take(name):
        if name not in tensors:
            missing.append(name)
            return np.zeros(0, np.float32)
        return tensors.pop(name)

    blocks = [SubsampleBlock(dw_w=take(f"subsample.b{j}.dw_w"),
                             pw_w=take(f"subsample.b{j}.pw_w"),
                             pw_b=take(f"subsample.b{j}.pw_b")) for j in range(3)]
    sub = SubsampleWeights(blocks=blocks, out_w=take("subsample.out_w"),
                           out_b=take("subsample.out_b"))
    layers = []
    for i in range(n_layers):
        pre = f"layer{i}"
        ff1 = FeedForwardParams(*(take(f"{pre}.ff1.{n}")
                                  for n in ("ln_g", "ln_b", "w1", "b1", "w2", "b2")))
        ff2 = FeedForwardParams(*(take(f"{pre}.ff2.{n}")
                                  for n in ("ln_g", "ln_b", "w1", "b1", "w2", "b2")))
        attp = AttentionParams(*(take(f"{pre}.att.{n}")
                                 for n in ("wq", "wk", "wv", "wr", "u", "v", "wo", "bo")))
        cp = ConvParams(pw_in_w=take(f"{pre}.conv.pw_in_w"),
                        pw_in_b=take(f"{pre}.conv.pw_in_b"),
                        dw=take(f"{pre}.conv.dw_w"),
                        ln_scale=take(f"{pre}.conv.dw_ln_g"),
                        ln_shift=take(f"{pre}.conv.dw_ln_b"),
                        pw_out_w=take(f"{pre}.conv.pw_out_w"),
                        pw_out_b=take(f"{pre}.conv.pw_out_b"))
        layers.append(LayerWeights(
            ff1=ff1,
            att_ln_g=take(f"{pre}.att.ln_g"), att_ln_b=take(f"{pre}.att.ln_b"),
            att=attp,
            conv_ln_g=take(f"{pre}.conv.ln_g"), conv_ln_b=take(f"{pre}.conv.ln_b"),
            conv=cp,
            ff2=ff2,
            out_ln_g=take(f"{pre}.out_ln_g"), out_ln_b=take(f"{pre}.out_ln_b"),
        ))
    weights = EncoderWeights(subsample=sub, layers=layers,
                             after_ln_g=take("after_ln_g"),
                             after_ln_b=take("after_ln_b"))
    head = CtcHead(w=take("ctc.w"), b=take("ctc.b"))
    vocab_arr = take("vocab.utf8")
    if missing:
        raise CheckpointError(f"{path}: missing tensors: {', '.join(sorted(missing))}")
    if tensors:
        raise CheckpointError(f"{path}: unknown tensors: {', '.join(sorted(tensors))}")
    vocab = Vocab(tokens=vocab_arr.astype(np.uint8).tobytes().decode("utf-8").split("\n"))
    if head.w.shape[1] != len(vocab.tokens):
        raise CheckpointError(
            f"{path}: ctc head vocab dim {head.w.shape[1]} != {len(vocab.tokens)} tokens"
        )
    return weights, head, vocab


def check_shapes(weights: EncoderWeights, model: ModelConfig) -> list[str]:
    """Mismatches between loaded tensors and a model configuration."""
    problems = []
    if weights.n_layers != model.n_layers:
        problems.append(f"checkpoint has {weights.n_layers} layers, config says "
                        f"{model.n_layers}")
    if weights.d_model != model.d_model:
        problems.append(f"checkpoint d_model {weights.d_model} != config "
                        f"{model.d_model}")
    if weights.layers and weights.kernel_size != model.kernel_size:
        problems.append(f"checkpoint kernel {weights.kernel_size} != config "
                        f"{model.kernel_size}")
    if weights.layers and weights.layers[0].ff1.w1.shape[1] != model.d_ff:
        problems.append(f"checkpoint d_ff {weights.layers[0].ff1.w1.shape[1]} != "
                        f"config {model.d_ff}")
    return problems


# ---------------------------------------------------------------------------
# subsampling
# ---------------------------------------------------------------------------

def _dw_stride2(buf: np.ndarray, buf_start: int, out_start: int, out_len: int,
                kernel: np.ndarray, in_limit: int) -> np.ndarray:
    """Stride-2 depthwise conv on an absolute-indexed buffer.

    out[j] = sum_k kernel[k] * in[2 * (out_start + j) - 1 + k], where ``in`` is
    zero outside [0, in_limit). The buffer must physically cover every
    in-range position it is asked for.
    """
    pos = 2 * (out_start + np.arange(out_len))[:, None] + np.arange(3)[None, :] - 1
    valid = (pos >= 0) & (pos < in_limit)
    rel = pos - buf_start
    if np.any(valid & ((rel < 0) | (rel >= buf.shape[0]))):
        raise SchedulerError("insufficient margin frames for the subsample stack")
    rel = np.clip(rel, 0, max(buf.shape[0] - 1, 0))
    vals = np.where(valid[..., None], buf[rel], np.zeros((), dtype=buf.dtype))
    return np.einsum("tkc,kc->tc", vals, kernel.astype(buf.dtype, copy=False))


def subsample_forward(raw_buf: np.ndarray, buf_start: int, post_start: int,
                      post_end: int, sub: SubsampleWeights, t_raw: int,
                      dtype=np.float32) -> np.ndarray:
    """Post-subsample frames [post_start, post_end) from a raw feature buffer.

    raw_buf covers absolute raw frames [buf_start, ...); padding past t_raw is
    neutralized by the per-level validity limits, so its content cannot affect
    the output. Three stride-2 depthwise-separable blocks (kernel 3, swish)
    then a linear projection; chunk-wise output equals full-sequence
    subsampling exactly because post frame t only reads raw [8t - 7, 8t + 7].
    ``sub`` should already be in ``dtype``.
    """
    lv = np.asarray(raw_buf, dtype=dtype)
    lv_start = buf_start
    spans = [(4 * post_start - 3, 4 * post_end),
             (2 * post_start - 1, 2 * post_end),
             (post_start, post_end)]
    limits = [t_raw, -(-t_raw // 2), -(-t_raw // 4)]
    for (a, b), blk, lim in zip(spans, sub.blocks, limits):
        y = _dw_stride2(lv, lv_start, a, b - a, blk.dw_w, lim)
        lv = swish(y @ blk.pw_w + blk.pw_b)
        lv_start = a
    return lv @ sub.out_w + sub.out_b


# ---------------------------------------------------------------------------
# layer engine
# ---------------------------------------------------------------------------

@dataclass
class _AudioStep:
    state: StreamState
    emit: int             # frames emitted this step
    cov: int              # region frames including lookahead
    final: bool           # the region reaches the audio end
    valid: int            # exact prefix length of the region


@dataclass
class _StepRows:
    """Row geometry of one step over its ragged (sum of cov, d) buffer.

    Audio i's region occupies buffer frames [off[i], off[i] + cov[i]), and its
    chunk rows start every c frames from the region start.
    """

    off: np.ndarray       # (N,) first buffer frame of each region
    owner: np.ndarray     # (B,) audio of each row
    first: np.ndarray     # (B,) first frame of each row within its region
    row: np.ndarray       # (sum cov,) row whose chunk holds each buffer frame
    col: np.ndarray       # (sum cov,) that frame's position in the chunk
    emitted: np.ndarray   # buffer frames emitted this step, audio by audio


def _step_rows(steps: list[_AudioStep], c: int) -> _StepRows:
    cov = np.array([a.cov for a in steps])
    emit = np.array([a.emit for a in steps])
    n_rows = -(-cov // c)
    row0 = np.cumsum(n_rows) - n_rows
    off = np.cumsum(cov) - cov
    owner = np.repeat(np.arange(len(steps)), n_rows)
    audio = np.repeat(np.arange(len(steps)), cov)
    local = np.arange(audio.size) - off[audio]
    return _StepRows(off=off, owner=owner,
                     first=c * (np.arange(owner.size) - row0[owner]),
                     row=row0[audio] + local // c, col=local % c,
                     emitted=np.flatnonzero(local < emit[audio]))


def _shrunk_validity(valid: int, cov: int, final: bool, c: int, r: int) -> int:
    """Attention-output validity: whole chunk windows only, unless the region
    ends at the real audio end (windows then clip semantically)."""
    if final:
        return cov
    if valid < r:
        return 0
    return min(cov, c * ((valid - r) // c))


def _gather_rows(steps: list[_AudioStep], geo: _StepRows, x: np.ndarray,
                 caches: list[np.ndarray], ln_g, ln_b, l: int, c: int, r: int,
                 limits: list[int]) -> tuple[ChunkBatch, list[np.ndarray]]:
    """Normalized [l | c | r] rows of every audio, gathered in one call.

    The rows come from one buffer [cache_0 | region_0 | cache_1 | ...]; audio
    i's rows may read its own cache and the first limits[i] frames of its
    region, nothing else. Also returns each audio's next cache: the last l
    frames before its emit frontier, taken before the norm.
    """
    lens = np.array([cache.shape[0] for cache in caches])
    ext = np.concatenate([part for cache, o, a in zip(caches, geo.off, steps)
                          for part in (cache, x[o:o + a.cov])])
    base = geo.off + np.cumsum(lens) - lens    # each audio's cache start
    region = base + lens
    new = [ext[max(b, s + a.emit - l):s + a.emit].copy()
           for a, b, s in zip(steps, base, region)]
    batch = chunking.oct_segment(layer_norm(ext, ln_g, ln_b),
                                 region[geo.owner] + geo.first, l, c, r,
                                 base[geo.owner], (region + limits)[geo.owner])
    return batch, new


def _half_ff(x: np.ndarray, ff: FeedForwardParams) -> np.ndarray:
    return 0.5 * ff_forward(layer_norm(x, ff.ln_g, ff.ln_b), ff.w1, ff.b1, ff.w2, ff.b2)


def _layer_pass(steps: list[_AudioStep], x: np.ndarray, geo: _StepRows,
                lw: LayerWeights, table: RelPosTable, ctx: ContextConfig,
                model: ModelConfig, layer_idx: int) -> np.ndarray:
    """One encoder layer over the ragged buffer of every audio in the step.

    Composition: half-step FF, relative MHSA over chunk rows, convolution
    module, half-step FF, per-layer output norm; residuals throughout. Every
    position-wise op runs once over the buffer, each sequential sublayer
    gathers its rows once, and the chunk outputs go back in one indexing.
    """
    c, l_att, r = ctx.c, ctx.l_att, ctx.r
    l_conv = (lw.conv.kernel_size - 1) // 2
    x = x + _half_ff(x, lw.ff1)
    batch, att_caches = _gather_rows(
        steps, geo, x, [a.state.att_caches[layer_idx] for a in steps],
        lw.att_ln_g, lw.att_ln_b, l_att, c, r, [a.valid for a in steps])
    x += chunk_attention(batch, lw.att, table, model.n_heads)[geo.row, geo.col]
    v_att = [_shrunk_validity(a.valid, a.cov, a.final, c, r) for a in steps]
    batch, conv_caches = _gather_rows(
        steps, geo, x, [a.state.conv_caches[layer_idx] for a in steps],
        lw.conv_ln_g, lw.conv_ln_b, l_conv, c, l_conv, v_att)
    x += conv_module_forward(batch.rows, lw.conv, batch.mask)[geo.row, geo.col]
    for a, v, att_cache, conv_cache in zip(steps, v_att, att_caches, conv_caches):
        a.valid = a.cov if a.final else max(0, v - l_conv)
        if a.valid < a.emit:
            raise SchedulerError(
                "lookahead shortfall: emitted frames lost exactness "
                f"(valid {a.valid} < emit {a.emit})"
            )
        a.state.att_caches[layer_idx] = att_cache
        a.state.conv_caches[layer_idx] = conv_cache
    return layer_norm(x + _half_ff(x, lw.ff2), lw.out_ln_g, lw.out_ln_b)


# ---------------------------------------------------------------------------
# step driver
# ---------------------------------------------------------------------------

def encode_step(states: dict[str, StreamState], schedule: StepSchedule,
                features: dict[str, np.ndarray], weights: EncoderWeights,
                ctx: ContextConfig, model: ModelConfig, table: RelPosTable,
                dtype=np.float32) -> dict[str, np.ndarray]:
    """Run one scheduled step; returns the emitted hidden frames per audio.

    Only the scheduled chunks' outputs are emitted; lookahead outputs are
    discarded and re-derived from raw input next step. The regions of all
    audios are packed into one buffer that every layer runs over, and caches
    are cut from each layer's inputs at the emit frontier. ``weights`` and
    ``table`` should already be in ``dtype``, as encode_full passes them.
    """
    steps: list[_AudioStep] = []
    hidden: list[np.ndarray] = []
    for aid in schedule.audio_order():
        st = states[aid]
        rows = schedule.rows_for(aid)
        start = st.frames_consumed
        if rows[0].chunk_index * ctx.c != start:
            raise SchedulerError(
                f"audio {aid!r}: first scheduled chunk {rows[0].chunk_index} does "
                f"not continue at frame {start}"
            )
        for p, q in zip(rows, rows[1:]):
            if q.chunk_index != p.chunk_index + 1:
                raise SchedulerError(f"audio {aid!r}: non-contiguous chunks scheduled")
        emit = sum(p.valid_frames for p in rows)
        la = min(schedule.lookahead.get(aid, 0), st.total_frames - start - emit)
        cov = emit + la
        feats = features[aid]
        t_raw = feats.shape[0]
        raw_start, raw_end = 8 * start, 8 * (start + cov)
        cache = st.raw_cache if st.raw_cache is not None else \
            np.zeros((0, feats.shape[1]), feats.dtype)
        fresh = feats[raw_start: min(raw_end, t_raw)]
        pad = (raw_end - raw_start) - fresh.shape[0]
        if pad > 0:
            fresh = np.concatenate([fresh,
                                    np.zeros((pad, feats.shape[1]), feats.dtype)])
        buf = np.concatenate([cache, fresh])
        hidden.append(subsample_forward(buf, raw_start - cache.shape[0], start,
                                        start + cov, weights.subsample, t_raw, dtype))
        end_raw = 8 * (start + emit)
        st.raw_cache = feats[max(0, end_raw - RAW_CACHE_FRAMES):
                             min(end_raw, t_raw)].copy()
        if not st.att_caches:
            empty = np.zeros((0, model.d_model), dtype)
            st.att_caches = [empty] * model.n_layers
            st.conv_caches = [empty] * model.n_layers
        steps.append(_AudioStep(state=st, emit=emit, cov=cov,
                                final=(start + cov == st.total_frames), valid=cov))
    x = np.concatenate(hidden)
    del hidden
    geo = _step_rows(steps, ctx.c)
    for k in range(model.n_layers):
        x = _layer_pass(steps, x, geo, weights.layers[k], table, ctx, model, k)
    x = x[geo.emitted]
    if model.n_layers:
        x = layer_norm(x, weights.after_ln_g, weights.after_ln_b)
    out: dict[str, np.ndarray] = {}
    at = 0
    for a in steps:
        out[a.state.audio_id] = x[at:at + a.emit]
        at += a.emit
        a.state.frames_consumed += a.emit
    return out


def encode_full(features: dict[str, np.ndarray], weights: EncoderWeights,
                ctx: ContextConfig, model: ModelConfig, budget: int = 16,
                dtype=np.float32, on_emit=None) -> dict[str, np.ndarray]:
    """Decode every audio to hidden frames with masked-batch endless decoding.

    Loops schedule and step until all chunks are emitted; deterministic for
    fixed weights and inputs. ``on_emit`` is called as
    on_emit(audio_id, block, start_frame) after each step.
    """
    require_valid(model, ctx)
    l_conv = derive_l_conv(model.kernel_size)
    weights = cast_params(weights, dtype)
    table = cast_params(build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, model.d_model,
                                            model.l_max), dtype)
    plans: dict[str, list] = {}
    states: dict[str, StreamState] = {}
    blocks: dict[str, list[np.ndarray]] = {}
    for aid, feats in features.items():
        t_post = post_frames(feats.shape[0])
        plans[aid] = chunking.carve_chunks(t_post, ctx.c, aid)
        states[aid] = StreamState(audio_id=aid, total_frames=t_post)
        blocks[aid] = []
    while True:
        sched = chunking.schedule_step(list(states.values()), plans, budget, ctx,
                                       model.n_layers, l_conv)
        if sched is None:
            break
        emitted = encode_step(states, sched, features, weights, ctx, model,
                              table, dtype)
        for aid, block in emitted.items():
            if on_emit is not None:
                on_emit(aid, block, states[aid].frames_consumed - block.shape[0])
            blocks[aid].append(block)
    return {aid: (np.concatenate(parts) if parts
                  else np.zeros((0, model.d_model), dtype))
            for aid, parts in blocks.items()}
