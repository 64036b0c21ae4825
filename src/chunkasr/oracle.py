"""Independent reference implementations for verification.

These run the same layer math as the engine but with none of its machinery:
no row gathers, no caches, no scheduler, no shared masking or window code.
Segmentation here is plain python slicing, softmax is written inline, and the
convolutions run over whole sequences, and every matmul is written here.
Only the pure per-position primitives (layer norm and the activations), the
sinusoid formula and the parameter containers are shared, so a divergence
localizes bugs to the chunking machinery.

Everything runs in float64: full_subsample casts the features once, and
NumPy promotes the float32 weights exactly where they meet them. Both oracles
run one layer stack (_encode) and one attention formula (_relative_attention);
they differ only in their windows: every frame for full_context_encode, each
chunk's [l_att | c | r] slice for loop_oct_encode. run_selftest checks the
engine against them. Its dense and poison suites gather rows with
attention.chunk_rows; the poison suite fills their masked slots and calls
chunk_attention on them, patching nothing in the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionParams, rel_pos_encoding
from .config import ContextConfig, ModelConfig
from .encoder import EncoderWeights
from .functional import cast_params, glu, layer_norm, swish


@dataclass
class OracleReport:
    suite: str
    max_rel_err: float
    mean_rel_err: float
    first_divergent_index: int | None
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= self.tolerance

    def line(self) -> str:
        state = "ok" if self.passed else "FAIL"
        where = "" if self.first_divergent_index is None else \
            f" first divergence at frame {self.first_divergent_index}"
        return (f"{self.suite:<16} {state}  max={self.max_rel_err:.3e} "
                f"mean={self.mean_rel_err:.3e} tol={self.tolerance:.1e}{where}")


def compare(suite: str, actual: np.ndarray, expected: np.ndarray,
            tolerance: float) -> OracleReport:
    """Relative error scaled by the reference magnitude, per whole array."""
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(float(np.max(np.abs(expected))) if expected.size else 0.0, 1e-12)
    diff = np.abs(actual - expected) / scale
    max_err = float(diff.max()) if diff.size else 0.0
    mean_err = float(diff.mean()) if diff.size else 0.0
    first = None
    if max_err > tolerance and diff.ndim >= 1:
        rows = diff.reshape(diff.shape[0], -1).max(axis=1)
        first = int(np.argmax(rows > tolerance))
    return OracleReport(suite, max_err, mean_err, first, tolerance)


# ---------------------------------------------------------------------------
# relative attention
# ---------------------------------------------------------------------------

def _relative_attention(xq: np.ndarray, xk: np.ndarray, p: AttentionParams,
                        dist: np.ndarray, mask: np.ndarray, n_heads: int) -> np.ndarray:
    """Relative multi-head attention of the queries xq over the keys xk.

    dist[j, t] is query j's position minus key t's, and mask[j, t] is True
    where query j may attend key t. A query with no valid key produces the
    zero vector, mirroring the engine's convention.
    """
    nq, d = xq.shape
    d_k = d // n_heads
    q = (xq @ p.wq).reshape(nq, n_heads, d_k)
    k = (xk @ p.wk).reshape(-1, n_heads, d_k)
    v = (xk @ p.wv).reshape(-1, n_heads, d_k)
    lo = int(dist.min())
    enc = rel_pos_encoding(np.arange(lo, dist.max() + 1), d)
    rho = (enc @ p.wr).reshape(-1, n_heads, d_k)
    content = np.einsum("jhd,thd->hjt", q + p.u.reshape(n_heads, d_k), k)
    pos_all = np.einsum("jhd,nhd->hjn", q + p.v.reshape(n_heads, d_k), rho)
    pos = np.take_along_axis(pos_all, (dist - lo)[None], axis=2)
    e = np.where(mask, (content + pos) / math.sqrt(d_k), -np.inf)
    peak = e.max(axis=-1, keepdims=True)
    w = np.where(mask, np.exp(e - np.where(np.isfinite(peak), peak, 0.0)), 0.0)
    denom = w.sum(axis=-1, keepdims=True)
    z = np.einsum("hjt,thd->jhd", w / np.where(denom > 0, denom, 1.0), v).reshape(nq, d)
    return np.where(mask.any(axis=1)[:, None], z @ p.wo + p.bo, 0.0)


def dense_attention_reference(x: np.ndarray, params: AttentionParams,
                              mask: np.ndarray, n_heads: int) -> np.ndarray:
    """Literal O(L^2) relative attention with an explicit L x L key mask.

    mask[j, t] is True where query j may attend key t; every frame is both a
    query and a key, and a query with no valid key produces the zero vector.
    """
    x = np.asarray(x, dtype=np.float64)
    at = np.arange(len(x))
    return _relative_attention(x, x, params, at[:, None] - at[None, :], mask, n_heads)


def chunk_window_mask(length: int, ctx: ContextConfig) -> np.ndarray:
    """L x L mask of the per-chunk attention windows (built independently)."""
    head = np.arange(length)[:, None] // ctx.c * ctx.c   # each query's chunk head
    t = np.arange(length)[None, :]
    return (t >= head - ctx.l_att) & (t < head + ctx.c + ctx.r)


def _chunk_attention_loop(h: np.ndarray, p: AttentionParams, ctx: ContextConfig,
                          n_heads: int) -> np.ndarray:
    """Per-chunk windowed attention via explicit slices, one chunk at a time."""
    at = np.arange(len(h))
    out = np.zeros_like(h)
    for head in range(0, len(h), ctx.c):   # slices clip at the audio's end
        q = slice(head, head + ctx.c)
        k = slice(max(0, head - ctx.l_att), head + ctx.c + ctx.r)
        dist = at[q, None] - at[None, k]
        out[q] = _relative_attention(h[q], h[k], p, dist, np.ones(dist.shape, bool),
                                     n_heads)
    return out


# ---------------------------------------------------------------------------
# full-sequence building blocks
# ---------------------------------------------------------------------------

def _depthwise_full(x: np.ndarray, kernel: np.ndarray, stride: int) -> np.ndarray:
    """Depthwise conv over a whole sequence: ceil(L / stride) windows of k
    frames, over the sequence zero padded by (k - 1) / 2 frames in front and
    by as many behind as the last window reads."""
    k, n = kernel.shape[0], -(-x.shape[0] // stride)
    xp = np.zeros((stride * (n - 1) + k,) + x.shape[1:], x.dtype)
    xp[(k - 1) // 2:][:x.shape[0]] = x
    idx = stride * np.arange(n)[:, None] + np.arange(k)[None, :]
    return np.einsum("tkc,kc->tc", xp[idx], kernel)


def full_subsample(features: np.ndarray, weights: EncoderWeights) -> np.ndarray:
    """Whole-sequence 8x subsampling; the chunk-wise engine must match it."""
    x = np.asarray(features, dtype=np.float64)
    sub = weights.subsample
    for blk in sub.blocks:
        x = swish(_depthwise_full(x, blk.dw_w, 2) @ blk.pw_w + blk.pw_b)
    return x @ sub.out_w + sub.out_b


def _conv_module_full(x: np.ndarray, cp) -> np.ndarray:
    h = layer_norm(x, cp.ln_g, cp.ln_b)
    g = glu(h @ cp.pw_in_w + cp.pw_in_b)
    y = _depthwise_full(g, cp.dw_w, 1)
    return swish(layer_norm(y, cp.dw_ln_g, cp.dw_ln_b)) @ cp.pw_out_w + cp.pw_out_b


def _macaron_ff(x: np.ndarray, f) -> np.ndarray:
    return 0.5 * (swish(layer_norm(x, f.ln_g, f.ln_b) @ f.w1 + f.b1) @ f.w2 + f.b2)


# ---------------------------------------------------------------------------
# full-context and per-audio loop encoders
# ---------------------------------------------------------------------------

def _encode(features: np.ndarray, weights: EncoderWeights, attend) -> np.ndarray:
    """The layer stack over one audio's features, in float64; attend(h, p) is
    the attention sublayer over the normed frames h with parameters p."""
    x = full_subsample(features, weights)
    for lw in weights.layers:
        x = x + _macaron_ff(x, lw.ff1)
        x = x + attend(layer_norm(x, lw.att.ln_g, lw.att.ln_b), lw.att)
        x = x + _conv_module_full(x, lw.conv)
        x = x + _macaron_ff(x, lw.ff2)
        x = layer_norm(x, lw.out_ln_g, lw.out_ln_b)
    if weights.layers:
        x = layer_norm(x, weights.after_ln_g, weights.after_ln_b)
    return x


def full_context_encode(features: np.ndarray, weights: EncoderWeights,
                        model: ModelConfig) -> np.ndarray:
    """Identical layer math with no chunking and unlimited context."""
    return _encode(features, weights, lambda h, p: dense_attention_reference(
        h, p, np.ones((len(h), len(h)), bool), model.n_heads))


def loop_oct_encode(features: dict[str, np.ndarray], weights: EncoderWeights,
                    ctx: ContextConfig, model: ModelConfig) -> dict[str, np.ndarray]:
    """Process each audio alone, sequentially, with per-chunk windows.

    This is the semantics masked batching must reproduce: chunk windows clip
    only at the audio's own boundaries, convolutions run over the whole
    sequence, and audios never interact.
    """
    return {aid: _encode(feats, weights, lambda h, p: _chunk_attention_loop(
        h, p, ctx, model.n_heads)) for aid, feats in features.items()}


# ---------------------------------------------------------------------------
# selftest suites
# ---------------------------------------------------------------------------

def run_selftest(seed: int = 0, verbose_print=None) -> list[OracleReport]:
    """Run every equivalence and poison suite on seeded random weights.

    Returns one report per suite; a caller treats any failed report as a
    verification breach. ``verbose_print`` receives each report line.
    """
    from . import ctc
    from .attention import build_rel_pos_table, chunk_attention, chunk_rows
    from .encoder import encode_full, init_weights
    from .functional import Workspace

    rng = np.random.default_rng(seed)
    reports: list[OracleReport] = []

    def add(report: OracleReport):
        reports.append(report)
        if verbose_print is not None:
            verbose_print(report.line())

    model = ModelConfig(n_layers=3, d_model=32, n_heads=2, d_ff=64,
                        kernel_size=15, vocab_size=8, l_max=64, seed=seed)
    ctx = ContextConfig(l_att=8, c=4, r=4)
    weights = init_weights(model, seed=seed + 1)
    ws = Workspace()   # never entered, so every engine call below runs whole

    # dense attention equivalence on the chunk outputs of gathered rows
    worst = {np.float32: 0.0, np.float64: 0.0}
    table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, model.d_model, model.l_max)
    lw = weights.layers[0]
    for case in range(4):
        L = int(rng.integers(16, 64))
        x = rng.normal(size=(L, model.d_model))
        mask = chunk_window_mask(L, ctx)
        ref = dense_attention_reference(x, lw.att, mask, model.n_heads)
        frames = np.arange(L)   # one audio of L frames, every one an output
        for dtype in worst:
            att, tab = cast_params(lw.att, dtype), cast_params(table, dtype)
            batch, q, index = chunk_rows(x.astype(dtype), [L], frames, frames, att,
                                         ctx.l_att, ctx.c, ctx.r, ws)
            got = chunk_attention(batch, q, att, tab, model.n_heads, ws)[index]
            worst[dtype] = max(worst[dtype], compare("dense", got, ref, 0).max_rel_err)
    add(OracleReport("dense_att_f32", worst[np.float32], worst[np.float32], None, 1e-5))
    add(OracleReport("dense_att_f64", worst[np.float64], worst[np.float64], None, 1e-10))

    # streaming: multi-step equals single-step on emitted frames
    feats = rng.normal(size=(370, 80)).astype(np.float32)
    single = encode_full({"a": feats}, weights, ctx, model, budget=10 ** 6)["a"]
    multi = encode_full({"a": feats}, weights, ctx, model, budget=2)["a"]
    add(compare("streaming", multi, single, 1e-4))

    # masked batch equals the per-audio loop oracle; the short audio comes
    # first, so both share the first step and the long one still computes
    # frames in the second, from the frames it held
    batch_feats = {"short": rng.normal(size=(41, 80)).astype(np.float32), "long": feats}
    ref = loop_oct_encode(batch_feats, weights, ctx, model)
    got = encode_full(batch_feats, weights, ctx, model, budget=3)
    worst = max(compare("mb", got[k], ref[k], 0).max_rel_err for k in ref)
    add(OracleReport("masked_batch", worst, worst, None, 1e-4))

    # full-context limit against the dense oracle
    fc_ctx = ContextConfig(l_att=64, c=64, r=0)
    fc_model = ModelConfig(n_layers=3, d_model=32, n_heads=2, d_ff=64,
                           kernel_size=15, vocab_size=8, l_max=256, seed=seed)
    short = feats[:140]
    got_fc = encode_full({"a": short}, weights, fc_ctx, fc_model, budget=10 ** 6)["a"]
    ref_fc = full_context_encode(short, weights, fc_model)
    add(compare("full_context", got_fc, ref_fc, 1e-5))

    # poison: whatever masked row slots hold changes no output bit, counted in
    # differing values. Rows as a step gathers them: audios of 13 and 7 frames
    # in one buffer, each row bounded by its own audio, both ending in a
    # partial chunk of c = 4, so some masked slots hold the other audio.
    h = rng.normal(size=(20, model.d_model))
    differ = 0
    for dtype in (np.float32, np.float64):
        att, tab = cast_params(lw.att, dtype), cast_params(table, dtype)
        batch, q, _ = chunk_rows(h.astype(dtype), [13, 7], np.arange(20), np.r_[0:13, 0:7],
                                 att, ctx.l_att, ctx.c, ctx.r, ws)
        rows, bits = batch.rows.copy(), f"u{batch.rows.itemsize}"
        clean = chunk_attention(batch, q, att, tab, model.n_heads, ws).view(bits)
        for poison in (rng.normal(size=rows.shape) * 1e6, np.inf, -np.inf, np.nan):
            batch.rows = np.where(batch.mask[..., None], rows, poison).astype(dtype)
            dirty = chunk_attention(batch, q, att, tab, model.n_heads, ws)
            differ += int(np.count_nonzero(dirty.view(bits) != clean))
    add(OracleReport("poison", float(differ), float(differ), None, 0.0))

    # CTC split invariance, exact
    mismatches = 0
    for _ in range(100):
        logits = rng.normal(size=(int(rng.integers(5, 60)), 8)).astype(np.float32)
        whole, _ = ctc.greedy_decode(logits)
        cut = sorted(rng.integers(0, logits.shape[0] + 1, size=2))
        parts = []
        carry = 0
        for block in np.split(logits, cut):
            ids, carry = ctc.greedy_decode(block, carry)
            parts.extend(ids)
        mismatches += int(parts != whole)
    add(OracleReport("ctc_split", float(mismatches), float(mismatches), None, 0.0))
    return reports
