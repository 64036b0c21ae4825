"""Independent reference implementations for verification.

These run the same layer math as the engine but with none of its machinery:
no row gathers, no caches, no scheduler, no shared masking or window code.
Segmentation here is plain python slicing, softmax is written inline, and the
convolutions run over whole sequences. Only the pure primitives (layer norm,
feed-forward, activations, the sinusoid formula) and the parameter containers
are shared, so a divergence localizes bugs to the chunking machinery.

Everything runs in float64 by default to give a tighter reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import AttentionParams, rel_pos_encoding
from .config import ContextConfig, ModelConfig
from .encoder import EncoderWeights
from .functional import cast_params, ff_forward, glu, layer_norm, swish


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
# dense attention
# ---------------------------------------------------------------------------

def _rel_table(span: int, d_model: int) -> np.ndarray:
    return np.stack([rel_pos_encoding(dd, d_model)
                     for dd in range(-span, span + 1)])


def dense_attention_reference(x: np.ndarray, params: AttentionParams,
                              mask: np.ndarray, n_heads: int = 1,
                              beta: float = 1.0) -> np.ndarray:
    """Literal O(L^2) relative attention with an explicit L x L key mask.

    mask[j, t] is True where query j may attend key t. Queries with no valid
    key produce the zero vector, mirroring the engine's convention.
    """
    x = np.asarray(x, dtype=np.float64)
    p = cast_params(params, np.float64)
    L, d = x.shape
    d_k = d // n_heads
    qh = (x @ p.wq).reshape(L, n_heads, d_k)
    kh = (x @ p.wk).reshape(L, n_heads, d_k)
    vh = (x @ p.wv).reshape(L, n_heads, d_k)
    uh = p.u.reshape(n_heads, d_k)
    vbias = p.v.reshape(n_heads, d_k)
    rho = (_rel_table(L - 1 if L > 1 else 1, d) @ p.wr).reshape(-1, n_heads, d_k)
    content = np.einsum("jhd,thd->hjt", qh + uh, kh)
    pos_all = np.einsum("jhd,nhd->hjn", qh + vbias, rho)
    span = (rho.shape[0] - 1) // 2
    idx = np.arange(L)[:, None] - np.arange(L)[None, :] + span
    pos = np.take_along_axis(pos_all, np.broadcast_to(idx, (n_heads, L, L)), axis=2)
    e = (content + pos) / math.sqrt(d_k) * beta
    e = np.where(mask[None, :, :], e, -np.inf)
    peak = e.max(axis=-1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    w = np.exp(e - peak)
    w = np.where(mask[None, :, :], w, 0.0)
    denom = w.sum(axis=-1, keepdims=True)
    alpha = w / np.where(denom > 0, denom, 1.0)
    z = np.einsum("hjt,thd->jhd", alpha, vh).reshape(L, d)
    out = z @ p.wo + p.bo
    return np.where(mask.any(axis=1)[:, None], out, 0.0)


def chunk_window_mask(length: int, ctx: ContextConfig) -> np.ndarray:
    """L x L mask of the per-chunk attention windows (built independently)."""
    j = np.arange(length)[:, None]
    t = np.arange(length)[None, :]
    chunk = j // ctx.c
    return (t >= chunk * ctx.c - ctx.l_att) & (t < (chunk + 1) * ctx.c + ctx.r)


def dense_attention_opcount(L: int, d_model: int) -> int:
    """Multiply-accumulate FLOPs actually performed by the dense path's
    window-dependent terms: content scores, positional scores, value mixing.
    Enumerated from the three L x L x d einsums above."""
    per_term = 2 * L * L * d_model
    return 3 * per_term


# ---------------------------------------------------------------------------
# full-sequence building blocks
# ---------------------------------------------------------------------------

def _conv_stride2_full(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Stride-2 depthwise conv over a whole level, zero padded, len ceil(L/2)."""
    L = x.shape[0]
    out_len = -(-L // 2)
    pad_back = max(0, 2 * out_len - L)
    xp = np.concatenate([np.zeros((1,) + x.shape[1:], x.dtype), x,
                         np.zeros((pad_back,) + x.shape[1:], x.dtype)])
    idx = 2 * np.arange(out_len)[:, None] + np.arange(3)[None, :]
    return np.einsum("tkc,kc->tc", xp[idx], kernel.astype(x.dtype, copy=False))


def full_subsample(features: np.ndarray, weights: EncoderWeights,
                   dtype=np.float64) -> np.ndarray:
    """Whole-sequence 8x subsampling; the chunk-wise engine must match it."""
    x = np.asarray(features, dtype=dtype)
    sub = cast_params(weights.subsample, dtype)
    for blk in sub.blocks:
        x = swish(_conv_stride2_full(x, blk.dw_w) @ blk.pw_w + blk.pw_b)
    return x @ sub.out_w + sub.out_b


def _depthwise_same_full(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Symmetric depthwise conv over a whole sequence with zero padding."""
    k = kernel.shape[0]
    half = (k - 1) // 2
    xp = np.concatenate([np.zeros((half,) + x.shape[1:], x.dtype), x,
                         np.zeros((half,) + x.shape[1:], x.dtype)])
    idx = np.arange(x.shape[0])[:, None] + np.arange(k)[None, :]
    return np.einsum("tkc,kc->tc", xp[idx], kernel.astype(x.dtype, copy=False))


def _conv_module_full(x: np.ndarray, lw, dtype) -> np.ndarray:
    lw = cast_params(lw, dtype)
    cp = lw.conv
    h = layer_norm(x, lw.conv_ln_g, lw.conv_ln_b)
    g = glu(h @ cp.pw_in_w + cp.pw_in_b)
    y = _depthwise_same_full(g, cp.dw)
    return swish(layer_norm(y, cp.ln_scale, cp.ln_shift)) @ cp.pw_out_w + cp.pw_out_b


def _macaron_ff(x: np.ndarray, ff, dtype) -> np.ndarray:
    f = cast_params(ff, dtype)
    return 0.5 * ff_forward(layer_norm(x, f.ln_g, f.ln_b), f.w1, f.b1, f.w2, f.b2)


# ---------------------------------------------------------------------------
# full-context and per-audio loop encoders
# ---------------------------------------------------------------------------

def full_context_encode(features: np.ndarray, weights: EncoderWeights,
                        model: ModelConfig, dtype=np.float64) -> np.ndarray:
    """Identical layer math with no chunking and unlimited context."""
    weights = cast_params(weights, dtype)
    x = full_subsample(features, weights, dtype)
    L = x.shape[0]
    all_true = np.ones((L, L), dtype=bool)
    for lw in weights.layers:
        x = x + _macaron_ff(x, lw.ff1, dtype)
        h = layer_norm(x, lw.att_ln_g, lw.att_ln_b)
        x = x + dense_attention_reference(h, lw.att, all_true, model.n_heads)
        x = x + _conv_module_full(x, lw, dtype)
        x = x + _macaron_ff(x, lw.ff2, dtype)
        x = layer_norm(x, lw.out_ln_g, lw.out_ln_b)
    if weights.layers:
        x = layer_norm(x, weights.after_ln_g, weights.after_ln_b)
    return x


def _chunk_attention_loop(h: np.ndarray, lw, ctx: ContextConfig,
                          model: ModelConfig, dtype) -> np.ndarray:
    """Per-chunk windowed attention via explicit slices, one chunk at a time."""
    p = cast_params(lw.att, dtype)
    L, d = h.shape
    n_heads = model.n_heads
    d_k = d // n_heads
    uh = p.u.reshape(n_heads, d_k)
    vb = p.v.reshape(n_heads, d_k)
    out = np.zeros_like(h)
    n_chunks = -(-L // ctx.c)
    for i in range(n_chunks):
        q_lo, q_hi = i * ctx.c, min((i + 1) * ctx.c, L)
        k_lo = max(0, i * ctx.c - ctx.l_att)
        k_hi = min(L, (i + 1) * ctx.c + ctx.r)
        q = (h[q_lo:q_hi] @ p.wq).reshape(-1, n_heads, d_k)
        k = (h[k_lo:k_hi] @ p.wk).reshape(-1, n_heads, d_k)
        v = (h[k_lo:k_hi] @ p.wv).reshape(-1, n_heads, d_k)
        dists = (np.arange(q_lo, q_hi)[:, None] - np.arange(k_lo, k_hi)[None, :])
        enc = np.stack([rel_pos_encoding(int(dd), d)
                        for dd in range(dists.min(), dists.max() + 1)])
        rho = (enc @ p.wr).reshape(-1, n_heads, d_k)
        content = np.einsum("jhd,thd->hjt", q + uh, k)
        pos_all = np.einsum("jhd,nhd->hjn", q + vb, rho)
        idx = dists - int(dists.min())
        pos = np.take_along_axis(
            pos_all, np.broadcast_to(idx, (n_heads,) + idx.shape), axis=2)
        e = (content + pos) / math.sqrt(d_k)
        e = e - e.max(axis=-1, keepdims=True)
        w = np.exp(e)
        alpha = w / w.sum(axis=-1, keepdims=True)
        z = np.einsum("hjt,thd->jhd", alpha, v).reshape(q_hi - q_lo, d)
        out[q_lo:q_hi] = z @ p.wo + p.bo
    return out


def loop_oct_encode(features: dict[str, np.ndarray], weights: EncoderWeights,
                    ctx: ContextConfig, model: ModelConfig,
                    dtype=np.float64) -> dict[str, np.ndarray]:
    """Process each audio alone, sequentially, with per-chunk windows.

    This is the semantics masked batching must reproduce: chunk windows clip
    only at the audio's own boundaries, convolutions run over the whole
    sequence, and audios never interact.
    """
    weights = cast_params(weights, dtype)
    out: dict[str, np.ndarray] = {}
    for aid, feats in features.items():
        x = full_subsample(feats, weights, dtype)
        for lw in weights.layers:
            x = x + _macaron_ff(x, lw.ff1, dtype)
            h = layer_norm(x, lw.att_ln_g, lw.att_ln_b)
            x = x + _chunk_attention_loop(h, lw, ctx, model, dtype)
            x = x + _conv_module_full(x, lw, dtype)
            x = x + _macaron_ff(x, lw.ff2, dtype)
            x = layer_norm(x, lw.out_ln_g, lw.out_ln_b)
        if weights.layers:
            x = layer_norm(x, weights.after_ln_g, weights.after_ln_b)
        out[aid] = x
    return out


# ---------------------------------------------------------------------------
# selftest suites
# ---------------------------------------------------------------------------

def _poisoning_oct(rng):
    """Wrapper for chunking.oct_segment that randomizes masked positions."""
    from . import chunking
    original = chunking.oct_segment

    def wrapped(*args, **kwargs):
        batch = original(*args, **kwargs)
        noise = rng.normal(size=batch.rows.shape).astype(batch.rows.dtype)
        batch.rows = np.where(batch.mask[..., None], batch.rows, noise)
        return batch

    return original, wrapped


def run_selftest(seed: int = 0, verbose_print=None) -> list[OracleReport]:
    """Run every equivalence and poison suite on seeded random weights.

    Returns one report per suite; a caller treats any failed report as a
    verification breach. ``verbose_print`` receives each report line.
    """
    from . import chunking, ctc
    from .attention import build_rel_pos_table, chunk_attention
    from .chunking import carve_chunks, oct_segment
    from .encoder import encode_full, init_weights

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

    # dense attention equivalence on the chunk outputs of gathered rows
    worst32 = worst64 = 0.0
    for case in range(4):
        L = int(rng.integers(16, 64))
        x = rng.normal(size=(L, model.d_model))
        table = build_rel_pos_table(ctx.l_att, ctx.c, ctx.r, model.d_model)
        lw = weights.layers[0]
        mask = chunk_window_mask(L, ctx)
        ref = dense_attention_reference(x, lw.att, mask, model.n_heads)
        for dtype, sink in ((np.float32, "32"), (np.float64, "64")):
            n = -(-L // ctx.c)
            batch = oct_segment(x.astype(dtype), ctx.c * np.arange(n),
                                ctx.l_att, ctx.c, ctx.r)
            out = chunk_attention(batch, lw.att, table, model.n_heads)
            got = np.concatenate([out[j, :min(ctx.c, L - j * ctx.c)]
                                  for j in range(n)])
            err = compare("dense", got, ref, 0).max_rel_err
            if sink == "32":
                worst32 = max(worst32, err)
            else:
                worst64 = max(worst64, err)
    add(OracleReport("dense_att_f32", worst32, worst32, None, 1e-5))
    add(OracleReport("dense_att_f64", worst64, worst64, None, 1e-10))

    # streaming: multi-step equals single-step on emitted frames
    feats = rng.normal(size=(370, 80)).astype(np.float32)
    single = encode_full({"a": feats}, weights, ctx, model, budget=10 ** 6)["a"]
    multi = encode_full({"a": feats}, weights, ctx, model, budget=2)["a"]
    add(compare("streaming", multi, single, 1e-4))

    # masked batch equals the per-audio loop oracle
    batch_feats = {"long": feats, "short": rng.normal(size=(41, 80)).astype(np.float32)}
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

    # poison: masked positions cannot change anything, bitwise
    clean = encode_full(batch_feats, weights, ctx, model, budget=3)
    original, wrapped = _poisoning_oct(rng)
    chunking.oct_segment = wrapped
    try:
        dirty = encode_full(batch_feats, weights, ctx, model, budget=3)
    finally:
        chunking.oct_segment = original
    poison_err = max(float(np.max(np.abs(clean[k] - dirty[k]))) if clean[k].size
                     else 0.0 for k in clean)
    exact = all(np.array_equal(clean[k], dirty[k]) for k in clean)
    add(OracleReport("poison", poison_err if not exact else 0.0,
                     poison_err, None, 0.0))

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
