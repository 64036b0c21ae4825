"""Measuring process: times the transcribe path, traces its layers, checks outputs.

It runs the public path that ``cli.cmd_transcribe`` takes, in one process:

    load_checkpoint -> read_wav -> compute_fbank -> encode_full(on_emit=...)
    -> project_logits -> DecodeState.feed

An untraced rep records only ``perf_counter`` stamps at the ``on_emit``
callback and at each ``encode_step`` return. A traced rep wraps each layer's
functions from outside (see ``spans.Tracer``) and yields the per-layer
numbers. Reps repeat the whole batch until the measuring window is used up,
and the end-to-end times are read off their floor timeline
(``floor_timeline``). After timing, the outputs are checked: emitted blocks,
streamed transcripts, determinism across reps, and a seeded subset of audios
against ``oracle.loop_oct_encode``.

Run as a script by ``run.py`` in a fresh process, so its peak RSS covers only
the measured path:

    python3 perfbench/harness.py MANIFEST SECONDS TRACE RESULT_JSON TRACE_JSONL
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from chunkasr import attention, chunking, config, conv, costmodel, ctc, encoder
from chunkasr import frontend, functional, oracle
from chunkasr.config import ContextConfig, ModelConfig

from spans import Tracer
from workloads import Manifest, total_seconds

SETUP_REPEATS = 3          # loads before the warm-up; every rep adds one more
MIN_REPS = 2
ORACLE_TOLERANCE = 1e-4   # relative, float32 engine against the float64 oracle
P90_MIN_STEPS = 100       # step_p90_ms needs this many steps per rep

# name -> unit, in report order
END_TO_END = {
    "rtf": "s/s",
    "first_emit_p50_s": "s",
    "done_p50_s": "s",
    "step_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
REPORTED_ONLY = {"step_p90_ms": "ms", "failed_frac": "ratio"}
PER_LAYER = {
    "frontend.read_wav_s": "s",
    "frontend.fbank_s": "s",
    "encoder.subsample_s": "s",
    "encoder.subsample_frames": "count",
    "encoder.step_s": "s",
    "encoder.layer_glue_s": "s",
    "encoder.steps": "count",
    "encoder.frames_computed": "count",
    "encoder.frames_emitted": "count",
    "encoder.computed_per_emitted": "ratio",
    "encoder.lookahead_frames": "count",
    "chunking.schedule_s": "s",
    "chunking.rows_scheduled": "count",
    "chunking.audios_per_step_p50": "count",
    "chunking.gather_s": "s",
    "chunking.gather_calls": "count",
    "chunking.masked_frac": "ratio",
    "attention.s": "s",
    "attention.softmax_s": "s",
    "attention.rows": "count",
    "attention.gflop": "GFLOP",
    "attention.gflops_per_s": "GFLOP/s",
    "conv.s": "s",
    "conv.rows": "count",
    "functional.ff_s": "s",
    "functional.ff_calls": "count",
    "functional.layer_norm_s": "s",
    "functional.layer_norm_calls": "count",
    "functional.sigmoid_s": "s",
    "ctc.project_s": "s",
    "ctc.decode_s": "s",
    "ctc.frames": "count",
    "costmodel.rows_predicted": "count",
    "costmodel.rows_traced_over_predicted": "ratio",
    "trace.overhead_frac": "ratio",
}
# span name -> per-layer self-time metric
SELF_TIME = {
    "frontend.read_wav": "frontend.read_wav_s",
    "frontend.fbank": "frontend.fbank_s",
    "encoder.subsample": "encoder.subsample_s",
    "encoder.step": "encoder.step_s",
    "encoder.layer_pass": "encoder.layer_glue_s",
    "chunking.schedule": "chunking.schedule_s",
    "chunking.gather": "chunking.gather_s",
    "attention": "attention.s",
    "attention.softmax": "attention.softmax_s",
    "conv": "conv.s",
    "functional.ff": "functional.ff_s",
    "functional.layer_norm": "functional.layer_norm_s",
    "functional.sigmoid": "functional.sigmoid_s",
    "ctc.project": "ctc.project_s",
    "ctc.decode": "ctc.decode_s",
}


@dataclass
class Loaded:
    model: ModelConfig
    ctx: ContextConfig
    weights: object
    head: object
    budget: int


@dataclass
class Rep:
    """One timed pass over the whole batch.

    ``stamps`` are ``perf_counter`` readings in the order the program reaches
    them: the start, the ``encode_full`` call, then per decode step its
    ``encode_step`` return followed by one ``on_emit`` entry per emitted block,
    and last the end of the final ``feed``. The program is deterministic, so
    every rep of a run passes the same sequence: stamp i marks the same point
    of the work in each rep.
    """

    stamps: list[float]
    call: int                         # index of the encode_full call stamp
    step_ends: list[int]              # indices of the encode_step returns
    first: dict[str, int]             # index of each audio's first on_emit
    last: dict[str, int]              # index of each audio's last on_emit
    seconds: float                    # audio seconds in the batch
    tokens: dict[str, list[int]]
    blocks: dict[str, list[tuple[int, int]]]   # (start frame, frames) per on_emit
    hidden: dict[str, np.ndarray]     # checked audios only
    tracer: Tracer | None = None

    @property
    def rtf(self) -> float:
        return (self.stamps[-1] - self.stamps[0]) / self.seconds


def load(manifest: Manifest) -> tuple[Loaded, float]:
    """Load the workload's model as ``cmd_transcribe`` does; also the seconds taken."""
    model = ModelConfig(**manifest.model, seed=manifest.seed)
    ctx = ContextConfig(*manifest.context)
    start = perf_counter()
    config.require_valid(model, ctx)
    weights, head, _ = encoder.load_checkpoint(manifest.checkpoint)
    problems = encoder.check_shapes(weights, model)
    took = perf_counter() - start
    if problems:
        raise encoder.CheckpointError("; ".join(problems))
    return Loaded(model, ctx, weights, head, manifest.budget), took


def _enter_step(tr: Tracer) -> None:
    tr.step = 0 if tr.step is None else tr.step + 1


def _count_schedule(tr, args, sched):
    if sched is not None:
        tr.counts["chunking.rows_scheduled"] += len(sched.rows)
        tr.samples["audios_per_step"].append(len({p.audio_id for p in sched.rows}))


def _count_step(tr, args, out):
    tr.counts["encoder.steps"] += 1
    tr.counts["encoder.frames_emitted"] += sum(b.shape[0] for b in out.values())


def _count_subsample(tr, args, out):
    tr.counts["encoder.subsample_frames"] += args[3] - args[2]


def _count_layer_pass(tr, args, out):
    tr.counts["layer_frames"] += sum(a.cov for a in args[0])


def _count_gather(tr, args, batch):
    tr.counts["chunking.gather_calls"] += 1
    tr.counts["masked_positions"] += int(batch.mask.size - np.count_nonzero(batch.mask))
    tr.counts["gathered_positions"] += int(batch.mask.size)


def _count_attention(tr, args, out):
    batch = args[0]
    rows, d = batch.rows.shape[0], batch.rows.shape[-1]
    tr.counts["attention.rows"] += rows
    # costmodel.attention_flops per row: content, positional and value terms
    tr.counts["attention.flop"] += rows * 3 * 2 * (batch.c + batch.r) * batch.width * d


def _count_conv(tr, args, out):
    tr.counts["conv.rows"] += args[0].shape[0]


def _count_feed(tr, args, out):
    tr.counts["ctc.frames"] += args[1].shape[0]


def install(tr: Tracer) -> None:
    """Wrap every traced name where its call site looks it up."""
    tr.wrap(frontend, "read_wav", "frontend.read_wav")
    tr.wrap(frontend, "compute_fbank", "frontend.fbank")
    tr.wrap(encoder, "encode_full", "encoder.encode_full")
    tr.wrap(chunking, "schedule_step", "chunking.schedule", _count_schedule, _enter_step)
    tr.wrap(encoder, "encode_step", "encoder.step", _count_step)
    tr.wrap(encoder, "subsample_forward", "encoder.subsample", _count_subsample)
    tr.wrap(encoder, "_layer_pass", "encoder.layer_pass", _count_layer_pass)
    tr.wrap(chunking, "oct_segment", "chunking.gather", _count_gather)
    tr.wrap(encoder, "chunk_attention", "attention", _count_attention)
    tr.wrap(attention, "masked_softmax", "attention.softmax")
    tr.wrap(encoder, "conv_module_forward", "conv", _count_conv)
    tr.wrap(encoder, "ff_forward", "functional.ff")
    tr.wrap(encoder, "layer_norm", "functional.layer_norm")
    tr.wrap(conv, "layer_norm", "functional.layer_norm")
    tr.wrap(functional, "sigmoid", "functional.sigmoid")
    tr.wrap(ctc, "project_logits", "ctc.project")
    tr.wrap(ctc.DecodeState, "feed", "ctc.decode", _count_feed)


def run_batch(audios: list, checked: set, lw: Loaded, traced: bool = False) -> Rep:
    """Transcribe every audio in one ``encode_full`` call, stamping as it goes."""
    tracer = Tracer() if traced else None
    if tracer is not None:
        install(tracer)
    stamps: list[float] = []
    step_ends: list[int] = []
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    blocks: dict[str, list] = defaultdict(list)
    fed = [0.0]
    decoders: dict[str, ctc.DecodeState] = {}
    traced_step = encoder.encode_step

    def stamped_step(*args, **kwargs):
        out = traced_step(*args, **kwargs)
        stamps.append(perf_counter())
        step_ends.append(len(stamps) - 1)
        return out

    def on_emit(aid, block, start):
        stamps.append(perf_counter())
        first.setdefault(aid, len(stamps) - 1)
        last[aid] = len(stamps) - 1
        blocks[aid].append((int(start), int(block.shape[0])))
        decoders[aid].feed(ctc.project_logits(block, lw.head), start)
        fed[0] = perf_counter()

    encoder.encode_step = stamped_step
    try:
        stamps.append(perf_counter())
        feats = {aid: frontend.compute_fbank(frontend.read_wav(path)).frames
                 for aid, path, _ in audios}
        decoders.update((aid, ctc.DecodeState()) for aid in feats)
        stamps.append(perf_counter())
        hidden = encoder.encode_full(feats, lw.weights, lw.ctx, lw.model,
                                     budget=lw.budget, on_emit=on_emit)
        stamps.append(fed[0])
    finally:
        encoder.encode_step = traced_step
        if tracer is not None:
            tracer.restore()
    ids = [aid for aid, _, _ in audios]
    return Rep(stamps=stamps, call=1, step_ends=step_ends, first=first, last=last,
               seconds=sum(n for _, _, n in audios) / frontend.SAMPLE_RATE,
               tokens={a: decoders[a].tokens for a in ids},
               blocks=dict(blocks),
               hidden={a: hidden[a] for a in ids if a in checked},
               tracer=tracer)


def _median(values) -> float:
    return float(statistics.median(values))


def floor_timeline(reps: list[Rep]) -> np.ndarray:
    """Seconds from the start to each stamp, each stretch between consecutive
    stamps taking its fastest time over the reps.

    The host's speed drifts by tens of percent over seconds, and the drift
    only ever adds time. A stretch is a few milliseconds to a second of the
    same work in every rep, so its fastest time is a steady estimate of what
    the program itself costs there.
    """
    if len({len(r.stamps) for r in reps}) != 1:
        raise ValueError("reps passed different stamp sequences")
    stretches = np.diff(np.array([r.stamps for r in reps]), axis=1).min(axis=0)
    return np.concatenate([[0.0], np.cumsum(stretches)])


def end_to_end(reps: list[Rep], setup: list[float], peak_rss_mb: float) -> dict:
    """Each metric as {value, unit, samples}, times read off the floor timeline.

    ``samples`` counts the values a median is taken over (audios or steps),
    or the reps behind the timeline.
    """
    t = floor_timeline(reps)
    rep = reps[0]
    call = t[rep.call]
    first = [t[i] - call for i in rep.first.values()]
    done = [t[i] - call for i in rep.last.values()]
    steps = np.diff([call] + [t[i] for i in rep.step_ends])
    out = {
        "rtf": (t[-1] / rep.seconds, len(reps)),
        "first_emit_p50_s": (_median(first), len(first)),
        "done_p50_s": (_median(done), len(done)),
        "step_p50_ms": (1e3 * _median(steps), len(steps)),
        "setup_s": (_median(setup), len(setup)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }
    if len(steps) >= P90_MIN_STEPS:
        out["step_p90_ms"] = (1e3 * float(np.percentile(steps, 90)), len(steps))
    units = {**END_TO_END, **REPORTED_ONLY}
    return {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in out.items()}


def per_layer(traced: list[Rep], plain: list[Rep], manifest: Manifest,
              lw: Loaded) -> dict:
    """Per-layer metrics of the traced reps: fastest self times, exact counts."""
    times = defaultdict(list)
    for rep in traced:
        self_times = rep.tracer.self_times()
        for span, metric in SELF_TIME.items():
            times[metric].append(self_times.get(span, 0.0))
    tr = traced[0].tracer
    counts = tr.counts
    calls = tr.calls()
    n_layers = lw.model.n_layers
    computed = counts["layer_frames"] / n_layers if n_layers else counts["encoder.subsample_frames"]
    emitted = counts["encoder.frames_emitted"]
    durations = [n / frontend.SAMPLE_RATE for _, _, n in manifest.audios]
    report = costmodel.batch_cost(durations, lw.ctx, lw.model)
    predicted = sum(a.rows for a in report.audios) * n_layers
    att_incl = min(a + b for a, b in zip(times["attention.s"], times["attention.softmax_s"]))
    traced_end = floor_timeline(traced)[-1]
    plain_end = floor_timeline(plain)[-1]
    values = {metric: min(v) for metric, v in times.items()}
    values.update({
        "encoder.subsample_frames": counts["encoder.subsample_frames"],
        "encoder.steps": counts["encoder.steps"],
        "encoder.frames_computed": computed,
        "encoder.frames_emitted": emitted,
        "encoder.computed_per_emitted": computed / emitted,
        "encoder.lookahead_frames": computed - emitted,
        "chunking.rows_scheduled": counts["chunking.rows_scheduled"],
        "chunking.audios_per_step_p50": _median(tr.samples["audios_per_step"]),
        "chunking.gather_calls": counts["chunking.gather_calls"],
        "chunking.masked_frac": counts["masked_positions"] / max(counts["gathered_positions"], 1),
        "attention.rows": counts["attention.rows"],
        "attention.gflop": counts["attention.flop"] / 1e9,
        "attention.gflops_per_s": counts["attention.flop"] / 1e9 / att_incl if att_incl else 0.0,
        "conv.rows": counts["conv.rows"],
        "functional.ff_calls": calls["functional.ff"],
        "functional.layer_norm_calls": calls["functional.layer_norm"],
        "ctc.frames": counts["ctc.frames"],
        "costmodel.rows_predicted": predicted,
        "costmodel.rows_traced_over_predicted":
            counts["attention.rows"] / predicted if predicted else 0.0,
        "trace.overhead_frac": (traced_end - plain_end) / plain_end,
    })
    samples = {m: len(traced) for m in times}
    samples["trace.overhead_frac"] = len(traced) + len(plain)
    return {m: {"value": values[m], "unit": PER_LAYER[m], "samples": samples.get(m, 1)}
            for m in PER_LAYER}


def exact_counts(rep: Rep) -> dict:
    """The traced counts that must repeat bit for bit for one seed."""
    tr = rep.tracer
    return {**dict(tr.counts), **{f"calls.{k}": v for k, v in tr.calls().items()},
            "audios_per_step": list(tr.samples["audios_per_step"])}


def check_outputs(manifest: Manifest, lw: Loaded, reps: list[Rep]) -> dict[str, str]:
    """Audio id -> reason, for every audio whose output is wrong."""
    bad: dict[str, str] = {}
    first = reps[0]
    for aid, _, samples in manifest.audios:
        expect = encoder.post_frames(frontend.num_frames(samples))
        at = 0
        for start, n in first.blocks.get(aid, []):
            if start != at or n < 1:
                bad[aid] = f"block at frame {start} after {at} emitted frames"
                break
            at += n
        else:
            if at != expect:
                bad[aid] = f"emitted {at} frames, expected {expect}"
        if any(r.tokens[aid] != first.tokens[aid] or r.blocks.get(aid) != first.blocks.get(aid)
               for r in reps[1:]):
            bad.setdefault(aid, "transcript or blocks differ between reps")
    for aid in manifest.checked:
        hidden = first.hidden[aid]
        if any(not np.array_equal(r.hidden[aid], hidden) for r in reps[1:]):
            bad.setdefault(aid, "hidden frames differ between reps")
        ids, _ = ctc.greedy_decode(ctc.project_logits(hidden, lw.head))
        if ids != first.tokens[aid]:
            bad.setdefault(aid, "streamed transcript differs from a whole-audio decode")
    paths = {aid: path for aid, path, _ in manifest.audios}
    for aid in manifest.checked:
        try:
            feats = frontend.compute_fbank(frontend.read_wav(paths[aid])).frames
            ref = oracle.loop_oct_encode({aid: feats}, lw.weights, lw.ctx, lw.model)[aid]
            hidden = first.hidden[aid]
            if hidden.shape != ref.shape:
                bad.setdefault(aid, f"shape {hidden.shape} != oracle {ref.shape}")
                continue
            rep = oracle.compare(aid, hidden, ref, ORACLE_TOLERANCE)
            if not rep.passed:
                bad.setdefault(aid, f"max_rel_err {rep.max_rel_err:.3e} > {ORACLE_TOLERANCE}")
        except Exception as exc:  # a raising oracle check is a failed audio, not a crash
            bad.setdefault(aid, f"oracle check raised {exc!r}")
    return bad


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(manifest: Manifest) -> dict:
    import chunkasr

    src = Path(chunkasr.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": _git_commit(src.parent.parent),
        "src_sha256": digest.hexdigest(),
        "workload": manifest.workload,
        "seed": manifest.seed,
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "audios": len(manifest.audios),
        "audio_seconds": total_seconds(manifest),
        "budget": manifest.budget,
        "model": manifest.model,
        "context": manifest.context,
        "checked_audios": manifest.checked,
    }


def measure(manifest: Manifest, seconds: float, traced: bool,
            trace_path: Path | None = None) -> dict:
    """Warm up, time reps for ``seconds``, then check the outputs.

    With ``traced`` every rep is a pair: an untraced rep, then a traced one.
    """
    result = {"provenance": provenance(manifest), "attempted": len(manifest.audios)}
    checked = set(manifest.checked)
    setup: list[float] = []
    lw = None

    def fresh_model() -> None:
        nonlocal lw
        lw = None   # one model in memory at a time, as in transcribe
        lw, took = load(manifest)
        setup.append(took)

    try:
        for _ in range(SETUP_REPEATS):
            fresh_model()
        run_batch([manifest.warmup], set(), lw)
        plain: list[Rep] = []
        traced_reps: list[Rep] = []
        # a rep is started only if one more, as long as the last, ends in the window
        min_reps = 1 if traced else MIN_REPS
        start = perf_counter()
        last = 0.0
        while len(plain) < min_reps or perf_counter() + last <= start + seconds:
            began = perf_counter()
            # each rep loads the model afresh, so setup_s samples the whole window
            fresh_model()
            plain.append(run_batch(manifest.audios, checked, lw))
            if traced:
                traced_reps.append(run_batch(manifest.audios, checked, lw, traced=True))
            last = perf_counter() - began
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    except Exception:
        result.update(error=traceback.format_exc(), failed={"*": "a rep raised"},
                      metrics={}, correct=False)
        return result
    reps = plain + traced_reps
    bad = check_outputs(manifest, lw, reps)
    counts = [exact_counts(r) for r in traced_reps]
    result["counts_repeat"] = all(c == counts[0] for c in counts)
    result["stamps_repeat"] = len({len(r.stamps) for r in reps}) == 1
    result["reps"] = len(plain)
    result["rep_rtf"] = [r.rtf for r in reps]
    result["failed"] = bad
    result["correct"] = not bad and result["counts_repeat"] and result["stamps_repeat"]
    if not result["stamps_repeat"]:
        result["metrics"] = {}
    elif traced:
        result["metrics"] = per_layer(traced_reps, plain, manifest, lw)
        result["exact_counts"] = counts[0]
        if trace_path is not None:
            with open(trace_path, "w", encoding="utf-8") as fh:
                for i, rep in enumerate(traced_reps):
                    rep.tracer.write_jsonl(fh, i)
    else:
        result["metrics"] = end_to_end(plain, setup, peak_rss_mb)
    result["metrics"]["failed_frac"] = {
        "value": len(bad) / len(manifest.audios), "unit": "ratio",
        "samples": len(manifest.audios)}
    return result


def main(argv: list[str]) -> int:
    manifest_path, seconds, trace, result_path, trace_path = argv
    result = measure(Manifest.load(Path(manifest_path)), float(seconds),
                     trace == "1", Path(trace_path))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
