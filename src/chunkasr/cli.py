"""Command-line entry point.

Commands: transcribe (masked-batch endless decoding to text), encode (hidden
frames to feature containers), selftest (equivalence/poison suites), cost
(analytic naive-vs-masked batching table). transcribe and encode read an
input that starts with ``RIFF`` as a WAV, any other as a CFKF container.

Exit codes: 0 ok, 1 tolerance/selftest failure, 2 usage, 3 IO/format,
4 checkpoint/config mismatch. All outputs are deterministic for fixed inputs,
seed, and flags, and do not depend on the number of CPUs the process may
use: the encoder runs the rows of its large kernel calls in two halves on
two threads only when it may use more than one CPU, and each output row is
computed the same way either way.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import costmodel, oracle
from .chunking import ChunkingError
from .config import (ConfigError, ContextConfig, ModelConfig, context_from_string,
                     load_config, require_valid)
from .ctc import DecodeState, format_transcript_line, project_logits
from .encoder import (DEFAULT_BUDGET, VOCAB_TENSOR, CheckpointError, check_shapes,
                      encode_full, init_model, load_checkpoint)
from .frontend import (AudioFormatError, FeatureFormatError, FeatureMatrix, compute_fbank,
                       load_features, read_wav, save_features)

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CHECKPOINT = 4


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # one stderr line, as for every other usage error
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chunkasr", description="chunk-wise streaming encoder inference")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, help="flat JSON config file")
        p.add_argument("--context", help="override context as 'l_att,c,r'")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="max chunk rows per decode step")
        p.add_argument("inputs", nargs="*", type=Path)

    t = sub.add_parser("transcribe", help="decode audio to text")
    common(t)
    t.add_argument("--checkpoint", type=Path, required=True,
                   help="trained weights (random weights produce garbage text)")
    t.add_argument("--timestamps", action="store_true",
                   help="append frame-index spans per token")
    t.add_argument("--output", type=Path, help="transcript file (default stdout)")

    e = sub.add_parser("encode", help="write hidden frames per audio")
    common(e)
    weights = e.add_mutually_exclusive_group()
    weights.add_argument("--checkpoint", type=Path)
    weights.add_argument("--seed", type=int, help="init weights when no checkpoint given")
    e.add_argument("--output-dir", type=Path, required=True)

    s = sub.add_parser("selftest", help="run equivalence and poison suites")
    s.add_argument("--seed", type=int, default=0)

    c = sub.add_parser("cost", help="naive vs masked batch cost table")
    c.add_argument("--durations", required=True,
                   help="comma-separated audio durations in seconds")
    c.add_argument("--context", help="context as 'l_att,c,r'")
    c.add_argument("--config", type=Path)
    c.add_argument("--csv", type=Path, help="also write the table as CSV")
    return parser


def _load_model_ctx(args) -> tuple[ModelConfig, ContextConfig]:
    if args.config:
        model, ctx = load_config(args.config)
    else:
        model, ctx = ModelConfig(), ContextConfig()
    if args.context:
        try:
            ctx = context_from_string(args.context)
        except ConfigError as exc:
            raise UsageError(str(exc)) from None
    return model, ctx


def _collect_inputs(paths: list[Path]) -> dict[str, Path]:
    if not paths:
        raise UsageError("no input files given")
    inputs = {}
    for path in paths:
        if path.stem in inputs:
            raise UsageError(f"duplicate audio id {path.stem!r}; input stems must be unique")
        inputs[path.stem] = path
    return inputs


def _load(args, model: ModelConfig, ctx: ContextConfig, inputs):
    """Validate the config, then load (weights, head, vocab, features): the
    weights from ``args.checkpoint``, checked against ``model``, or drawn
    from ``model.seed`` when there is none."""
    require_valid(model, ctx)
    if args.checkpoint is None:
        weights, head, vocab = init_model(model)
    else:
        weights, head, vocab = load_checkpoint(args.checkpoint)
        problems = check_shapes(weights, model, head)
        if len(vocab.tokens) != model.vocab_size:
            problems.append(f"{VOCAB_TENSOR} holds {len(vocab.tokens)} tokens, config "
                            f"says vocab_size {model.vocab_size}")
        if problems:
            raise CheckpointError("; ".join(problems))
    features = {}
    for aid, path in inputs.items():
        with open(path, "rb") as fh:
            magic = fh.read(4)
        if magic == b"RIFF":
            features[aid] = compute_fbank(read_wav(path)).frames
        else:
            frames = load_features(path)
            try:
                features[aid] = FeatureMatrix(frames).frames
            except FeatureFormatError as exc:
                raise FeatureFormatError(f"{path}: {exc}") from None
    return weights, head, vocab, features


def cmd_transcribe(args, model: ModelConfig, ctx: ContextConfig, inputs) -> int:
    weights, head, vocab, features = _load(args, model, ctx, inputs)
    decoders = {aid: DecodeState() for aid in features}

    def on_emit(aid, block, start):
        decoders[aid].feed(project_logits(block, head), start)

    encode_full(features, weights, ctx, model, budget=args.budget, on_emit=on_emit)
    lines = []
    for aid, st in decoders.items():
        spans = st.spans if args.timestamps else None
        lines.append(format_transcript_line(aid, st.tokens, vocab, spans))
    text = "\n".join(lines) + "\n"
    if args.output is None:
        sys.stdout.write(text)
    else:
        args.output.write_text(text, encoding="utf-8")
    return EXIT_OK


def cmd_encode(args, model: ModelConfig, ctx: ContextConfig, inputs) -> int:
    if args.seed is not None:
        model = replace(model, seed=args.seed)
    weights, _, _, features = _load(args, model, ctx, inputs)
    hidden = encode_full(features, weights, ctx, model, budget=args.budget)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    for aid, frames in hidden.items():
        save_features(args.output_dir / f"{aid}.cfkf", frames)
    return EXIT_OK


def cmd_selftest(seed: int) -> int:
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")
    reports = oracle.run_selftest(seed=seed, verbose_print=print)
    failures = [r for r in reports if not r.passed]
    if failures:
        first = failures[0]
        print(f"selftest FAILED: suite {first.suite} max_rel_err="
              f"{first.max_rel_err:.3e} exceeds tol={first.tolerance:.1e}")
        return EXIT_TOLERANCE
    print("selftest ok")
    return EXIT_OK


def cmd_cost(args) -> int:
    model, ctx = _load_model_ctx(args)
    require_valid(model, ctx, positional=False)   # the table reads no positional encoding
    try:
        durations = [float(x) for x in args.durations.split(",") if x]
    except ValueError:
        raise UsageError(f"bad --durations value {args.durations!r}") from None
    try:
        report = costmodel.batch_cost(durations, ctx, model)
    except ConfigError as exc:   # batch_cost checks only the command-line values
        raise UsageError(str(exc)) from None
    print(costmodel.format_cost_table(report))
    if args.csv:
        args.csv.write_text(costmodel.cost_csv(report), encoding="utf-8")
    return EXIT_OK


def _dispatch(args) -> int:
    if args.command == "selftest":
        return cmd_selftest(args.seed)
    if args.command == "cost":
        return cmd_cost(args)
    if args.budget < 1:
        raise UsageError(f"--budget must be >= 1, got {args.budget}")
    model, ctx = _load_model_ctx(args)
    inputs = _collect_inputs(args.inputs)
    command = cmd_transcribe if args.command == "transcribe" else cmd_encode
    return command(args, model, ctx, inputs)


def main(argv=None) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except SystemExit:   # --help printed its text
        return EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AudioFormatError, FeatureFormatError, ChunkingError, OSError) as exc:
        print(f"input/output error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (CheckpointError, ConfigError) as exc:
        print(f"checkpoint/config error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT


if __name__ == "__main__":
    sys.exit(main())
