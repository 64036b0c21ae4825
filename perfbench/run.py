"""chunkasr benchmark: one workload, one seed, one result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload many-short --seed 1 --seconds 20 --trace 0

It generates the workload's WAVs and CFKW checkpoint from the seed, then
measures in a fresh process (so peak RSS excludes the generator) with BLAS
threads pinned. It prints a table of every metric with its unit and sample
count, the provenance of the run, and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones. Results, and the spans of a traced run as JSON lines, are
kept under ``.perfbench_out/``; generated inputs are deleted after the run.
Exit codes: 0 measured (see ``correct``), 1 the measuring process failed,
2 usage error or no ``src/chunkasr`` under the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1


def _parse(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring window; the batch in flight is finished")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _source_root() -> Path | None:
    """The checkout under test: the working directory, if it holds src/chunkasr."""
    root = Path.cwd().resolve()
    return root if (root / "src" / "chunkasr" / "__init__.py").is_file() else None


def _table(args, result: dict) -> str:
    prov = result["provenance"]
    lines = [f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
             f"audios={prov['audios']} audio_s={prov['audio_seconds']:.1f} "
             f"budget={prov['budget']} reps={result.get('reps', 0)}",
             "provenance " + json.dumps(prov, sort_keys=True),
             f"{'metric':<38} {'value':>14} {'unit':<8} samples"]
    for name, m in result["metrics"].items():
        lines.append(f"{name:<38} {m['value']:>14.6g} {m['unit']:<8} {m['samples']}")
    for aid, why in sorted(result["failed"].items()):
        lines.append(f"FAILED {aid}: {why}")
    if "error" in result:
        lines.append(result["error"].rstrip())
    return "\n".join(lines)


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    args = _parse(argv)
    root = _source_root()
    if root is None:
        print("perfbench: no src/chunkasr under the working directory; "
              "run from the root of a chunkasr checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    out = root / OUT_DIR
    work = out / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    result_path = work / "result.json"
    trace_path = out / "trace" / f"{args.workload}.jsonl"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(HERE)]))
    try:
        manifest = workloads.generate(workloads.WORKLOADS[args.workload], args.seed, work)
        cmd = [sys.executable, str(HERE / "harness.py"), str(manifest),
               repr(args.seconds), str(args.trace), str(result_path), str(trace_path)]
        try:
            proc = subprocess.run(cmd, env=env, cwd=root, stdout=sys.stderr,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: measuring process exceeded {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
        if proc.returncode != 0 or not result_path.is_file():
            print(f"perfbench: measuring process exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (out / "results").mkdir(exist_ok=True)
    (out / "results" / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")

    import harness
    wanted = harness.PER_LAYER if args.trace else harness.END_TO_END
    attempted = result["attempted"]
    failed = attempted if "error" in result else len(result["failed"])
    print(_table(args, result))
    print(json.dumps({
        "correct": bool(result["correct"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": result["metrics"][k]["value"], "unit": unit}
                    for k, unit in wanted.items() if k in result["metrics"]},
    }))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
