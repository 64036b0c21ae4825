"""Self-test of the benchmark on a tiny model: 2 layers, 3 audios of 1-3 s."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from chunkasr import encoder, frontend  # noqa: E402

TINY = workloads.Workload(
    name="tiny", model=dict(n_layers=2, d_model=32, n_heads=2, d_ff=64,
                            kernel_size=5, l_max=64),
    context=(8, 4, 4), budget=3, n_audios=3, min_s=1.0, max_s=3.0,
    log_spaced=False, why="self-test", checked=3)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    path = workloads.generate(TINY, 7, tmp_path_factory.mktemp("tiny"))
    return workloads.Manifest.load(path)


@pytest.fixture(scope="module")
def traced(tiny, tmp_path_factory):
    trace = tmp_path_factory.mktemp("trace") / "spans.jsonl"
    return harness.measure(tiny, 0.0, traced=True, trace_path=trace), trace


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


def test_untraced_run_reports_every_end_to_end_metric(tiny):
    result = harness.measure(tiny, 0.0, traced=False)
    assert result["correct"] and result["failed"] == {}
    assert result["attempted"] == len(tiny.audios) == 3
    for name, unit in harness.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert result["metrics"][name]["samples"] >= 1
    assert result["metrics"]["failed_frac"]["value"] == 0


def test_traced_run_reports_every_per_layer_metric(tiny, traced):
    result, trace = traced
    assert result["correct"] and result["counts_repeat"]
    assert result["attempted"] == 3
    metrics = result["metrics"]
    for name, unit in harness.PER_LAYER.items():
        assert metrics[name]["unit"] == unit
    emitted = sum(encoder.post_frames(frontend.num_frames(n)) for _, _, n in tiny.audios)
    assert metrics["encoder.frames_emitted"]["value"] == emitted
    assert metrics["ctc.frames"]["value"] == emitted
    assert metrics["encoder.frames_computed"]["value"] >= emitted
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    assert {s["name"] for s in spans} >= set(harness.SELF_TIME)
    steps = {s["step"] for s in spans if s["name"] == "encoder.step"}
    assert steps == set(range(int(metrics["encoder.steps"]["value"])))


def test_wrappers_are_restored_after_a_traced_run(tiny, traced):
    from chunkasr import attention, chunking, ctc, functional
    assert encoder.chunk_attention is attention.chunk_attention
    assert chunking.oct_segment.__module__ == "chunkasr.chunking"
    assert functional.sigmoid.__module__ == "chunkasr.functional"
    assert ctc.DecodeState.feed.__qualname__ == "DecodeState.feed"


def test_floor_timeline_takes_each_stretch_at_its_fastest():
    def rep(stamps):
        return harness.Rep(stamps=stamps, call=1, step_ends=[], first={}, last={},
                           seconds=1.0, tokens={}, blocks={}, hidden={})
    timeline = harness.floor_timeline([rep([0.0, 1.0, 3.0, 4.0]),
                                       rep([10.0, 12.0, 13.0, 15.0])])
    assert list(timeline) == [0.0, 1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        harness.floor_timeline([rep([0.0, 1.0]), rep([0.0, 1.0, 2.0])])


def test_emitted_blocks_are_contiguous(tiny):
    lw, _ = harness.load(tiny)
    rep = harness.run_batch(tiny.audios, set(tiny.checked), lw)
    for aid, _, n in tiny.audios:
        at = 0
        for start, frames in rep.blocks[aid]:
            assert start == at and frames > 0
            at += frames
        assert at == encoder.post_frames(frontend.num_frames(n))


def test_same_seed_repeats_inputs_and_traced_counts(tiny, traced, tmp_path):
    again = workloads.Manifest.load(workloads.generate(TINY, 7, tmp_path))
    for (_, a, _), (_, b, _) in zip(tiny.audios, again.audios):
        assert Path(a).read_bytes() == Path(b).read_bytes()
    second = harness.measure(again, 0.0, traced=True)
    assert second["exact_counts"] == traced[0]["exact_counts"]


def test_output_check_catches_wrong_frames_and_gaps(tiny):
    lw, _ = harness.load(tiny)
    rep = harness.run_batch(tiny.audios, set(tiny.checked), lw)
    assert harness.check_outputs(tiny, lw, [rep]) == {}
    aid = tiny.checked[0]
    rep.hidden[aid] = rep.hidden[aid] + np.float32(1e-2) * np.abs(rep.hidden[aid]).max()
    other = tiny.audios[-1][0] if tiny.audios[-1][0] != aid else tiny.audios[0][0]
    rep.blocks[other] = rep.blocks[other][1:]
    bad = harness.check_outputs(tiny, lw, [rep])
    assert set(bad) == {aid, other}


def test_run_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "many-short", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
