import json
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from chunkasr import cli, encoder
from chunkasr.config import ModelConfig, weight_parts
from chunkasr.encoder import init_model, post_frames, save_checkpoint
from chunkasr.frontend import load_features, save_features, write_wav
from conftest import WIDE_CTX, WIDE_MODEL, dropping_oldest_att_frame, write_cfkw


@pytest.fixture
def workdir(tmp_path, rng):
    for name, n in [("one", 9000), ("two", 28000)]:
        t = np.arange(n)
        sig = (4000 * np.sin(2 * np.pi * (200 + 30 * (name == "two")) * t / 16000)
               + rng.normal(scale=800, size=n)).astype(np.int16)
        write_wav(tmp_path / f"{name}.wav", sig)
    model = ModelConfig()
    w, head, vocab = init_model(model, seed=0)
    save_checkpoint(tmp_path / "model.cfkw", w, head, vocab)
    return tmp_path


def test_transcribe_two_wavs_matches_solo_runs(workdir):
    ck = str(workdir / "model.cfkw")
    out = workdir / "both.tsv"
    rc = cli.main(["transcribe", "--checkpoint", ck, "--output", str(out),
                   str(workdir / "one.wav"), str(workdir / "two.wav")])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2
    assert lines[0].startswith("one\t") and lines[1].startswith("two\t")
    for name in ("one", "two"):
        solo = workdir / f"{name}.tsv"
        assert cli.main(["transcribe", "--checkpoint", ck, "--output", str(solo),
                         str(workdir / f"{name}.wav")]) == 0
        assert solo.read_text().strip() == \
            [l for l in lines if l.startswith(name)][0]


def test_transcribe_budget_invariance(workdir):
    ck = str(workdir / "model.cfkw")
    outs = []
    for budget in ("1", "64"):
        out = workdir / f"b{budget}.tsv"
        rc = cli.main(["transcribe", "--checkpoint", ck, "--budget", budget,
                       "--output", str(out), str(workdir / "two.wav")])
        assert rc == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_transcribe_requires_checkpoint(workdir):
    rc = cli.main(["transcribe", str(workdir / "one.wav")])
    assert rc == 2


def test_empty_job_is_usage_error(workdir):
    rc = cli.main(["transcribe", "--checkpoint", str(workdir / "model.cfkw")])
    assert rc == 2


def test_duplicate_ids_rejected(workdir):
    rc = cli.main(["transcribe", "--checkpoint", str(workdir / "model.cfkw"),
                   str(workdir / "one.wav"), str(workdir / "one.wav")])
    assert rc == 2


@pytest.mark.parametrize("argv, says", [
    (["transcribe", "--checkpoint", "{junk}", "{wav}", "{wav}"], "duplicate audio id"),
    (["encode", "--config", "{cfg}", "--output-dir", "{enc}"], "no input files"),
])
def test_input_usage_errors_come_before_config_and_weights(workdir, monkeypatch, capsys,
                                                           argv, says):
    junk = workdir / "junk.cfkw"
    junk.write_bytes(b"JUNKJUNKJUNK")
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"d_model": 100000001}))
    monkeypatch.setattr(cli, "init_model", lambda *a, **k: pytest.fail("init"))
    monkeypatch.setattr(cli, "load_checkpoint", lambda *a, **k: pytest.fail("loaded"))
    argv = [a.format(junk=junk, wav=workdir / "one.wav", cfg=cfg, enc=workdir / "enc")
            for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and says in err
    assert not (workdir / "enc").exists()


def test_unreadable_input_is_io_error(workdir):
    rc = cli.main(["transcribe", "--checkpoint", str(workdir / "model.cfkw"),
                   str(workdir / "missing.wav")])
    assert rc == 3
    bad = workdir / "bad.wav"
    bad.write_bytes(b"not a wav at all")
    rc = cli.main(["transcribe", "--checkpoint", str(workdir / "model.cfkw"),
                   str(bad)])
    assert rc == 3


def test_bad_checkpoint_is_checkpoint_error(workdir):
    bad = workdir / "bad.cfkw"
    bad.write_bytes(b"JUNKJUNKJUNK")
    rc = cli.main(["transcribe", "--checkpoint", str(bad),
                   str(workdir / "one.wav")])
    assert rc == 4


def test_config_mismatch_is_checkpoint_error(workdir):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"n_layers": 2}))
    rc = cli.main(["transcribe", "--checkpoint", str(workdir / "model.cfkw"),
                   "--config", str(cfg), str(workdir / "one.wav")])
    assert rc == 4


@pytest.mark.parametrize("field", ["n_layers", "d_model", "d_ff", "kernel_size",
                                   "vocab_size", "l_max"])
def test_oversized_config_exits_4_before_allocating(workdir, monkeypatch, capsys,
                                                    field):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({field: 100000001}))
    monkeypatch.setattr(cli, "init_model", lambda *a, **k: pytest.fail("allocated"))
    rc = cli.main(["encode", "--seed", "0", "--config", str(cfg), "--output-dir",
                   str(workdir / "enc"), str(workdir / "one.wav")])
    err = capsys.readouterr().err
    assert rc == 4
    assert f"{field} must be <= " in err and err.count("\n") == 1


def test_oversized_weight_count_exits_4_before_allocating(workdir, monkeypatch, capsys):
    # every field within its cap, 6.5e9 weights together
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"n_layers": 64, "d_model": 2048, "d_ff": 8192}))
    monkeypatch.setattr(cli, "init_model", lambda *a, **k: pytest.fail("allocated"))
    rc = cli.main(["encode", "--seed", "0", "--config", str(cfg), "--output-dir",
                   str(workdir / "enc"), str(workdir / "one.wav")])
    err = capsys.readouterr().err
    assert rc == 4
    assert "weight count must be <= " in err and err.count("\n") == 1


def test_timestamps_flag_appends_spans(workdir, capsys):
    rc = cli.main(["transcribe", "--checkpoint", str(workdir / "model.cfkw"),
                   "--timestamps", str(workdir / "two.wav")])
    assert rc == 0
    line = capsys.readouterr().out.strip()
    parts = line.split("\t")
    assert len(parts) == 3
    text = parts[1]
    assert len(parts[2].split(",")) == len(text)


def test_encode_writes_containers_and_is_deterministic(workdir):
    out1, out2 = workdir / "enc1", workdir / "enc2"
    for out in (out1, out2):
        rc = cli.main(["encode", "--seed", "3", "--output-dir", str(out),
                       str(workdir / "one.wav"), str(workdir / "two.wav")])
        assert rc == 0
    for name, n in [("one", 9000), ("two", 28000)]:
        a = (out1 / f"{name}.cfkf").read_bytes()
        b = (out2 / f"{name}.cfkf").read_bytes()
        assert a == b
        hidden = load_features(out1 / f"{name}.cfkf")
        t_raw = 1 + (n - 400) // 160
        assert hidden.shape == (post_frames(t_raw), ModelConfig().d_model)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs a second CPU to differ")
def test_encode_writes_the_same_bytes_on_one_cpu_and_on_all(tmp_path, rng):
    # the wide model's kernel calls run their rows in two halves on two
    # threads when the process may use two CPUs, and whole when pinned to one
    import chunkasr
    wav = tmp_path / "long.wav"
    write_wav(wav, (3000 * rng.normal(size=24 * 16000)).astype(np.int16))
    cfg = tmp_path / "wide.json"
    cfg.write_text(json.dumps({**asdict(WIDE_MODEL), **asdict(WIDE_CTX)}))
    src = str(Path(chunkasr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    mask = sorted(os.sched_getaffinity(0))
    for name, cpus in (("one", mask[:1]), ("all", mask)):
        argv = ["encode", "--seed", "1", "--config", str(cfg),
                "--output-dir", str(tmp_path / name), str(wav)]
        code = (f"import os, sys; os.sched_setaffinity(0, {cpus}); "
                f"from chunkasr.cli import main; sys.exit(main({argv!r}))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, cwd=tmp_path, timeout=120)
        assert run.returncode == 0, run.stderr
    assert (tmp_path / "one" / "long.cfkf").read_bytes() == \
        (tmp_path / "all" / "long.cfkf").read_bytes()


def test_encode_accepts_feature_inputs(workdir, rng):
    feats = rng.normal(size=(123, 80)).astype(np.float32)
    fpath = workdir / "pre.cfkf"
    save_features(fpath, feats)
    rc = cli.main(["encode", "--seed", "3", "--output-dir", str(workdir / "enc3"), str(fpath)])
    assert rc == 0
    hidden = load_features(workdir / "enc3" / "pre.cfkf")
    assert hidden.shape == (post_frames(123), ModelConfig().d_model)


def test_encode_rejects_non_finite_features(workdir, rng, capsys):
    feats = rng.normal(size=(123, 80)).astype(np.float32)
    feats[40, 7] = np.nan
    fpath = workdir / "nan.cfkf"
    save_features(fpath, feats)
    rc = cli.main(["encode", "--seed", "3", "--output-dir", str(workdir / "enc4"), str(fpath)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite" in err and "first is frame 40" in err
    assert not (workdir / "enc4" / "nan.cfkf").exists()


def test_encode_rejects_an_empty_feature_matrix(workdir, capsys):
    fpath = workdir / "empty.cfkf"
    save_features(fpath, np.zeros((0, 80), np.float32))
    rc = cli.main(["encode", "--seed", "1", "--output-dir", str(workdir / "enc6"), str(fpath)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err and "empty" in err
    assert not (workdir / "enc6" / "empty.cfkf").exists()


TINY = ModelConfig(n_layers=1, d_model=8, n_heads=2, d_ff=12, kernel_size=3,
                   vocab_size=5, l_max=32)


def _misshapen():
    """(model, tensor, wrong shape): every tensor of TINY with its first dim one
    larger, and with a (1,) shape (vectors) or its last dim one smaller; then
    the default model's probes, where a (1,) vector would broadcast."""
    for prefix, tensors in weight_parts(TINY):
        for name, shape, _ in tensors:
            yield TINY, prefix + name, (shape[0] + 1,) + shape[1:]
            yield TINY, prefix + name, (1,) if len(shape) == 1 else \
                shape[:-1] + (shape[-1] - 1,)
    for name, shape in [("layer2.conv.pw_in_b", (1,)), ("after_ln_b", (1,)),
                        ("layer1.att.wq", (64, 65)), ("layer0.ff1.ln_g", (3,)),
                        ("ctc.w", (63, 29)), ("ctc.b", (1,))]:
        yield ModelConfig(), name, shape


@pytest.mark.parametrize("model, name, shape", [
    pytest.param(model, name, shape, id=f"d{model.d_model}-{name}-{'x'.join(map(str, shape))}")
    for model, name, shape in _misshapen()])
def test_each_misshapen_tensor_exits_4_naming_it(tmp_path, capsys, model, name, shape):
    tensors = encoder._tensor_map(*init_model(model, seed=0))
    expected = tensors[name].shape
    tensors[name] = np.zeros(shape, np.float32)
    write_cfkw(tmp_path / "m.cfkw", tensors)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(asdict(model)))
    rc = cli.main(["encode", "--checkpoint", str(tmp_path / "m.cfkw"), "--config", str(cfg),
                   "--output-dir", str(tmp_path / "enc"), str(tmp_path / "never_read.cfkf")])
    assert rc == 4
    assert capsys.readouterr().err == \
        f"checkpoint/config error: {name} has shape {shape}, config says {expected}\n"


def test_checkpoint_vocab_must_match_the_config(workdir, capsys):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"vocab_size": 30}))
    rc = cli.main(["transcribe", "--checkpoint", str(workdir / "model.cfkw"),
                   "--config", str(cfg), str(workdir / "one.wav")])
    err = capsys.readouterr().err
    assert rc == 4 and err.count("\n") == 1
    assert "ctc.w has shape (64, 29), config says (64, 30)" in err
    assert "vocab.utf8 holds 29 tokens, config says vocab_size 30" in err


@pytest.mark.parametrize("argv, code", [
    (["encode", "--seed", "-1"], 4),
    (["encode", "--config", "{cfg}"], 4),
    (["selftest", "--seed", "-1"], 2),
])
def test_negative_seed_is_one_line_error(workdir, capsys, argv, code):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps({"seed": -5}))
    argv = [a.format(cfg=cfg) for a in argv]
    if argv[0] == "encode":
        argv += ["--output-dir", str(workdir / "enc"), str(workdir / "one.wav")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "seed must be >= 0, got -" in err
    assert not (workdir / "enc").exists()


def test_non_numeric_layer_id_is_checkpoint_error(workdir, capsys):
    bad = workdir / "layerx.cfkw"
    write_cfkw(bad, {"layerX.a": np.zeros(3)})
    rc = cli.main(["transcribe", "--checkpoint", str(bad), str(workdir / "one.wav")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "layerX.a" in err


def test_checkpoint_dims_past_int64_are_checkpoint_error(workdir, capsys):
    # 2**63 elements: an int64 product wraps to 0, the exact one is far past
    # the end of this 32-byte file
    bad = workdir / "huge.cfkw"
    bad.write_bytes(b"CFKW" + struct.pack("<II", 1, 1) + struct.pack("<H", 5) + b"ctc.w"
                    + struct.pack("<B3I", 3, 2 ** 21, 2 ** 21, 2 ** 21))
    assert bad.stat().st_size == 32
    rc = cli.main(["transcribe", "--checkpoint", str(bad), str(workdir / "one.wav")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "truncated payload" in err and "ctc.w" in err


def test_checkpoint_rank_past_numpy_limit_is_checkpoint_error(workdir, capsys):
    # one tensor of rank 65, every dimension 1: its 4-byte payload is there,
    # but NumPy 2 makes no array of more than 64 dimensions
    bad = workdir / "rank.cfkw"
    bad.write_bytes(b"CFKW" + struct.pack("<II", 1, 1) + struct.pack("<H", 1) + b"w"
                    + struct.pack("<B65I", 65, *[1] * 65) + struct.pack("<f", 0.0))
    assert bad.stat().st_size == 280
    rc = cli.main(["transcribe", "--checkpoint", str(bad), str(workdir / "one.wav")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "rank 65" in err and "'w'" in err


def test_checkpoint_repeated_tensor_name_is_checkpoint_error(workdir, capsys):
    # a second copy of a tensor must not replace the first one silently
    w, head, vocab = init_model(ModelConfig(), seed=0)
    tensors = list(encoder._tensor_map(w, head, vocab).items())
    tensors.append(("layer0.ff1.w1", np.full_like(w.layers[0].ff1.w1, 7.0)))
    bad = workdir / "twice.cfkw"
    write_cfkw(bad, tensors)
    rc = cli.main(["transcribe", "--checkpoint", str(bad), str(workdir / "one.wav")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'layer0.ff1.w1' appears twice" in err


def test_tensor_name_not_utf8_is_checkpoint_error(workdir, capsys):
    bad = workdir / "name.cfkw"
    bad.write_bytes(b"CFKW" + struct.pack("<II", 1, 1) + struct.pack("<H", 2) + b"\xff\xfe"
                    + struct.pack("<BI", 1, 1) + struct.pack("<f", 0.0))
    rc = cli.main(["transcribe", "--checkpoint", str(bad), str(workdir / "one.wav")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "UTF-8" in err


def test_vocab_not_utf8_is_checkpoint_error(workdir, capsys):
    w, head, vocab = init_model(ModelConfig(), seed=0)
    tensors = encoder._tensor_map(w, head, vocab)
    tensors["vocab.utf8"] = np.array([255, 97], dtype=np.float32)
    bad = workdir / "vocab.cfkw"
    write_cfkw(bad, tensors)
    rc = cli.main(["transcribe", "--checkpoint", str(bad), str(workdir / "one.wav")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "vocab.utf8" in err and "UTF-8" in err


@pytest.mark.parametrize("codes, says", [
    (list(b"<blk>\na\na"), "unique"),
    (list(b"<blk>"), "at least one token"),
    ([97, 10, 256], "not bytes"),
    ([97, 10, -1], "not bytes"),
    ([97, 10, -159], "not bytes"),     # would wrap to 97, a duplicate "a"
    ([97, 10, 0.5], "not bytes"),
    ([97, 10, 1e10], "not bytes"),
    ([97, 10, np.nan], "not bytes"),
    ([97, 10, np.inf], "not bytes"),
])
def test_malformed_vocab_is_checkpoint_error(workdir, capsys, codes, says):
    w, head, vocab = init_model(ModelConfig(), seed=0)
    tensors = encoder._tensor_map(w, head, vocab)
    tensors["vocab.utf8"] = np.array(codes, dtype=np.float32)
    bad = workdir / "vocab.cfkw"
    write_cfkw(bad, tensors)
    rc = cli.main(["transcribe", "--checkpoint", str(bad), str(workdir / "one.wav")])
    err = capsys.readouterr().err
    assert rc == 4 and err.count("\n") == 1
    assert "vocab.utf8" in err and says in err


@pytest.mark.parametrize("command", ["transcribe", "encode"])
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_budget_below_one_is_usage_error_before_any_input_is_read(tmp_path, capsys,
                                                                command, budget):
    # none of these files exists: reading any of them would exit 3
    argv = [command, "--budget", budget, "--config", str(tmp_path / "no.json"),
            "--checkpoint", str(tmp_path / "no.cfkw"), str(tmp_path / "no.wav")]
    if command == "encode":
        argv += ["--output-dir", str(tmp_path / "enc")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"usage error: --budget must be >= 1, got {budget}\n"
    assert not (tmp_path / "enc").exists()


def test_encode_refuses_a_zero_width_header_before_allocating(workdir, capsys):
    # 16 bytes that declare 2^26 frames of width 0: nothing to read, but a
    # per-frame check would allocate 64 MiB
    fpath = workdir / "flat.cfkf"
    fpath.write_bytes(b"CFKF" + struct.pack("<III", 1, 2 ** 26, 0))
    tracemalloc.start()
    try:
        rc = cli.main(["encode", "--seed", "1", "--output-dir", str(workdir / "enc7"), str(fpath)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "flat.cfkf" in err and "width 0" in err
    assert peak < 8 * 2 ** 20
    assert not (workdir / "enc7").exists()


def test_encode_rejects_features_of_the_wrong_width(workdir, rng, capsys):
    fpath = workdir / "narrow.cfkf"
    save_features(fpath, rng.normal(size=(40, 3)).astype(np.float32))
    # the container itself holds any width: encode writes d_model-wide frames
    assert load_features(fpath).shape == (40, 3)
    rc = cli.main(["encode", "--seed", "3", "--output-dir", str(workdir / "enc5"), str(fpath)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "narrow.cfkf" in err and "T x 80" in err
    assert not (workdir / "enc5" / "narrow.cfkf").exists()


@pytest.mark.parametrize("source, disguise", [("one.wav", ".cfkf"), ("feats.cfkf", ".wav")])
def test_inputs_are_told_apart_by_their_bytes(workdir, rng, source, disguise):
    # a WAV named .cfkf and a feature container named .wav are read as what
    # they hold: transcripts and hidden frames match the truly named file's
    save_features(workdir / "feats.cfkf", rng.normal(size=(123, 80)).astype(np.float32))
    outputs = []
    for suffix in (Path(source).suffix, disguise):
        run = workdir / f"as{suffix}"
        run.mkdir()
        (run / f"x{suffix}").write_bytes((workdir / source).read_bytes())
        assert cli.main(["transcribe", "--checkpoint", str(workdir / "model.cfkw"),
                         "--timestamps", "--output", str(run / "x.tsv"),
                         str(run / f"x{suffix}")]) == 0
        assert cli.main(["encode", "--checkpoint", str(workdir / "model.cfkw"),
                         "--output-dir", str(run / "enc"), str(run / f"x{suffix}")]) == 0
        outputs.append(((run / "x.tsv").read_bytes(), (run / "enc" / "x.cfkf").read_bytes()))
    assert outputs[0] == outputs[1]


def test_input_of_neither_kind_is_one_line_io_error(workdir, capsys):
    junk = workdir / "junk.wav"
    junk.write_bytes(b"0123456789abcdef")
    rc = cli.main(["encode", "--seed", "0", "--output-dir", str(workdir / "enc"), str(junk)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("input/output error: ") and str(junk) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (workdir / "enc").exists()


def test_encode_refuses_a_seed_next_to_a_checkpoint(workdir, capsys):
    rc = cli.main(["encode", "--seed", "3", "--checkpoint", str(workdir / "model.cfkw"),
                   "--output-dir", str(workdir / "enc"), str(workdir / "one.wav")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "not allowed with argument" in err
    assert err.count("\n") == 1
    assert not (workdir / "enc").exists()


def test_encode_matches_oracle_within_tolerance(workdir):
    from chunkasr.encoder import load_checkpoint
    from chunkasr.frontend import compute_fbank, read_wav
    from chunkasr.oracle import loop_oct_encode
    from chunkasr.config import ContextConfig
    rc = cli.main(["encode", "--checkpoint", str(workdir / "model.cfkw"),
                   "--output-dir", str(workdir / "enc"),
                   str(workdir / "one.wav")])
    assert rc == 0
    hidden = load_features(workdir / "enc" / "one.cfkf")
    w, _, _ = load_checkpoint(workdir / "model.cfkw")
    feats = compute_fbank(read_wav(workdir / "one.wav")).frames
    ref = loop_oct_encode({"one": feats}, w, ContextConfig(), ModelConfig())["one"]
    scale = np.abs(ref).max()
    assert np.abs(hidden - ref).max() / scale <= 1e-4


def test_selftest_exit_codes(capsys, monkeypatch):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "selftest ok" in out
    # inject an off-by-one cache bug; the streaming suite must catch it
    monkeypatch.setattr(encoder, "encode_step", dropping_oldest_att_frame())
    assert cli.main(["selftest"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cost_command_prints_published_ratio(capsys, tmp_path):
    csv_path = tmp_path / "cost.csv"
    rc = cli.main(["cost", "--durations", "1,30,60,900,1800,3600",
                   "--context", "128,64,128", "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    ratio = float(out.strip().splitlines()[-1].split(":")[1])
    assert abs(ratio / 3.38 - 1.0) <= 0.05
    assert csv_path.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    import chunkasr
    src = str(Path(chunkasr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-m", "chunkasr", "cost",
                          "--durations", "1,30,60,900,1800,3600", "--context", "128,64,128"],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert run.returncode == 0, run.stderr
    ratio = float(run.stdout.strip().splitlines()[-1].split(":")[1])
    assert abs(ratio / 3.38 - 1.0) <= 0.05
    bad = subprocess.run([sys.executable, "-m", "chunkasr", "cost", "--durations", "abc"],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert bad.returncode == 2


def test_cost_bad_durations(capsys):
    for durations in ("abc", "1,-5", "nan", "inf", "1e305", "30,-inf", "0.01", "0.0249"):
        assert cli.main(["cost", "--durations", durations]) == 2
        assert capsys.readouterr().err.count("\n") == 1
    assert cli.main(["cost", "--durations", "1,30", "--context", "junk"]) == 2
    assert cli.main(["cost", "--durations", "0.025"]) == 0


@pytest.mark.parametrize("flag,value,says", [
    ("--context", "1,0,1", "c must be >= 1, got 0"),
    ("--context", "8,-8,8", "c must be >= 1, got -8"),
    ("--context", "16,8,-8", "r must be >= 0, got -8"),
    ("--context", "-1,8,8", "l_att must be >= 0, got -1"),
    ("--config", {"c": 0}, "c must be >= 1, got 0"),
    ("--config", {"n_layers": -3}, "n_layers must be >= 0, got -3"),
])
def test_cost_refuses_what_encode_refuses(tmp_path, capsys, flag, value, says):
    if flag == "--config":
        (tmp_path / "cfg.json").write_text(json.dumps(value))
        value = str(tmp_path / "cfg.json")
    assert cli.main(["cost", "--durations", "1,30", f"{flag}={value}"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"checkpoint/config error: {says}\n"


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",                        # not UTF-8
    b'{"c": ' + b"9" * 5000 + b"}",      # past Python's int-string digit limit
    b"[" * 200_000,                       # nested past the recursion limit
], ids=["not-utf8", "long-int", "deep-nesting"])
def test_unparsable_config_is_one_line_config_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert cli.main(["cost", "--durations", "10", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"checkpoint/config error: {cfg}: not valid JSON (")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["encode", "--seed", "0", "--output-dir", "{file}", "{wav}"],          # exists
    ["encode", "--seed", "0", "--output-dir", "{file}/enc", "{wav}"],      # under a file
    ["cost", "--durations", "10", "--csv", "{file}/cost.csv"],
    ["transcribe", "--checkpoint", "{ck}", "--output", "{file}/out.tsv", "{wav}"],
], ids=["encode-dir-is-a-file", "encode-dir-under-a-file", "cost-csv-under-a-file",
        "transcribe-output-under-a-file"])
def test_output_path_blocked_by_a_file_is_one_line_io_error(workdir, capsys, argv):
    blocker = workdir / "blocker"
    blocker.write_text("a file, not a directory")
    paths = dict(file=blocker, wav=workdir / "one.wav", ck=workdir / "model.cfkw")
    assert cli.main([arg.format(**paths) for arg in argv]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input/output error: ") and str(blocker) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert blocker.read_text() == "a file, not a directory"


def test_unknown_command_usage():
    assert cli.main(["frobnicate"]) == 2
