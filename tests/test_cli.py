import json

import numpy as np
import pytest

from chunkasr import cli, encoder
from chunkasr.config import ModelConfig
from chunkasr.encoder import init_model, post_frames, save_checkpoint
from chunkasr.frontend import load_features, save_features, write_wav
from conftest import dropping_oldest_att_frame, write_cfkw


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


def test_encode_accepts_feature_inputs(workdir, rng):
    feats = rng.normal(size=(123, 80)).astype(np.float32)
    fpath = workdir / "pre.cfkf"
    save_features(fpath, feats)
    rc = cli.main(["encode", "--seed", "3", "--format", "features",
                   "--output-dir", str(workdir / "enc3"), str(fpath)])
    assert rc == 0
    hidden = load_features(workdir / "enc3" / "pre.cfkf")
    assert hidden.shape == (post_frames(123), ModelConfig().d_model)


def test_encode_rejects_non_finite_features(workdir, rng, capsys):
    feats = rng.normal(size=(123, 80)).astype(np.float32)
    feats[40, 7] = np.nan
    fpath = workdir / "nan.cfkf"
    save_features(fpath, feats)
    rc = cli.main(["encode", "--seed", "3", "--format", "features",
                   "--output-dir", str(workdir / "enc4"), str(fpath)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "non-finite" in err and "first is frame 40" in err
    assert not (workdir / "enc4" / "nan.cfkf").exists()


def test_non_numeric_layer_id_is_checkpoint_error(workdir, capsys):
    bad = workdir / "layerx.cfkw"
    write_cfkw(bad, {"layerX.a": np.zeros(3)})
    rc = cli.main(["transcribe", "--checkpoint", str(bad), str(workdir / "one.wav")])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "layerX.a" in err


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


def test_cost_bad_durations(capsys):
    assert cli.main(["cost", "--durations", "abc"]) == 2
    assert cli.main(["cost", "--durations", "1,-5"]) == 2
    assert cli.main(["cost", "--durations", "1,30", "--context", "junk"]) == 2


def test_unknown_command_usage():
    assert cli.main(["frobnicate"]) == 2
