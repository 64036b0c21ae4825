import struct
import tracemalloc

import numpy as np
import pytest

from chunkasr import frontend
from chunkasr.frontend import (FBANK_BLOCK, AudioFormatError, FeatureFormatError,
                               compute_fbank, load_features,
                               mel_filterbank, num_frames, read_wav, save_features,
                               write_wav)


def make_audio(n, rng=None, dc=None):
    if dc is not None:
        samples = np.full(n, dc, dtype=np.int16)
    else:
        samples = (rng.normal(scale=3000, size=n)).astype(np.int16)
    return samples


def reference_fbank(samples):
    """Whole-audio log-mel formula: one gathered (T, 400) frame matrix."""
    t = num_frames(len(samples))
    x = np.asarray(samples, dtype=np.float64) / 32768.0
    starts = np.arange(t) * 160
    frames = x[starts[:, None] + np.arange(400)[None, :]]
    frames = frames * np.hamming(400)
    spec = np.fft.rfft(frames, n=512, axis=1)
    power = spec.real**2 + spec.imag**2
    energies = power @ mel_filterbank().T
    return np.log(np.maximum(energies, 1e-10)).astype(np.float32)


def samples_for(frames, tail=0):
    return 400 + 160 * (frames - 1) + tail


# a block's own edges, and 16 and 32 blocks (the edges of 4096-frame blocks)
@pytest.mark.parametrize("frames", [1, FBANK_BLOCK - 1, FBANK_BLOCK, FBANK_BLOCK + 1,
                                    2 * FBANK_BLOCK + 1, 4095, 4096, 4097, 8193])
def test_blocks_are_bit_identical_to_the_whole_audio_formula(rng, frames):
    for tail in (0, 1, 159):
        audio = make_audio(samples_for(frames, tail), rng)
        got = compute_fbank(audio).frames
        assert got.shape == (frames, 80)
        assert np.array_equal(got.view(np.uint32),
                              reference_fbank(audio).view(np.uint32))


def test_block_size_never_changes_a_feature_bit(rng, monkeypatch):
    # 2 x 4096 + 1 frames cross the edges of every block size here, and
    # keep the old 4096-frame blocks' edges covered
    for tail in (0, 1, 159):
        audio = make_audio(samples_for(2 * 4096 + 1, tail), rng)
        want = reference_fbank(audio).view(np.uint32)
        for block in (1, 7, 256, 4096):
            monkeypatch.setattr(frontend, "FBANK_BLOCK", block)
            got = compute_fbank(audio).frames
            assert got.shape == (2 * 4096 + 1, 80)
            assert np.array_equal(got.view(np.uint32), want), (tail, block)


def test_full_scale_input_is_bit_identical(rng):
    samples = rng.choice(np.array([-32767, 32767], np.int16),
                         size=samples_for(FBANK_BLOCK + 1, 77))
    got = compute_fbank(samples).frames
    assert np.array_equal(got.view(np.uint32), reference_fbank(samples).view(np.uint32))


def test_working_memory_is_flat_in_duration(rng):
    compute_fbank(make_audio(samples_for(FBANK_BLOCK), rng))   # one-time costs out
    extra = []
    for blocks in (3, 6):
        audio = make_audio(samples_for(blocks * FBANK_BLOCK), rng)
        tracemalloc.start()
        try:
            out = compute_fbank(audio).frames
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        extra.append(peak - out.nbytes)
    assert abs(extra[0] - extra[1]) <= 64 * 1024
    assert max(extra) < 4 * 2 ** 20


def test_one_second_is_98_frames(rng):
    feats = compute_fbank(make_audio(16000, rng))
    assert feats.frames.shape == (98, 80)


def test_exactly_one_window(rng):
    assert compute_fbank(make_audio(400, rng)).frames.shape == (1, 80)


def test_too_short_rejected(rng):
    with pytest.raises(AudioFormatError):
        compute_fbank(make_audio(399, rng))


def test_dc_input_all_frames_identical():
    feats = compute_fbank(make_audio(2000, dc=1000)).frames
    assert np.all(feats == feats[0])


def test_frame_count_matches_window_enumeration(rng):
    for n in rng.integers(400, 5000, size=50):
        n = int(n)
        count = 0
        start = 0
        while start + 400 <= n:
            count += 1
            start += 160
        assert num_frames(n) == count


def test_trailing_pad_under_one_hop_is_invisible(rng):
    # Full invariance needs a hop-aligned length (otherwise the frame-count
    # formula itself adds a frame once the pad crosses the next boundary).
    samples = (rng.normal(scale=3000, size=400 + 160 * 8)).astype(np.int16)
    base = compute_fbank(samples).frames
    for pad in (1, 80, 159):
        padded = np.concatenate([samples, np.zeros(pad, np.int16)])
        got = compute_fbank(padded).frames
        assert np.array_equal(got, base)


def test_trailing_pad_never_disturbs_existing_frames(rng):
    samples = (rng.normal(scale=3000, size=1600)).astype(np.int16)
    base = compute_fbank(samples).frames
    for pad in (1, 80, 159):
        padded = np.concatenate([samples, np.zeros(pad, np.int16)])
        got = compute_fbank(padded).frames
        assert np.array_equal(got[: base.shape[0]], base)


def test_all_values_finite(rng):
    feats = compute_fbank(make_audio(8000, rng)).frames
    assert np.all(np.isfinite(feats))
    # silence hits the log floor rather than -inf
    quiet = compute_fbank(make_audio(800, dc=0)).frames
    assert np.all(np.isfinite(quiet))


def test_container_roundtrip(tmp_path, rng):
    mat = rng.normal(size=(37, 80)).astype(np.float32)
    path = tmp_path / "x.cfkf"
    save_features(path, mat)
    again = load_features(path)
    assert np.array_equal(mat, again)
    save_features(path, again)
    assert (tmp_path / "x.cfkf").read_bytes() == path.read_bytes()


def test_container_truncation(tmp_path, rng):
    path = tmp_path / "x.cfkf"
    save_features(path, rng.normal(size=(4, 80)).astype(np.float32))
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])  # drop one float
    with pytest.raises(FeatureFormatError, match="payload length"):
        load_features(path)


def test_container_frames_are_own_writable_arrays(tmp_path, rng):
    path = tmp_path / "x.cfkf"
    save_features(path, rng.normal(size=(6, 80)).astype(np.float32))
    frames = load_features(path)
    assert frames.flags.writeable and frames.flags.c_contiguous
    assert frames.flags.owndata and frames.base is None


def test_container_header_past_file_size_allocates_nothing(tmp_path):
    # a 16-byte file claiming (2^32 - 1) x (2^32 - 1) values fails on its size alone
    path = tmp_path / "huge.cfkf"
    path.write_bytes(b"CFKF" + struct.pack("<III", 1, 2 ** 32 - 1, 2 ** 32 - 1))
    with pytest.raises(FeatureFormatError, match="payload length 0 bytes"):
        load_features(path)


def test_container_bad_magic(tmp_path):
    path = tmp_path / "bad.cfkf"
    path.write_bytes(b"")
    with pytest.raises(FeatureFormatError, match="bad magic"):
        load_features(path)
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(FeatureFormatError, match="bad magic"):
        load_features(path)


def test_wav_roundtrip(tmp_path, rng):
    samples = (rng.normal(scale=3000, size=1234)).astype(np.int16)
    path = tmp_path / "a.wav"
    write_wav(path, samples)
    audio = read_wav(path)
    assert audio.dtype == np.int16 and np.array_equal(audio, samples)


def test_wav_rejects_wrong_format(tmp_path):
    import wave
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(16000)
        wf.writeframes(b"\x00" * 64)
    with pytest.raises(AudioFormatError, match="mono"):
        read_wav(path)
    path2 = tmp_path / "slow.wav"
    with wave.open(str(path2), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(8000)
        wf.writeframes(b"\x00" * 64)
    with pytest.raises(AudioFormatError, match="16000"):
        read_wav(path2)
    path3 = tmp_path / "notwav.wav"
    path3.write_bytes(b"garbage")
    with pytest.raises(AudioFormatError):
        read_wav(path3)


def test_wav_header_claiming_more_data_than_the_file_holds(tmp_path, rng):
    samples = rng.integers(-3000, 3000, size=300).astype("<i2")
    path = tmp_path / "claims4g.wav"
    write_wav(path, samples)
    raw = bytearray(path.read_bytes())
    assert len(raw) == 644 and raw[36:40] == b"data"
    raw[4:8] = struct.pack("<I", 0xFFFFFFF8)      # RIFF size, bounds the data chunk's reads
    raw[40:44] = struct.pack("<I", 0xFFFFFFF0)    # data size
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        audio = read_wav(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(audio, samples)
    assert peak < 2 ** 20


def test_feature_matrix_shape_guard(rng):
    with pytest.raises(FeatureFormatError):
        frontend.FeatureMatrix(frames=rng.normal(size=(5, 79)))
