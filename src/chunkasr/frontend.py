"""Audio frontend: WAV input, 80-dim log-mel filterbank features, feature files.

The frontend is deliberately dependency-free and bit-stable: Hamming window,
25 ms windows (400 samples at 16 kHz) with a 10 ms shift (160 samples), HTK
mel scale over 0-8000 Hz, natural-log energies floored at log(1e-10). No
pre-emphasis, no dither, no mean/variance normalization.

The filterbank is computed in fixed blocks of frames (see compute_fbank), so
its working memory does not grow with the audio, and the features stay
bit-identical to a whole-audio computation.
"""

from __future__ import annotations

import os
import struct
import wave
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SAMPLE_RATE = 16000
WINDOW_SAMPLES = 400
HOP_SAMPLES = 160
N_FFT = 512
N_MELS = 80
LOG_FLOOR = 1e-10

FEATURE_MAGIC = b"CFKF"
FEATURE_VERSION = 1


class AudioFormatError(ValueError):
    """Input audio is not 16 kHz / 16-bit / mono RIFF PCM."""


class FeatureFormatError(ValueError):
    """Feature container is malformed (bad magic, dims, or truncated payload)."""


@dataclass
class FeatureMatrix:
    """T x 80 log-mel frames; 10 ms shift, 25 ms analysis window."""

    frames: np.ndarray

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[1] != N_MELS:
            raise FeatureFormatError(
                f"feature matrix must be T x {N_MELS}, got {self.frames.shape}"
            )


def read_wav(path) -> np.ndarray:
    """The int16 samples of a mono 16 kHz 16-bit WAV.

    The frames read are capped at what the bytes after the data chunk's header
    can hold, so a header that claims more data than the file has never sizes
    an allocation.
    """
    try:
        with open(path, "rb") as fh, wave.open(fh) as wf:
            n_channels = wf.getnchannels()
            sampwidth = wf.getsampwidth()
            rate = wf.getframerate()
            held = (os.fstat(fh.fileno()).st_size - fh.tell()) // (n_channels * sampwidth)
            data = wf.readframes(min(wf.getnframes(), held))
    except (wave.Error, EOFError) as exc:
        raise AudioFormatError(f"{path}: not a readable RIFF PCM WAV ({exc})") from None
    if n_channels != 1:
        raise AudioFormatError(f"{path}: expected mono, got {n_channels} channels")
    if sampwidth != 2:
        raise AudioFormatError(f"{path}: expected 16-bit PCM, got {8 * sampwidth}-bit")
    if rate != SAMPLE_RATE:
        raise AudioFormatError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate}")
    return np.frombuffer(data, dtype="<i2")


def write_wav(path, samples: np.ndarray) -> None:
    """Write mono 16 kHz 16-bit PCM (test/demo convenience)."""
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(np.asarray(samples, dtype="<i2").tobytes())


def num_frames(n_samples: int) -> int:
    """Frame count for an n-sample signal: 1 + floor((n - 400) / 160)."""
    if n_samples < WINDOW_SAMPLES:
        raise AudioFormatError(
            f"audio too short: {n_samples} samples < one {WINDOW_SAMPLES}-sample window"
        )
    return 1 + (n_samples - WINDOW_SAMPLES) // HOP_SAMPLES


def _hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular mel filters over 0-8000 Hz as an (N_MELS, N_FFT//2 + 1) matrix."""
    n_bins = N_FFT // 2 + 1
    mel_points = np.linspace(_hz_to_mel(0.0), _hz_to_mel(SAMPLE_RATE / 2), N_MELS + 2)
    hz_points = _mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins) * (SAMPLE_RATE / N_FFT)
    fb = np.zeros((N_MELS, n_bins), dtype=np.float64)
    for m in range(N_MELS):
        lo, center, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    return fb


# Built once at import; the transposed view keeps the matmul's operand layout.
# Folding the 1 / 32768 sample scale into the window only moves a power of
# two, so x * (w / 32768) is bit-identical to (x / 32768) * w.
_WINDOW = np.hamming(WINDOW_SAMPLES) / 32768.0
_MEL_T = mel_filterbank().T

FBANK_BLOCK = 256   # frames per filterbank block; compute_fbank says why


def compute_fbank(samples: np.ndarray) -> FeatureMatrix:
    """Log-mel filterbank features of one audio's int16 samples.

    T = 1 + floor((num_samples - 400) / 160); trailing samples of less than
    one hop never start a new frame, so zero-padding by under 160 samples
    leaves the output unchanged.

    Frames are computed FBANK_BLOCK = 256 at a time, each block from only
    its own samples, into one preallocated (T, 80) float32 output through
    one reused float64 workspace (about 2.2 MiB whatever T is): the windowed
    frames go from the int16 samples into a zeroed (block, N_FFT) buffer,
    whose columns past the window stay zero as the FFT's padding, and the
    power spectrum goes back into its first columns. Every frame goes
    through the same float64 operations as in a whole-audio computation, so
    the features are bit-identical to it at any block size. 256 frames keep
    the 1 MiB frame buffer and the 1 MiB spectrum inside a 4 MiB L2 cache;
    cost per frame on 120 s of audio (2-vCPU host, one BLAS thread, best
    of 12-20 runs, ranges over sessions), most of the gain being the power
    spectrum's:

        block (frames)  4096     2048     1024     512   256      128
        us per frame    4.8-6.5  4.7-6.0  3.6-5.0  3.9  3.5-4.1  3.7-3.9
    """
    t = num_frames(len(samples))
    out = np.empty((t, N_MELS), dtype=np.float32)
    n = min(t, FBANK_BLOCK)
    bins = N_FFT // 2 + 1
    frames = np.zeros((n, N_FFT))
    spec = np.empty((n, bins), dtype=np.complex128)
    mel = np.empty((n, N_MELS))
    for s in range(0, t, FBANK_BLOCK):
        m = min(FBANK_BLOCK, t - s)
        x = np.asarray(samples[s * HOP_SAMPLES:
                               (s + m - 1) * HOP_SAMPLES + WINDOW_SAMPLES])
        np.multiply(sliding_window_view(x, WINDOW_SAMPLES)[::HOP_SAMPLES], _WINDOW,
                    out=frames[:m, :WINDOW_SAMPLES])
        np.fft.rfft(frames[:m], axis=1, out=spec[:m])
        parts = spec[:m].view(np.float64)           # re, im interleaved
        np.square(parts, out=parts)
        power = frames[:m, :bins]
        np.add(parts[:, 0::2], parts[:, 1::2], out=power)
        energies = mel[:m]
        np.matmul(power, _MEL_T, out=energies)
        np.log(np.maximum(energies, LOG_FLOOR, out=energies), out=energies)
        out[s:s + m] = energies
    return FeatureMatrix(frames=out)


def save_features(path, frames: np.ndarray) -> None:
    """Write a T x dim float32 matrix in the feature container format."""
    frames = np.ascontiguousarray(frames, dtype="<f4")
    if frames.ndim != 2:
        raise FeatureFormatError(f"expected a 2-D matrix, got shape {frames.shape}")
    t, dim = frames.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, t, dim))
        fh.write(frames.tobytes())


def load_features(path) -> np.ndarray:
    """Read a feature container; byte-exact round trip with save_features.

    The payload size is checked against the file, and a zero frame width
    refused, before anything is allocated.
    """
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:4] != FEATURE_MAGIC:
            raise FeatureFormatError(f"{path}: bad magic, not a feature container")
        version, t, dim = struct.unpack_from("<III", head, 4)
        if version != FEATURE_VERSION:
            raise FeatureFormatError(f"{path}: unsupported version {version}")
        if not dim:
            raise FeatureFormatError(f"{path}: header declares {t} frames of width 0")
        payload = os.fstat(fh.fileno()).st_size - 16
        if payload == 4 * t * dim:
            frames = np.empty((t, dim), dtype="<f4")
            payload = fh.readinto(frames)   # short only if the file shrank meanwhile
        if payload != 4 * t * dim:
            raise FeatureFormatError(
                f"{path}: payload length {payload} bytes does not match "
                f"header {t} x {dim} float32"
            )
    bad = np.flatnonzero(~np.isfinite(frames).all(axis=1))
    if bad.size:
        raise FeatureFormatError(f"{path}: {bad.size} of {t} frames hold non-finite "
                                 f"values, the first is frame {bad[0]}")
    return frames
