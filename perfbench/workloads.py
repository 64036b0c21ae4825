"""The benchmark's workloads and the seeded generator of their inputs.

A workload is a closed batch: every audio goes to ``encode_full`` at once.
Audio durations are part of the workload: audio i lasts the middle of
stratum i of the workload's duration distribution, and a fixed permutation
sets the audio order. The seed draws the signals and the model weights. So
the total audio, the length mix, the position of long and short audios in
the scheduler's audio order and the sizes of every allocation are the same
for every seed. Durations drawn by the seed moved the peak RSS of mixed-long
by up to 9% from seed to seed, far more than the durations themselves moved.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000
ORDER_SEED = 20250220   # fixes the audio order of a workload for every seed
WARMUP_SECONDS = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict            # ModelConfig fields that differ from the defaults
    context: tuple         # (l_att, c, r) in post-subsample frames
    budget: int            # chunk rows per decode step
    n_audios: int
    min_s: float
    max_s: float
    log_spaced: bool       # durations log-uniform (else uniform) in [min_s, max_s]
    why: str
    checked: int = 4       # audios compared with the loop oracle, extremes included

    def durations(self) -> list[float]:
        """The middle of each stratum, in workload order."""
        u = (np.arange(self.n_audios) + 0.5) / self.n_audios
        if self.log_spaced:
            secs = self.min_s * (self.max_s / self.min_s) ** u
        else:
            secs = self.min_s + (self.max_s - self.min_s) * u
        order = np.random.default_rng(ORDER_SEED).permutation(self.n_audios)
        return [float(s) for s in secs[order]]


WORKLOADS = {w.name: w for w in [
    Workload(
        name="paper-scale",
        model=dict(n_layers=12, d_model=256, n_heads=4, d_ff=1024,
                   kernel_size=31, l_max=320),
        context=(128, 64, 128), budget=1, n_audios=1, min_s=30.0, max_s=30.0,
        log_spaced=False, checked=1,
        why=("Paper model at budget 1 on one 30 s audio: the 2304-frame lookahead "
             "exceeds the audio, so every step recomputes the rest and attention "
             "dominates."),
    ),
    Workload(
        name="mixed-long",
        model={}, context=(16, 8, 8), budget=16, n_audios=32,
        min_s=5.0, max_s=120.0, log_spaced=True,
        why=("Default model, 32 audios log-uniform in 5-120 s at budget 16: uneven "
             "lengths under audio-order fill put scheduler fairness into the "
             "emit latencies."),
    ),
    Workload(
        name="many-short",
        model={}, context=(16, 8, 8), budget=16, n_audios=400,
        min_s=1.0, max_s=4.0, log_spaced=False, checked=6,
        why=("Default model, 400 audios uniform in 1-4 s at budget 16: most audios "
             "end inside one step, so lookahead is nearly bypassed and per-audio "
             "Python work and the frontend dominate."),
    ),
]}


def _tone(rng, n: int) -> np.ndarray:
    """Speech-like int16 signal: gliding harmonics under a syllable envelope."""
    t = np.arange(n) / SAMPLE_RATE
    f0 = rng.uniform(90, 220) * (1 + 0.1 * np.sin(2 * np.pi * rng.uniform(0.2, 1.0) * t))
    phase = 2 * np.pi * np.cumsum(f0) / SAMPLE_RATE
    x = sum(np.sin(k * phase) / k for k in (1, 2, 3))
    envelope = 0.5 + 0.5 * np.sin(2 * np.pi * rng.uniform(2, 5) * t) ** 2
    x = 6000 * envelope * x + rng.normal(scale=300, size=n)
    return np.clip(x, -32768, 32767).astype("<i2")


@dataclass
class Manifest:
    """Everything the measuring process needs, written as JSON beside the inputs."""

    workload: str
    seed: int
    model: dict
    context: list
    budget: int
    checkpoint: str
    warmup: list                                 # [audio_id, path, samples]
    audios: list = field(default_factory=list)   # [audio_id, path, samples] each
    checked: list = field(default_factory=list)  # audio ids compared with the oracle

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=1), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Manifest":
        return cls(**json.loads(Path(path).read_text(encoding="utf-8")))


def checked_subset(samples: list[int], count: int, seed: int) -> list[int]:
    """Indices of the oracle-checked audios: shortest, longest, then seeded picks."""
    order = np.argsort(samples, kind="stable")
    picked = {int(order[0]), int(order[-1])}
    rest = [i for i in range(len(samples)) if i not in picked]
    extra = max(0, min(count, len(samples)) - len(picked))
    rng = np.random.default_rng(seed + 1)
    picked.update(int(i) for i in rng.choice(rest, size=extra, replace=False))
    return sorted(picked)


def generate(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Write the WAVs, a warm-up WAV and a CFKW checkpoint; return the manifest path."""
    from chunkasr.config import ModelConfig
    from chunkasr.encoder import init_model, save_checkpoint
    from chunkasr.frontend import write_wav

    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 1])
    audios = []
    for i, secs in enumerate(workload.durations()):
        n = int(round(secs * SAMPLE_RATE))
        path = out_dir / f"a{i:03d}.wav"
        write_wav(path, _tone(rng, n))
        audios.append([f"a{i:03d}", str(path), n])
    warmup = out_dir / "warmup.wav"
    n = int(WARMUP_SECONDS * SAMPLE_RATE)
    write_wav(warmup, _tone(rng, n))
    model = ModelConfig(**workload.model, seed=seed)
    weights, head, vocab = init_model(model, seed=seed)
    ckpt = out_dir / "model.cfkw"
    save_checkpoint(ckpt, weights, head, vocab)
    checked = checked_subset([a[2] for a in audios], workload.checked, seed)
    manifest = Manifest(workload=workload.name, seed=seed, model=workload.model,
                        context=list(workload.context), budget=workload.budget,
                        checkpoint=str(ckpt), warmup=["warmup", str(warmup), n],
                        audios=audios,
                        checked=[audios[i][0] for i in checked])
    path = out_dir / "manifest.json"
    manifest.save(path)
    return path


def total_seconds(manifest: Manifest) -> float:
    return sum(a[2] for a in manifest.audios) / SAMPLE_RATE
