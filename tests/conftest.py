import struct

import numpy as np
import pytest

from chunkasr import encoder
from chunkasr.config import ContextConfig, ModelConfig
from chunkasr.encoder import init_weights


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_model():
    return ModelConfig(n_layers=3, d_model=32, n_heads=2, d_ff=64,
                       kernel_size=15, vocab_size=8, l_max=64, seed=0)


@pytest.fixture
def small_ctx():
    return ContextConfig(l_att=8, c=4, r=4)


@pytest.fixture
def small_weights(small_model):
    return init_weights(small_model, seed=7)


# Two layers of the paper-scale model. A step over a few hundred frames
# makes every split kernel call cross functional.SPLIT_FLOP, so with two
# CPUs their rows run in two halves.
WIDE_MODEL = ModelConfig(n_layers=2, d_model=256, n_heads=4, d_ff=1024, kernel_size=31,
                         vocab_size=8, l_max=320)
WIDE_CTX = ContextConfig(l_att=128, c=64, r=128)


@pytest.fixture(scope="session")
def wide_weights():
    return init_weights(WIDE_MODEL, seed=9)


def rel_err(actual, expected):
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    scale = max(float(np.max(np.abs(expected))) if expected.size else 0.0, 1e-12)
    return float(np.max(np.abs(actual - expected))) / scale if actual.size else 0.0


def dropping_oldest_att_frame():
    """encode_step with an off-by-one bug: each layer's held attention inputs
    lose their oldest frame. They start with their left context, and after a
    step that context is never empty when l_att > 0, so the frame lost is
    context."""
    real = encoder.encode_step

    def broken(states, *args, **kwargs):
        out = real(states, *args, **kwargs)
        for st in states.values():
            st.held[:-1:2] = [held[1:] for held in st.held[:-1:2]]
        return out

    return broken


def write_cfkw(path, tensors):
    """A checkpoint container holding exactly ``tensors`` (name -> array)."""
    with open(path, "wb") as fh:
        fh.write(b"CFKW")
        fh.write(struct.pack("<II", 1, len(tensors)))
        for name, arr in tensors.items():
            arr = np.ascontiguousarray(arr, dtype="<f4")
            raw = name.encode()
            fh.write(struct.pack("<H", len(raw)) + raw)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())
