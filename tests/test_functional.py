import numpy as np
import pytest

from chunkasr.functional import sigmoid


def two_branch_sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_bitwise_equals_two_branch_form(rng, dtype):
    big = np.finfo(dtype).max
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-30, -1e-30,
                      20.0, -20.0, 88.0, -88.0, 104.0, -104.0, 750.0, -750.0,
                      big, -big], dtype=dtype)
    x = np.concatenate([edges, (rng.normal(size=500) * 30).astype(dtype)])
    got = sigmoid(x)
    want = two_branch_sigmoid(x)
    assert got.dtype == dtype and got.shape == x.shape
    assert np.array_equal(np.isnan(got), np.isnan(x))
    ok = ~np.isnan(x)
    assert np.array_equal(got[ok].view(np.uint8), want[ok].view(np.uint8))
    assert got[2] == 1 and got[3] == 0 and got[0] == got[1] == 0.5


def test_sigmoid_keeps_shape_of_stacked_inputs(rng):
    x = rng.normal(size=(3, 4, 5)).astype(np.float32)
    assert np.array_equal(sigmoid(x), two_branch_sigmoid(x.ravel()).reshape(x.shape))
