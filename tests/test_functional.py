import numpy as np
import pytest

from chunkasr.functional import LN_EPS, glu, layer_norm, sigmoid, swish

# References run in extended precision where the platform has it; the
# reference's own rounding (its eps) is added to every bound.
REF = np.longdouble
DTYPES = [np.float32, np.float64]


def ref_sigmoid(x):
    return 1 / (1 + np.exp(-x.astype(REF)))


def bound(dtype):
    return np.finfo(dtype).eps + np.finfo(REF).eps


@pytest.mark.parametrize("dtype", DTYPES)
def test_sigmoid_absolute_error_within_eps(dtype):
    x = np.linspace(-60, 60, 200_001).astype(dtype)
    err = np.abs(sigmoid(x) - ref_sigmoid(x))
    assert err.max() <= bound(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_sigmoid_edges(rng, dtype):
    big = np.finfo(dtype).max
    x = np.array([0.0, -0.0, np.inf, -np.inf, big, -big, 1e-30, -1e-30,
                  88.0, -88.0, 750.0, -750.0], dtype=dtype)
    with np.errstate(over="raise", invalid="raise"):
        got = sigmoid(x)
    assert got.dtype == dtype
    assert got[0] == got[1] == 0.5
    assert got[2] == got[4] == 1 and got[3] == got[5] == 0
    wide = np.concatenate([x, (rng.normal(size=10_000) * 1e3).astype(dtype)])
    out = sigmoid(wide)
    assert ((out >= 0) & (out <= 1)).all()
    nan = sigmoid(np.array([np.nan, 1.0], dtype=dtype))
    assert np.isnan(nan[0]) and not np.isnan(nan[1])


def test_sigmoid_keeps_shape_of_stacked_inputs(rng):
    x = rng.normal(size=(3, 4, 5)).astype(np.float32)
    got = sigmoid(x)
    assert got.dtype == np.float32 and got.shape == x.shape
    assert np.array_equal(got, sigmoid(x.ravel()).reshape(x.shape))


@pytest.mark.parametrize("dtype", DTYPES)
def test_swish_error_within_eps_times_magnitude(dtype):
    x = np.linspace(-60, 60, 200_001).astype(dtype)
    want = x.astype(REF) * ref_sigmoid(x)
    err = np.abs(swish(x) - want) / np.maximum(1, np.abs(x.astype(REF)))
    assert err.max() <= bound(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_glu_error_within_eps_times_magnitude(rng, dtype):
    x = (rng.normal(size=(2000, 2, 64)) * 20).astype(dtype).reshape(2000, 128)
    a = x[:, :64].astype(REF)
    want = a * ref_sigmoid(x[:, 64:])
    got = glu(x)
    assert got.dtype == dtype and got.shape == (2000, 64)
    assert (np.abs(got - want) / np.maximum(1, np.abs(a))).max() <= bound(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_layer_norm_matches_textbook_form(rng, dtype):
    x = (rng.normal(size=(4, 500, 256)) * 5 + 3).astype(dtype)
    scale = rng.normal(size=256).astype(dtype)
    shift = rng.normal(size=256).astype(dtype)
    xr = x.astype(REF)
    mean = xr.mean(axis=-1, keepdims=True)
    var = ((xr - mean) ** 2).mean(axis=-1, keepdims=True)
    want = (xr - mean) / np.sqrt(var + LN_EPS) * scale.astype(REF) + shift.astype(REF)
    got = layer_norm(x, scale, shift)
    assert got.dtype == dtype and got.shape == x.shape
    assert (np.abs(got - want) / np.maximum(1, np.abs(want))).max() <= 16 * bound(dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("width", [1, 7, 64, 256])
def test_layer_norm_bitwise_equals_the_mean_form(rng, dtype, width):
    # layer_norm takes the mean as np.add.reduce and an in-place divide, the
    # arithmetic of x.mean; written out with x.mean, every bit must agree,
    # also when the result goes into x itself
    def reference(x, scale, shift):
        xc = x - x.mean(axis=-1, keepdims=True)
        var = np.einsum("...i,...i->...", xc, xc)[..., None]
        var /= x.shape[-1]
        var += LN_EPS
        xc /= np.sqrt(var)
        xc *= scale
        xc += shift
        return xc

    x = (rng.normal(size=(3, 50, width)) * 5 + 3).astype(dtype)
    x[0, 0] = 7.0          # a constant row: zero variance
    scale = rng.normal(size=width).astype(dtype)
    shift = rng.normal(size=width).astype(dtype)
    want = reference(x, scale, shift)
    got = layer_norm(x, scale, shift)
    assert got.dtype == want.dtype == dtype
    assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
    aliased = x.copy()
    assert layer_norm(aliased, scale, shift, out=aliased) is aliased
    assert np.array_equal(aliased.view(np.uint8), want.view(np.uint8))


@pytest.mark.parametrize("name", ["sigmoid", "swish", "glu", "layer_norm"])
def test_primitives_leave_their_input_and_return_a_new_array(rng, name):
    x = rng.normal(size=(7, 16)).astype(np.float32)
    before = x.copy()
    if name == "layer_norm":
        out = layer_norm(x, np.ones(16, np.float32), np.zeros(16, np.float32))
    else:
        out = {"sigmoid": sigmoid, "swish": swish, "glu": glu}[name](x)
    assert np.array_equal(x.view(np.uint8), before.view(np.uint8))
    assert not np.shares_memory(out, x)
