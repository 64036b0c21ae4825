"""Kernel calls past functional.SPLIT_FLOP run their rows in two halves.

The wide model (conftest) is two layers of the paper-scale model: a step
over a few hundred frames makes each of its feed-forward, projection,
attention and conv calls cross the gate. With two CPUs, half of every such
call runs on the worker thread of encode_full's Workspace; with one, no
worker is started and every call runs whole. The outputs must not tell the
two apart.
"""

import os
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from chunkasr import chunking, functional
from chunkasr.encoder import encode_full
from chunkasr.functional import Workspace, cast_params, ff_forward
from chunkasr.oracle import loop_oct_encode
from conftest import WIDE_CTX, WIDE_MODEL, rel_err

two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="the split needs a second CPU")


@contextmanager
def one_cpu():
    """The calling thread pinned to one of its CPUs, its mask restored after."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


@pytest.fixture
def threads(monkeypatch):
    """Idents of the threads that call functional.sigmoid, as ff_forward does."""
    seen = set()
    sigmoid = functional.sigmoid

    def recording(*args, **kwargs):
        seen.add(threading.get_ident())
        return sigmoid(*args, **kwargs)

    monkeypatch.setattr(functional, "sigmoid", recording)
    return seen


@pytest.fixture(scope="module")
def feats():
    # 300, 100 and 38 post frames: the first step holds all three audios
    rng = np.random.default_rng(31)
    return {f"a{i}": rng.normal(size=(t, 80)).astype(np.float32)
            for i, t in enumerate((2400, 800, 300))}


@pytest.fixture(scope="module")
def reference(feats, wide_weights):
    return loop_oct_encode(feats, wide_weights, WIDE_CTX, WIDE_MODEL)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@two_cpus
@pytest.mark.parametrize("budget", [1, 4])
@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-4), (np.float64, 1e-8)])
def test_split_encode_equals_one_cpu_encode_and_the_oracle(feats, wide_weights, reference,
                                                           threads, budget, dtype, tol):
    w = cast_params(wide_weights, dtype)
    split = encode_full(feats, w, WIDE_CTX, WIDE_MODEL, budget=budget)
    assert len(threads) == 2
    threads.clear()
    with one_cpu():
        whole = encode_full(feats, w, WIDE_CTX, WIDE_MODEL, budget=budget)
    assert len(threads) == 1
    for aid in feats:
        assert same_bytes(split[aid], whole[aid]), aid
        assert rel_err(split[aid], reference[aid]) <= tol, aid


@two_cpus
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_poisoned_masked_row_slots_change_no_split_output_bit(feats, wide_weights, threads,
                                                              dtype, monkeypatch):
    # the shorter audios' rows reach past their own frames, into masked
    # slots that hold the other audios' keys and values until poisoned
    w = cast_params(wide_weights, dtype)
    clean = encode_full(feats, w, WIDE_CTX, WIDE_MODEL, budget=4)
    gather = chunking.oct_segment
    masked = []
    for poison in (np.nan, np.inf, -np.inf):
        def poisoned(*args, **kwargs):
            batch = gather(*args, **kwargs)
            batch.rows = np.where(batch.mask[..., None], batch.rows,
                                  poison).astype(batch.rows.dtype)
            masked.append(int(np.count_nonzero(~batch.mask)))
            return batch

        monkeypatch.setattr(chunking, "oct_segment", poisoned)
        dirty = encode_full(feats, w, WIDE_CTX, WIDE_MODEL, budget=4)
        for aid in feats:
            assert same_bytes(dirty[aid], clean[aid]), (aid, poison)
    assert sum(masked) > 0 and len(threads) == 2


@two_cpus
def test_worker_lives_for_one_encode(feats, wide_weights, threads):
    before = threading.active_count()
    during = []
    encode_full(feats, wide_weights, WIDE_CTX, WIDE_MODEL,
                on_emit=lambda *_: during.append(threading.active_count()))
    assert len(threads) == 2 and set(during) == {before + 1}
    assert threading.active_count() == before

    def failing(*_):
        raise RuntimeError("emit failed")

    with pytest.raises(RuntimeError, match="emit failed"):
        encode_full(feats, wide_weights, WIDE_CTX, WIDE_MODEL, on_emit=failing)
    assert threading.active_count() == before


@two_cpus
def test_calls_below_the_gate_start_no_worker(feats, small_model, small_ctx, small_weights,
                                               threads):
    before = threading.active_count()
    during = []
    encode_full(feats, small_weights, small_ctx, small_model,
                on_emit=lambda *_: during.append(threading.active_count()))
    assert len(threads) == 1 and set(during) == {before}


def test_one_cpu_starts_no_worker(feats, wide_weights, threads):
    before = threading.active_count()
    with one_cpu():
        with Workspace() as ws:
            ff = wide_weights.layers[0].ff1
            ff_forward(np.ones((512, WIDE_MODEL.d_model), np.float32),
                       ff.w1, ff.b1, ff.w2, ff.b2, ws)
            assert threading.active_count() == before
    assert len(threads) == 1


@two_cpus
def test_worker_half_exception_reaches_the_caller_as_itself(wide_weights, monkeypatch):
    error = RuntimeError("worker half")
    caller = threading.get_ident()
    sigmoid = functional.sigmoid

    def failing_off_the_caller(*args, **kwargs):
        if threading.get_ident() != caller:
            raise error
        return sigmoid(*args, **kwargs)

    monkeypatch.setattr(functional, "sigmoid", failing_off_the_caller)
    ff = wide_weights.layers[0].ff1
    x = np.ones((512, WIDE_MODEL.d_model), np.float32)
    with Workspace() as ws:
        with pytest.raises(RuntimeError) as raised:
            ff_forward(x, ff.w1, ff.b1, ff.w2, ff.b2, ws)
    assert raised.value is error


@two_cpus
def test_caller_half_exception_waits_for_the_worker_half():
    finished = []

    def run(rows):
        if rows.start == 0:   # the caller's half
            raise ValueError("caller half")
        time.sleep(0.05)
        finished.append(rows)

    with Workspace() as ws:
        with pytest.raises(ValueError, match="caller half"):
            ws.split(functional.SPLIT_FLOP, run, 4)
        assert finished == [slice(2, 4)]
