"""The row-block pool (``core._map_blocks``): encode, prefix norms and the
per-level error give the serial loop's bits on any worker count, and the pool
passes errors, numpy's error state, forks and tracing through unchanged."""

import importlib
import os
import signal
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from recurq import RqModel, encode_batch, encode_database
from recurq import core
from recurq.cli import main
from recurq.core import _hard_errors, _row_blocks
from recurq.index import _prefix_reconstructions, database_from_codes

BENCH = Path(__file__).resolve().parent.parent / "bench"


def force_workers(mp, workers: int) -> None:
    mp.setattr(core, "_cpu_count", lambda: workers)


def block_ordered_errors(x, codes, model):
    """The per-level error as one serial loop: each block's sum added in block order."""
    err = np.zeros(codes.shape[1])
    for rows in _row_blocks(x.shape[0], model.dim):
        for m in range(codes.shape[1]):
            recon = _prefix_reconstructions(codes[rows], model, m + 1)
            err[m] += np.linalg.norm(recon - x[rows], axis=1).sum()
    return err / x.shape[0]


# 6500 rows: 26 encode blocks of 256 rows and 7 norm and error blocks of 1024, the
# last of each short; summed in another order, 7 partial errors change their last bits
@pytest.mark.parametrize("n", [0, 1, 6500])
@pytest.mark.parametrize("gram", [True, False])
def test_pool_gives_serial_bits(n, gram):
    rng = np.random.default_rng(70)
    model = RqModel(rng.normal(size=(256, 64)), 0.6, 20.0, 4)
    x = rng.normal(size=(n, 64))

    results = []
    for workers in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            force_workers(mp, workers)
            # gram=False forces product-built Gram rows
            mp.setattr(core, "_GRAM_MAX_K", model.k if gram else model.k - 1)
            codes = encode_batch(x, model)
            db = database_from_codes(codes, model)
            with np.errstate(invalid="ignore"):  # the mean over N=0 rows is 0/0
                results.append((codes, db.prefix_sq_norms, _hard_errors(x, codes, model)))
    (codes, norms, errors), (pooled_codes, pooled_norms, pooled_errors) = results
    assert codes.shape == (n, 4) and pooled_codes.flags.f_contiguous and pooled_norms.flags.f_contiguous
    assert np.array_equal(codes, pooled_codes)
    assert np.array_equal(norms, pooled_norms)
    assert np.array_equal(errors, pooled_errors, equal_nan=True)
    if n:
        assert np.array_equal(errors, block_ordered_errors(x, codes, model))


def test_block_error_reaches_caller_unchanged(monkeypatch):
    force_workers(monkeypatch, 2)
    raised = KeyError("block 3")

    def fn(rows):
        if rows.start == 3:
            raise raised
        return rows.start

    with pytest.raises(KeyError) as info:
        core._map_blocks(fn, [slice(i, i + 1) for i in range(8)])
    assert info.value is raised
    assert core._map_blocks(lambda rows: rows.start, [slice(i, i + 1) for i in range(8)]) == list(range(8))


def test_caller_error_state_holds_in_blocks(monkeypatch):
    # recon - x overflows; np.errstate is a context variable, which a new thread does not inherit
    force_workers(monkeypatch, 2)
    rng = np.random.default_rng(71)
    model = RqModel(rng.normal(size=(16, 8)), 0.5, 5.0, 2)
    codes = rng.integers(16, size=(20_000, 2))
    x = np.full((20_000, 8), 1.7e308)
    x[:, ::2] *= -1.0
    with np.errstate(over="ignore"):
        errors = _hard_errors(x, codes, model)
    assert np.all(np.isinf(errors))


def test_child_forked_after_pool_exists_encodes(monkeypatch):
    force_workers(monkeypatch, 2)
    rng = np.random.default_rng(72)
    model = RqModel(rng.normal(size=(256, 16)), 0.6, 20.0, 4)
    x = rng.normal(size=(5000, 16))
    expected = encode_database(x, model)
    assert os.getpid() in core._POOLS
    with warnings.catch_warnings():
        # Python 3.12+ warns that fork() in a process with threads may deadlock: the case under test
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        status = 1
        try:
            db = encode_database(x, model)
            same = np.array_equal(db.codes, expected.codes) and np.array_equal(db.prefix_sq_norms, expected.prefix_sq_norms)
            status = 0 if same else 3
        finally:
            os._exit(status)
    deadline = time.monotonic() + 30
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish encoding within 30 s")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0


def test_traced_functions_stay_on_the_calling_thread(monkeypatch, tmp_path):
    # The benchmark's span tracer keeps one stack; a wrapped function called
    # from a pooled block would push onto it from another thread.
    monkeypatch.syspath_prepend(str(BENCH))
    wraps = importlib.import_module("layers").WRAPS
    force_workers(monkeypatch, 2)
    traced, blocks = [], []

    def record(fn, into):
        def wrapper(*args, **kwargs):
            into.append(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for module, attr, *_ in wraps:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, record(getattr(mod, attr), traced))
    for module in ("recurq.core", "recurq.index"):  # _reconstructions runs inside the blocks
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, "_reconstructions", record(mod._reconstructions, blocks))

    vec, model_path, codes_path = tmp_path / "x.fvecs", tmp_path / "m.drqm", tmp_path / "c.drqc"
    # 3000 rows: 12 encode blocks of 256 rows at K=256, 3 norm and error blocks of 1024 at D=64
    assert main(["synth", "--n", "3000", "--d", "64", "--clusters", "4", "--seed", "3", "--out", str(vec)]) == 0
    assert main(["train", "--input", str(vec), "--k", "256", "--m", "2", "--epochs-stage2", "1",
                 "--epochs-stage3", "1", "--out", str(model_path)]) == 0
    assert main(["encode", "--model", str(model_path), "--input", str(vec), "--out", str(codes_path)]) == 0
    assert main(["search", "--model", str(model_path), "--codes", str(codes_path), "--queries", str(vec),
                 "--topk", "3", "--out", str(tmp_path / "s.txt")]) == 0
    assert traced and set(traced) == {threading.get_ident()}
    assert set(blocks) - {threading.get_ident()}, "no block ran on a pool thread"


def test_encode_database_peak_memory_grows_only_by_its_outputs(monkeypatch):
    force_workers(monkeypatch, 2)
    rng = np.random.default_rng(73)
    model = RqModel(rng.normal(size=(256, 16)), 0.6, 20.0, 8)
    encode_database(rng.normal(size=(2000, 16)), model)  # the pool's threads exist before the first trace
    peaks, outputs = {}, {}
    for n in (20_000, 80_000):
        x = rng.normal(size=(n, 16))
        tracemalloc.start()
        db = encode_database(x, model)
        peaks[n] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        outputs[n] = db.codes.nbytes + db.prefix_sq_norms.nbytes + db.ids.nbytes
    # A worker holds at most three (rows, K) float64 block temporaries. Which of the
    # two workers' temporaries meet at the peak varies from run to run, by up to one
    # worker's share.
    temporaries = 3 * core._BLOCK_CELLS * 8
    assert peaks[80_000] - peaks[20_000] <= outputs[80_000] - outputs[20_000] + temporaries
