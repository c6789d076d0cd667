"""Chunk workers: how many run, the rows they make, and their clean-up."""

import multiprocessing
import os
import threading

import numpy as np
import pytest

from polysamp import pipeline
from polysamp.density import linear
from polysamp.pipeline import plan_sampling


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    """Chunks of 64 rows, so a few hundred rows make several chunks."""
    monkeypatch.setattr(pipeline, "CHUNK", 64)


def test_worker_count_rule(pin_cpus, monkeypatch):
    # W = min(usable CPUs, chunks, MAX_WORKERS); 1 forks nothing
    pin_cpus(8)
    assert pipeline._worker_count(100) == pipeline.MAX_WORKERS == 2
    assert pipeline._worker_count(1) == 1
    # a fork copies only the calling thread: none while another one runs
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert pipeline._worker_count(100) == 1
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert pipeline._worker_count(100) == 2
    pin_cpus(1)
    assert pipeline._worker_count(100) == 1
    pin_cpus(8)
    monkeypatch.delattr(os, "fork")
    assert pipeline._worker_count(100) == 1


def _plan(sq, oracle: str):
    """Six chunks of 64 rows, the last one partial."""
    f = linear([1.0, 0.0])
    n = 5 * 64 + 3
    return plan_sampling(sq, f, 0.5, n, seed=5, c_mix=0.01, eta=0.8, oracle=oracle)


@pytest.mark.parametrize("oracle", ("exact", "dikin"))
def test_collect_same_from_one_and_two_processes(oracle, sq, pin_cpus, monkeypatch):
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    runs = []
    for cpus in (1, 2):
        pin_cpus(cpus)
        runs.append(_plan(sq, oracle).collect())
    assert len(forks) == 1  # the second run forked its worker
    one, two = runs
    for column in ("points", "tau", "fallback", "oracle_calls"):
        np.testing.assert_array_equal(getattr(one, column), getattr(two, column), err_msg=column)
    counters = [(r.plan.chain_steps, r.plan.accepts) for r in runs]
    assert counters[0] == counters[1]
    assert (counters[0][0] > 0) == (oracle == "dikin")


def test_chunks_closed_early_leaves_no_worker(sq, pin_cpus):
    pin_cpus(2)
    chunks = _plan(sq, "exact").chunks()
    next(chunks)
    assert len(multiprocessing.active_children()) == 1
    chunks.close()
    assert multiprocessing.active_children() == []
