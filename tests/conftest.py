import os

import numpy as np
import pytest

import helpers


@pytest.fixture
def rng():
    return np.random.default_rng(2026)


@pytest.fixture
def pin_cpus(monkeypatch):
    """pin_cpus(count) makes the process see count usable CPUs, so a run of
    n chunks forks min(count, n, MAX_WORKERS) - 1 chunk workers."""

    def pin(count: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return pin


@pytest.fixture
def seg():
    """d=1 worked-example polytope: [-1, 1], r=1, R=2."""
    return helpers.segment()


@pytest.fixture
def sq():
    """d=2 worked-example polytope: [-1, 1]^2, r=1, R=2."""
    return helpers.square()


@pytest.fixture
def seg_file(tmp_path):
    path = tmp_path / "seg.txt"
    path.write_text(
        "# [-1, 1] with loose outer radius\n"
        "1 2 1.0 2.0\n"
        "1 1\n"
        "-1 1\n"
        "0\n"
    )
    return path


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(
        "2 4 1.0 2.0\n"
        "1 0 1\n"
        "-1 0 1\n"
        "0 1 1\n"
        "0 -1 1\n"
        "0 0\n"
    )
    return path


@pytest.fixture
def erm_file(tmp_path):
    """The d=1 worked ERM instance: 5 unit losses on [-1, 1], eps=0.5."""
    path = tmp_path / "erm.txt"
    path.write_text(
        "1 2 1.0 1.0\n"
        "1 1\n"
        "-1 1\n"
        "0\n"
        "5\n"
        "1\n1\n1\n1\n1\n"
        "1 0.5\n"
    )
    return path
