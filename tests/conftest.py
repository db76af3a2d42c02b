"""Shared fixtures for the test suite.

Expensive artifacts (dataset material, the end-to-end experiment) are
session-scoped so the integration-heavy tests do not regenerate them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core import ConstructionConfig
from repro.datasets import make_awarepen_material
from repro.experiment import run_awarepen_experiment
from repro.types import ContextClass


@pytest.fixture(scope="session")
def material():
    """The paper's full data material (deterministic, seed 7)."""
    return make_awarepen_material(seed=7)


@pytest.fixture(scope="session")
def experiment(material):
    """End-to-end experiment result shared across tests."""
    return run_awarepen_experiment(material=material,
                                   config=ConstructionConfig())


@pytest.fixture
def repro_process():
    """Start ``python -m repro ARGS...`` as a child process.

    The child's stdout and stderr arrive merged on ``proc.stdout``
    (text, line-buffered).  A watchdog kills a child that outlives
    ``timeout_s``, so a blocked read of its output ends at EOF instead
    of hanging the suite; a child still running at teardown is killed.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    started = []

    def start(*args: str, timeout_s: float = 120.0
              ) -> "subprocess.Popen[str]":
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args], env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, bufsize=1)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        started.append((proc, watchdog))
        return proc

    yield start
    for proc, watchdog in started:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def read_until(stream, prefix: str) -> str:
    """Return the first line of *stream* starting with *prefix*."""
    for line in stream:
        if line.startswith(prefix):
            return line
    raise AssertionError(f"stream ended before a {prefix!r} line")


@pytest.fixture
def rng():
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def three_classes():
    """A generic three-class context set."""
    return (ContextClass(0, "alpha"),
            ContextClass(1, "beta"),
            ContextClass(2, "gamma"))


@pytest.fixture
def blob_data(rng):
    """Three well-separated Gaussian blobs in 3-D with labels."""
    centers = np.array([[0.0, 0.0, 0.0],
                        [3.0, 3.0, 0.0],
                        [0.0, 3.0, 3.0]])
    xs, ys = [], []
    for label, center in enumerate(centers):
        xs.append(rng.normal(center, 0.3, size=(40, 3)))
        ys.append(np.full(40, label))
    return np.vstack(xs), np.concatenate(ys)
