"""Fixtures for the serving suite.

The expensive part — training the quality package and classifier — is
done once per session (reusing the root conftest's ``experiment``);
each test builds cheap registries and services on top.
"""

from __future__ import annotations

import asyncio
import contextlib

import numpy as np
import pytest

from repro.core.persistence import QualityPackage
from repro.serving import (ModelRegistry, ServeRequest, ServingConfig,
                           serve_socket)


@pytest.fixture(autouse=True)
def _isolate_cwd(tmp_path, monkeypatch):
    """Run every serving test from a private tmp directory.

    Any incidental artifact write (saved packages, reports, metrics
    dumps) lands in ``tmp_path`` instead of leaking into the repo, and
    parallel test runs can't collide on shared relative paths.
    """
    monkeypatch.chdir(tmp_path)


class HeldQueue(asyncio.Queue):
    """An admission queue whose consumer waits for :attr:`release`."""

    def __init__(self, maxsize):
        super().__init__(maxsize)
        self.release = asyncio.Event()

    async def get(self):
        await self.release.wait()
        return await super().get()


@contextlib.asynccontextmanager
async def socket_server(registry, config: ServingConfig = None,
                        max_requests: int = None):
    """Serve JSONL over TCP on an OS-assigned free port (port 0).

    Yields the bound port; always binds port 0 so concurrent test
    sessions never race for a fixed port number.  On exit the server is
    stopped (or, with ``max_requests``, awaited to retire on its own).
    """
    announcements = []
    ready = asyncio.Event()
    stop = asyncio.Event()
    task = asyncio.get_running_loop().create_task(
        serve_socket(registry, "127.0.0.1", 0,
                     config=config if config is not None else
                     ServingConfig(),
                     ready=ready, stop=stop, max_requests=max_requests,
                     announce=announcements.append))
    await asyncio.wait_for(ready.wait(), timeout=5)
    port = int(announcements[0].split()[2].rsplit(":", 1)[1])
    try:
        yield port
    finally:
        if max_requests is not None:
            await asyncio.wait_for(task, timeout=10)
        else:
            stop.set()
            await asyncio.wait_for(task, timeout=10)


@pytest.fixture(scope="session")
def package(experiment):
    return QualityPackage.from_calibration(
        experiment.augmented.quality, experiment.calibration)


@pytest.fixture
def registry(package, experiment):
    """Fresh registry with the trained package active as v1."""
    reg = ModelRegistry()
    reg.publish_and_activate(package, classifier=experiment.classifier,
                             tag="test")
    return reg


@pytest.fixture(scope="session")
def cue_pool(experiment):
    return experiment.material.analysis.cues


def make_requests(cue_pool: np.ndarray, n: int, seed: int = 3,
                  with_class_index: bool = False):
    """Seeded request stream drawn from real cue data."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, cue_pool.shape[0], size=n)
    requests = []
    for k, row in enumerate(rows):
        class_index = int(rng.integers(0, 3)) if with_class_index else None
        requests.append(ServeRequest(request_id=k, cues=cue_pool[int(row)],
                                     class_index=class_index))
    return requests
