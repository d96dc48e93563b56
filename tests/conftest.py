"""Shared fixtures: functional (zero-latency) ArkFS clusters and helpers."""

import pytest

from repro.bench import BENCH_OBS
from repro.core import build_arkfs
from repro.posix import Credentials, ROOT_CREDS, SyncFS
from repro.sim import Simulator


USER = Credentials(uid=1000, gid=1000)
OTHER = Credentials(uid=2000, gid=2000)


@pytest.fixture(autouse=True)
def _release_bench_clusters():
    """Every harness ``build`` parks its ``Observability`` (and through it
    the simulation and the whole cluster) in the process-wide ``BENCH_OBS``
    until someone resets it; no test may leave that to the next one."""
    BENCH_OBS.reset()
    yield
    BENCH_OBS.reset()


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def cluster(sim):
    """A 2-client functional ArkFS cluster on the in-memory store."""
    return build_arkfs(sim, n_clients=2, functional=True)


@pytest.fixture
def fs(cluster):
    """SyncFS facade for client 0, as root."""
    return SyncFS(cluster.client(0), ROOT_CREDS)


@pytest.fixture
def fs2(cluster):
    """SyncFS facade for client 1, as root."""
    return SyncFS(cluster.client(1), ROOT_CREDS)


@pytest.fixture
def user_fs(cluster):
    """Client 0 as an unprivileged user."""
    return SyncFS(cluster.client(0), USER)
