"""Failure injection beyond the recovery basics: crashes during data I/O,
RPC to dead leaders, repeated crashes, crash during 2PC coordination."""

import pytest

from repro.core import build_arkfs
from repro.posix import NotFound, OpenFlags, ROOT_CREDS, SyncFS
from repro.sim import Simulator


@pytest.fixture
def trio():
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=3, functional=True)
    return sim, cluster


def fs_of(cluster, i):
    return SyncFS(cluster.client(i), ROOT_CREDS)


class TestCrashDuringDataIO:
    def test_dirty_cache_lost_on_crash_but_fsynced_data_safe(self, trio):
        sim, cluster = trio
        fs0 = fs_of(cluster, 0)
        fs0.mkdir("/w")
        h = fs0.create("/w/partial")
        h.write(b"A" * 100)
        h.fsync()                 # durable point
        h.write(b"B" * 100)       # dirty, never flushed
        cluster.client(0).crash()
        fs1 = fs_of(cluster, 1)
        data = fs1.read_file("/w/partial")
        assert data[:100] == b"A" * 100
        assert b"B" not in data

    def test_reader_of_crashed_writers_file_gets_consistent_bytes(self, trio):
        sim, cluster = trio
        fs0, fs1 = fs_of(cluster, 0), fs_of(cluster, 1)
        fs0.mkdir("/shared")
        fs0.write_file("/shared/f", b"stable content", do_fsync=True)
        # client1 opens and caches.
        assert fs1.read_file("/shared/f") == b"stable content"
        cluster.client(0).crash()
        # After fencing, client1 re-resolves and still reads good bytes.
        assert fs1.read_file("/shared/f") == b"stable content"

    def test_forwarded_op_to_dead_leader_retries_to_new_leader(self, trio):
        sim, cluster = trio
        fs0, fs1 = fs_of(cluster, 0), fs_of(cluster, 1)
        fs0.mkdir("/led")
        fs0.write_file("/led/seed", b"", do_fsync=True)  # client0 leads
        fs1.readdir("/led")  # client1 learns the remote pointer
        cluster.client(0).crash()
        # client1's next create must survive the dead pointer: NodeDown ->
        # drop hint -> wait out fencing -> become leader -> recover -> apply.
        fs1.write_file("/led/after-crash", b"ok")
        assert sorted(fs1.readdir("/led")) == ["after-crash", "seed"]


class TestRepeatedFailures:
    def test_double_crash_successive_leaders(self, trio):
        sim, cluster = trio
        fs0 = fs_of(cluster, 0)
        fs0.mkdir("/d")
        fs0.write_file("/d/v1", b"1", do_fsync=True)
        cluster.client(0).crash()
        fs1 = fs_of(cluster, 1)
        fs1.write_file("/d/v2", b"2", do_fsync=True)  # fenced + recovered
        cluster.client(1).crash()
        fs2 = fs_of(cluster, 2)
        assert sorted(fs2.readdir("/d")) == ["v1", "v2"]
        assert fs2.read_file("/d/v1") == b"1"
        assert fs2.read_file("/d/v2") == b"2"

    def test_crash_then_restart_then_crash_again(self, trio):
        sim, cluster = trio
        fs0 = fs_of(cluster, 0)
        fs0.mkdir("/d")
        fs0.write_file("/d/a", b"a", do_fsync=True)
        cluster.client(0).crash()
        sim.run(until=sim.now + 2 * cluster.params.lease_period + 1)
        cluster.client(0).restart()
        fs0b = fs_of(cluster, 0)
        fs0b.write_file("/d/b", b"b", do_fsync=True)
        cluster.client(0).crash()
        fs1 = fs_of(cluster, 1)
        assert sorted(fs1.readdir("/d")) == ["a", "b"]

    def test_manager_and_client_crash_together(self, trio):
        sim, cluster = trio
        fs0 = fs_of(cluster, 0)
        fs0.mkdir("/d")
        fs0.write_file("/d/f", b"both-crash", do_fsync=True)
        cluster.client(0).crash()
        cluster.lease_manager.crash()
        cluster.lease_manager.restart()
        fs1 = fs_of(cluster, 1)
        assert fs1.read_file("/d/f") == b"both-crash"


class TestCoordinatorCrashMidRename:
    def test_crash_between_prepares_and_decision(self, trio):
        """The coordinator prepares both sides then dies before writing the
        decision record: recovery must abort — source keeps the file."""
        sim, cluster = trio
        fs0, fs1 = fs_of(cluster, 0), fs_of(cluster, 1)
        fs0.mkdir("/src")
        fs0.write_file("/src/f", b"stay", do_fsync=True)
        dst_ino_holder = fs_of(cluster, 1)
        fs1.mkdir("/dst")
        fs1.write_file("/dst/seed", b"", do_fsync=True)  # client1 leads /dst
        sp = fs0.stat("/src").st_ino
        dp = fs1.stat("/dst").st_ino
        c2 = cluster.client(2)  # coordinator: a third party
        txid = "c2-rn-000001"
        dkey = cluster.prt.key_decision(txid)
        payload = sim.run_process(c2._authority_op(
            sp, "rename_prepare_src", None, name="f", txid=txid,
            decision_key=dkey))
        sim.run_process(c2._authority_op(
            dp, "rename_prepare_dst", None, name="f", payload=payload,
            txid=txid, decision_key=dkey))
        # Coordinator dies; participants die too (their pending state is
        # only resolvable through the journals + decision record).
        c2.crash()
        cluster.client(0).crash()
        cluster.client(1).crash()
        sim.run(until=sim.now + 2 * cluster.params.lease_period + 1)
        cluster.client(2).restart()
        fs2 = fs_of(cluster, 2)
        assert fs2.readdir("/src") == ["f"]
        assert "f" not in fs2.readdir("/dst")
        assert fs2.read_file("/src/f") == b"stay"
        del dst_ino_holder


class DeadClientWrites(Exception):
    """A crashed client issued store requests: ROADMAP 1(xxiii)."""


@pytest.mark.xfail(raises=DeadClientWrites, strict=True, reason=(
    "crash() stops the commit threads and the keeper, and the store never "
    "checks that a request's node is alive, so a dead leader's in-flight "
    "mkdir still writes the child, checkpoints and deletes its journal "
    "(ROADMAP 1(xxiii))"))
def test_a_crashed_client_issues_no_store_requests():
    """Timed store, no fault plan: client 0 crashes 1.2 ms into a mkdir,
    while its commit PUT is in flight. Nothing it starts after that may
    reach the store."""
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=2)
    client = cluster.client(0)
    sim.run_process(client.mkdir(ROOT_CREDS, "/p"))
    sim.run(until=sim.now + 3.0)
    issued, store = [], cluster.store

    def spy(verb, src_at):
        inner = getattr(store, verb)

        def call(*args, **kw):
            src = kw.get("src", args[src_at] if len(args) > src_at else None)
            if src is not None and not src.alive:
                issued.append(f"{verb} {args[0]}")
            return inner(*args, **kw)
        setattr(store, verb, call)

    spy("put", 2)
    spy("delete", 1)
    sim.process(client.mkdir(ROOT_CREDS, "/p/d"))
    sim.run(until=sim.now + 1.2e-3)
    client.crash()
    sim.run(until=sim.now + 1.0)
    if issued:
        raise DeadClientWrites(issued)
