"""The lease-grant metatable load is one read round: the inode GET and the
dentry LIST go out together, then one dentry batch and one child-inode
batch, whatever the directory's size; the store traffic is the serial
load's, item for item."""

import pytest

from repro.core import DEFAULT_PARAMS, PRT, build_arkfs, load_metatable
from repro.core.types import Dentry, Inode
from repro.objectstore import ClusterObjectStore, NoSuchKey, RADOS_PROFILE
from repro.posix import FileType, OpenFlags, ROOT_CREDS
from repro.sim import NetParams, Network, Node, Simulator

GET = RADOS_PROFILE.get_latency


def _reacquire(n_files):
    """Create ``n_files`` in /d, let its lease lapse, re-acquire it; returns
    the acquire's sim time, the store's per-verb item counts during it and
    the loaded metatable."""
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=1)
    mount, client = cluster.mounts[0], cluster.client(0)

    def setup():
        yield from mount.mkdir(ROOT_CREDS, "/d")
        for i in range(n_files):
            h = yield from mount.open(ROOT_CREDS, f"/d/f{i}",
                                      OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
            yield from mount.close(h)
        return (yield from mount.stat(ROOT_CREDS, "/d")).st_ino

    ino = sim.run_process(setup())
    sim.run(until=sim.now + 3 * DEFAULT_PARAMS.lease_period)
    assert ino not in client.metatables
    counts = cluster.store.backing.op_counts
    before = dict(counts)
    t0 = sim.now
    kind, mt = sim.run_process(client._acquire_dir(ino))
    assert kind == "local"
    moved = {verb: n - before.get(verb, 0) for verb, n in counts.items()
             if n != before.get(verb, 0)}
    return sim.now - t0, moved, mt


class TestReacquire:
    @pytest.fixture(scope="class")
    def loads(self):
        return {n: _reacquire(n) for n in (0, 1, 64)}

    def test_load_time_is_flat_in_the_child_count(self, loads):
        """64 children cost what one does, within one OSD service time (a
        GET each, in a row, would cost 63 more)."""
        t = {n: loads[n][0] for n in loads}
        assert t[64] - t[1] < GET
        # An empty directory skips both batches.
        assert t[0] < t[1]

    def test_traffic_is_one_inode_get_one_list_and_a_get_per_child(
            self, loads):
        for n, (_t, moved, mt) in loads.items():
            assert moved == {"get": 1 + 2 * n, "list": 1}
            assert len(mt.dentries) == len(mt.inodes) == n


def _store():
    sim = Simulator()
    net = Network(sim, NetParams())
    node = Node(sim, "client", net=net)
    return sim, node, PRT(ClusterObjectStore(sim, RADOS_PROFILE, net=net),
                          1 << 20)


def _dir(ino):
    return Inode(ino=ino, ftype=FileType.DIRECTORY, mode=0o755, uid=0, gid=0)


def _timed(sim, gen):
    t0 = sim.now
    value = sim.run_process(gen)
    return sim.now - t0, value


class TestLoadRound:
    def test_empty_directory_pays_only_the_overlapped_get_and_list(self):
        sim, node, prt = _store()
        sim.run_process(prt.put_inode(_dir(7)))
        t_get, _ = _timed(sim, prt.get_inode(7, src=node))
        t_list, _ = _timed(sim, prt.store.list(prt.key_dentry_prefix(7),
                                               src=node))
        t_load, mt = _timed(sim, load_metatable(prt, 7, node, 5.0, 1))
        assert mt.is_empty and mt.dir_ino == 7
        # No batch leg follows: the load is the longer of its two reads.
        assert t_load == pytest.approx(max(t_get, t_list), abs=1e-12)

    def test_a_dentry_without_its_inode_raises_no_such_key(self):
        sim, node, prt = _store()
        sim.run_process(prt.put_inode(_dir(7)))
        sim.run_process(prt.put_dentry(7, Dentry("f", 8, FileType.REGULAR)))
        with pytest.raises(NoSuchKey) as err:
            sim.run_process(load_metatable(prt, 7, node, 5.0, 1))
        assert err.value.key == prt.key_inode(8)

    def test_a_removed_directory_loads_as_none_after_one_list(self):
        sim, node, prt = _store()
        sim.run_process(prt.put_dentry(7, Dentry("f", 8, FileType.REGULAR)))
        counts = prt.store.backing.op_counts
        before = dict(counts)
        assert sim.run_process(load_metatable(prt, 7, node, 5.0, 1)) is None
        sim.run()  # the overlapped LIST settles on its own
        # The missing inode's GET is free; the LIST is the only request.
        assert counts["list"] - before.get("list", 0) == 1
        assert counts["get"] == before.get("get", 0)


def test_an_empty_batch_is_not_a_request():
    sim, node, prt = _store()
    store = prt.store
    before = dict(store.backing.op_counts)
    assert sim.run_process(store.get_many([], src=node)) == []
    assert sim.now == 0
    assert node.nic.bytes_moved == 0
    assert dict(store.backing.op_counts) == before
