"""Functional tests for the elastic metadata plane's client-side routing.

Three behaviors the crashcheck sweeps and property tests don't pin:

1. A client holding a stale route to a directory that split under it must
   resolve the new shard map FROM THE STORE after the old leader's
   "led by None" redirect — not by acquiring the parent lease through the
   manager. Under a concurrent split every client briefly takes the
   parent lease to learn the map, so manager-chasing degenerates into a
   parade of transient-holder redirects that can exhaust the retry budget
   (observed as spurious EIO at 16 clients in the mdtest-hard shared-dir
   benchmark).

2. Shard-lease placement spreads first-touch shard leaderships over the
   client population by consistent hash, instead of letting the splitting
   client — the only one that already holds the map in memory — win every
   acquisition race and re-create the single-owner hotspot the split
   exists to break. A dead preferred peer is skipped.

3. The split migrates file leases with the files: every holder is revoked
   (flushing dirty write-back data) while the parent is still the sole
   authority, so no client survives the split with a grant the new shard
   leaders never heard about.

4. ``rmdir`` of a split directory: empty iff every shard is; removing it
   surrenders every shard lease and retires the shard map
   (``ShardedClient._surrender_layout``).

Sharding is a client class chosen once, at construction: with
``shards_enabled`` every client is a :class:`ShardedClient`.
"""

import pytest

from repro.core import DEFAULT_PARAMS, ArkFSClient, build_arkfs, fsck
from repro.core.sharded_client import ShardedClient
from repro.core.types import ino_hex
from repro.posix import ROOT_CREDS, SyncFS
from repro.posix.errors import DirectoryNotEmpty
from repro.sim import Simulator

SHARD_PARAMS = dict(shards_enabled=True, shard_split_threshold=6,
                    shard_fanout=4)


def _split_dir_setup(n_clients, n_files=10, **extra):
    sim = Simulator()
    params = DEFAULT_PARAMS.with_(**{**SHARD_PARAMS, **extra})
    cluster = build_arkfs(sim, n_clients=n_clients, params=params,
                          functional=True, seed=0)
    fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
    fs0.mkdir("/d")
    for i in range(n_files):
        fs0.write_file(f"/d/f{i}", bytes([i + 1]) * 16)
    sim.run(until=sim.now + 2)  # let the split settle
    d_ino = fs0.stat("/d").st_ino
    assert any(d_ino in c._shard_maps for c in cluster.clients), \
        "setup must actually split /d"
    return sim, cluster, d_ino


class TestStaleRouteResolution:
    def test_leaderless_redirect_resolves_map_from_store(self):
        """After "dir split under me", the stale client learns the shard
        map without ever taking the parent lease."""
        sim = Simulator()
        params = DEFAULT_PARAMS.with_(**SHARD_PARAMS)
        cluster = build_arkfs(sim, n_clients=2, params=params,
                              functional=True, seed=0)
        fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
        fs1 = SyncFS(cluster.client(1), ROOT_CREDS)
        fs0.mkdir("/d")
        fs0.write_file("/d/f0", b"before")
        # client1 learns (and caches) the pre-split route to client0.
        assert fs1.read_file("/d/f0") == b"before"
        d_ino = fs0.stat("/d").st_ino
        assert cluster.client(1).remotes[d_ino].leader == "client0"
        for i in range(1, 10):
            fs0.write_file(f"/d/f{i}", b"x")
        sim.run(until=sim.now + 2)
        assert d_ino in cluster.client(0)._shard_maps
        # Stale route -> old leader answers "led by None" -> the map must
        # come from the store, with the parent lease never claimed (the
        # manager-chasing alternative acquires and releases it, which is
        # what cascades into EIO when many clients resolve concurrently).
        releases_before = cluster.lease_service.stats["release"]
        assert fs1.read_file("/d/f5") == b"x"
        assert d_ino in cluster.client(1)._shard_maps
        assert cluster.lease_service.holder_of(d_ino) is None
        assert cluster.lease_service.stats["release"] == releases_before, \
            "resolving a split directory must not re-take the parent lease"


class TestShardLeasePlacement:
    def test_leadership_spreads_over_the_population(self):
        """With placement, the splitting client does not end up leading
        every shard once the population touches the directory."""
        sim, cluster, d_ino = _split_dir_setup(n_clients=4)
        smap = cluster.client(0)._shard_maps[d_ino]
        for ci in range(1, 4):
            fs = SyncFS(cluster.client(ci), ROOT_CREDS)
            for i in range(10):
                fs.stat(f"/d/f{i}")
        leaders = {c.name for c in cluster.clients
                   if any(si in c.metatables for si in smap.shard_inos())}
        assert len(leaders) >= 2, \
            f"shard leaderships concentrated on {leaders}"

    def test_placement_prefers_the_hashed_peer(self):
        """Every client computes the same preferred leader for a shard,
        and a client that IS the preferred leader acquires locally."""
        sim, cluster, d_ino = _split_dir_setup(n_clients=4)
        smap = cluster.client(0)._shard_maps[d_ino]
        # Teach everyone the map (stat via each client), then compare.
        for c in cluster.clients[1:]:
            SyncFS(c, ROOT_CREDS).stat("/d/f0")
        for si in smap.shard_inos():
            prefs = {c._preferred_shard_leader(si)
                     for c in cluster.clients if si in c._shard_home}
            assert len(prefs) == 1, \
                f"clients disagree on placement for shard {si:x}: {prefs}"

    def test_dead_preferred_peer_is_skipped(self):
        """Crashing a preferred shard leader must not wedge the shard:
        the ring walk skips dead nodes and someone live takes over."""
        sim, cluster, d_ino = _split_dir_setup(n_clients=4)
        smap = cluster.client(0)._shard_maps[d_ino]
        # Find a file whose shard is preferred on a client other than 0.
        c0 = cluster.client(0)
        victim_file = None
        for i in range(10):
            si = smap.route(f"f{i}")
            pref = c0._preferred_shard_leader(si)
            if pref not in (None, "client0") and si not in c0.metatables:
                victim_file, victim = f"f{i}", pref
                break
        if victim_file is None:  # placement hashed everything onto c0
            return
        cluster.net.nodes[victim].crash()
        fs0 = SyncFS(c0, ROOT_CREDS)
        data = fs0.read_file(f"/d/{victim_file}")
        assert data, "shard op must survive a dead preferred peer"


class TestSplitMovesFileLeases:
    def test_dirty_writeback_flushed_before_split(self):
        """A writer's dirty cached data must be revoked (flushed) by the
        split, so readers routed to the new shard leader see the write."""
        sim = Simulator()
        params = DEFAULT_PARAMS.with_(**SHARD_PARAMS)
        cluster = build_arkfs(sim, n_clients=3, params=params,
                              functional=True, seed=0)
        fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
        fs1 = SyncFS(cluster.client(1), ROOT_CREDS)
        fs2 = SyncFS(cluster.client(2), ROOT_CREDS)
        fs0.mkdir("/d")
        fs0.write_file("/d/target", b"old")
        # client1 rewrites it WITHOUT fsync: dirty write-back data under a
        # WRITE lease tracked by the pre-split authority.
        fs1.write_file("/d/target", b"new-bytes", do_fsync=False)
        # client0 pushes the directory over the threshold -> split.
        for i in range(10):
            fs0.write_file(f"/d/f{i}", b"x")
        sim.run(until=sim.now + 2)
        d_ino = fs0.stat("/d").st_ino
        assert d_ino in cluster.client(0)._shard_maps
        # A third client (fresh cache) must see client1's write.
        assert fs2.read_file("/d/target") == b"new-bytes"


class TestRmdirOfAShardedDirectory:
    @staticmethod
    def _shard_state(cluster, d_ino, smap):
        svc = cluster.lease_service
        return (cluster.prt.key_shard_map(d_ino) in cluster.store,
                [svc.holder_of(si) for si in smap.shard_inos()])

    def test_non_empty_is_enotempty_and_stays_sharded(self):
        sim, cluster, d_ino = _split_dir_setup(n_clients=3)
        fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
        fs1 = SyncFS(cluster.client(1), ROOT_CREDS)
        with pytest.raises(DirectoryNotEmpty):
            fs1.rmdir("/d")
        assert fs0.readdir("/d") == sorted(f"f{i}" for i in range(10))
        assert fs1.read_file("/d/f3") == bytes([4]) * 16
        assert cluster.prt.key_shard_map(d_ino) in cluster.store

    def test_empty_is_removed_with_its_map_and_shard_leases(self):
        sim, cluster, d_ino = _split_dir_setup(n_clients=3)
        smap = cluster.client(0)._shard_maps[d_ino]
        fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
        fs1 = SyncFS(cluster.client(1), ROOT_CREDS)
        assert self._shard_state(cluster, d_ino, smap)[0]
        for i in range(10):                 # emptied through another client
            fs1.unlink(f"/d/f{i}")
        assert fs0.readdir("/d") == []
        fs1.rmdir("/d")
        assert fs0.readdir("/") == [] and fs1.readdir("/") == []
        assert self._shard_state(cluster, d_ino, smap) == (False, [None] * 4)
        assert cluster.lease_service.holder_of(d_ino) is None
        # The name is free again, and the new directory starts unsharded.
        fs0.mkdir("/d")
        fs0.write_file("/d/again", b"fresh")
        assert fs1.read_file("/d/again") == b"fresh"
        for client in cluster.clients:
            sim.run_process(client.sync())
        sim.run(until=sim.now + 3)          # let checkpoints drain
        report = sim.run_process(fsck(cluster.prt))
        assert report.clean, report.errors


class TestClassChoice:
    def test_shards_enabled_builds_only_sharded_clients(self):
        sim = Simulator()
        cluster = build_arkfs(sim, n_clients=3, functional=True,
                              params=DEFAULT_PARAMS.with_(**SHARD_PARAMS))
        assert {type(c) for c in cluster.clients} == {ShardedClient}
        assert all(c.peers == ["client0", "client1", "client2"]
                   for c in cluster.clients)
        off = build_arkfs(Simulator(), n_clients=3, functional=True)
        assert {type(c) for c in off.clients} == {ArkFSClient}

    def test_crash_and_restart_keeps_working_on_a_sharded_directory(self):
        sim, cluster, d_ino = _split_dir_setup(n_clients=2)
        victim = cluster.client(0)
        sim.run_process(victim.sync())      # unsynced data dies with it
        victim.crash()
        assert not victim._shard_maps and not victim._splitters
        sim.run(until=sim.now + 2 * victim.params.lease_period)
        victim.restart()
        fs0 = SyncFS(victim, ROOT_CREDS)
        fs0.write_file("/d/after", b"restarted")
        assert fs0.readdir("/d") == sorted(
            ["after"] + [f"f{i}" for i in range(10)])
        assert d_ino in victim._shard_maps
        fs1 = SyncFS(cluster.client(1), ROOT_CREDS)
        assert fs1.read_file("/d/after") == b"restarted"
        assert fs1.read_file("/d/f7") == bytes([8]) * 16


# -- 5. a shard table never writes the parent inode ---------------------------
#
# A shard table holds a *copy* of the parent directory's inode; journaling
# that copy from a shard, or recording a shard's ops under the parent's ino
# (``mt.dir_ino``), makes the parent inode a multi-writer object whose last
# checkpoint wins. Every mutating leader op funnels its epilogue through
# ``LeaderOps._journal_dir_change``; this pins the rule op by op.


def _names_by_shard(smap, prefix, want=2):
    """``want`` fresh names routing to one shard, and one routing elsewhere."""
    by = {}
    for i in range(200):
        by.setdefault(smap.route(f"{prefix}{i}"), []).append(f"{prefix}{i}")
    same = next(v for v in by.values() if len(v) >= want)[:want]
    other = next(v for v in by.values() if v[0] not in same)[0]
    return same, other


SHARD_MUTATIONS = {
    "create": lambda fs, a, b, x: fs.write_file(f"/d/{a}", b"new"),
    "unlink": lambda fs, a, b, x: fs.unlink("/d/f0"),
    "mkdir": lambda fs, a, b, x: fs.mkdir(f"/d/{a}"),
    "rmdir": lambda fs, a, b, x: (fs.mkdir(f"/d/{a}"),
                                     fs.rmdir(f"/d/{a}")),
    "symlink": lambda fs, a, b, x: fs.symlink("/d/f1", f"/d/{a}"),
    "rename_same_shard": lambda fs, a, b, x: (
        fs.write_file(f"/d/{a}", b"1"), fs.rename(f"/d/{a}", f"/d/{b}")),
    "rename_overwrite": lambda fs, a, b, x: (
        fs.write_file(f"/d/{a}", b"1"), fs.write_file(f"/d/{b}", b"22"),
        fs.rename(f"/d/{a}", f"/d/{b}")),
    "rename_dir_same_shard": lambda fs, a, b, x: (
        fs.mkdir(f"/d/{a}"), fs.rename(f"/d/{a}", f"/d/{b}")),
    "rename_cross_shard": lambda fs, a, b, x: (
        fs.write_file(f"/d/{a}", b"1"), fs.rename(f"/d/{a}", f"/d/{x}")),
    "rename_dir_cross_shard_overwrite": lambda fs, a, b, x: (
        fs.mkdir(f"/d/{a}"), fs.mkdir(f"/d/{x}"),
        fs.rename(f"/d/{a}", f"/d/{x}")),
    "truncate": lambda fs, a, b, x: fs.truncate("/d/f2", 4),
}


@pytest.mark.parametrize("op", sorted(SHARD_MUTATIONS))
def test_no_op_on_a_shard_table_journals_the_parent_inode(op):
    sim, cluster, d_ino = _split_dir_setup(n_clients=1)
    client = cluster.client(0)
    fs = SyncFS(client, ROOT_CREDS)
    smap = client._shard_maps[d_ino]
    shard_inos = set(smap.shard_inos())
    (a, b), x = _names_by_shard(smap, f"{op}-")

    records = []        # (journal dir_ino, op) of everything journaled
    journal = client.journal
    real_record, real_prepare = journal.record, journal.prepare

    def record(dir_ino, *ops):
        records.extend((dir_ino, o) for o in ops)
        return real_record(dir_ino, *ops)

    def prepare(dir_ino, txid, ops, decision_key):
        records.extend((dir_ino, o) for o in ops)
        return real_prepare(dir_ino, txid, ops, decision_key)

    journal.record, journal.prepare = record, prepare
    SHARD_MUTATIONS[op](fs, a, b, x)

    on_shards = [(j, o) for j, o in records if j in shard_inos]
    assert on_shards, "the op must have journaled on a shard table"
    assert all(j != d_ino for j, _ in records), \
        "a shard's ops recorded under the parent directory's ino"
    parent_hex = ino_hex(d_ino)
    for j, o in on_shards:
        if o["op"] == "put_inode":
            assert o["inode"]["ino"] != parent_hex, \
                f"shard {j:x} journaled the parent inode: {o}"
        elif o["op"] == "del_inode":
            assert o["ino"] != parent_hex
    # ... and none changed its copy of it either.
    copies = [client.metatables[si].dir_inode for si in shard_inos
              if si in client.metatables]
    assert copies and all(ci.ino == d_ino for ci in copies)
    assert len({(ci.nlink, ci.mtime, ci.ctime) for ci in copies}) == 1
