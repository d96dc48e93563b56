"""Packed small-file containers: log-structured packing, extent index,
seal protocol, compaction, and the fsck checks that audit them.

The archiving workloads the paper targets (Table 2) create thousands of
files far below the 2 MB data-object size; the pack layer turns their
writebacks into appends on a shared container object so ingest pays one
large PUT per ``pack_target_size`` bytes instead of one small PUT per
file. These tests pin down the semantics: reads through every state of
the pipeline (open buffer, in-flight seal, sealed container), durability
(fsync survives a client crash), index maintenance on overwrite /
truncate / unlink, multi-client visibility across lease hand-off, and
the background reclaim/compaction machinery.
"""

import pytest

from repro.core import (
    DEFAULT_PARAMS,
    PRT,
    PackClient,
    PackedCache,
    PackExtent,
    PackedPRT,
    build_arkfs,
    fsck,
    ino_hex,
    ops_clear_extents,
    ops_del_extents,
    ops_set_extents,
)
from repro.core.journal import _coalesce
from repro.core.qos import QosClient
from repro.core.sharded_client import ShardedClient
from repro.objectstore.memory import InMemoryObjectStore
from repro.posix import ROOT_CREDS, OpenFlags, SyncFS
from repro.sim import Simulator

KiB = 1024


def _params(**kw):
    base = dict(pack_enabled=True, pack_threshold=128 * KiB,
                pack_target_size=512 * KiB, pack_seal_age=0.5,
                pack_compact_live_ratio=0.5)
    base.update(kw)
    return DEFAULT_PARAMS.with_(**base)


def _build(n_clients=1, params=None, functional=True):
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=n_clients,
                          params=params or _params(), functional=functional,
                          seed=0)
    return sim, cluster


def _keys(cluster, kind):
    store = cluster.store
    backing = getattr(store, "backing", store)
    return [k for k in backing.sync_list("") if k[0] == kind]


def _settle(sim, cluster, extra=2.0):
    for c in cluster.clients:
        sim.run_process(c.sync())
    sim.run(until=sim.now + extra)


# ---------------------------------------------------------------- packing


def test_small_files_pack_into_containers():
    """N sub-threshold files produce container + index objects and NO
    per-file data objects; far fewer PUT targets than files."""
    sim, cluster = _build()
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/a")
    payloads = {}
    for i in range(16):
        data = bytes([i + 1]) * (40_000 + 100 * i)
        payloads[f"/a/f{i}"] = data
        fs.write_file(f"/a/f{i}", data)
    _settle(sim, cluster)

    assert _keys(cluster, "d") == []
    packs, indices = _keys(cluster, "p"), _keys(cluster, "x")
    assert len(indices) == 16
    assert 0 < len(packs) < 16
    st = cluster.client(0).pack.stats
    assert st["chunks_packed"] == 16
    assert st["packs_sealed"] == len(packs)
    for path, data in payloads.items():
        assert fs.read_file(path) == data


def test_reads_through_every_pipeline_state():
    """Correct bytes whether the chunk sits in the open buffer (after an
    eviction writeback, before any seal), or in a durable container read
    via ranged GET."""
    # Tiny cache forces eviction writebacks; huge seal age keeps the
    # evicted chunks sitting in the open buffer.
    params = _params(cache_capacity_bytes=120_000, pack_seal_age=30.0,
                     pack_target_size=8 * 1024 * 1024)
    sim, cluster = _build(params=params)
    client = cluster.client(0)
    fs = SyncFS(client, ROOT_CREDS)
    fs.mkdir("/a")
    payloads = {}
    for i in range(8):
        data = bytes([i + 1]) * 50_000
        payloads[f"/a/f{i}"] = data
        fs.write_file(f"/a/f{i}", data)
    # f0..f5 were evicted into the open pack buffer; no container yet.
    assert _keys(cluster, "p") == []
    before = client.pack.stats["buffer_reads"]
    assert fs.read_file("/a/f0") == payloads["/a/f0"]
    assert client.pack.stats["buffer_reads"] > before
    # fsync seals; after dropping caches the reads are ranged GETs.
    _settle(sim, cluster)
    sim.run_process(client.drop_caches())
    assert _keys(cluster, "p")
    before = client.pack.stats["packed_reads"]
    for path, data in payloads.items():
        assert fs.read_file(path) == data
    assert client.pack.stats["packed_reads"] > before


def _ino(fs, path):
    return fs.stat(path).st_ino


def test_fsync_makes_packed_data_crash_durable():
    """fsync forces a seal + extent-index commit; the bytes survive the
    writing client's crash and are served to another client."""
    sim, cluster = _build(n_clients=2)
    c0, c1 = cluster.client(0), cluster.client(1)
    fs0 = SyncFS(c0, ROOT_CREDS)
    fs0.mkdir("/a")
    data = b"\x5a" * 60_000
    fs0.write_file("/a/f0", data, do_fsync=True)
    c0.crash()
    sim.run(until=sim.now + 2 * cluster.params.lease_period + 1)
    fs1 = SyncFS(c1, ROOT_CREDS)
    assert fs1.read_file("/a/f0") == data


def test_unfsynced_packed_data_dies_with_the_client():
    """Without fsync the bytes live only in the open buffer: a crash
    loses them (metadata-journaling semantics — name and size may
    survive via the journal, the content reads as zeros)."""
    sim, cluster = _build(n_clients=2)
    c0, c1 = cluster.client(0), cluster.client(1)
    fs0 = SyncFS(c0, ROOT_CREDS)
    fs0.mkdir("/a")
    fs0.write_file("/a/f0", b"\x11" * 50_000)
    sim.run(until=sim.now + 2.5)   # journal commits metadata; no seal yet?
    c0.crash()
    sim.run(until=sim.now + 2 * cluster.params.lease_period + 1)
    fs1 = SyncFS(c1, ROOT_CREDS)
    if fs1.exists("/a/f0"):
        got = fs1.read_file("/a/f0")
        assert got in (b"\x11" * 50_000, b"\x00" * len(got), b"")


def test_large_files_keep_plain_objects():
    """Chunks at/above the threshold bypass the pack layer entirely."""
    sim, cluster = _build()
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/a")
    big = b"\x42" * (4 * 1024 * 1024)   # two full 2 MB chunks
    fs.write_file("/a/big", big, do_fsync=True)
    _settle(sim, cluster)
    assert len(_keys(cluster, "d")) == 2
    assert cluster.client(0).pack.stats["chunks_packed"] == 0
    assert fs.read_file("/a/big") == big


def test_overwrite_with_large_data_removes_stale_extent():
    """A packed file rewritten past the threshold moves to a plain
    object and its extent-index entry disappears (extent-wins would
    otherwise serve the stale bytes)."""
    sim, cluster = _build()
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/a")
    fs.write_file("/a/f0", b"\x01" * 50_000, do_fsync=True)
    big = b"\x02" * 300_000             # above the 128 KiB threshold
    fs.write_file("/a/f0", big, do_fsync=True)
    _settle(sim, cluster)
    assert fs.read_file("/a/f0") == big
    prt = cluster.prt
    ino = _ino(fs, "/a/f0")
    extents = sim.run_process(prt.read_extent_index(ino))
    assert 0 not in extents
    report = sim.run_process(fsck(prt))
    assert report.clean, report.summary()


def test_overwrite_small_replaces_extent():
    """Rewriting a packed file with new small content updates the index;
    old container bytes are accounted dead."""
    sim, cluster = _build()
    client = cluster.client(0)
    fs = SyncFS(client, ROOT_CREDS)
    fs.mkdir("/a")
    fs.write_file("/a/f0", b"\x01" * 50_000, do_fsync=True)
    fs.write_file("/a/f0", b"\x02" * 50_000, do_fsync=True)
    _settle(sim, cluster)
    assert fs.read_file("/a/f0") == b"\x02" * 50_000
    assert client.pack.stats["dead_bytes"] >= 50_000
    sim.run_process(client.drop_caches())
    assert fs.read_file("/a/f0") == b"\x02" * 50_000


def test_overwrite_after_split_purges_the_old_container():
    """A split revokes the parent's file leases and the sealing client
    forgets those files' extent mirrors; its next overwrite must still
    mark the sealed copy dead, or the container outlives every reference
    to it and a strict fsck reports it."""
    params = _params(shards_enabled=True, shard_split_threshold=4,
                     shard_fanout=4)
    sim, cluster = _build(n_clients=2, params=params)
    c0 = cluster.client(0)
    fs0, fs1 = SyncFS(c0, ROOT_CREDS), SyncFS(cluster.client(1), ROOT_CREDS)
    fs0.mkdir("/a")
    fs0.write_file("/a/f0", b"\x01" * 50_000, do_fsync=True)
    for i in range(6):                  # past the threshold: /a splits
        fs1.write_file(f"/a/g{i}", b"\x02" * 1000)
    assert any(c._shard_maps for c in cluster.clients)
    fs0.write_file("/a/f0", b"\x03" * 50_000, do_fsync=True)
    _settle(sim, cluster, extra=3.0)
    assert c0.pack.stats["containers_purged"] == 1
    assert fs1.read_file("/a/f0") == b"\x03" * 50_000
    report = sim.run_process(fsck(cluster.prt))
    assert report.clean, report.summary()


# Every way an extent dies, by either client, with the sealer leading the
# directory or not: the death must reach the sealer, whose ticker then
# purges the container. The pack id names the sealer, so a report that
# stays with the applying client leaks a container the other one sealed.
DEATH_KINDS = ("overwrite", "grow", "truncate", "unlink", "o_trunc")
DEATH_ROWS = [(kind, leads, killer) for kind in DEATH_KINDS
              for leads in ("sealer_leads", "other_leads")
              for killer in ("by_sealer", "by_other")]
DEATH_ROWS += [("direct", "sealer_leads", killer)
               for killer in ("by_sealer", "by_other")]


def _kill_extent(kind, leads, killer):
    """client0 seals /a/f alone in one container, then ``killer`` kills
    its extent. Returns the checks that failed after settling: the bytes
    both clients read, a strict fsck, and the sealer's purge count."""
    sim, cluster = _build(n_clients=2)
    c0 = cluster.client(0)
    fs = [SyncFS(c, ROOT_CREDS) for c in cluster.clients]
    lead = fs[0] if leads == "sealer_leads" else fs[1]
    lead.mkdir("/a")
    lead.write_file("/a/lead", b"")       # takes /a's lease
    old = b"\x01" * 60 * KiB
    fs[0].write_file("/a/f", old, do_fsync=True)
    assert c0._leads_dir(fs[0].stat("/a").st_ino) == (lead is fs[0])
    _settle(sim, cluster)
    purged = c0.pack.stats["containers_purged"]
    k = fs[0] if killer == "by_sealer" else fs[1]
    if kind == "overwrite":
        expect = b"\x02" * 60 * KiB
        with k.open("/a/f", OpenFlags.O_WRONLY) as f:
            f.write(expect, 0)
    elif kind == "grow":                  # past pack_threshold: plain
        expect = b"\x02" * 200 * KiB
        with k.open("/a/f", OpenFlags.O_WRONLY) as f:
            f.write(expect, 0)
    elif kind == "truncate":
        expect = b""
        k.truncate("/a/f", 0)
    elif kind == "unlink":
        expect = None
        k.unlink("/a/f")
    elif kind == "o_trunc":
        expect = b"\x03" * 30 * KiB
        k.write_file("/a/f", expect)
    else:                                 # a contended (DIRECT) write
        expect = b"\x02" * KiB + old[KiB:]
        # The killer opens last: a handle opened before another client's
        # read keeps a stale WRITE grant and never goes DIRECT (1(xvii)).
        handles = [v.open("/a/f", OpenFlags.O_RDWR)
                   for v in sorted(fs, key=lambda v: v is k)]
        for h in handles:
            h.read(4)
        handles[-1].write(expect[:KiB], offset=0)
        assert cluster.client(fs.index(lead)).fleases.is_direct(
            fs[0].stat("/a/f").st_ino)
        for h in handles:
            h.close()
    _settle(sim, cluster, extra=3.0)
    failed = []
    for i, view in enumerate(fs):
        got = view.read_file("/a/f") if view.exists("/a/f") else None
        if got != expect:
            failed.append(f"client{i} read the wrong bytes")
    report = sim.run_process(fsck(cluster.prt))
    if not report.clean:
        failed.append(report.summary())
    if c0.pack.stats["containers_purged"] == purged:
        failed.append("the sealer purged no container")
    return failed


@pytest.mark.parametrize("row", DEATH_ROWS, ids="-".join)
def test_an_extent_death_reaches_its_sealer(row):
    assert _kill_extent(*row) == []


def _lands_away(kind, leads, killer):
    """Does the index write that kills the extent run off the sealer? A
    data-path kill runs at the writer; a truncate or an unlink runs at
    the directory's leader."""
    if kind in ("truncate", "unlink", "o_trunc"):
        return leads == "other_leads"
    return killer == "by_other"


def test_seeded_own_containers_only_bug_is_caught(monkeypatch):
    """Re-seed ROADMAP 1(vii): the applying node reports only deaths in
    containers it sealed itself. Every row whose index write runs off the
    sealer then leaks the container. (A crash sweep cannot catch this:
    its ``fsck(after_crash=True)`` makes a leaked container a warning.)"""
    report = PackedPRT._report_deaths

    def own_only(self, ino, old, new, src):
        mine = {idx: ext for idx, ext in old.items()
                if ext.pack.startswith(src.name + "-")}
        report(self, ino, mine, new, src)

    monkeypatch.setattr(PackedPRT, "_report_deaths", own_only)
    away = [row for row in DEATH_ROWS if _lands_away(*row)]
    assert len(away) == 11
    for row in away:
        assert "the sealer purged no container" in _kill_extent(*row), row


def test_unlink_purges_index_and_ticker_reclaims_containers():
    """Unlinking packed files deletes their extent indices; once every
    extent of a container is dead the ticker deletes the container."""
    sim, cluster = _build()
    client = cluster.client(0)
    fs = SyncFS(client, ROOT_CREDS)
    fs.mkdir("/a")
    for i in range(8):
        fs.write_file(f"/a/f{i}", bytes([i + 1]) * 50_000)
    _settle(sim, cluster)
    assert _keys(cluster, "p")
    for i in range(8):
        fs.unlink(f"/a/f{i}")
    _settle(sim, cluster, extra=4.0)
    assert _keys(cluster, "x") == []
    assert _keys(cluster, "p") == []
    st = client.pack.stats
    assert st["containers_purged"] > 0
    assert st["reclaimed_bytes"] > 0
    report = sim.run_process(fsck(cluster.prt))
    assert report.clean, report.summary()


def test_compaction_rewrites_mostly_dead_containers():
    """Deleting most files of a container drops its live ratio below the
    threshold; the compactor rewrites the survivors into a fresh
    container and purges the old one — reads stay correct throughout."""
    sim, cluster = _build(params=_params(pack_compact_live_ratio=0.8))
    client = cluster.client(0)
    fs = SyncFS(client, ROOT_CREDS)
    fs.mkdir("/a")
    payloads = {}
    for i in range(24):
        data = bytes([i + 1]) * 50_000
        payloads[f"/a/f{i}"] = data
        fs.write_file(f"/a/f{i}", data)
    _settle(sim, cluster)
    for i in range(24):
        if i % 3 != 0:
            fs.unlink(f"/a/f{i}")
            del payloads[f"/a/f{i}"]
    _settle(sim, cluster, extra=5.0)
    st = client.pack.stats
    assert st["compactions"] > 0
    assert st["compacted_bytes"] > 0
    sim.run_process(client.drop_caches())
    for path, data in payloads.items():
        assert fs.read_file(path) == data
    # Compaction restored the live ratio: fsck sees no compaction debt.
    report = sim.run_process(fsck(cluster.prt))
    assert report.clean, report.summary()
    assert not any("live ratio" in w for w in report.warnings), \
        report.summary()


def test_truncate_trims_extents():
    """Truncating a packed file updates the extent index (shrinking the
    boundary extent / deleting past-EOF ones) so fsck stays clean."""
    sim, cluster = _build()
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/a")
    data = b"\x33" * 100_000
    fs.write_file("/a/f0", data, do_fsync=True)
    _settle(sim, cluster)
    fs.truncate("/a/f0", 30_000)
    _settle(sim, cluster)
    assert fs.read_file("/a/f0") == data[:30_000]
    report = sim.run_process(fsck(cluster.prt))
    assert report.clean, report.summary()
    ino = _ino(fs, "/a/f0")
    extents = sim.run_process(cluster.prt.read_extent_index(ino))
    assert extents[0].length == 30_000


def test_cross_client_visibility_after_revocation():
    """A second client opening a packed file revokes the writer's lease:
    the publish path seals + checkpoints the extent deltas, and the
    reader resolves them from the store."""
    sim, cluster = _build(n_clients=2)
    c0, c1 = cluster.client(0), cluster.client(1)
    fs0, fs1 = SyncFS(c0, ROOT_CREDS), SyncFS(c1, ROOT_CREDS)
    fs0.mkdir("/a")
    data = b"\x77" * 70_000
    fs0.write_file("/a/f0", data)
    assert fs1.read_file("/a/f0") == data
    # And after the writer also crashes, the data is already durable.
    c0.crash()
    sim.run(until=sim.now + 2 * cluster.params.lease_period + 1)
    assert fs1.read_file("/a/f0") == data


def test_crash_restart_keeps_container_ids_unique():
    """A restarted client must not reuse container ids: pre-crash
    containers may still hold live extents a new PUT would clobber."""
    sim, cluster = _build()
    client = cluster.client(0)
    fs = SyncFS(client, ROOT_CREDS)
    fs.mkdir("/a")
    fs.write_file("/a/f0", b"\x01" * 50_000, do_fsync=True)
    seq_before = client.pack._seq
    assert seq_before > 0
    client.crash()
    sim.run(until=sim.now + 2 * cluster.params.lease_period + 1)
    client.restart()
    assert client.pack._seq == seq_before
    fs.write_file("/a/f1", b"\x02" * 50_000, do_fsync=True)
    _settle(sim, cluster)
    assert client.pack._seq > seq_before
    assert fs.read_file("/a/f0") == b"\x01" * 50_000
    assert fs.read_file("/a/f1") == b"\x02" * 50_000


def test_restarted_writer_seals_into_the_new_journal():
    """After crash and restart, an unsynced small write reaches the open
    container by eviction and is sealed by the ticker alone; its extent
    delta rides the journal the restart built, the other client reads the
    bytes, and a strict fsck is clean. (A writer still bound to the old,
    stopped journal never commits the delta; one without a ticker never
    seals.)"""
    params = _params(cache_capacity_bytes=120_000)
    sim, cluster = _build(n_clients=2, params=params)
    c0, c1 = cluster.client(0), cluster.client(1)
    fs0, fs1 = SyncFS(c0, ROOT_CREDS), SyncFS(c1, ROOT_CREDS)
    fs0.mkdir("/a")
    fs0.write_file("/a/pre", b"\x01" * 50_000, do_fsync=True)
    c0.crash()
    sim.run(until=sim.now + 2 * cluster.params.lease_period + 1)
    c0.restart()
    assert c0.pack.journal is c0.journal
    deltas = []
    record = c0.journal.record

    def spy(dir_ino, *ops):
        deltas.extend(op for op in ops if op["op"] == "extents")
        return record(dir_ino, *ops)

    c0.journal.record = spy
    payloads = {f"/a/f{i}": bytes([i + 2]) * 50_000 for i in range(4)}
    for path, data in payloads.items():
        fs0.write_file(path, data)          # no fsync: eviction fills the
    sealed = c0.pack.stats["packs_sealed"]  # open container
    assert c0.pack._pending
    sim.run(until=sim.now + 2 * cluster.params.pack_seal_age)
    assert not c0.pack._pending
    assert c0.pack.stats["packs_sealed"] > sealed
    evicted = fs1.stat("/a/f0").st_ino
    assert any(op.get("set") and op["ino"] == ino_hex(evicted)
               for op in deltas)
    for path, data in payloads.items():
        assert fs1.read_file(path) == data
    _settle(sim, cluster)
    report = sim.run_process(fsck(cluster.prt))
    assert report.clean, report.summary()


def test_fsync_never_stages_a_container():
    """fsync with pack and tier both on: the tier writes the container
    the seal PUTs through to cold, so no ``p`` key is ever dirty."""
    params = _params(tier_enabled=True, tier_drain_interval=0,
                     pack_seal_age=30.0)
    sim, cluster = _build(params=params)
    staged = []
    note_staged = cluster.store._note_staged

    def spy(key, size):
        staged.append(key)
        note_staged(key, size)

    cluster.store._note_staged = spy
    client = cluster.client(0)
    fs = SyncFS(client, ROOT_CREDS)
    fs.mkdir("/a")
    fs.write_file("/a/f0", b"\x09" * 40_000, do_fsync=True)
    assert client.pack.stats["packs_sealed"] == 1
    assert [k for k in staged if k[0] == "p"] == []
    assert fs.read_file("/a/f0") == b"\x09" * 40_000


def _tiered_trio(staged=None):
    """Three clients over pack and tier, the tier ticker off. Each drain's
    cold PUT takes a second, as over a real cold tier, and one in flight
    when the hot tier is lost dies with it: a staged write starts its
    drain at once, but a crash just after an op still loses what the op
    staged, and an fsync or a sync waits for the drain.
    ``staged`` replaces the tier's rule for which keys it stages."""
    params = _params(tier_enabled=True, tier_drain_interval=0)
    sim, cluster = _build(n_clients=3, params=params)
    tier = cluster.store
    cold_put = tier._drain_cold_put

    def slow_cold_put(items, src):
        epoch = tier._epoch
        yield sim.timeout(1.0)
        if tier._epoch == epoch:
            yield from cold_put(items, src)

    tier._drain_cold_put = slow_cold_put
    if staged is not None:
        tier._staged = staged
    fs = [SyncFS(c, ROOT_CREDS) for c in cluster.clients]
    fs[0].mkdir("/a")
    return sim, cluster, fs


def _crash_c0(sim, cluster):
    """c0 crashes and the hot tier is lost; its leases run out."""
    cluster.client(0).crash()
    cluster.store.lose_hot()
    sim.run(until=sim.now + 2 * cluster.params.lease_period)


class FsyncedContainerLost(Exception):
    """An fsync'd packed file did not survive losing the hot tier."""


def _fsync_packed_crash_and_read(staged=None):
    sim, cluster, fs = _tiered_trio(staged)
    data = b"\x05" * 20 * KiB
    fs[0].write_file("/a/f0", data, do_fsync=True)
    assert cluster.client(0).pack.stats["packs_sealed"] == 1
    _crash_c0(sim, cluster)
    got = fs[2].read_file("/a/f0")
    if got != data:
        raise FsyncedContainerLost(f"read {sorted(set(got))}")


def test_fsynced_container_survives_losing_the_hot_tier():
    """The tier writes the container an fsync seals through to cold, so
    the file survives a crash that loses the hot tier as soon as the
    fsync returns (ROADMAP 1(ix))."""
    _fsync_packed_crash_and_read()


def test_seeded_staged_container_bug_is_caught():
    """Re-seed 1(ix): the tier stages pack containers, so the seal PUT
    returns with its container hot-only. A crash sweep cannot see it:
    over its zero-latency store, the drain the seal starts lands before
    the victim's next op."""
    with pytest.raises(FsyncedContainerLost):
        _fsync_packed_crash_and_read(
            staged=lambda key: key[:1] in ("d", "p"))


def _hand_off_crash_and_read(sim, cluster, fs, overwrite):
    """c0 overwrites the head of /a/f0 without fsync; c1's read hands the
    file off (c0 seals, commits and purges); c0 crashes and the hot tier
    is lost; c2 reads the file once c0's leases are gone."""
    with fs[0].open("/a/f0", OpenFlags.O_WRONLY) as f:
        f.write(overwrite, 0)
    fs[1].read_file("/a/f0")
    _crash_c0(sim, cluster)
    return fs[2].read_file("/a/f0")


def test_hand_off_seal_keeps_synced_bytes_over_the_tier():
    """A chunk synced as a plain object is packed at the hand-off: the
    plain object may die only once its container is durable, which the
    tier makes it before the container PUT returns (ROADMAP 1(xv))."""
    sim, cluster, fs = _tiered_trio()
    fs[0].write_file("/a/f0", b"\x01" * 200 * KiB, do_fsync=True)
    fs[0].truncate("/a/f0", 60 * KiB)
    sim.run_process(cluster.client(0).sync())
    got = _hand_off_crash_and_read(sim, cluster, fs, b"\x02" * KiB)
    assert len(got) == 60 * KiB
    assert got[KiB:] == b"\x01" * 59 * KiB


class PlainWritebackLosesPackedBytes(Exception):
    """The file read back as zeros where synced or handed-off bytes were:
    ROADMAP 1(xvi), and nothing else."""


@pytest.mark.xfail(raises=PlainWritebackLosesPackedBytes, strict=True,
                   reason=(
    "a plain writeback that supersedes a packed extent stages the d object "
    "hot and deletes the extent durably (ROADMAP 1(xvi))"))
def test_plain_writeback_keeps_packed_bytes_over_the_tier():
    """A synced packed chunk outgrows the threshold at the hand-off: its
    extent may die only once the plain object is durable."""
    sim, cluster, fs = _tiered_trio()
    fs[0].write_file("/a/f0", b"\x01" * 60 * KiB, do_fsync=True)
    got = _hand_off_crash_and_read(sim, cluster, fs, b"\x02" * 200 * KiB)
    if got[:60 * KiB] not in (b"\x01" * 60 * KiB, b"\x02" * 60 * KiB):
        raise PlainWritebackLosesPackedBytes(
            f"the first 60 KiB read as {sorted(set(got[:60 * KiB]))}")


def test_pack_shards_qos_client_is_all_three_layers():
    """Packing is a layer over whichever client the other flags picked:
    with shards and QoS on, one class carries all three, over the packing
    cache and PRT, and data written by one client reads back at the
    other."""
    params = _params(shards_enabled=True, qos_enabled=True)
    sim, cluster = _build(n_clients=2, params=params)
    assert type(cluster.prt) is PackedPRT
    for client in cluster.clients:
        assert isinstance(client, PackClient)
        assert isinstance(client, ShardedClient)
        assert isinstance(client, QosClient)
        assert type(client.cache) is PackedCache
    fs0 = SyncFS(cluster.client(0), ROOT_CREDS)
    fs0.mkdir("/a")
    fs0.write_file("/a/f0", b"\x07" * 20_000, do_fsync=True)
    assert cluster.client(0).pack.stats["chunks_packed"] == 1
    fs1 = SyncFS(cluster.client(1), ROOT_CREDS)
    assert fs1.read_file("/a/f0") == b"\x07" * 20_000


def test_direct_io_reads_and_writes_extents():
    """The DIRECT (contended) data path bypasses the cache: PRT itself
    must resolve and maintain the extent index."""
    sim, cluster = _build()
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/a")
    data = b"\x66" * 50_000
    fs.write_file("/a/f0", data, do_fsync=True)
    _settle(sim, cluster)
    prt = cluster.prt
    ino = _ino(fs, "/a/f0")
    got = sim.run_process(prt.read_data(ino, 0, len(data), len(data)))
    assert got == data
    # A partial direct write RMWs the packed base and unpacks the chunk.
    sim.run_process(prt.write_data(ino, 1000, b"\xff" * 10))
    got = sim.run_process(prt.read_data(ino, 0, len(data), len(data)))
    assert got == data[:1000] + b"\xff" * 10 + data[1010:]
    extents = sim.run_process(prt.read_extent_index(ino))
    assert 0 not in extents


# ------------------------------------------------------------ journal ops


def test_extents_ops_coalesce():
    """Per-file extent deltas merge inside one compound transaction: set
    beats del, clear resets, later sets override earlier ones."""
    ops = [
        ops_set_extents(7, {0: PackExtent("p1", 0, 10),
                            1: PackExtent("p1", 10, 10)}),
        ops_del_extents(7, [1]),
        ops_set_extents(7, {2: PackExtent("p2", 0, 5)}),
    ]
    out = _coalesce(ops)
    assert len(out) == 1
    op = out[0]
    assert op["op"] == "extents" and not op.get("clear")
    assert set(op["set"]) == {"0", "2"}
    assert op["del"] == [1]

    out = _coalesce(ops + [ops_clear_extents(7)])
    assert len(out) == 1
    assert out[0]["clear"] and not out[0]["set"] and not out[0]["del"]

    # set after del revives the entry
    out = _coalesce([ops_del_extents(7, [3]),
                     ops_set_extents(7, {3: PackExtent("p3", 0, 4)})])
    assert out[0]["del"] == [] and set(out[0]["set"]) == {"3"}

    # different files never merge
    out = _coalesce([ops_set_extents(7, {0: PackExtent("p1", 0, 1)}),
                     ops_set_extents(8, {0: PackExtent("p1", 1, 1)})])
    assert len(out) == 2


def test_apply_extent_delta_is_idempotent():
    """Journal replay may apply the same delta twice; the index RMW must
    converge (and delete the index object when it empties)."""
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt = PackedPRT(store, 2 * 1024 * 1024)
    ino = 0x1234

    def apply(**kw):
        return sim.run_process(prt.apply_extent_delta(ino, **kw))

    apply(set_map={0: PackExtent("p1", 0, 100), 1: PackExtent("p1", 100, 50)})
    apply(set_map={0: PackExtent("p1", 0, 100), 1: PackExtent("p1", 100, 50)})
    got = sim.run_process(prt.read_extent_index(ino))
    assert got == {0: PackExtent("p1", 0, 100), 1: PackExtent("p1", 100, 50)}
    apply(del_list=[0])
    apply(del_list=[0])
    got = sim.run_process(prt.read_extent_index(ino))
    assert got == {1: PackExtent("p1", 100, 50)}
    apply(clear=True)
    apply(clear=True)
    assert sim.run_process(prt.read_extent_index(ino)) == {}
    assert sim.run_process(store.list("x")) == []


def test_read_extent_clips_to_extent_bounds():
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt = PackedPRT(store, 2 * 1024 * 1024)
    sim.run_process(store.put("pc-1", b"0123456789"))
    ext = PackExtent("c-1", 2, 6)   # bytes "234567"
    assert sim.run_process(prt.read_extent(ext)) == b"234567"
    assert sim.run_process(prt.read_extent(ext, off=2, length=2)) == b"45"
    assert sim.run_process(prt.read_extent(ext, off=4, length=100)) == b"67"
    assert sim.run_process(prt.read_extent(ext, off=6)) == b""


# ------------------------------------------------------------------- fsck


def _mini_fs(sim, store):
    """A store holding one valid packed file rooted at /f (built by hand
    so each fsck case can break exactly one invariant)."""
    from repro.core import Dentry, Inode, ROOT_INO, mkfs
    from repro.posix.types import FileType
    prt = PackedPRT(store, 2 * 1024 * 1024)
    mkfs(sim, store)
    ino = 0xabcd
    inode = Inode(ino=ino, ftype=FileType.REGULAR, mode=0o644, uid=0, gid=0,
                  size=100)
    sim.run_process(store.put(PRT.key_inode(ino), inode.to_bytes()))
    dentry = Dentry(name="f", ino=ino, ftype=FileType.REGULAR)
    sim.run_process(store.put(PRT.key_dentry(ROOT_INO, "f"),
                              dentry.to_bytes()))
    sim.run_process(store.put("pc-1", b"\x00" * 100))
    sim.run_process(prt.apply_extent_delta(
        ino, set_map={0: PackExtent("c-1", 0, 100)}))
    return prt, ino


def test_fsck_clean_on_valid_packed_layout():
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt, _ino = _mini_fs(sim, store)
    report = sim.run_process(fsck(prt))
    assert report.clean, report.summary()
    assert report.n_containers == 1
    assert report.n_extents == 1


def test_fsck_detects_dangling_container():
    """A container nobody references: hard error normally, downgraded to
    a warning after a crash (a seal that died before its index commit)."""
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt, _ino = _mini_fs(sim, store)
    sim.run_process(store.put("pc-orphan", b"\x00" * 64))
    report = sim.run_process(fsck(prt))
    assert not report.clean
    assert any("no referenced extents" in e for e in report.errors)
    report = sim.run_process(fsck(prt, after_crash=True))
    assert report.clean
    assert any("no referenced extents" in w for w in report.warnings)


def test_fsck_detects_dangling_extent():
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt, ino = _mini_fs(sim, store)
    sim.run_process(store.delete("pc-1"))
    report = sim.run_process(fsck(prt))
    assert any("missing container" in e for e in report.errors)
    report = sim.run_process(fsck(prt, after_crash=True))
    assert report.clean
    assert any("missing container" in w for w in report.warnings)


def test_fsck_detects_extent_past_container_end():
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt, ino = _mini_fs(sim, store)
    sim.run_process(prt.apply_extent_delta(
        ino, set_map={0: PackExtent("c-1", 50, 100)}))
    report = sim.run_process(fsck(prt, after_crash=True))
    assert not report.clean
    assert any("past the end of container" in e for e in report.errors)


def test_fsck_detects_extent_past_eof_and_double_copy():
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt, ino = _mini_fs(sim, store)
    # extent for a chunk past EOF
    sim.run_process(prt.apply_extent_delta(
        ino, set_map={5: PackExtent("c-1", 0, 10)}))
    # plain object duplicating the packed chunk 0
    sim.run_process(store.put(PRT.key_data(ino, 0), b"\x01" * 100))
    report = sim.run_process(fsck(prt))
    text = "\n".join(report.errors)
    assert "past EOF" in text
    assert "both a packed extent and a plain data object" in text
    report = sim.run_process(fsck(prt, after_crash=True))
    assert report.clean, report.summary()


def test_fsck_detects_index_for_dead_inode_and_low_live_ratio():
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt, ino = _mini_fs(sim, store)
    # Move the file's only extent into a big container where it covers
    # just 10%: compaction debt. The original container loses its last
    # reference. Also leave an index behind for an inode that's gone.
    sim.run_process(store.put("pc-2", b"\x00" * 1000))
    sim.run_process(prt.apply_extent_delta(
        ino, set_map={0: PackExtent("c-2", 0, 100)}))
    sim.run_process(prt.apply_extent_delta(
        0xdead, set_map={0: PackExtent("c-2", 900, 50)}))
    report = sim.run_process(fsck(prt))
    assert any("extent index for nonexistent inode" in e
               for e in report.errors)
    report = sim.run_process(fsck(prt, after_crash=True))
    assert report.clean
    assert any("live ratio" in w for w in report.warnings), report.summary()
    assert any("no referenced extents" in w for w in report.warnings)


def test_fsck_detects_unparseable_index():
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt, ino = _mini_fs(sim, store)
    sim.run_process(store.put(PRT.key_extent_index(ino), b"not-json"))
    report = sim.run_process(fsck(prt, after_crash=True))
    assert any("unparseable extent index" in e for e in report.errors)


# --------------------------------------------------- stress + consistency


@pytest.mark.parametrize("seed", [0, 1])
def test_mixed_workload_settles_clean(seed):
    """A mixed small/large create/overwrite/unlink/truncate workload on
    the realistic store settles to a clean fsck with correct contents."""
    import random
    rng = random.Random(seed)
    sim, cluster = _build(n_clients=2, functional=False)
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/w")
    expect = {}
    for step in range(40):
        op = rng.random()
        name = f"/w/f{rng.randrange(12)}"
        if op < 0.55 or name not in expect:
            n = rng.choice([500, 5_000, 60_000, 300_000])
            data = bytes([rng.randrange(1, 255)]) * n
            fs.write_file(name, data, do_fsync=(step % 5 == 0))
            expect[name] = data
        elif op < 0.75:
            fs.unlink(name)
            del expect[name]
        else:
            new_size = rng.randrange(0, len(expect[name]) + 1)
            fs.truncate(name, new_size)
            expect[name] = expect[name][:new_size]
    _settle(sim, cluster, extra=6.0)
    _settle(sim, cluster, extra=2.0)
    sim.run_process(cluster.client(0).drop_caches())
    for path, data in sorted(expect.items()):
        assert fs.read_file(path) == data, path
    report = sim.run_process(fsck(cluster.prt))
    assert report.clean, report.summary()
