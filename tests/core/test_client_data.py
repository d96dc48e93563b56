"""ArkFS data path: reads, writes, append, truncate, sharing, leases."""

import pytest

from repro.baselines import build_cephfs
from repro.baselines.cephfs import CephLikeClient
from repro.core import DEFAULT_PARAMS, build_arkfs
from repro.core.client import ArkFSClient
from repro.core.datapath import LeasedDataPath, OpenFile, OpenState
from repro.posix import BadFileHandle, OpenFlags, ROOT_CREDS, SyncFS
from repro.core.filelease import DIRECT, WRITE
from repro.sim import Simulator


OSZ_HINT = 2 * 1024 * 1024  # default data object size


class TestBasicIO:
    def test_roundtrip_small(self, fs):
        fs.write_file("/f", b"hello")
        assert fs.read_file("/f") == b"hello"

    def test_roundtrip_multi_object(self, fs, cluster):
        osz = cluster.params.data_object_size
        data = bytes(i % 251 for i in range(2 * osz + 123))
        fs.write_file("/big", data, do_fsync=True)
        assert fs.read_file("/big") == data

    def test_sequential_writes_append_via_handle(self, fs):
        h = fs.create("/f")
        h.write(b"abc")
        h.write(b"def")
        h.close()
        assert fs.read_file("/f") == b"abcdef"

    def test_pwrite_pread_do_not_move_offset(self, fs):
        h = fs.open("/f", OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        h.write(b"0123456789")
        assert h.read(4, offset=2) == b"2345"
        assert h.handle.pos == 10
        h.write(b"XX", offset=0)
        h.close()
        assert fs.read_file("/f") == b"XX23456789"

    def test_read_past_eof_returns_empty(self, fs):
        fs.write_file("/f", b"short")
        h = fs.open("/f", OpenFlags.O_RDONLY)
        assert h.read(100, offset=10) == b""
        h.close()

    def test_read_clipped_at_eof(self, fs):
        fs.write_file("/f", b"12345")
        h = fs.open("/f", OpenFlags.O_RDONLY)
        assert h.read(100) == b"12345"
        h.close()

    def test_overwrite_in_middle(self, fs):
        fs.write_file("/f", b"A" * 100)
        h = fs.open("/f", OpenFlags.O_WRONLY)
        h.write(b"B" * 10, offset=45)
        h.close()
        data = fs.read_file("/f")
        assert data == b"A" * 45 + b"B" * 10 + b"A" * 45

    def test_sparse_write_reads_zeros(self, fs):
        h = fs.open("/f", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        h.write(b"end", offset=1000)
        h.close()
        data = fs.read_file("/f")
        assert len(data) == 1003
        assert data[:1000] == b"\x00" * 1000
        assert data[-3:] == b"end"

    def test_append_flag(self, fs):
        fs.write_file("/log", b"line1\n")
        h = fs.open("/log", OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
        h.write(b"line2\n")
        h.close()
        assert fs.read_file("/log") == b"line1\nline2\n"

    def test_append_ignores_explicit_offset_positioning(self, fs):
        fs.write_file("/f", b"12345")
        h = fs.open("/f", OpenFlags.O_WRONLY | OpenFlags.O_APPEND)
        h.handle.pos = 0
        h.write(b"X")
        h.close()
        assert fs.read_file("/f") == b"12345X"


class TestHandleRules:
    def test_read_on_writeonly_fails(self, fs):
        h = fs.open("/f", OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        with pytest.raises(BadFileHandle):
            h.read(10)
        h.close()

    def test_write_on_readonly_fails(self, fs):
        fs.write_file("/f", b"x")
        h = fs.open("/f", OpenFlags.O_RDONLY)
        with pytest.raises(BadFileHandle):
            h.write(b"y")
        h.close()

    def test_use_after_close_fails(self, fs):
        h = fs.create("/f")
        h.close()
        with pytest.raises(BadFileHandle):
            h.write(b"x")


class TestTruncate:
    def test_truncate_shrink(self, fs):
        fs.write_file("/f", b"0123456789")
        fs.truncate("/f", 4)
        assert fs.stat("/f").st_size == 4
        assert fs.read_file("/f") == b"0123"

    def test_truncate_grow_zero_fills(self, fs):
        fs.write_file("/f", b"ab")
        fs.truncate("/f", 6)
        assert fs.stat("/f").st_size == 6
        assert fs.read_file("/f") == b"ab\x00\x00\x00\x00"

    def test_truncate_to_zero(self, fs):
        fs.write_file("/f", b"data", do_fsync=True)
        fs.truncate("/f", 0)
        assert fs.read_file("/f") == b""

    def test_truncate_multi_object(self, fs, cluster):
        osz = cluster.params.data_object_size
        fs.write_file("/f", b"q" * (3 * osz), do_fsync=True)
        fs.truncate("/f", osz + 10)
        assert fs.stat("/f").st_size == osz + 10
        assert fs.read_file("/f") == b"q" * (osz + 10)


def test_truncate_under_open_handle(fs):
    h = fs.open("/f", OpenFlags.O_CREAT | OpenFlags.O_RDWR)
    h.write(b"A" * 100)
    fs.truncate("/f", 10)
    h.write(b"B", offset=50)
    try:
        assert h.read(100, offset=0) == b"A" * 10 + b"\x00" * 40 + b"B"
    finally:
        h.close()


class TestDurability:
    def test_fsync_persists_data_to_store(self, fs, cluster):
        h = fs.create("/f")
        h.write(b"durable")
        h.fsync()
        h.close()
        # Data object must now exist in the backing store.
        client = cluster.client(0)
        ino = fs.stat("/f").st_ino
        key = cluster.prt.key_data(ino, 0)
        assert key in cluster.store

    def test_unfsynced_write_is_cached_not_stored(self, fs, cluster):
        h = fs.create("/f")
        h.write(b"volatile")
        h.close()
        ino = fs.stat("/f").st_ino
        assert cluster.prt.key_data(ino, 0) not in cluster.store
        # ... but a sync() pushes it out.
        fs._run(cluster.client(0).sync())
        assert cluster.prt.key_data(ino, 0) in cluster.store

    def test_acknowledged_fsync_under_cache_pressure(self):
        """Two files written alternately through a two-entry cache: the
        eviction that makes room for /a's second object takes /a's first —
        its only cached entry — and the new one must stay reachable."""
        blk = 64 * 1024
        sim = Simulator()
        cluster = build_arkfs(
            sim, n_clients=1, functional=True,
            params=DEFAULT_PARAMS.with_(data_object_size=blk,
                                        cache_capacity_bytes=2 * blk))
        fs = SyncFS(cluster.client(0), ROOT_CREDS)
        ha = fs.open("/a", OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        hb = fs.open("/b", OpenFlags.O_CREAT | OpenFlags.O_RDWR)
        ha.write(b"a" * blk)
        hb.write(b"b" * blk)
        ha.write(b"A" * blk)
        assert ha.read(4, offset=blk) == b"AAAA"
        ha.fsync()
        key = cluster.prt.key_data(ha.handle.ino, 1)
        assert key in cluster.store
        assert cluster.store.sync_get(key) == b"A" * blk
        ha.close()
        hb.close()

    def test_journal_commit_interval_flushes_metadata(self, fs, sim, cluster):
        fs.create("/f").close()
        ino = fs.stat("/f").st_ino
        key = cluster.prt.key_inode(ino)
        assert key not in cluster.store  # still buffered in the running txn
        sim.run(until=sim.now + 2.0)     # > journal_commit_interval
        assert key in cluster.store


class TestSharing:
    def test_reader_sees_writer_data_across_clients(self, fs, fs2):
        fs.write_file("/shared.txt", b"v1")
        assert fs2.read_file("/shared.txt") == b"v1"

    def test_write_then_other_client_reads_without_fsync(self, fs, fs2):
        """Write-back cached data must be flushed when another client gains
        a read lease (leader revokes the writer)."""
        h = fs.create("/wb.txt")
        h.write(b"write-back data")
        h.close()
        assert fs2.read_file("/wb.txt") == b"write-back data"

    def test_concurrent_readers_both_cache(self, fs, fs2, cluster):
        fs.write_file("/r.txt", b"cacheable", do_fsync=True)
        assert fs.read_file("/r.txt") == b"cacheable"
        assert fs2.read_file("/r.txt") == b"cacheable"
        ino = fs.stat("/r.txt").st_ino
        assert cluster.client(1).cache.cached_entries(ino) > 0

    def test_write_conflict_forces_direct_mode(self, cluster, fs, fs2, sim):
        """Two clients holding leases + a write -> direct I/O (paper III-D)."""
        fs.write_file("/c.txt", b"base", do_fsync=True)
        # Both clients open and hold read leases.
        h1 = fs.open("/c.txt", OpenFlags.O_RDWR)
        h2 = fs2.open("/c.txt", OpenFlags.O_RDWR)
        h1.read(4)
        h2.read(4)
        # Writer on client2: other read-lease holders exist -> direct mode.
        h2.write(b"NEW!", offset=0)
        ino = fs.stat("/c.txt").st_ino
        leader = cluster.client(0)
        assert leader.fleases.is_direct(ino)
        # Direct writes bypass the cache and land in storage at once.
        assert fs.read_file("/c.txt") == b"NEW!"
        h1.close()
        h2.close()

    def test_sole_writer_gets_exclusive_write_lease(self, cluster, fs):
        fs.write_file("/solo.txt", b"x", do_fsync=True)
        h = fs.open("/solo.txt", OpenFlags.O_WRONLY)
        h.write(b"y")
        ino = fs.stat("/solo.txt").st_ino
        leader = cluster.client(0)
        assert not leader.fleases.is_direct(ino)
        st = leader.fleases.files[ino]
        assert st.holders["client0"][0] == WRITE
        h.close()

    def test_size_visible_to_other_client_after_close(self, fs, fs2):
        h = fs.create("/grow.txt")
        h.write(b"123456")
        h.close()
        assert fs2.stat("/grow.txt").st_size == 6


def test_a_demoted_writer_handle_writes_direct(fs, fs2):
    fs.write_file("/c.txt", b"old!", do_fsync=True)
    h1 = fs.open("/c.txt", OpenFlags.O_RDWR)   # keeps client0's WRITE
    h2 = fs2.open("/c.txt", OpenFlags.O_RDWR)  # demotes client0 to READ
    h1.read(4)
    h2.read(4)
    h1.write(b"NEW!", offset=0)
    h1.close()
    h2.close()
    assert fs2.read_file("/c.txt") == b"NEW!"


# One open file, two handles: a writer ``hw`` on client 0 and a reader
# ``hr`` on client 0 too ("one_client") or on client 1 ("two_clients").
# Each event reaches them while both are open; then ``hw`` writes, ``hr``
# reads the whole file, both close, and client 2 reads the file. Every
# setup and system must see the bytes and size a local file system would.
BASE = b"A" * 100
AFTER = b"B" * 20 + b"A" * 20 + b"C" * 5 + b"A" * 55


def _reader_revokes(fss, sim):
    fss[2].read_file("/f")               # a READ lease revokes the writer


def _truncate(fss, sim):
    fss[0].truncate("/f", 10)


def _truncate_elsewhere(fss, sim):
    fss[2].truncate("/f", 10)            # reaches the writer by revocation


def _second_writer(fss, sim):
    h = fss[2].open("/f", OpenFlags.O_RDWR)
    h.write(b"D" * 4, offset=60)         # a write beside readers: DIRECT
    h.close()


def _lapse(fss, sim):
    sim.run(until=sim.now + fss[0].client.fleases.lease_period + 1.0)


def _reopen(fss, sim):
    """Client 2 grows the file; a second handle on client 0 then reads it
    and appends: the open must bring the grown size."""
    h = fss[2].open("/f", OpenFlags.O_RDWR)
    h.write(b"D" * 50, offset=100)
    h.close()
    h2 = fss[0].open("/f", OpenFlags.O_RDWR | OpenFlags.O_APPEND)
    seen = h2.read(200, offset=0)
    h2.write(b"E" * 5)
    h2.close()
    return seen


def _o_trunc(fss, sim):
    fss[0].open("/f", OpenFlags.O_RDWR | OpenFlags.O_TRUNC).close()


# event -> (its action, the file after the row, what the action read)
EVENTS = {
    "revoke": (_reader_revokes, AFTER, None),
    "truncate": (_truncate, b"B" * 10 + b"\x00" * 30 + b"C" * 5, None),
    "truncate_elsewhere": (_truncate_elsewhere,
                           b"B" * 10 + b"\x00" * 30 + b"C" * 5, None),
    "demote": (_second_writer, AFTER[:60] + b"D" * 4 + AFTER[64:], None),
    "lapse": (_lapse, AFTER, None),
    "reopen": (_reopen, AFTER + b"D" * 50 + b"E" * 5,
               b"B" * 20 + b"A" * 80 + b"D" * 50),
    "o_trunc": (_o_trunc, b"\x00" * 40 + b"C" * 5, None),
}
SETUPS = {"one_client": 0, "two_clients": 1}
TABLE_BUILDS = {"arkfs": build_arkfs, "cephfs": build_cephfs}


def open_file_row(build, setup: str, event: str):
    """What the handles and client 2 saw: (hr's bytes, the event's own
    read, size, re-read)."""
    sim = Simulator()
    cluster = build(sim, n_clients=3, functional=True)
    fss = [SyncFS(cluster.client(i), ROOT_CREDS) for i in range(3)]
    fss[0].write_file("/f", BASE, do_fsync=True)   # client 0 keeps WRITE
    hw = fss[0].open("/f", OpenFlags.O_RDWR)
    hr = fss[SETUPS[setup]].open("/f", OpenFlags.O_RDONLY)
    hr.read(100, offset=0)
    hw.write(b"B" * 20, offset=0)
    seen = EVENTS[event][0](fss, sim)
    hw.write(b"C" * 5, offset=40)
    got = hr.read(200, offset=0)
    hw.close()
    hr.close()
    return got, seen, fss[2].stat("/f").st_size, fss[2].read_file("/f")


def grow_row(build) -> int:
    """How many bytes an open reader on client 1 reads after client 0's
    path truncate grows the file from 100 to 200 bytes."""
    sim = Simulator()
    cluster = build(sim, n_clients=2, functional=True)
    fss = [SyncFS(cluster.client(i), ROOT_CREDS) for i in range(2)]
    fss[0].write_file("/g", BASE, do_fsync=True)
    h = fss[1].open("/g", OpenFlags.O_RDONLY)
    h.read(100, offset=0)                # a valid READ lease on client 1
    fss[0].truncate("/g", 200)
    try:
        return len(h.read(300, offset=0))
    finally:
        h.close()


def open_file_misses(build) -> set:
    """The rows of the table, and the grow row, whose outcome is not the
    local one."""
    misses = {(setup, event) for setup in SETUPS for event in EVENTS
              if open_file_row(build, setup, event) != (
                  EVENTS[event][1], EVENTS[event][2],
                  len(EVENTS[event][1]), EVENTS[event][1])}
    if grow_row(build) != 200:
        misses.add(("reader", "grow"))
    return misses


@pytest.mark.parametrize("system", list(TABLE_BUILDS))
@pytest.mark.parametrize("event", list(EVENTS))
@pytest.mark.parametrize("setup", list(SETUPS))
def test_open_file_table(system, setup, event):
    _action, want, seen = EVENTS[event]
    assert open_file_row(TABLE_BUILDS[system], setup, event) == (
        want, seen, len(want), want)


@pytest.mark.parametrize("system", list(TABLE_BUILDS))
def test_a_growing_truncate_reaches_an_open_reader(system):
    assert grow_row(TABLE_BUILDS[system]) == 200


def test_a_pre_crash_handle_leaves_the_new_record(sim, cluster, fs):
    fs.write_file("/f", b"x", do_fsync=True)
    h1 = fs.open("/f", OpenFlags.O_RDONLY)
    client = cluster.client(0)
    client.crash()
    sim.run(until=sim.now + 2 * cluster.params.lease_period + 1)
    client.restart()
    h2 = fs.open("/f", OpenFlags.O_RDONLY)
    h1.close()
    assert client._open_files[h2.handle.ino] is h2.handle.impl.file
    h2.close()
    assert not client._open_files


def pre_crash_close_dirs(sim, cluster, fs):
    """``_open_dirs`` after a pre-crash handle closes beside a new one,
    and after the new one closes too."""
    fs.write_file("/f", b"x", do_fsync=True)
    h1 = fs.open("/f", OpenFlags.O_RDONLY)
    client = cluster.client(0)
    client.crash()
    sim.run(until=sim.now + 2 * cluster.params.lease_period + 1)
    client.restart()
    h2 = fs.open("/f", OpenFlags.O_RDONLY)
    h1.close()
    beside = dict(client._open_dirs)
    h2.close()
    return beside, dict(client._open_dirs)


def test_a_pre_crash_handle_leaves_the_live_dir_count(sim, cluster, fs):
    root = fs.stat("/").st_ino
    assert pre_crash_close_dirs(sim, cluster, fs) == ({root: 1}, {})


_close = LeasedDataPath.close


def _pre_crash_close_counts(self, handle):
    """Seeded 1(xxii): a pre-crash handle's close decrements the live
    ``_open_dirs`` count."""
    stale = self._open_files.get(handle.ino) is not handle.impl.file
    yield from _close(self, handle)
    if stale:
        parent = handle.impl.parent_ino
        n = self._open_dirs.pop(parent, 1)
        if n > 1:
            self._open_dirs[parent] = n - 1


def test_seeded_pre_crash_close_bug(sim, cluster, fs, monkeypatch):
    monkeypatch.setattr(LeasedDataPath, "close", _pre_crash_close_counts)
    assert pre_crash_close_dirs(sim, cluster, fs) == ({}, {})


def _revocation_keeps_grant(self, ino, size=None):
    """Seeded 1(xvii): the holder drops its cache, not the grant."""
    yield from self.cache.invalidate(ino, flush_dirty=True)


def _no_truncated(self, ino, size):
    """Seeded 1(i), first half: the requester's record keeps its size."""
    return iter(())


_revoked = LeasedDataPath._revoked


def _sizeless_revocation(self, ino, size=None):
    """Seeded 1(xviii): a truncate's revocation does not carry its size."""
    return _revoked(self, ino)


def _open_keeps_record(self, handle, parent_ino, name, inode, grant):
    """Seeded: a second open shares the record as it stands."""
    f = self._open_files.setdefault(
        handle.ino, OpenFile(grant, inode.size, inode.mtime))
    f.count += 1
    handle.impl = OpenState(parent_ino, name, f)
    if handle.flags & OpenFlags.O_APPEND:
        handle.pos = f.size
    return f


_cut = LeasedDataPath._truncate_file_data


def _grow_revokes_nobody(self, ino, old_size, new_size):
    """Seeded: only a shrinking truncate revokes the file's holders."""
    if new_size < old_size:
        yield from _cut(self, ino, old_size, new_size)


def _sizeless(request):
    """Seeded 1(i), second half: a re-grant brings no size."""
    def hook(self, handle, st, want):
        grant, _size = yield from request(self, handle, st, want)
        return grant, None
    return hook


SEEDED = {
    "revocation keeps the handle's grant": (
        [(LeasedDataPath, "_revoked", _revocation_keeps_grant)],
        {("one_client", "revoke"), ("two_clients", "revoke")}),
    "truncate keeps the open size": (
        [(LeasedDataPath, "_truncated", _no_truncated),
         (ArkFSClient, "_request_lease",
          _sizeless(ArkFSClient._request_lease)),
         (CephLikeClient, "_request_lease",
          _sizeless(CephLikeClient._request_lease))],
        {("one_client", "truncate"), ("two_clients", "truncate"),
         ("one_client", "o_trunc")}),
    "a truncate's revocation carries no size": (
        [(LeasedDataPath, "_revoked", _sizeless_revocation)],
        {("one_client", "truncate_elsewhere")}),
    "a second open keeps the record's size": (
        [(LeasedDataPath, "_opened", _open_keeps_record)],
        {("one_client", "reopen"), ("two_clients", "reopen")}),
    "a growing truncate revokes no reader": (
        [(LeasedDataPath, "_truncate_file_data", _grow_revokes_nobody)],
        {("reader", "grow")}),
}


@pytest.mark.parametrize("bug", list(SEEDED))
def test_seeded_open_file_bugs(bug, monkeypatch):
    """Re-seed a fixed bug; its rows must fail on ArkFS and on CephFS. A
    crash sweep holds no handle across an event, so it lives here."""
    patches, must_fail = SEEDED[bug]
    for owner, attr, broken in patches:
        monkeypatch.setattr(owner, attr, broken)
    for system, build in TABLE_BUILDS.items():
        wrong = open_file_misses(build)
        assert must_fail <= wrong, (system, wrong)
