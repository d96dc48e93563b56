"""ArkFS data path: reads, writes, append, truncate, sharing, leases."""

import pytest

from repro.core import DEFAULT_PARAMS, build_arkfs
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


@pytest.mark.xfail(strict=True, reason=(
    "path truncate neither revokes file leases nor reaches open handles: "
    "OpenState.size stays stale and cached bytes past the new EOF survive "
    "(needs an open-handles-by-ino registry + lease revocation, ROADMAP "
    "item 1)"))
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


class StaleWriteGrantRead(Exception):
    """The other client read the bytes from before a closed write: ROADMAP
    1(xvii), and nothing else."""


@pytest.mark.xfail(raises=StaleWriteGrantRead, strict=True, reason=(
    "a handle keeps its WRITE grant after another client's read lease "
    "demotes it, so its next write is cached, not DIRECT (ROADMAP 1(xvii))"))
def test_a_demoted_writer_handle_writes_direct(fs, fs2):
    fs.write_file("/c.txt", b"old!", do_fsync=True)
    h1 = fs.open("/c.txt", OpenFlags.O_RDWR)   # keeps client0's WRITE
    h2 = fs2.open("/c.txt", OpenFlags.O_RDWR)  # demotes client0 to READ
    h1.read(4)
    h2.read(4)
    h1.write(b"NEW!", offset=0)
    h1.close()
    h2.close()
    got = fs2.read_file("/c.txt")
    if got == b"old!":
        raise StaleWriteGrantRead("client1 read b'old!' after the close")
    assert got == b"NEW!"
