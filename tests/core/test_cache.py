"""Data object cache: write-back, read-ahead window policy, eviction."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PRT, DataObjectCache, PackedCache, ReadAheadState
from repro.objectstore import InMemoryObjectStore
from repro.objectstore.errors import StoreUnavailable
from repro.sim import Simulator


ESZ = 128  # tiny entries for tests


@pytest.fixture
def env():
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt = PRT(store, data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=8 * ESZ, max_readahead=4 * ESZ)
    return sim, store, prt, cache


def run(sim, gen):
    return sim.run_process(gen)


class TestWriteBack:
    def test_write_is_cached_not_stored(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"dirty data", old_size=0))
        assert prt.key_data(1, 0) not in store
        assert cache.has_dirty(1)

    def test_flush_persists(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"dirty data", old_size=0))
        run(sim, cache.flush(1))
        assert store.sync_get(prt.key_data(1, 0)) == b"dirty data"
        assert not cache.has_dirty(1)

    def test_read_after_write_hits_cache(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"abcdef", old_size=0))
        assert run(sim, cache.read(1, 2, 3)) == b"cde"
        assert cache.stats["hits"] >= 1

    def test_partial_write_fetches_existing(self, env):
        sim, store, prt, cache = env
        store.sync_put(prt.key_data(1, 0), b"A" * ESZ)
        run(sim, cache.write(1, 10, b"BB", old_size=ESZ))
        run(sim, cache.flush(1))
        out = store.sync_get(prt.key_data(1, 0))
        assert out == b"A" * 10 + b"BB" + b"A" * (ESZ - 12)

    def test_full_overwrite_skips_fetch(self, env):
        sim, store, prt, cache = env
        store.sync_put(prt.key_data(1, 0), b"A" * ESZ)
        gets_before = store.op_counts["get"]
        run(sim, cache.write(1, 0, b"B" * ESZ, old_size=ESZ))
        assert store.op_counts["get"] == gets_before

    def test_write_beyond_eof_no_fetch(self, env):
        sim, store, prt, cache = env
        gets_before = store.op_counts["get"]
        run(sim, cache.write(1, 5 * ESZ, b"tail", old_size=10))
        assert store.op_counts["get"] == gets_before

    def test_write_spanning_entries(self, env):
        sim, store, prt, cache = env
        data = bytes(range(256)) * ((2 * ESZ + 50) // 256 + 1)
        data = data[: 2 * ESZ + 50]
        run(sim, cache.write(1, 0, data, old_size=0))
        run(sim, cache.flush(1))
        whole = b"".join(store.sync_get(prt.key_data(1, i)) for i in range(3))
        assert whole == data


class TestReadPath:
    def test_miss_fetches_from_store(self, env):
        sim, store, prt, cache = env
        store.sync_put(prt.key_data(1, 0), b"stored!")
        assert run(sim, cache.read(1, 0, 7)) == b"stored!"
        assert cache.stats["misses"] == 1

    def test_hole_reads_zeros(self, env):
        sim, store, prt, cache = env
        store.sync_put(prt.key_data(1, 1), b"x" * ESZ)
        out = run(sim, cache.read(1, 0, ESZ + 4))
        assert out == b"\x00" * ESZ + b"xxxx"

    def test_zero_length_read(self, env):
        sim, store, prt, cache = env
        assert run(sim, cache.read(1, 0, 0)) == b""


class TestReadAheadPolicy:
    def test_read_from_start_opens_max_window(self):
        ra = ReadAheadState()
        ra.on_read(0, 10, entry_size=ESZ, max_readahead=4 * ESZ)
        assert ra.window == 4 * ESZ

    def test_sequential_reads_double_window(self):
        ra = ReadAheadState()
        ra.on_read(100, 50, entry_size=ESZ, max_readahead=8 * ESZ)
        assert ra.window == ESZ
        ra.on_read(150, 50, ESZ, 8 * ESZ)
        assert ra.window == 2 * ESZ
        ra.on_read(200, 50, ESZ, 8 * ESZ)
        assert ra.window == 4 * ESZ

    def test_window_capped_at_max(self):
        ra = ReadAheadState()
        ra.on_read(0, 10, ESZ, 2 * ESZ)
        assert ra.window == 2 * ESZ
        ra.on_read(10, 10, ESZ, 2 * ESZ)
        assert ra.window == 2 * ESZ

    def test_random_access_shrinks_window(self):
        ra = ReadAheadState()
        ra.on_read(0, 10, ESZ, 8 * ESZ)
        assert ra.window == 8 * ESZ
        ra.on_read(5000, 10, ESZ, 8 * ESZ)  # jump
        assert ra.window == ESZ

    def test_prefetch_populates_ahead(self, env):
        sim, store, prt, cache = env
        for i in range(6):
            store.sync_put(prt.key_data(1, i), bytes([i]) * ESZ)
        ra = ReadAheadState()
        run(sim, cache.read(1, 0, 10, ra=ra))
        sim.run()  # let async prefetch processes complete
        assert cache.stats["prefetches"] > 0
        assert cache.cached_entries(1) > 1

    def test_prefetched_read_is_hit(self, env):
        sim, store, prt, cache = env
        for i in range(4):
            store.sync_put(prt.key_data(1, i), bytes([i]) * ESZ)
        ra = ReadAheadState()
        run(sim, cache.read(1, 0, ESZ, ra=ra))
        sim.run()
        misses_before = cache.stats["misses"]
        run(sim, cache.read(1, ESZ, ESZ, ra=ra))
        assert cache.stats["misses"] == misses_before


class TestEviction:
    def test_capacity_enforced(self, env):
        sim, store, prt, cache = env
        for i in range(20):
            run(sim, cache.write(1, i * ESZ, b"z" * ESZ, old_size=i * ESZ))
        assert cache.total_entries <= cache.capacity

    def test_eviction_flushes_dirty_victim(self, env):
        sim, store, prt, cache = env
        for i in range(cache.capacity + 2):
            run(sim, cache.write(1, i * ESZ, bytes([i]) * ESZ,
                                 old_size=i * ESZ))
        # The first (LRU) entries were evicted and must be durable.
        assert store.sync_get(prt.key_data(1, 0)) == bytes([0]) * ESZ
        assert cache.stats["evictions"] >= 2

    def test_lru_order(self, env):
        sim, store, prt, cache = env
        for i in range(cache.capacity):
            run(sim, cache.write(1, i * ESZ, b"x" * ESZ, old_size=i * ESZ))
        # Touch entry 0 so entry 1 becomes LRU.
        run(sim, cache.read(1, 0, 4))
        run(sim, cache.write(1, cache.capacity * ESZ, b"y" * ESZ,
                             old_size=cache.capacity * ESZ))
        assert cache.cached_entries(1) == cache.capacity
        # Entry 1 was evicted (flushed); entry 0 still cached.
        fc_keys = set()
        for ino_idx, _ in cache._lru.items():
            fc_keys.add(ino_idx[1])
        assert 0 in fc_keys and 1 not in fc_keys


class TestInvalidation:
    def test_invalidate_flushes_then_drops(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"keepme", old_size=0))
        run(sim, cache.invalidate(1, flush_dirty=True))
        assert cache.cached_entries(1) == 0
        assert store.sync_get(prt.key_data(1, 0)) == b"keepme"

    def test_invalidate_discard_loses_dirty(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"loseme", old_size=0))
        run(sim, cache.invalidate(1, flush_dirty=False))
        assert prt.key_data(1, 0) not in store

    def test_discard_all_instant(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"x", old_size=0))
        cache.discard_all()
        assert cache.total_entries == 0

    def test_drop_all_flushes_everything(self, env):
        sim, store, prt, cache = env
        run(sim, cache.write(1, 0, b"a", old_size=0))
        run(sim, cache.write(2, 0, b"b", old_size=0))
        run(sim, cache.drop_all())
        assert store.sync_get(prt.key_data(1, 0)) == b"a"
        assert store.sync_get(prt.key_data(2, 0)) == b"b"
        assert cache.total_entries == 0


def test_entry_size_must_match_prt():
    sim = Simulator()
    prt = PRT(InMemoryObjectStore(sim), 64)
    with pytest.raises(ValueError):
        DataObjectCache(sim, prt, None, entry_size=128, capacity_bytes=1024,
                        max_readahead=256)


# -- same bytes, however they are held ---------------------------------------
#
# A cache entry holds its bytes in one of three shapes (borrowed tail,
# immutable, in place) and shares immutable objects with its callers and with
# the store. The tests below fix what must not depend on the shape.

MSZ = 64          # entry size of the model test
INOS = (1, 2)


class _FailingStore(InMemoryObjectStore):
    """In-memory store whose next ``fail_puts`` PUTs fail, not retryably."""

    fail_puts = 0

    def put(self, key, data, src=None):
        if self.fail_puts:
            self.fail_puts -= 1
            yield self.sim.timeout(0)
            raise StoreUnavailable("injected PUT failure")
        yield from super().put(key, data, src=src)


def _stored(store, prt, ino):
    """What the store holds of a file: its objects, holes zero-filled."""
    out = bytearray()
    for key in store.sync_list(prt.key_data_prefix(ino)):
        obj = store.sync_get(key)
        assert type(obj) is bytes and 0 < len(obj) <= MSZ
        start = int(key.rsplit("/", 1)[1]) * MSZ
        if len(out) < start + len(obj):
            out.extend(bytes(start + len(obj) - len(out)))
        out[start:start + len(obj)] = obj
    return out


def _check_cache_shape(cache, esz=MSZ):
    assert cache.total_entries <= cache.capacity
    for (ino, idx), entry in cache._lru.items():
        fc = cache._files.get(ino)
        assert fc is not None and fc.tree.get(idx) is entry, \
            f"entry {(ino, idx)} is in the LRU but unreachable through _files"
    for ino, fc in cache._files.items():
        for idx, entry in fc.tree.items():
            assert cache._lru.get((ino, idx)) is entry
            assert entry.ready
            if type(entry.data) is bytes:
                assert all(type(t) is bytes for t in entry.tail)
                assert entry.size == len(entry.data) + sum(map(len, entry.tail))
            else:
                assert type(entry.data) is bytearray and not entry.tail
                assert entry.size <= len(entry.data)
                assert not any(entry.data[entry.size:])
            assert entry.size <= esz


_ino = st.sampled_from(INOS)
_write = st.tuples(
    _ino,
    st.integers(0, 9),                 # < 6: append at EOF, else any offset
    st.integers(0, 1 << 16),           # offset selector
    st.integers(1, 3 * MSZ),           # length
    st.sampled_from((bytes, bytearray, memoryview)))
_ops = st.one_of(
    st.tuples(st.just("write"), _write),
    st.tuples(st.just("write"), _write),
    st.tuples(st.just("read"), _ino, st.integers(0, 1 << 16),
              st.integers(0, 1 << 16), st.booleans()),
    st.tuples(st.just("flush"), _ino),
    st.tuples(st.just("flush_fails"), _ino),
    st.tuples(st.just("write_during_flush"), _write),
    st.tuples(st.just("invalidate"), _ino, st.booleans()),
    st.tuples(st.just("drop_all")),
)


@settings(max_examples=400, deadline=None)
@given(capacity=st.sampled_from((1, 2, 3, 8, 64)),
       ops=st.lists(_ops, min_size=1, max_size=40))
def test_cache_equals_a_flat_model(capacity, ops):
    sim = Simulator()
    store = _FailingStore(sim)
    prt = PRT(store, data_object_size=MSZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=MSZ,
                            capacity_bytes=capacity * MSZ,
                            max_readahead=4 * MSZ)
    model = {ino: bytearray() for ino in INOS}
    ras = {ino: ReadAheadState() for ino in INOS}
    results = []   # (what read returned, a private copy of it)
    stamp = [0]

    def together(*gens):
        procs = [sim.process(g) for g in gens]
        sim.run()
        return procs

    def write_op(spec):
        """The cache write, and the caller scribbling over its buffer the
        moment the call returns (the cache may keep bytes, never views)."""
        ino, mode, sel, n, kind = spec
        size = len(model[ino])
        off = size if mode < 6 else sel % (size + 2 * MSZ + 1)
        stamp[0] += 1
        want = bytes((stamp[0] * 31 + i) % 255 + 1 for i in range(n))
        buf = bytearray(want)
        payload = (want if kind is bytes else buf if kind is bytearray
                   else memoryview(buf))

        def gen():
            yield from cache.write(ino, off, payload, old_size=size)
            buf[:] = b"\xee" * n

        m = model[ino]
        if len(m) < off:
            m.extend(bytes(off - len(m)))
        m[off:off + n] = want
        return gen()

    for op in ops:
        kind = op[0]
        if kind == "write":
            run(sim, write_op(op[1]))
        elif kind == "read":
            _, ino, a, b, use_ra = op
            size = len(model[ino])
            if size:
                off = a % size
                n = 1 + b % min(size - off, 3 * MSZ)
                if use_ra:
                    # A demand read of several missing entries starts its
                    # fetches after the read-ahead it has just scheduled and
                    # overshoots ``capacity`` by up to its own width (at the
                    # parent too; ROADMAP item 1) — keep the bound exact
                    # here by reading ahead from single-entry reads only.
                    n = min(n, MSZ - off % MSZ)
                got = run(sim, cache.read(ino, off, n,
                                          ra=ras[ino] if use_ra else None))
                assert type(got) is bytes
                assert got == model[ino][off:off + n]
                results.append((got, bytes(bytearray(got))))
        elif kind == "flush":
            run(sim, cache.flush(op[1]))
            assert not cache.has_dirty(op[1])
        elif kind == "flush_fails":
            # The PUT of one dirty entry fails: flush raises, nothing is
            # lost, and the next flush writes it.
            dirty = cache.has_dirty(op[1])
            store.fail_puts = 1
            (proc,) = together(cache.flush(op[1]))
            store.fail_puts = 0
            assert proc.ok != dirty
            assert cache.has_dirty(op[1]) == dirty
        elif kind == "write_during_flush":
            # The flush is suspended inside its PUTs when the write lands.
            procs = together(cache.flush(op[1][0]), write_op(op[1]))
            assert all(p.ok for p in procs)
        elif kind == "invalidate":
            _, ino, flush_dirty = op
            run(sim, cache.invalidate(ino, flush_dirty=flush_dirty))
            assert cache.cached_entries(ino) == 0
            if not flush_dirty:
                model[ino] = _stored(store, prt, ino)
        else:
            run(sim, cache.drop_all())
            assert cache.total_entries == 0
        sim.run()   # read-ahead left over from this step
        _check_cache_shape(cache)
        for got, copy in results:
            assert got == copy

    run(sim, cache.drop_all())
    for ino in INOS:
        assert _stored(store, prt, ino) == model[ino]


def test_evicting_a_files_last_entry_keeps_the_entry_that_replaces_it():
    """``_make_room`` may drop the file's ``_FileCache`` while ``_get_entry``
    is suspended in it; the blank entry must go into the live one, or the
    bytes are dirty, unreachable and never flushed."""
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt = PRT(store, data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=2 * ESZ, max_readahead=0)
    run(sim, cache.write(1, 0, b"a" * ESZ, old_size=0))
    run(sim, cache.write(2, 0, b"b" * ESZ, old_size=0))
    run(sim, cache.write(1, ESZ, b"c" * ESZ, old_size=ESZ))
    assert cache.has_dirty(1)
    assert run(sim, cache.read(1, ESZ, 8)) == b"c" * 8
    run(sim, cache.flush(1))
    assert store.sync_get(prt.key_data(1, 1)) == b"c" * ESZ
    _check_cache_shape(cache, ESZ)


def test_one_host_copy_per_byte():
    """8 MiB streamed through the cache over the in-memory store: after the
    flush one copy is resident (cache and store share it), and no phase
    ever holds more than a quarter on top."""
    esz, call, total = 64 * 1024, 16 * 1024, 8 * 1024 * 1024
    tracemalloc.start()
    try:
        sim = Simulator()
        store = InMemoryObjectStore(sim)
        prt = PRT(store, data_object_size=esz)
        cache = DataObjectCache(sim, prt, node=None, entry_size=esz,
                                capacity_bytes=2 * total, max_readahead=0)
        base = tracemalloc.get_traced_memory()[0]
        for off in range(0, total, call):
            run(sim, cache.write(7, off, bytes([off // call % 251 + 1]) * call,
                                 old_size=off))
        run(sim, cache.flush(7))
        after_flush = tracemalloc.get_traced_memory()[0] - base
        run(sim, cache.drop_all())
        for _pass in ("cold", "warm"):
            for off in range(0, total, call):
                got = run(sim, cache.read(7, off, call))
                assert got == bytes([off // call % 251 + 1]) * call
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert after_flush <= 1.1 * total, after_flush / total
    assert peak <= 1.25 * total, peak / total


def test_alternating_appends_and_reads_settle_in_place():
    """``tail -f``: the first read joins the tail, the second finds a tail
    on top of a base and moves the entry in place — from then on appends
    and reads touch only their own bytes, in one buffer, until a writeback
    turns that buffer into the immutable object the store keeps."""
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    esz, step = 4096, 64
    prt = PRT(store, data_object_size=esz)
    cache = DataObjectCache(sim, prt, node=None, entry_size=esz,
                            capacity_bytes=4 * esz, max_readahead=0)
    entry, buf, want = None, None, b""
    for i in range(esz // step):
        piece = bytes([i + 1]) * step
        run(sim, cache.write(1, i * step, piece, old_size=i * step))
        want += piece
        assert run(sim, cache.read(1, i * step, step)) == piece
        entry = entry or cache._files[1].tree.get(0)
        if i == 0:
            assert entry.data is piece and not entry.tail   # borrowed
        elif i == 1:
            buf = entry.data
            assert type(buf) is bytearray
        else:
            assert entry.data is buf and not entry.tail
    assert run(sim, cache.read(1, 0, esz)) == want
    run(sim, cache.flush(1))
    assert type(entry.data) is bytes and entry.data == want
    assert store.sync_get(prt.key_data(1, 0)) is entry.data


def _entries(cache, ino):
    return [cache._files[ino].tree.get(i) for i in range(
        cache.cached_entries(ino))]


def _stream(sim, cache, ino, start, pieces):
    off = start
    for piece in pieces:
        run(sim, cache.write(ino, off, piece, old_size=off))
        off += len(piece)


class TestFillFreezes:
    """A sequential append that fills its entry joins it there, once: a
    full entry is one ``bytes`` before any flush, and the flush ships that
    very object."""

    def test_filled_entries_are_one_object_before_any_flush(self, env):
        sim, store, prt, cache = env
        pieces = [bytes([i + 1]) * 48 for i in range(7)]  # 48 ∤ ESZ
        _stream(sim, cache, 1, 0, pieces)
        want = b"".join(pieces)
        full0, full1, part = _entries(cache, 1)
        for entry in (full0, full1):
            assert type(entry.data) is bytes and len(entry.data) == ESZ
            assert entry.tail == [] and entry.size == ESZ
        # The partial entry still borrows its pieces.
        assert part.data == b"" and part.size == len(want) - 2 * ESZ
        assert part.tail[-1] is pieces[-1]
        run(sim, cache.flush(1))
        for entry in (full0, full1, part):
            got = store.sync_get(prt.key_data(1, entry.index))
            assert got is entry.data
            assert got == want[entry.index * ESZ:(entry.index + 1) * ESZ]

    def test_a_fill_on_top_of_a_base_freezes(self, env):
        sim, store, prt, cache = env
        first = [b"a" * 50, b"b" * 30]
        _stream(sim, cache, 1, 0, first)
        run(sim, cache.flush(1))
        (entry,) = _entries(cache, 1)
        base = entry.data
        assert type(base) is bytes and len(base) == 80
        rest = [b"c" * 30, b"d" * 18]
        _stream(sim, cache, 1, 80, rest)
        assert type(entry.data) is bytes and len(entry.data) == ESZ
        assert entry.tail == []
        run(sim, cache.flush(1))
        got = store.sync_get(prt.key_data(1, 0))
        assert got is entry.data and got == b"".join(first + rest)
        assert base == b"a" * 50 + b"b" * 30

    def test_overwriting_a_filled_entry_copies_it(self, env):
        sim, store, prt, cache = env
        pieces = [b"x" * 100, b"y" * 28]
        _stream(sim, cache, 1, 0, pieces)
        (entry,) = _entries(cache, 1)
        frozen = entry.data
        assert type(frozen) is bytes and len(frozen) == ESZ
        run(sim, cache.write(1, 10, b"Z" * 10, old_size=ESZ))
        assert type(entry.data) is bytearray
        assert frozen == b"x" * 100 + b"y" * 28
        run(sim, cache.flush(1))
        got = store.sync_get(prt.key_data(1, 0))
        assert got is entry.data
        assert got == b"x" * 10 + b"Z" * 10 + b"x" * 80 + b"y" * 28


def test_fetch_copies_what_is_not_immutable():
    """A fetch keeps the object it is handed only if that is ``bytes``; a
    pack layer (or store) handing out a buffer of its own gets it copied."""
    sim = Simulator()
    prt = PRT(InMemoryObjectStore(sim), data_object_size=ESZ)
    handed = []

    class Pack:
        def fetch_chunk(self, ino, index):
            yield sim.timeout(0)
            handed.append(bytearray(b"p" * ESZ))
            return handed[-1]

    cache = PackedCache(sim, prt, node=None, entry_size=ESZ,
                        capacity_bytes=8 * ESZ, max_readahead=0, pack=Pack())
    first = run(sim, cache.read(1, 0, ESZ))
    handed[0][:] = b"!" * ESZ
    assert type(first) is bytes and first == b"p" * ESZ
    assert run(sim, cache.read(1, 0, ESZ)) == b"p" * ESZ
    assert len(handed) == 1


class OverCapacity(Exception):
    """The read returned the right bytes and left more entries than the
    cache holds: ROADMAP 1(ii), and nothing else."""


@pytest.mark.xfail(raises=OverCapacity, strict=True, reason=(
    "a demand read of >= 2 missing entries starts its fetches after the "
    "read-ahead it scheduled, so _make_room does not see the reservations "
    "(ROADMAP 1(ii))"))
def test_cold_read_ahead_stays_within_capacity():
    sim = Simulator()
    store = InMemoryObjectStore(sim)
    prt = PRT(store, data_object_size=MSZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=MSZ,
                            capacity_bytes=2 * MSZ, max_readahead=4 * MSZ)
    data = bytes(range(65))
    run(sim, cache.write(1, 0, data, old_size=0))
    run(sim, cache.drop_all())
    assert cache.total_entries == 0
    assert run(sim, cache.read(1, 0, 65, ra=ReadAheadState())) == data
    sim.run()   # the read-ahead it scheduled
    if cache.total_entries > cache.capacity:
        raise OverCapacity(f"{cache.total_entries} entries in a cache of "
                           f"{cache.capacity}")
