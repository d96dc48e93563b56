"""Data object cache: write-back, read-ahead window policy, eviction."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PRT, DataObjectCache, ReadAheadState
from repro.objectstore import (InMemoryObjectStore, RestAPIRegistry,
                               RestObjectStore)
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
    REST backend (outside input) handing out a buffer of its own gets it
    copied."""
    sim = Simulator()
    handed = []

    def rest_get(key):
        yield sim.timeout(0)
        handed.append(bytearray(b"p" * ESZ))
        return handed[-1]

    def rest_nothing(*_args):
        yield sim.timeout(0)
        return []

    reg = (RestAPIRegistry().register("get", rest_get)
           .register("put", rest_nothing).register("delete", rest_nothing)
           .register("list", rest_nothing))
    prt = PRT(RestObjectStore(sim, reg), data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=8 * ESZ, max_readahead=0)
    first = run(sim, cache.read(1, 0, ESZ))
    handed[0][:] = b"!" * ESZ
    assert type(first) is bytes and first == b"p" * ESZ
    assert run(sim, cache.read(1, 0, ESZ)) == b"p" * ESZ
    assert len(handed) == 1


class OverCapacity(Exception):
    """The read returned the right bytes and left more entries than the
    cache holds: ROADMAP 1(ii), and nothing else."""


def test_cold_read_ahead_stays_within_capacity():
    """The read-ahead a cold read schedules starts before the read's own
    fetches; each fetch takes its slot when it lands, so the four of them
    leave the two entries a cache of two holds."""
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


class _SlowGetStore(InMemoryObjectStore):
    """A GET lands one simulated second after it is issued."""

    def get(self, key, src=None):
        self.op_counts["get"] += 1
        yield self.sim.timeout(1.0)
        return self.sync_get(key)


class _SlowPutStore(InMemoryObjectStore):
    """A PUT lands one simulated second after it is issued."""

    def put(self, key, data, src=None):
        self.op_counts["put"] += 1
        yield self.sim.timeout(1.0)
        self.sync_put(key, data)


class _SlowStore(_SlowGetStore, _SlowPutStore):
    """GETs and PUTs each land one simulated second after they are issued."""


def test_cold_readers_do_not_wait_for_each_others_gets():
    """Four processes read four one-entry files through a cache of two. A
    GET in flight holds no slot, so all four GETs start at once and every
    read returns when its own GET lands, not behind another's."""
    sim = Simulator()
    store = _SlowGetStore(sim)
    prt = PRT(store, data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=2 * ESZ, max_readahead=0)
    for ino in (1, 2, 3, 4):
        store.sync_put(prt.key_data(ino, 0), bytes([ino]) * ESZ)

    def reader(ino):
        data = yield from cache.read(ino, 0, ESZ)
        return sim.now, data

    procs = [sim.process(reader(ino)) for ino in (1, 2, 3, 4)]
    sim.run()
    assert [p.value[0] for p in procs] == [1.0] * 4
    assert [p.value[1] for p in procs] == [
        bytes([ino]) * ESZ for ino in (1, 2, 3, 4)]
    assert store.op_counts["get"] == 4
    assert cache.total_entries == 2


def test_waiters_on_an_evicted_fetch_lose_no_write():
    """A reader and a writer wait for f1's fetch while f2's and f3's fill
    a cache of two. The three land together and f3's evicts f1 before
    the waiters resume: the reader still gets f1's bytes, no evicted
    entry goes back on the LRU, and the write goes into a resident entry
    (one the flush finds), not into the evicted one."""
    sim = Simulator()
    store = _SlowGetStore(sim)
    prt = PRT(store, data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=2 * ESZ, max_readahead=0)
    for ino in (1, 2, 3):
        store.sync_put(prt.key_data(ino, 0), bytes([ino]) * ESZ)
    reads = [sim.process(cache.read(ino, 0, ESZ)) for ino in (1, 2, 3, 1)]
    sim.process(cache.write(1, 5, b"W" * 5, old_size=ESZ))
    sim.run()
    assert [r.value for r in reads] == [
        b"\1" * ESZ, b"\2" * ESZ, b"\3" * ESZ, b"\1" * ESZ]
    _check_cache_shape(cache, ESZ)
    run(sim, cache.drop_all())
    assert store.sync_get(prt.key_data(1, 0)) == (
        b"\1" * 5 + b"W" * 5 + b"\1" * (ESZ - 10))


def _at(sim, t, gen):
    """Run ``gen`` from simulated time ``t``; the process returns what
    ``gen`` returns."""
    def delayed():
        yield sim.timeout(t)
        return (yield from gen)
    return sim.process(delayed())


def test_an_invalidation_keeps_the_entry_a_new_file_cache_made():
    """An invalidation drops f1's ``_FileCache`` once its flush lands
    (1.1 s) and then waits for the fetch of entry 1 that a read started
    during the flush (it lands at 1.2 s). Meanwhile a write makes a new
    ``_FileCache`` with its own entry 1: the invalidation must drop only
    its own entry's LRU record, or the new one is in the tree but holds
    no slot."""
    sim = Simulator()
    store = _SlowStore(sim)
    prt = PRT(store, data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=2 * ESZ, max_readahead=0)
    store.sync_put(prt.key_data(1, 1), b"a" * ESZ)
    _at(sim, 0, cache.write(1, 0, b"x" * ESZ, old_size=2 * ESZ))
    _at(sim, 0.1, cache.invalidate(1))
    _at(sim, 0.2, cache.read(1, ESZ, ESZ))
    _at(sim, 1.15, cache.write(1, ESZ, b"b" * ESZ, old_size=2 * ESZ))
    sim.run()
    _check_cache_shape(cache, ESZ)
    assert cache.has_dirty(1)


class LostWrite(Exception):
    """An fsync returned and the store holds older bytes: ROADMAP
    1(xxvii)."""


def test_an_overwrite_of_an_eviction_in_flight_survives_fsync():
    """f1 is the head of a cache of two and its only dirty entry. A write
    of f3 at 0 s evicts it with a PUT that lands at 1 s. Another process
    overwrites f1 at 0.5 s and fsyncs it at 1.5 s: the store must then
    hold the overwrite."""
    sim = Simulator()
    store = _SlowPutStore(sim)
    prt = PRT(store, data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=2 * ESZ, max_readahead=0)
    run(sim, cache.write(2, 0, b"\2" * 10, old_size=0))
    run(sim, cache.flush(2))
    run(sim, cache.write(1, 0, b"\1" * 10, old_size=0))
    run(sim, cache.read(2, 0, 10))

    def overwrite_then_fsync():
        yield from cache.write(1, 0, b"N" * 10, old_size=10)
        yield sim.timeout(1.0)
        yield from cache.flush(1)

    _at(sim, 0, cache.write(3, 0, b"\3" * 10, old_size=0))
    _at(sim, 0.5, overwrite_then_fsync())
    sim.run()
    stored = store.sync_get(prt.key_data(1, 0))
    if stored != b"N" * 10:
        raise LostWrite(repr(stored))


def test_a_cold_read_waits_for_no_writeback_behind_a_clean_head():
    """A cache of three holds a clean head and two dirty entries behind
    it. A cold read of a fourth object evicts the head: it returns at
    once and issues no PUT, where writing the two back first would take
    a second of 1 s PUTs."""
    sim = Simulator()
    store = _SlowPutStore(sim)
    prt = PRT(store, data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=3 * ESZ, max_readahead=0)
    store.sync_put(prt.key_data(4, 0), b"\4" * ESZ)
    run(sim, cache.write(1, 0, b"\1" * 10, old_size=0))
    run(sim, cache.flush(1))
    for ino in (2, 3):
        run(sim, cache.write(ino, 0, bytes([ino]) * 10, old_size=0))
    start, puts = sim.now, store.op_counts["put"]
    assert run(sim, cache.read(4, 0, ESZ)) == b"\4" * ESZ
    assert (sim.now - start, store.op_counts["put"] - puts) == (0, 0)
    assert cache.has_dirty(2) and cache.has_dirty(3)


_make_room = DataObjectCache._make_room
_get_entry = DataObjectCache._get_entry


def _landing_makes_no_room(self, need=1):
    """Seeded 1(ii): a landed fetch takes its slot and evicts nothing."""
    if need:
        yield from _make_room(self, need)


def _touch_reinstates(self, ino, entry):
    """Seeded: a touch puts an entry evicted meanwhile back on the LRU."""
    self._lru[(ino, entry.index)] = entry
    self._lru.move_to_end((ino, entry.index))


def _get_entry_keeps_the_waited_entry(self, ino, index, fetch=True):
    """Seeded: a writer keeps the entry it waited for, evicted or not."""
    entry = self._file(ino).tree.get(index)
    if entry is None or entry.loading is None:
        return (yield from _get_entry(self, ino, index, fetch))
    yield from self._wait(entry.loading)
    self._touch(ino, entry)
    return entry


def _invalidation_drops_by_key(self, inos, flush_dirty=True):
    """Seeded: an invalidation drops whatever LRU record has its keys."""
    pairs = yield from self._collect_dirty(inos)
    if flush_dirty:
        yield from self._writeback_pool(pairs)
    for ino in inos:
        fc = self._files.pop(ino, None)
        for idx, entry in list(fc.tree.items()) if fc else ():
            if entry.loading is not None:
                yield from self._wait(entry.loading)
            self._lru.pop((ino, idx), None)


def _make_room_pops_a_lone_victim(self, need=1):
    """Seeded 1(xxvii): a dirty head leaves the LRU before its PUT and
    its tree after it, with whatever a write put in it meanwhile."""
    while len(self._lru) + min(need, self.capacity) > self.capacity:
        (ino, idx), entry = self._lru.popitem(last=False)
        yield from self._writeback(ino, entry)
        fc = self._files.get(ino)
        if fc is not None:
            fc.tree.delete(idx)
            if not fc.tree:
                del self._files[ino]
        self._c_evictions.inc()


def _make_room_starves(self, need=1):
    """Seeded: while two LRU entries are dirty, eviction writes them back
    before it looks at the head, clean or not."""
    while len(self._lru) + min(need, self.capacity) > self.capacity:
        dirty = [(ino, e) for (ino, _), e in self._lru.items() if e.dirty]
        if len(dirty) < 2:
            break
        yield from self._writeback_pool(dirty[:self.writeback_parallel])
    yield from _make_room(self, need)


SEEDED_CAPACITY_BUGS = {
    "a landed fetch takes its slot without making room": (
        [(DataObjectCache, "_make_room", _landing_makes_no_room)],
        [(test_cold_read_ahead_stays_within_capacity, OverCapacity),
         (test_cold_readers_do_not_wait_for_each_others_gets,
          AssertionError)]),
    "a touch reinstates an evicted entry": (
        [(DataObjectCache, "_touch", _touch_reinstates)],
        [(test_waiters_on_an_evicted_fetch_lose_no_write, AssertionError)]),
    "a writer keeps the entry it waited for": (
        [(DataObjectCache, "_get_entry", _get_entry_keeps_the_waited_entry)],
        [(test_waiters_on_an_evicted_fetch_lose_no_write, AssertionError)]),
    "an invalidation drops LRU records by key": (
        [(DataObjectCache, "invalidate_many", _invalidation_drops_by_key)],
        [(test_an_invalidation_keeps_the_entry_a_new_file_cache_made,
          AssertionError)]),
    "a lone dirty victim leaves the LRU before its PUT": (
        [(DataObjectCache, "_make_room", _make_room_pops_a_lone_victim)],
        [(test_an_overwrite_of_an_eviction_in_flight_survives_fsync,
          LostWrite)]),
    "eviction writes dirty entries back while the head is clean": (
        [(DataObjectCache, "_make_room", _make_room_starves)],
        [(test_a_cold_read_waits_for_no_writeback_behind_a_clean_head,
          AssertionError)]),
}


@pytest.mark.parametrize("bug", list(SEEDED_CAPACITY_BUGS))
def test_seeded_capacity_bugs(bug, monkeypatch):
    """Re-seed a fixed capacity bug; every test its row names must fail."""
    patches, must_fail = SEEDED_CAPACITY_BUGS[bug]
    for owner, attr, broken in patches:
        monkeypatch.setattr(owner, attr, broken)
    for test, error in must_fail:
        with pytest.raises(error):
            test()


def _in_flight_cache():
    """Two entries, f1..f3 written by one process: the third write's
    eviction starts f1's and f2's PUTs at 0 s; they land at 1 s."""
    sim = Simulator()
    store = _SlowPutStore(sim)
    prt = PRT(store, data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=2 * ESZ, max_readahead=0)

    def writer():
        for ino in (1, 2, 3):
            yield from cache.write(ino, 0, bytes([ino]) * 10, old_size=0)

    sim.process(writer())
    return sim, store, prt, cache


class StaleRead(Exception):
    """A read found the pre-writeback object: ROADMAP 1(xxi)(a)."""


class EarlyFsync(Exception):
    """A flush returned before the file's PUT landed: ROADMAP 1(xxi)(b)."""


@pytest.mark.xfail(raises=StaleRead, strict=True, reason=(
    "an entry whose PUT is in flight looks clean, so another process's "
    "eviction drops it and a read fetches the old object (ROADMAP "
    "1(xxi)(a))"))
def test_an_entry_in_flight_is_not_read_stale():
    sim, store, prt, cache = _in_flight_cache()
    _at(sim, 0.1, cache.write(4, 0, b"\4" * 10, old_size=0))
    read = _at(sim, 0.5, cache.read(1, 0, 10))
    sim.run()
    if read.value != b"\1" * 10:
        raise StaleRead(repr(read.value))


@pytest.mark.xfail(raises=EarlyFsync, strict=True, reason=(
    "flush skips an entry whose PUT is in flight and returns before it "
    "lands (ROADMAP 1(xxi)(b))"))
def test_a_flush_waits_for_a_put_in_flight():
    sim, store, prt, cache = _in_flight_cache()

    def fsync():
        yield from cache.flush(1)
        return sim.now, prt.key_data(1, 0) in store

    done = _at(sim, 0.5, fsync())
    sim.run()
    returned, stored = done.value
    if returned < 1.0 or not stored:
        raise EarlyFsync(f"returned at {returned} s, stored: {stored}")


class PrefetchCountedTwice(Exception):
    """Read-ahead left free slots unused: ROADMAP 1(xxvi)."""


@pytest.mark.xfail(raises=PrefetchCountedTwice, strict=True, reason=(
    "read-ahead admission counts a prefetch in flight twice, once in "
    "_fetching and once in _reserved (ROADMAP 1(xxvi))"))
def test_read_ahead_fills_the_free_slots():
    """Entry 0 is resident and a first read from offset 0 has four
    prefetches in flight, so a cache of eight has three free slots. The
    second sequential read's window names three entries past those in
    flight: it must prefetch all three."""
    sim = Simulator()
    store = _SlowGetStore(sim)
    prt = PRT(store, data_object_size=ESZ)
    cache = DataObjectCache(sim, prt, node=None, entry_size=ESZ,
                            capacity_bytes=8 * ESZ, max_readahead=4 * ESZ)
    for idx in range(16):
        store.sync_put(prt.key_data(1, idx), bytes([idx]) * ESZ)
    run(sim, cache.read(1, 0, ESZ))
    ra = ReadAheadState()

    def reader():
        yield from cache.read(1, 0, ESZ, ra=ra)
        first = cache.stats["prefetches"]
        yield from cache.read(1, ESZ, 3 * ESZ, ra=ra)
        return first, cache.stats["prefetches"] - first

    first, second = run(sim, reader())
    assert first == 4
    free = cache.capacity - 1 - first
    if second != free:
        raise PrefetchCountedTwice(
            f"{second} prefetches for {free} free slots")
