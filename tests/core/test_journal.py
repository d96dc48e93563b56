"""Per-directory journaling: compound transactions, coalescing, threads."""

import pytest

from repro.core import (
    PRT,
    Transaction,
    apply_ops,
    build_arkfs,
    ops_del_dentry,
    ops_del_inode,
    ops_put_dentry,
    ops_put_inode,
)
from repro.core.fsck import fsck
from repro.core.journal import JournalManager, _coalesce
from repro.core.lease import FencingRegistry
from repro.core.params import DEFAULT_PARAMS
from repro.core.types import Dentry, Inode
from repro.objectstore import InMemoryObjectStore, StoreUnavailable
from repro.posix import ROOT_CREDS, FileType, SyncFS
from repro.sim import Network, Node, NodeDown, Simulator

from ..posix.test_fuse import _frame_chain


def make_env(params=DEFAULT_PARAMS, store=None):
    if store is None:
        store = InMemoryObjectStore(Simulator())
    sim = store.sim
    net = Network(sim)
    node = Node(sim, "jnode", cores=4, net=net)
    prt = PRT(store, params.data_object_size)
    # No lease service here: an empty registry admits every commit.
    jm = JournalManager(sim, prt, params, node, "jnode", FencingRegistry(),
                        token_of=lambda dir_ino: (1, 1),
                        on_fenced=lambda dir_ino: None)
    return sim, prt, jm


def inode(ino, size=0):
    return Inode(ino=ino, ftype=FileType.REGULAR, mode=0o644, uid=0, gid=0,
                 size=size)


class TestCoalescing:
    def test_last_inode_state_wins(self):
        ops = [ops_put_inode(inode(5, size=1)), ops_put_inode(inode(5, size=9))]
        out = _coalesce(ops)
        assert len(out) == 1
        assert out[0]["inode"]["size"] == 9

    def test_delete_supersedes_put(self):
        ops = [ops_put_inode(inode(5)), ops_del_inode(5)]
        out = _coalesce(ops)
        assert len(out) == 1
        assert out[0]["op"] == "del_inode"

    def test_different_objects_kept(self):
        d = Dentry("a", 5, FileType.REGULAR)
        ops = [ops_put_inode(inode(5)), ops_put_dentry(7, d),
               ops_del_dentry(7, "b")]
        assert len(_coalesce(ops)) == 3

    def test_dentry_keyed_by_dir_and_name(self):
        d = Dentry("a", 5, FileType.REGULAR)
        ops = [ops_put_dentry(1, d), ops_put_dentry(2, d)]
        assert len(_coalesce(ops)) == 2


class TestTransactionSerialization:
    def test_roundtrip(self):
        txn = Transaction("tx1", 99, "update",
                          [ops_put_inode(inode(5)), ops_del_dentry(99, "x")])
        back = Transaction.from_bytes(txn.to_bytes(), seq=3)
        assert back.txid == "tx1"
        assert back.dir_ino == 99
        assert back.kind == "update"
        assert back.ops == txn.ops
        assert back.seq == 3

    def test_prepare_carries_decision_key(self):
        txn = Transaction("tx2", 1, "prepare", [], decision_key="tabc")
        back = Transaction.from_bytes(txn.to_bytes())
        assert back.decision_key == "tabc"


class TestApplyOps:
    def test_apply_put_and_delete(self):
        sim, prt, _ = make_env()
        sim.run_process(apply_ops(prt, [
            ops_put_inode(inode(5)),
            ops_put_dentry(1, Dentry("f", 5, FileType.REGULAR)),
        ]))
        assert prt.key_inode(5) in prt.store
        sim.run_process(apply_ops(prt, [ops_del_inode(5),
                                        ops_del_dentry(1, "f")]))
        assert prt.key_inode(5) not in prt.store

    def test_apply_is_idempotent(self):
        sim, prt, _ = make_env()
        ops = [ops_put_inode(inode(5, size=3)), ops_del_dentry(1, "gone")]
        sim.run_process(apply_ops(prt, ops))
        sim.run_process(apply_ops(prt, ops))
        got = Inode.from_bytes(prt.store.sync_get(prt.key_inode(5)))
        assert got.size == 3

    def test_unknown_op_rejected(self):
        sim, prt, _ = make_env()
        with pytest.raises(ValueError):
            sim.run_process(apply_ops(prt, [{"op": "mystery"}]))

    def test_unknown_op_rejected_in_a_parallel_batch(self):
        sim, prt, _ = make_env()
        with pytest.raises(ValueError):
            sim.run_process(apply_ops(prt, [ops_put_inode(inode(5)),
                                            {"op": "mystery"}]))

    def test_a_checkpoint_put_resumes_only_the_store_frames(self):
        """A ``ckpt-op`` process runs the store's PUT generator itself:
        the journal's and the PRT's helpers return it rather than wrap it,
        so its client-leg hold resumes ``put`` and ``_client_leg`` only
        (before: _apply_one, put_inode, put, _client_leg, use)."""
        sim = Simulator()
        cluster = build_arkfs(sim, n_clients=1)
        node = cluster.client(0).node
        ckpt_ops = []
        spawn = sim.process

        def process(gen, name=""):
            proc = spawn(gen, name)
            if name == "ckpt-op":
                ckpt_ops.append(proc)
            return proc

        sim.process = process
        done = spawn(apply_ops(cluster.prt, [
            ops_put_inode(inode(5)),
            ops_put_dentry(1, Dentry("f", 5, FileType.REGULAR)),
        ], src=node))
        legs = set()
        while done.is_alive:
            sim.step()
            for proc in ckpt_ops:
                chain = _frame_chain(proc._gen)
                if proc.is_alive and "_client_leg" in chain:
                    legs.add(tuple(chain))
        assert len(ckpt_ops) == 2 and done.ok
        assert ("put", "_client_leg", "use") in legs, legs
        assert all(len(chain) <= 3 for chain in legs), legs


class TestJournalManager:
    def test_record_then_flush_checkpoints(self):
        sim, prt, jm = make_env()
        jm.record(7, ops_put_inode(inode(5)))
        assert jm.is_dirty(7)
        sim.run_process(jm.flush(7, full=True))
        assert not jm.is_dirty(7)
        assert prt.key_inode(5) in prt.store
        # Journal object invalidated after checkpoint.
        assert prt.store.sync_list(prt.key_journal_prefix(7)) == []
        assert jm.commits == 1 and jm.checkpoints == 1

    def test_commit_thread_flushes_on_interval(self):
        sim, prt, jm = make_env()
        jm.start_threads()
        jm.record(7, ops_put_inode(inode(5)))
        assert prt.key_inode(5) not in prt.store
        sim.run(until=DEFAULT_PARAMS.journal_commit_interval * 2 + 0.1)
        assert prt.key_inode(5) in prt.store
        jm.stop()

    def test_compound_transaction_batches_many_ops(self):
        """100 creates inside one interval -> one journal commit."""
        sim, prt, jm = make_env()
        for i in range(100):
            jm.record(7, ops_put_inode(inode(1000 + i)))
        sim.run_process(jm.flush(7, full=True))
        assert jm.commits == 1
        assert prt.store.op_counts["put"] >= 100  # checkpoint wrote each

    def test_independent_directories_have_independent_journals(self):
        sim, prt, jm = make_env()
        jm.record(1, ops_put_inode(inode(10)))
        jm.record(2, ops_put_inode(inode(20)))
        sim.run_process(jm.flush(1, full=True))
        assert not jm.is_dirty(1)
        assert jm.is_dirty(2)

    def test_stop_loses_running_txn(self):
        sim, prt, jm = make_env()
        jm.start_threads()
        jm.record(7, ops_put_inode(inode(5)))
        jm.stop()
        sim.run(until=5)
        assert prt.key_inode(5) not in prt.store  # never committed

    def test_record_after_stop_is_ignored(self):
        sim, prt, jm = make_env()
        jm.stop()
        jm.record(7, ops_put_inode(inode(5)))
        assert not jm.is_dirty(7)

    def test_drop_dirty_journal_rejected(self):
        sim, prt, jm = make_env()
        jm.record(7, ops_put_inode(inode(5)))
        with pytest.raises(RuntimeError):
            jm.drop(7)
        sim.run_process(jm.flush(7, full=True))
        jm.drop(7)  # clean now

    def test_flush_unknown_dir_is_noop(self):
        sim, prt, jm = make_env()
        sim.run_process(jm.flush(999))


class TestPrepare2PC:
    def test_prepare_writes_journal_without_applying(self):
        sim, prt, jm = make_env()
        ops = [ops_put_inode(inode(5))]
        seq = sim.run_process(jm.prepare(7, "tx9", ops, "t-tx9"))
        keys = prt.store.sync_list(prt.key_journal_prefix(7))
        assert len(keys) == 1
        txn = Transaction.from_bytes(prt.store.sync_get(keys[0]))
        assert txn.kind == "prepare"
        assert prt.key_inode(5) not in prt.store  # not applied yet

    def test_finish_commit_applies_and_cleans(self):
        sim, prt, jm = make_env()
        ops = [ops_put_inode(inode(5))]
        seq = sim.run_process(jm.prepare(7, "tx9", ops, "t-tx9"))
        sim.run_process(jm.finish_prepared(7, seq, ops, commit=True))
        assert prt.key_inode(5) in prt.store
        assert prt.store.sync_list(prt.key_journal_prefix(7)) == []

    def test_finish_abort_discards(self):
        sim, prt, jm = make_env()
        ops = [ops_put_inode(inode(5))]
        seq = sim.run_process(jm.prepare(7, "tx9", ops, "t-tx9"))
        sim.run_process(jm.finish_prepared(7, seq, ops, commit=False))
        assert prt.key_inode(5) not in prt.store
        assert prt.store.sync_list(prt.key_journal_prefix(7)) == []

    def test_prepare_drains_older_running_ops_first(self):
        """Ordering: buffered ops must commit before the prepare record."""
        sim, prt, jm = make_env()
        jm.record(7, ops_put_inode(inode(1)))
        sim.run_process(jm.prepare(7, "tx", [ops_put_inode(inode(2))], "t-tx"))
        assert prt.key_inode(1) in prt.store  # older op checkpointed
        assert prt.key_inode(2) not in prt.store


    def test_plain_flush_commits_but_defers_checkpoint(self):
        """fsync durability = commit; checkpointing happens in background."""
        sim, prt, jm = make_env()
        jm.record(7, ops_put_inode(inode(5)))
        sim.run_process(jm.flush(7))
        # Committed: the journal object exists; base object not yet written.
        assert len(prt.store.sync_list(prt.key_journal_prefix(7))) == 1
        sim.run()  # background checkpoint drains
        assert prt.key_inode(5) in prt.store
        assert prt.store.sync_list(prt.key_journal_prefix(7)) == []

# -- the early-apply rule (mkdir) -----------------------------------------------


class _TimedStore(InMemoryObjectStore):
    """Every PUT and DELETE takes ``T``, one that ``slow(verb, key)``
    picks ``SLOW``; ``log`` holds each one's (start, verb, key). A request
    whose node dies before it lands is lost."""

    T = 0.001
    SLOW = 1.0

    def __init__(self, sim):
        super().__init__(sim)
        self.slow = lambda verb, key: False
        self.log = []

    def put(self, key, data, src=None):
        yield from self._request("put", key, src)
        self.sync_put(key, data)

    def delete(self, key, src=None):
        yield from self._request("delete", key, src)
        self.sync_delete(key)

    def _request(self, verb, key, src):
        self.log.append((self.sim.now, verb, key))
        yield self.sim.timeout(self.SLOW if self.slow(verb, key) else self.T)
        if src is not None and not src.alive:
            raise NodeDown(f"{src.name} died with the request in flight")


def _mkdir_record(jm, dir_ino, child_ino):
    """Record a mkdir's ops in ``dir_ino``'s journal; returns the child's
    ``put_inode`` op, the one mkdir applies early."""
    child = Inode(ino=child_ino, ftype=FileType.DIRECTORY, mode=0o755,
                  uid=0, gid=0)
    put_child = ops_put_inode(child)
    jm.record(dir_ino, put_child, ops_put_dentry(
        dir_ino, Dentry("d", child_ino, FileType.DIRECTORY)))
    return put_child


def _starts(store, verb, key):
    return [t for t, v, k in store.log if v == verb and k == key]


class TestEarlyApply:
    def test_an_early_op_is_written_once_before_the_journal_goes(self):
        sim = Simulator()
        store = _TimedStore(sim)
        _, prt, jm = make_env(store=store)
        put_child = _mkdir_record(jm, 7, 5)

        def mkdir():
            yield from jm.flush(7)
            yield from jm.apply_early(7, put_child)
            return sim.now

        done = sim.run_process(mkdir())
        # One commit, then one PUT: the checkpoint writes the dentry
        # meanwhile, and no object twice.
        assert done == pytest.approx(2 * store.T)
        assert prt.key_inode(5) in store
        sim.run()
        assert _starts(store, "put", prt.key_inode(5)) == [store.T]
        assert len(_starts(store, "put", prt.key_dentry(7, "d"))) == 1
        (gone,) = _starts(store, "delete", prt.key_journal(7, 0))
        assert gone >= done
        assert not jm.is_dirty(7) and jm.journal_for(7).early == {}

    def test_a_recorder_waits_for_the_apply_it_finds_running(self):
        """The checkpoint already writes the op: the recorder waits for
        that apply instead of writing the object a second time."""
        sim = Simulator()
        store = _TimedStore(sim)
        _, prt, jm = make_env(store=store)
        put_child = _mkdir_record(jm, 7, 5)
        store.slow = lambda verb, key: key == prt.key_dentry(7, "d")
        sim.run_process(jm.flush(7))
        sim.run(until=sim.now + store.T / 2)   # the checkpoint is applying
        assert jm.journal_for(7).applying == 0
        sim.run_process(jm.apply_early(7, put_child))
        assert sim.now == pytest.approx(store.T + store.SLOW)
        assert len(_starts(store, "put", prt.key_inode(5))) == 1
        sim.run()
        assert not jm.is_dirty(7)

    def test_a_recorder_after_the_apply_writes_nothing(self):
        """An applied transaction has no op left to strike, although its
        journal object is still being deleted."""
        sim = Simulator()
        store = _TimedStore(sim)
        _, prt, jm = make_env(store=store)
        put_child = _mkdir_record(jm, 7, 5)
        store.slow = lambda verb, key: verb == "delete"
        sim.run_process(jm.flush(7))
        sim.run(until=sim.now + store.T + store.SLOW / 2)
        assert _starts(store, "delete", prt.key_journal(7, 0))
        t0 = sim.now
        sim.run_process(jm.apply_early(7, put_child))
        assert sim.now == t0
        assert len(_starts(store, "put", prt.key_inode(5))) == 1

    def test_a_failed_early_put_is_written_by_the_checkpoint(self):
        sim = Simulator()
        store = _TimedStore(sim)
        _, prt, jm = make_env(store=store)
        put_child = _mkdir_record(jm, 7, 5)
        real_put, failed = store.put, []

        def put(key, data, src=None):
            if key == prt.key_inode(5) and not failed:
                failed.append(key)
                yield sim.timeout(store.T)
                raise StoreUnavailable("injected PUT failure")
            yield from real_put(key, data, src)

        store.put = put

        def mkdir():
            yield from jm.flush(7)
            yield from jm.apply_early(7, put_child)

        with pytest.raises(StoreUnavailable):
            sim.run_process(mkdir())
        sim.run()
        assert prt.key_inode(5) in store
        assert prt.store.sync_list(prt.key_journal_prefix(7)) == []


def _mkdir_cluster(n_clients):
    sim = Simulator()
    store = _TimedStore(sim)
    cluster = build_arkfs(sim, n_clients=n_clients, store=store)
    fs = SyncFS(cluster.client(0), ROOT_CREDS)
    fs.mkdir("/p")
    sim.run(until=sim.now + 3)   # /p's own checkpoint drains
    return sim, store, cluster, fs, fs.stat("/p").st_ino


def test_mkdir_behind_a_slow_checkpoint_pays_one_commit_and_one_put():
    """/p's checkpoint of a created file is slow (its dentry PUT takes a
    second). A mkdir in /p commits its record, writes the child's inode
    object and returns: it waits for none of that checkpoint."""
    sim, store, cluster, fs, p = _mkdir_cluster(1)
    prt, client = cluster.prt, cluster.client(0)
    store.slow = lambda verb, key: key.startswith(prt.key_dentry_prefix(p))
    fs.write_file("/p/f", b"", do_fsync=True)
    sim.run(until=sim.now + store.T)   # its checkpoint is in flight
    sent = len(store.log)

    def mkdir():
        t0 = sim.now
        yield from client.mkdir(ROOT_CREDS, "/p/d")
        keys = [key for _t, _verb, key in store.log[sent:]]
        return sim.now - t0, keys, [key in store for key in keys]

    took, keys, landed = sim.run_process(mkdir())
    child = fs.stat("/p/d").st_ino
    assert keys == [prt.key_journal(p, 1), prt.key_inode(child)]
    assert landed == [True, True]
    assert took < 3 * store.T < store.SLOW


def early_put_window_misses():
    """Crash /p's leader while the child's inode PUT of a mkdir in /p is
    still in flight (the store delays PUTs of new inode objects), after
    the rest of /p's checkpoint has been written. Returns what went wrong:
    the journal object gone before that PUT landed, the child not
    loadable by the survivor, or a strict fsck error."""
    sim, store, cluster, fs, p = _mkdir_cluster(2)
    prt = cluster.prt
    store.slow = lambda verb, key: key[0] == "i" and key not in store
    sim.process(cluster.client(0).mkdir(ROOT_CREDS, "/p/d"))
    sim.run(until=sim.now + store.SLOW / 2)
    misses = []
    if not store.sync_list(prt.key_journal_prefix(p)):
        misses.append("journal object deleted before the early PUT landed")
    cluster.client(0).crash()
    survivor = SyncFS(cluster.client(1), ROOT_CREDS)
    try:
        if survivor.readdir("/p") != ["d"] or survivor.readdir("/p/d"):
            misses.append("namespace after recovery")
    except Exception as exc:  # noqa: BLE001 - reported, not masked
        misses.append(f"child not loadable: {exc!r}")
    sim.run_process(cluster.client(1).sync())
    sim.run(until=sim.now + 3)
    report = sim.run_process(fsck(prt))
    misses.extend(f"fsck: {e}" for e in report.errors + report.warnings)
    return misses


def test_a_crash_before_the_early_put_lands_recovers_clean():
    """The checkpoint keeps the journal object until the child's inode
    PUT lands, so a crash in that window replays the record."""
    assert early_put_window_misses() == []


def _deletes_before_early_put(self, dj, seq):
    """Seeded: the checkpoint forgets the early PUTs and deletes."""
    del dj.early[seq]
    return
    yield


SEEDED = {
    "checkpoint deletes the journal object before the early PUT lands": [
        (JournalManager, "_land_early", _deletes_before_early_put)],
}


@pytest.mark.parametrize("bug", list(SEEDED))
def test_seeded_early_apply_bugs(bug, monkeypatch):
    """Re-seed a broken early-apply rule: the crash window must expose it.
    A crash sweep cannot: its store lands a PUT when it is issued."""
    for owner, attr, broken in SEEDED[bug]:
        monkeypatch.setattr(owner, attr, broken)
    assert early_put_window_misses() != []


# -- property tests -----------------------------------------------------------

from hypothesis import given, settings, strategies as st


def _op_strategy():
    ino = st.integers(1, 6)
    name = st.sampled_from(["a", "b", "c"])
    return st.one_of(
        st.builds(lambda i: ops_put_inode(inode(i, size=i * 7)), ino),
        st.builds(ops_del_inode, ino),
        st.builds(lambda d, n: ops_put_dentry(
            d, Dentry(n, d * 100, FileType.REGULAR)), ino, name),
        st.builds(ops_del_dentry, ino, name),
    )


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(_op_strategy(), max_size=30))
def test_coalescing_preserves_final_state(ops):
    """Applying the coalesced transaction must leave the store in exactly
    the same state as applying every op in sequence."""
    sim_a, prt_a, _ = make_env()
    sim_b, prt_b, _ = make_env()
    for op in ops:
        sim_a.run_process(apply_ops(prt_a, [op]))
    sim_b.run_process(apply_ops(prt_b, _coalesce(list(ops))))
    keys_a = prt_a.store.sync_list("")
    keys_b = prt_b.store.sync_list("")
    assert keys_a == keys_b
    for k in keys_a:
        assert prt_a.store.sync_get(k) == prt_b.store.sync_get(k)


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(_op_strategy(), min_size=1, max_size=20),
       replays=st.integers(1, 3))
def test_transaction_replay_idempotent_property(ops, replays):
    """Recovery may replay a committed transaction any number of times."""
    sim, prt, _ = make_env()
    for _ in range(replays):
        sim.run_process(apply_ops(prt, list(ops)))
    snapshot = {k: prt.store.sync_get(k) for k in prt.store.sync_list("")}
    sim.run_process(apply_ops(prt, list(ops)))
    again = {k: prt.store.sync_get(k) for k in prt.store.sync_list("")}
    assert snapshot == again
