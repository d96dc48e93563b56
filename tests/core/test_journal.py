"""Per-directory journaling: compound transactions, coalescing, threads."""

import pytest

from repro.core import (
    PRT,
    Transaction,
    apply_ops,
    ops_del_dentry,
    ops_del_inode,
    ops_put_dentry,
    ops_put_inode,
)
from repro.core.journal import JournalManager, _coalesce
from repro.core.lease import FencingRegistry
from repro.core.params import DEFAULT_PARAMS
from repro.core.types import Dentry, Inode
from repro.objectstore import InMemoryObjectStore
from repro.posix import FileType
from repro.sim import Network, Node, Simulator


def make_env(params=DEFAULT_PARAMS):
    sim = Simulator()
    net = Network(sim)
    node = Node(sim, "jnode", cores=4, net=net)
    prt = PRT(InMemoryObjectStore(sim), params.data_object_size)
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
