"""Exhaustive crash-consistency checking for the journal/lease/2PC stack.

The method is the classic "crash at every store operation" sweep:

1. **Profile** — run a workload on a two-client cluster with an (armed but
   crash-free) :class:`~repro.faults.plan.FaultPlan` underneath the store,
   counting every store operation the victim client issues. After each
   workload step, snapshot the victim's op count: that is the step's
   *durability milestone*.
2. **Sweep** — for every store-op index ``k`` in ``1..N`` (or a strided /
   bounded subset), rebuild the cluster from scratch and re-run the same
   workload with ``crash_at(victim, k)``: the victim dies *instead of*
   executing its k-th store operation. Execution is deterministic, so the
   run is bit-identical to the profiling run right up to the crash.
3. **Check** — after each crash, the surviving client waits out lease
   fencing, walks the whole namespace (acquiring a directory's lease
   replays its journal — this is the production recovery path), replays any
   residual journals, and then the checker asserts:

   * :func:`~repro.core.fsck.fsck` is clean (``after_crash=True``: data
     garbage a crash legitimately leaves is downgraded, everything the
     journal/2PC machinery promises stays a hard error — no dangling
     dentries, no orphan inodes, no leftover journal transactions);
   * every workload step that *completed before the crash* and carries a
     durability promise (mkdir's eager flush, fsync, 2PC rename commit)
     is still satisfied post-recovery;
   * workload-specific invariants hold at **every** crash point — e.g.
     rename atomicity: for each rename, exactly one of (old name, new
     name) exists, with the original content;
   * no 2PC decision record was ever overwritten with a different value
     or re-created after deletion (audited live by the FaultPlan);
   * no commit ever landed under a stale authority epoch (audited live, in
     every workload, by the lease service's FencingRegistry — the
     ``epoch_handoff`` workload deposes every manager range mid-run to
     exercise this), and a crashed or interrupted directory split recovers
     to exactly one authoritative layout (checked structurally by fsck's
     shard-map rules — the ``shard_split`` workload lands crash points
     across the whole two-phase split).

Run it from the command line::

    PYTHONPATH=src python -m repro.faults.crashcheck --workload rename --stride 7

``--bug lost-commit`` seeds a deliberate recovery bug (mutations applied
locally but never committed to the journal) to demonstrate the checker
catching it.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core import build_arkfs
from ..core.fsck import fsck
from ..core.params import ArkFSParams, DEFAULT_PARAMS, KiB
from ..core.recovery import recover_directory
from ..obs import Observability
from ..posix import ROOT_CREDS
from ..posix.vfs import SyncFS
from ..sim.engine import SimGen, Simulator
from .plan import FaultPlan, InjectedCrash

__all__ = ["Step", "Workload", "WORKLOADS", "SEEDED_BUGS",
           "CrashPointResult", "CrashCheckReport",
           "profile", "check_point", "sweep", "main"]

VICTIM = "client0"

# A healthy workload step finishes in well under a sim-minute on the
# functional store; a step still running after this long has wedged
# (e.g. a post-crash coroutine spinning on a retry loop).
STEP_BOUND_S = 120.0
FENCE_MARGIN_S = 1.0


# --------------------------------------------------------------------------
# workload description
# --------------------------------------------------------------------------

@dataclass
class Step:
    """One unit of victim-side work.

    ``gen(client)`` returns the coroutine to run; ``advance`` instead just
    runs simulated time forward (letting background commit/checkpoint
    threads fire). ``durable(fs)`` — given the *survivor's* SyncFS view —
    asserts the effects this step promised were durable on return.

    ``survivor=True`` runs ``gen`` on the surviving client instead (its
    store ops are not counted as crash points — only the victim's are).
    ``act(cluster)`` is a synchronous cluster-level control action (e.g.
    deposing a lease-manager range) executed before any ``advance``.
    """

    name: str
    gen: Optional[Callable] = None
    advance: float = 0.0
    durable: Optional[Callable] = None
    survivor: bool = False
    act: Optional[Callable] = None


@dataclass
class Workload:
    name: str
    setup: Callable                     # client -> SimGen, run unarmed
    steps: List[Step]
    invariants: Optional[Callable] = None   # (SyncFS, violations) -> None
    params: Optional[ArkFSParams] = None    # cluster params override
    n_lease_managers: int = 1               # size of the lease-manager ring
    # Factory ``cluster -> handler()`` replacing the default crash action
    # (victim.crash). The tier workload uses it to also lose the volatile
    # hot tier at the crash instant — node RAM and fast-tier media go
    # together in the modelled failure.
    crash_handler: Optional[Callable] = None


def _wl_mkdir_heavy() -> Workload:
    """Directory-tree construction: eager-flush mkdirs, nesting, rmdir.

    Every mkdir checkpoints eagerly (the child inode must be loadable
    before anyone acquires its lease), so each one is durable on return —
    each step carries its own milestone check."""
    flat = [f"/m{i}" for i in range(4)]
    nested = ["/m0/s0", "/m0/s1", "/m1/s0"]
    late = ["/late0", "/late1", "/m2/s0"]

    def exists_check(path):
        def check(fs):
            assert fs.stat(path).is_dir, f"{path} is not a directory"
        return check

    def mk(path):
        return Step(f"mkdir:{path}",
                    gen=lambda c, p=path: c.mkdir(ROOT_CREDS, p),
                    durable=exists_check(path))

    steps = [mk(p) for p in flat + nested]
    steps.append(Step("sync-1", gen=lambda c: c.sync()))
    steps += [mk(p) for p in late]
    # rmdir buffers the parent-journal delete (only mkdir checkpoints
    # eagerly), so removal becomes durable at the *next sync*, not on
    # return — the milestone lives on sync-2.
    steps.append(Step("rmdir:/m3", gen=lambda c: c.rmdir(ROOT_CREDS, "/m3")))
    steps.append(Step("sync-2", gen=lambda c: c.sync(),
                      durable=lambda fs: _assert(not fs.exists("/m3"),
                                                 "/m3 still exists")))
    return Workload("mkdir", setup=_noop_setup, steps=steps)


def _wl_rename_heavy() -> Workload:
    """Cross-directory renames: the full 2PC prepare/decide/finish path.

    Each rename is durable on return (the decision record committed), so
    each one is a milestone; the atomicity invariant (exactly one of the
    old and new name exists, holding the original bytes) must hold at
    *every* crash point."""
    n = 20
    content = {i: bytes([65 + i]) * (100 + i) for i in range(n)}

    def setup(c):
        yield from c.mkdir(ROOT_CREDS, "/a")
        yield from c.mkdir(ROOT_CREDS, "/b")
        for i in range(n):
            yield from c.write_file(ROOT_CREDS, f"/a/f{i}", content[i],
                                    do_fsync=True)
        yield from c.sync()

    def renamed_check(i):
        def check(fs):
            got = fs.read_file(f"/b/g{i}")
            assert got == content[i], f"/b/g{i} holds {got!r}"
            assert not fs.exists(f"/a/f{i}"), f"/a/f{i} survived its rename"
        return check

    steps = [Step(f"rename:f{i}",
                  gen=lambda c, i=i: c.rename(ROOT_CREDS,
                                              f"/a/f{i}", f"/b/g{i}"),
                  durable=renamed_check(i))
             for i in range(n)]

    def invariants(fs, violations):
        for i in range(n):
            at_src = fs.exists(f"/a/f{i}")
            at_dst = fs.exists(f"/b/g{i}")
            if at_src == at_dst:
                violations.append(
                    f"rename atomicity broken for f{i}: "
                    f"src={at_src} dst={at_dst}")
                continue
            path = f"/a/f{i}" if at_src else f"/b/g{i}"
            got = fs.read_file(path)
            if got != content[i]:
                violations.append(
                    f"rename content for f{i}: {path} holds {got!r}")

    return Workload("rename", setup=setup, steps=steps,
                    invariants=invariants)


def _wl_checkpoint() -> Workload:
    """Group-commit and checkpoint timing: unfsynced writes ride the 1 s
    compound-transaction buffer; time-advance steps let the background
    commit/checkpoint threads fire mid-workload, so the sweep lands crash
    points inside their store operations too."""
    udata, sdata = b"u" * 50, b"s" * 50

    def setup(c):
        yield from c.mkdir(ROOT_CREDS, "/c")
        yield from c.sync()

    def wr(path, data, fsync):
        return lambda c: c.write_file(ROOT_CREDS, path, data,
                                      do_fsync=fsync)

    def committed_check(fs):
        # The journal makes *metadata* durable: name and size survive. The
        # unfsynced bytes lived only in the victim's cache and may read
        # back as zeros — metadata-journaling semantics, same as ext4's
        # default mode. Only fsync promises the data itself.
        for i in range(3):
            st = fs.stat(f"/c/u{i}")
            assert st.st_size == len(udata), f"/c/u{i} size {st.st_size}"
            got = fs.read_file(f"/c/u{i}")
            assert got in (udata, b"\x00" * len(udata)), \
                f"/c/u{i} holds {got!r}"

    def synced_check(fs):
        for i in range(3):
            got = fs.read_file(f"/c/s{i}")
            assert got == sdata, f"/c/s{i} holds {got!r}"

    steps = [Step(f"write:u{i}", gen=wr(f"/c/u{i}", udata, False))
             for i in range(3)]
    # > journal_commit_interval: the background threads commit (and then
    # checkpoint) the buffered creates, making them durable.
    steps.append(Step("advance-commit", advance=2.5,
                      durable=committed_check))
    steps += [Step(f"write:s{i}", gen=wr(f"/c/s{i}", sdata, True))
              for i in range(3)]
    steps.append(Step("sync", gen=lambda c: c.sync(), durable=synced_check))
    steps.append(Step("advance-ckpt", advance=2.5))
    return Workload("checkpoint", setup=setup, steps=steps)


def _wl_pack() -> Workload:
    """Packed small-file containers: crash points across the whole pack
    lifecycle — append, size/age seal (container PUT + extent-index
    commit + stale-object purge), unlink-driven dead-extent accounting,
    and background reclaim/compaction.

    Small target/threshold values force several seals out of eight
    ~40 KB files; the unlinks drop two containers' live ratios so the
    time-advance steps land crash points inside the compactor too."""
    params = DEFAULT_PARAMS.with_(
        pack_enabled=True, pack_threshold=64 * KiB,
        pack_target_size=192 * KiB, pack_seal_age=0.5,
        pack_compact_live_ratio=0.8)
    content = {i: bytes([97 + i]) * (40_000 + 1_000 * i) for i in range(8)}

    def setup(c):
        yield from c.mkdir(ROOT_CREDS, "/p")
        yield from c.sync()

    def wr(i, fsync):
        return lambda c: c.write_file(ROOT_CREDS, f"/p/f{i}", content[i],
                                      do_fsync=fsync)

    def packed_check(i):
        def check(fs):
            if i in (1, 5):
                # The later unlink step may have removed it — or a crash
                # mid-unlink purged the data before the namespace commit,
                # leaving the name reading zeros (the same torn-unlink
                # state the checkpoint workload's contract allows).
                if not fs.exists(f"/p/f{i}"):
                    return
                got = fs.read_file(f"/p/f{i}")
                assert got in (content[i], b"\x00" * len(got)), \
                    f"/p/f{i} holds {len(got)} unexpected bytes"
                return
            got = fs.read_file(f"/p/f{i}")
            assert got == content[i], \
                f"/p/f{i} holds {len(got)} bytes != expected"
        return check

    def synced_check(fs):
        for i in range(4, 8):
            packed_check(i)(fs)

    def gone_check(fs):
        for i in (1, 5):
            assert not fs.exists(f"/p/f{i}"), f"/p/f{i} survived unlink"

    steps = [Step(f"fsync:f{i}", gen=wr(i, True), durable=packed_check(i))
             for i in range(4)]
    # Let the age-based seal and the commit threads fire mid-workload.
    steps.append(Step("advance-seal", advance=1.0))
    steps += [Step(f"write:f{i}", gen=wr(i, False)) for i in range(4, 8)]
    steps.append(Step("sync-1", gen=lambda c: c.sync(),
                      durable=synced_check))
    steps.append(Step("unlink:f1",
                      gen=lambda c: c.unlink(ROOT_CREDS, "/p/f1")))
    steps.append(Step("unlink:f5",
                      gen=lambda c: c.unlink(ROOT_CREDS, "/p/f5")))
    steps.append(Step("sync-2", gen=lambda c: c.sync(),
                      durable=gone_check))
    # The maintenance ticker reclaims dead containers / compacts
    # low-live-ratio ones during this window.
    steps.append(Step("advance-compact", advance=2.0))
    steps.append(Step("sync-3", gen=lambda c: c.sync()))

    def invariants(fs, violations):
        # Any surviving file must read as its exact content or as zeros
        # (metadata-journaling semantics: an unfsynced file's bytes lived
        # only in the victim's cache/open pack buffer) — never as another
        # file's bytes or a torn mix. A 40 KB file is one chunk, so its
        # packed extent is either wholly present or wholly absent.
        for i in range(8):
            path = f"/p/f{i}"
            if not fs.exists(path):
                continue
            got = fs.read_file(path)
            if got not in (content[i], b"\x00" * len(got), b""):
                violations.append(
                    f"{path} holds {len(got)} bytes that are neither its "
                    f"content nor zeros")

    return Workload("pack", setup=setup, steps=steps,
                    invariants=invariants, params=params)


def _wl_shard_split() -> Workload:
    """Directory sharding: crash points across the whole two-phase split —
    the pre-split journal checkpoint, the splitting-map PUT, the per-dentry
    migration copies/deletes, and the activating map PUT — plus post-split
    creates, unlink, and an intra-directory (possibly cross-shard) rename.

    A tiny ``shard_split_threshold`` makes the 6th create of ``/s`` trigger
    the background split, so the very next create blocks on the split gate
    and the sweep lands crash points inside every migration store op. The
    *one-authoritative-layout* invariant is checked structurally by fsck
    (shard-map soundness: every dentry hash-routes to the range holding
    it, no parent-range dentries survive an activated split); the workload
    invariants add that the recovered directory lists every name exactly
    once and that renames never duplicate across shards."""
    params = DEFAULT_PARAMS.with_(shards_enabled=True,
                                  shard_split_threshold=6, shard_fanout=4)
    n = 10
    content = {i: bytes([70 + i]) * (60 + 7 * i) for i in range(n)}

    def setup(c):
        yield from c.mkdir(ROOT_CREDS, "/s")
        yield from c.sync()

    def wr(i):
        return lambda c: c.write_file(ROOT_CREDS, f"/s/f{i}", content[i],
                                      do_fsync=True)

    def present_check(i):
        def check(fs):
            if i == 1:
                # The later unlink step may have removed it — or a crash
                # mid-unlink purged the data before the namespace commit,
                # leaving the name reading zeros (the torn-unlink state
                # the pack/checkpoint workloads' contracts also allow).
                if not fs.exists("/s/f1"):
                    return
                got = fs.read_file("/s/f1")
                assert got in (content[1], b"\x00" * len(got)), \
                    f"/s/f1 holds {got!r}"
                return
            if i == 2:
                # The later rename step may have moved it; atomicity is
                # asserted by the invariants at every crash point.
                path = "/s/g2" if fs.exists("/s/g2") else "/s/f2"
                got = fs.read_file(path)
                assert got == content[2], f"{path} holds {got!r}"
                return
            got = fs.read_file(f"/s/f{i}")
            assert got == content[i], f"/s/f{i} holds {got!r}"
        return check

    def synced_check(fs):
        assert not fs.exists("/s/f1"), "/s/f1 survived its unlink"
        got = fs.read_file("/s/g2")
        assert got == content[2], f"/s/g2 holds {got!r}"
        assert not fs.exists("/s/f2"), "/s/f2 survived its rename"

    # f5's create crosses the threshold; f6's create waits on the split
    # gate, so the split's store ops all land inside these steps.
    steps = [Step(f"fsync:f{i}", gen=wr(i), durable=present_check(i))
             for i in range(8)]
    steps.append(Step("advance-split", advance=1.5))
    steps.append(Step("unlink:f1",
                      gen=lambda c: c.unlink(ROOT_CREDS, "/s/f1")))
    steps.append(Step("rename:f2",
                      gen=lambda c: c.rename(ROOT_CREDS, "/s/f2", "/s/g2")))
    steps.append(Step("sync-1", gen=lambda c: c.sync(),
                      durable=synced_check))
    steps += [Step(f"fsync:f{i}", gen=wr(i), durable=present_check(i))
              for i in range(8, n)]
    steps.append(Step("sync-2", gen=lambda c: c.sync()))

    def invariants(fs, violations):
        names = fs.readdir("/s")
        if len(names) != len(set(names)):
            violations.append(
                f"sharded readdir lists duplicates: {sorted(names)}")
        for nm in names:
            if not fs.exists(f"/s/{nm}"):
                violations.append(f"/s/{nm} listed but not stat-able")
        if fs.exists("/s/f2") and fs.exists("/s/g2"):
            violations.append(
                "rename f2->g2 duplicated across shard ranges")
        for i in range(n):
            for path in (f"/s/f{i}",) + (("/s/g2",) if i == 2 else ()):
                if not fs.exists(path):
                    continue
                got = fs.read_file(path)
                if got not in (content[i], b"\x00" * len(got), b""):
                    violations.append(
                        f"{path} holds {len(got)} bytes that are neither "
                        f"its content nor zeros")

    return Workload("shard_split", setup=setup, steps=steps,
                    invariants=invariants, params=params)


def _wl_epoch_handoff() -> Workload:
    """Lease-manager scale-out: epoch-fenced range handoff under load.

    A three-manager cluster serves the namespace; mid-workload every ring
    range is failed over to its successor at epoch + 1 while the victim
    still holds live leases and has uncommitted buffered transactions.
    The survivor then acquires a directory under the new epoch (driving
    the recovery grant + journal replay), after which the victim keeps
    writing — its stale leases must re-resolve to the new authority.

    The *no-stale-epoch-commit* invariant is audited independently of the
    clients by :class:`~repro.core.lease.FencingRegistry` (every commit
    that lands is compared against the highest token ever granted); the
    harness drains its breach list into the violations of every crash
    point, and the ``fence-blind`` seeded bug exists to prove the audit
    has teeth."""
    udata, sdata, vdata = b"u" * 64, b"s" * 72, b"v" * 80

    def setup(c):
        yield from c.mkdir(ROOT_CREDS, "/d0")
        yield from c.mkdir(ROOT_CREDS, "/d1")
        yield from c.sync()

    def wr(path, data, fsync):
        return lambda c: c.write_file(ROOT_CREDS, path, data,
                                      do_fsync=fsync)

    def fail_all(cluster):
        svc = cluster.lease_service
        for rs in list(svc.ranges):
            svc.fail_over(rs.index)

    def synced(path, data):
        def check(fs):
            got = fs.read_file(path)
            assert got == data, f"{path} holds {got!r}"
        return check

    def committed(path, data):
        def check(fs):
            st = fs.stat(path)
            assert st.st_size == len(data), f"{path} size {st.st_size}"
            got = fs.read_file(path)
            assert got in (data, b"\x00" * len(data)), f"{path}: {got!r}"
        return check

    steps = [
        Step("write:u0", gen=wr("/d0/u0", udata, False)),
        Step("write:u1", gen=wr("/d1/u1", udata, False)),
        Step("fsync:s0", gen=wr("/d0/s0", sdata, True),
             durable=synced("/d0/s0", sdata)),
        # Depose every range owner at epoch + 1, then sit out the per-range
        # fence window (one lease period) plus the victim's lease lapse.
        Step("failover", act=fail_all, advance=6.5),
        Step("survivor:v0", gen=wr("/d0/v0", vdata, True), survivor=True,
             durable=synced("/d0/v0", vdata)),
        Step("write:u2", gen=wr("/d0/u2", udata, False)),
        Step("advance-commit", advance=2.5,
             durable=committed("/d0/u0", udata)),
        Step("fsync:s1", gen=wr("/d1/s1", sdata, True),
             durable=synced("/d1/s1", sdata)),
        Step("sync", gen=lambda c: c.sync(),
             durable=committed("/d0/u2", udata)),
    ]

    def invariants(fs, violations):
        for path, data, exact in (("/d0/s0", sdata, True),
                                  ("/d0/v0", vdata, True),
                                  ("/d1/s1", sdata, True),
                                  ("/d0/u0", udata, False),
                                  ("/d1/u1", udata, False),
                                  ("/d0/u2", udata, False)):
            if not fs.exists(path):
                continue
            got = fs.read_file(path)
            ok = (got == data) if exact else \
                 (got in (data, b"\x00" * len(got), b""))
            if not ok:
                violations.append(f"{path} holds {len(got)} "
                                  f"unexpected bytes")

    return Workload("epoch_handoff", setup=setup, steps=steps,
                    invariants=invariants, n_lease_managers=3)


def _wl_tier_drain() -> Workload:
    """Hot/cold tiered store: crash points across the whole staged-object
    lifecycle — hot-tier staging PUTs, the fsync drain barrier, the
    background drain ticker, demand promotions on read, and watermark
    demotion deletes.

    A tiny hot capacity (192 KB against ~280 KB of ~30–40 KB files) and
    dirty bound force drain rounds and watermark demotions mid-workload.
    The crash model is the tier's worst case: the victim dies *and* the
    fast tier's contents are lost with it (``lose_hot``), so everything
    fsync'd/synced must be readable from the cold tier + journal alone —
    hot-only state is volatile by contract."""
    params = DEFAULT_PARAMS.with_(
        tier_enabled=True, tier_hot_capacity=192 * KiB,
        tier_high_watermark=0.75, tier_low_watermark=0.5,
        tier_dirty_max=128 * KiB, tier_drain_interval=0.4,
        tier_drain_batch=4, tier_promote_max=64 * KiB)
    content = {i: bytes([98 + i]) * (30_000 + 1_500 * i) for i in range(8)}

    def setup(c):
        yield from c.mkdir(ROOT_CREDS, "/t")
        yield from c.sync()

    def crash_handler(cluster):
        victim = cluster.client(0)

        def handler():
            victim.crash()
            cluster.store.lose_hot()

        return handler

    def wr(i, fsync):
        return lambda c: c.write_file(ROOT_CREDS, f"/t/f{i}", content[i],
                                      do_fsync=fsync)

    def drained_check(i):
        def check(fs):
            if i == 1:
                # The later unlink step may have removed it — or a crash
                # mid-unlink purged the data before the namespace commit,
                # leaving the name reading zeros (the same torn-unlink
                # state the pack workload's contract allows).
                if not fs.exists("/t/f1"):
                    return
                got = fs.read_file("/t/f1")
                assert got in (content[1], b"\x00" * len(got)), \
                    f"/t/f1 holds {len(got)} unexpected bytes"
                return
            got = fs.read_file(f"/t/f{i}")
            assert got == content[i], \
                f"/t/f{i} holds {len(got)} bytes != expected"
        return check

    def synced_check(fs):
        for i in range(4, 8):
            got = fs.read_file(f"/t/f{i}")
            assert got == content[i], \
                f"/t/f{i} holds {len(got)} bytes != expected"

    def gone_check(fs):
        assert not fs.exists("/t/f1"), "/t/f1 survived unlink"

    def rd(i):
        return lambda c: c.read_file(ROOT_CREDS, f"/t/f{i}")

    # fsync = staged hot + drain barrier: durable at cold on return, so it
    # must survive losing the entire hot tier at any later crash point.
    steps = [Step(f"fsync:f{i}", gen=wr(i, True), durable=drained_check(i))
             for i in range(4)]
    # Let the drain ticker and the watermark demoter run mid-workload.
    steps.append(Step("advance-drain", advance=1.0))
    # Demand reads: hot hits for resident objects, cold GET + promotion
    # for demoted ones — crash points inside the promotion PUTs too.
    steps.append(Step("read:f0", gen=rd(0)))
    steps.append(Step("read:f1", gen=rd(1)))
    steps += [Step(f"write:f{i}", gen=wr(i, False)) for i in range(4, 8)]
    steps.append(Step("sync-1", gen=lambda c: c.sync(),
                      durable=synced_check))
    steps.append(Step("unlink:f1",
                      gen=lambda c: c.unlink(ROOT_CREDS, "/t/f1")))
    steps.append(Step("sync-2", gen=lambda c: c.sync(),
                      durable=gone_check))
    # Everything is clean now; the demoter evicts past the watermark.
    steps.append(Step("advance-demote", advance=1.0))
    steps.append(Step("sync-3", gen=lambda c: c.sync()))

    def invariants(fs, violations):
        # Exact-or-zeros, as in the pack workload: a surviving name must
        # read its content or zeros (bytes that lived only in the victim's
        # cache or the lost hot tier) — never torn or foreign bytes.
        for i in range(8):
            path = f"/t/f{i}"
            if not fs.exists(path):
                continue
            got = fs.read_file(path)
            if got not in (content[i], b"\x00" * len(got), b""):
                violations.append(
                    f"{path} holds {len(got)} bytes that are neither its "
                    f"content nor zeros")

    return Workload("tier_drain", setup=setup, steps=steps,
                    invariants=invariants, params=params,
                    crash_handler=crash_handler)


def _wl_qos_backlog() -> Workload:
    """Multi-tenant QoS plane: crash points while ops sit queued behind
    admission and token-bucket throttles.

    Tight per-tenant rates (a few ops/s, a few KiB/s) put every victim op
    into a throttle sleep, and the concurrent-burst steps keep several
    fsyncs in flight at once — at the crash instant the victim holds
    admission slots and a token deficit, plus whatever store ops were
    mid-flight. Recovery must drain it all cleanly: the dead tenant's
    in-flight accounting is dropped (``QosManager.release_tenant`` runs in
    ``client.crash()``), the survivor — its own tenant, same plane — walks
    and replays the namespace without spurious EAGAINs, and every fsync
    that returned before the crash is durable despite having waited out a
    throttle on the way in."""
    params = DEFAULT_PARAMS.with_(
        qos_enabled=True, qos_ops_rate=60.0, qos_ops_burst=4.0,
        qos_bytes_rate=64 * KiB, qos_bytes_burst=16 * KiB,
        qos_max_inflight=4)
    content = {i: bytes([103 + i]) * (12_000 + 900 * i) for i in range(8)}

    def setup(c):
        yield from c.mkdir(ROOT_CREDS, "/q")
        yield from c.sync()

    def wr(i, fsync):
        return lambda c: c.write_file(ROOT_CREDS, f"/q/f{i}", content[i],
                                      do_fsync=fsync)

    def present_check(i):
        def check(fs):
            got = fs.read_file(f"/q/f{i}")
            assert got == content[i], \
                f"/q/f{i} holds {len(got)} bytes != expected"
        return check

    def burst(first, last):
        # Concurrent fsyncs from one gateway: the admission slots fill and
        # the ops/bytes buckets run a deficit, so the sweep lands crash
        # points while requests are queued *inside* the QoS plane.
        def gen(c):
            procs = [c.sim.process(wr(i, True)(c), name=f"burst:f{i}")
                     for i in range(first, last)]
            yield c.sim.all_of(procs)
        return gen

    def burst_check(first, last):
        def check(fs):
            for i in range(first, last):
                present_check(i)(fs)
        return check

    steps = [Step(f"fsync:f{i}", gen=wr(i, True), durable=present_check(i))
             for i in range(2)]
    steps.append(Step("burst:f2-f5", gen=burst(2, 6),
                      durable=burst_check(2, 6)))
    steps += [Step(f"write:f{i}", gen=wr(i, False)) for i in range(6, 8)]
    steps.append(Step("sync-1", gen=lambda c: c.sync(),
                      durable=burst_check(6, 8)))
    # A scratch file with no presence contract of its own: its unlink can
    # become durable at any later crash point without contradicting an
    # earlier step's durability closure.
    steps.append(Step("fsync:tmp",
                      gen=lambda c: c.write_file(ROOT_CREDS, "/q/tmp",
                                                 b"\x7f" * 9_000,
                                                 do_fsync=True)))
    steps.append(Step("unlink:tmp",
                      gen=lambda c: c.unlink(ROOT_CREDS, "/q/tmp")))
    steps.append(Step("sync-2", gen=lambda c: c.sync(),
                      durable=lambda fs: _assert(not fs.exists("/q/tmp"),
                                                 "/q/tmp survived unlink")))
    steps.append(Step("advance-settle", advance=1.0))

    def invariants(fs, violations):
        # Exact-or-zeros, as in the pack/tier workloads: throttle sleeps
        # and admission retries must never tear or cross-wire file bytes.
        for i in range(8):
            path = f"/q/f{i}"
            if not fs.exists(path):
                continue
            got = fs.read_file(path)
            if got not in (content[i], b"\x00" * len(got), b""):
                violations.append(
                    f"{path} holds {len(got)} bytes that are neither its "
                    f"content nor zeros")

    return Workload("qos_backlog", setup=setup, steps=steps,
                    invariants=invariants, params=params)


def _noop_setup(client):
    yield client.sim.timeout(0)


def _assert(cond, msg):
    assert cond, msg


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "mkdir": _wl_mkdir_heavy,
    "rename": _wl_rename_heavy,
    "checkpoint": _wl_checkpoint,
    "pack": _wl_pack,
    "shard_split": _wl_shard_split,
    "epoch_handoff": _wl_epoch_handoff,
    "tier_drain": _wl_tier_drain,
    "qos_backlog": _wl_qos_backlog,
}


# --------------------------------------------------------------------------
# seeded bugs (to prove the checker has teeth)
# --------------------------------------------------------------------------

def _bug_lost_commit(cluster) -> None:
    """Mutations applied locally but never committed: the victim's journal
    manager reports durability without writing the journal object. Every
    'durable' promise it makes is a lie the checker must catch."""
    victim = cluster.client(0)
    jm = victim.journal

    def lying_commit(dj):
        dj.running = []
        dj.ops_committed = dj.ops_recorded
        yield victim.sim.timeout(0)

    jm._commit_locked = lying_commit


def _bug_pretend_fsync(cluster) -> None:
    """Data mutations applied locally but never written back: the victim's
    cache marks dirty entries clean without the store PUT, so fsync returns
    success while the bytes exist only in volatile memory. Fault-free runs
    look fine (the victim reads its own cache); the durability milestones
    of any crash point after an 'fsync' expose it."""
    victim = cluster.client(0)
    cache = victim.cache

    def lying_writeback(ino, entry):
        entry.dirty = False
        yield victim.sim.timeout(0)

    cache._writeback = lying_writeback


def _bug_fence_blind(cluster) -> None:
    """A zombie leader: the victim's journal manager skips the fencing
    admit check AND the victim believes every lease it is granted lasts
    forever, so after a range fails over it keeps journaling and
    committing under its stale ``(mgr_epoch, dir_epoch)`` token instead
    of re-resolving the new authority. The independent
    :class:`~repro.core.lease.FencingRegistry` audit (compare every
    landed commit against the highest token ever granted) must flag the
    stale-epoch commits — this bug proves that auditor has teeth even
    when in-path enforcement is disabled."""
    victim = cluster.client(0)
    victim.journal.fencing_enforce = False
    real_acquire = victim._acquire_dir

    def immortal_acquire(dir_ino):
        kind, who = yield from real_acquire(dir_ino)
        if kind == "local":
            who.lease_expires += 1000.0
        return kind, who

    victim._acquire_dir = immortal_acquire


def _bug_tier_drain_reorder(cluster) -> None:
    """Drain bookkeeping ahead of durability: the tier's cold-PUT leg holds
    each drain batch back and only flushes the *previous* one, so every
    batch is marked clean (and the fsync barrier returns) one round before
    its bytes actually reach cold. Fault-free runs look fine — reads still
    hit the hot copy — but a crash that loses the hot tier after any fsync
    deterministically loses the most recent 'drained' batch, which the
    durability milestones must expose."""
    store = cluster.store  # the TieredObjectStore (unwrapped by design)
    real = store._drain_cold_put
    pending: List[list] = []

    def reordered(items, src):
        pending.append(list(items))
        if len(pending) > 1:
            yield from real(pending.pop(0), src)
        else:
            yield store.sim.timeout(0)

    store._drain_cold_put = reordered


SEEDED_BUGS: Dict[str, Callable] = {
    "lost-commit": _bug_lost_commit,
    "pretend-fsync": _bug_pretend_fsync,
    "fence-blind": _bug_fence_blind,
    "tier-drain-reorder": _bug_tier_drain_reorder,
}


# --------------------------------------------------------------------------
# results
# --------------------------------------------------------------------------

@dataclass
class CrashPointResult:
    index: int                 # crash_at_op (1-based victim store-op index)
    fired: bool                # did the crash actually trigger?
    completed_steps: int
    violations: List[str] = field(default_factory=list)
    audited_commits: int = 0   # journal commits the fencing auditor saw
    # Flight-recorder dump captured when violations were found (the last
    # ~512 structured events before/around the failure), else None.
    flight: Optional[dict] = None


@dataclass
class CrashCheckReport:
    workload: str
    total_ops: int             # victim store ops in the fault-free run
    points: List[CrashPointResult] = field(default_factory=list)
    profile_failure: Optional[str] = None

    @property
    def violations(self) -> List[Tuple[int, str]]:
        return [(r.index, v) for r in self.points for v in r.violations]

    @property
    def audited_commits(self) -> int:
        return sum(r.audited_commits for r in self.points)

    @property
    def ok(self) -> bool:
        # A step failing in the *fault-free* profiling run is the strongest
        # possible finding: the workload broke before any crash was injected.
        return not self.violations and self.profile_failure is None

    def summary(self) -> str:
        status = ("OK" if self.ok
                  else f"{len(self.violations)} VIOLATIONS")
        lines = [f"crashcheck[{self.workload}]: {status} — "
                 f"{len(self.points)} crash points checked "
                 f"of {self.total_ops} victim store ops, "
                 f"{self.audited_commits} journal commits fencing-audited"]
        if self.profile_failure:
            lines.append(f"  profiling stopped early: {self.profile_failure}")
        for idx, v in self.violations:
            lines.append(f"  crash@{idx}: {v}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# the harness
# --------------------------------------------------------------------------

class _StepWedged(Exception):
    """A step made no progress within its sim-time bound."""


def _build(bug: Optional[str] = None,
           params: Optional[ArkFSParams] = None,
           n_lease_managers: int = 1):
    sim = Simulator()
    # Flight recorder from the start: when a crash point finds a violation,
    # its result carries the recent event ring (fault injections, journal
    # commits, lease revocations, ...) so the failure is diagnosable from
    # the report alone. Recording never perturbs simulated outcomes.
    Observability.of(sim).enable_recorder()
    plan = FaultPlan()
    plan.disarm()
    cluster = build_arkfs(sim, n_clients=2, functional=True, seed=0,
                          params=params or DEFAULT_PARAMS, faults=plan,
                          n_lease_managers=n_lease_managers)
    if bug is not None:
        SEEDED_BUGS[bug](cluster)
    return sim, cluster, plan


def _run_step(sim: Simulator, cluster, step: Step) -> None:
    """Run one step with a sim-time bound (a crashed client's unwinding
    coroutines can otherwise spin on retry loops forever)."""
    if step.act is not None:
        step.act(cluster)
    if step.gen is None:
        sim.run(until=sim.now + step.advance)
        return
    client = cluster.client(1 if step.survivor else 0)
    deadline = sim.now + STEP_BOUND_S
    proc = sim.process(step.gen(client), name=f"step:{step.name}")
    while not proc.triggered and sim.peek() <= deadline:
        sim.step()
    if not proc.triggered:
        raise _StepWedged(
            f"step {step.name!r} did not finish within {STEP_BOUND_S}s")
    if not proc._ok:
        raise proc._value


def _drain_breaches(cluster, sink: List[str]) -> None:
    """Append every stale-epoch commit the fencing auditor recorded.

    The :class:`~repro.core.lease.FencingRegistry` audit is independent of
    client-side enforcement (it compares every commit that actually landed
    against the highest token ever granted), so it catches zombie leaders
    even when a seeded bug disables the in-path check."""
    sink.extend(f"fencing: {b}"
                for b in cluster.lease_service.fencing.drain_breaches())


def profile(workload: Workload,
            bug: Optional[str] = None) -> Tuple[int, List[int], Optional[str]]:
    """Fault-free reference run. Returns ``(total victim ops, per-step
    op-count milestones, failure)`` — ``failure`` is set when a step failed
    even without any fault injected (itself a finding; the sweep still
    covers the ops up to that point)."""
    sim, cluster, plan = _build(bug, params=workload.params,
                                n_lease_managers=workload.n_lease_managers)
    victim = cluster.client(0)
    plan.crash_victim = victim.node.name   # count, but never crash
    try:
        sim.run_process(workload.setup(victim),
                        name=f"{workload.name}.setup")
    except Exception as exc:  # noqa: BLE001
        return 0, [], f"setup: {exc!r}"
    plan.arm()
    milestones: List[int] = []
    failure: Optional[str] = None
    for step in workload.steps:
        try:
            _run_step(sim, cluster, step)
        except Exception as exc:  # noqa: BLE001 - reported, not masked
            failure = f"step {step.name!r}: {exc!r}"
            break
        milestones.append(plan.victim_ops)
    if failure is None:
        # Even the fault-free run is audited: a zombie leader committing
        # under a stale epoch is a finding with no crash injected at all.
        breaches: List[str] = []
        _drain_breaches(cluster, breaches)
        if breaches:
            failure = breaches[0] if len(breaches) == 1 else \
                f"{breaches[0]} (+{len(breaches) - 1} more)"
    return plan.victim_ops, milestones, failure


def check_point(workload: Workload, k: int, milestones: List[int],
                bug: Optional[str] = None) -> CrashPointResult:
    """Crash the victim at its k-th store op, recover, check invariants."""
    sim, cluster, plan = _build(bug, params=workload.params,
                                n_lease_managers=workload.n_lease_managers)
    victim, survivor = cluster.client(0), cluster.client(1)
    handler = (victim.crash if workload.crash_handler is None
               else workload.crash_handler(cluster))
    plan.crash_at(victim.node.name, k, handler=handler)
    try:
        sim.run_process(workload.setup(victim),
                        name=f"{workload.name}.setup")
    except Exception as exc:  # noqa: BLE001
        return CrashPointResult(
            index=k, fired=False, completed_steps=0,
            violations=[f"workload setup failed (no fault armed): {exc!r}"])
    plan.arm()

    violations: List[str] = []
    completed = 0
    for step in workload.steps:
        try:
            _run_step(sim, cluster, step)
        except InjectedCrash:
            break
        except Exception as exc:  # noqa: BLE001
            if plan.crashed:
                break  # downstream wreckage of the injected crash
            violations.append(
                f"step {step.name!r} failed without a crash: {exc!r}")
            break
        if plan.crashed:
            break  # fired in a background thread during this step
        completed += 1

    if plan.crashed:
        # Let the victim's leases expire so the survivor can take over.
        sim.run(until=sim.now + 2 * cluster.params.lease_period
                + FENCE_MARGIN_S)

    fs = SyncFS(survivor, ROOT_CREDS)

    # Production recovery path: acquiring each directory's lease replays
    # its journal. Walking the tree also proves every file is readable.
    try:
        _walk(fs, "/")
    except Exception as exc:  # noqa: BLE001
        violations.append(f"survivor namespace walk failed: {exc!r}")

    # Journals of directories the walk cannot reach (none in the shipped
    # workloads, but a cheap safety net for custom ones).
    try:
        _recover_residual(sim, cluster, survivor)
    except Exception as exc:  # noqa: BLE001
        violations.append(f"residual journal replay failed: {exc!r}")

    # Quiesce the survivor so fsck sees a settled store.
    sim.run_process(survivor.sync(), name="survivor.sync")
    sim.run(until=sim.now + 3.0)

    report = sim.run_process(
        fsck(cluster.prt, src=survivor.node, after_crash=True), name="fsck")
    violations.extend(f"fsck: {e}" for e in report.errors)

    # Durability milestones: a step that returned before the crash (its
    # last counted op <= k-1, i.e. k > milestone) promised durability.
    for step, m in zip(workload.steps, milestones):
        if step.durable is None or k <= m:
            continue
        try:
            step.durable(fs)
        except AssertionError as exc:
            violations.append(
                f"durability of completed step {step.name!r} broken: {exc}")
        except Exception as exc:  # noqa: BLE001
            violations.append(
                f"durability check for {step.name!r} errored: {exc!r}")

    if workload.invariants is not None:
        try:
            workload.invariants(fs, violations)
        except Exception as exc:  # noqa: BLE001
            violations.append(f"invariant check errored: {exc!r}")

    violations.extend(plan.violations)
    _drain_breaches(cluster, violations)
    flight = None
    if violations:
        rec = sim._recorder
        if rec is not None:
            flight = rec.to_dict()
    return CrashPointResult(
        index=k, fired=plan.crashed, completed_steps=completed,
        violations=violations, flight=flight,
        audited_commits=cluster.lease_service.fencing.commits)


def _walk(fs: SyncFS, path: str) -> None:
    for name in sorted(fs.readdir(path)):
        sub = (path.rstrip("/") + "/" + name)
        st = fs.lstat(sub)
        if st.is_dir:
            _walk(fs, sub)
        elif st.is_file:
            fs.read_file(sub)


def _recover_residual(sim: Simulator, cluster, survivor) -> None:
    keys = sim.run_process(
        cluster.store.list("j", src=survivor.node), name="scan-j")
    dir_inos = {int(key[1:].partition("/")[0], 16) for key in keys}
    for dir_ino in sorted(dir_inos):
        sim.run_process(
            recover_directory(cluster.prt, dir_ino, src=survivor.node),
            name=f"residual-recover:{dir_ino:x}")


def sweep(workload_name: str, stride: int = 1,
          limit: Optional[int] = None, bug: Optional[str] = None,
          progress: Optional[Callable[[str], None]] = None) -> CrashCheckReport:
    """Profile the workload, then check a (strided, bounded) set of its
    crash points. ``stride=1, limit=None`` is the exhaustive sweep."""
    workload = WORKLOADS[workload_name]()
    total, milestones, failure = profile(workload, bug=bug)
    report = CrashCheckReport(workload=workload_name, total_ops=total,
                              profile_failure=failure)
    points = list(range(1, total + 1, max(1, stride)))
    if limit is not None:
        points = points[:limit]
    for i, k in enumerate(points):
        if progress is not None and i % 25 == 0:
            progress(f"crash point {k}/{total} "
                     f"({i + 1}/{len(points)} checked)")
        report.points.append(check_point(workload, k, milestones, bug=bug))
    return report


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.faults.crashcheck",
        description="Exhaustive crash-consistency sweep over ArkFS "
                    "store operations.")
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    default="rename")
    ap.add_argument("--stride", type=int, default=1,
                    help="check every Nth crash point (default: all)")
    ap.add_argument("--limit", type=int, default=None,
                    help="check at most this many crash points")
    ap.add_argument("--bug", choices=sorted(SEEDED_BUGS), default=None,
                    help="seed a deliberate recovery bug (the sweep "
                         "should then FAIL)")
    ap.add_argument("--flight", default="crashcheck_flight.json",
                    metavar="PATH",
                    help="where to write flight-recorder dumps of failing "
                         "crash points (default: %(default)s)")
    args = ap.parse_args(argv)
    report = sweep(args.workload, stride=args.stride, limit=args.limit,
                   bug=args.bug, progress=lambda msg: print(f"  {msg}"))
    print(report.summary())
    if not report.ok and args.flight:
        dumps = [{"crash_at_op": r.index, "flight": r.flight}
                 for r in report.points if r.violations]
        with open(args.flight, "w") as f:
            f.write(json.dumps(
                {"workload": report.workload, "points": dumps},
                allow_nan=False))
        print(f"  flight-recorder dumps of {len(dumps)} failing point(s) "
              f"written to {args.flight}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
