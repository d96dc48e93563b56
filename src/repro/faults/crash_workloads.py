"""The crash sweep's workloads: what the victim does, and what must survive.

A :class:`Workload` is data that the engine in
:mod:`repro.faults.crashcheck` runs: a setup (run unarmed, so its store
ops are not crash points), a list of :class:`Step`\\ s, each step's
durability promise (checked at every crash point after it returned) and
the workload's invariants (checked at every crash point). The pieces
several workloads share are the module-level helpers below.

Durability follows the journal: mkdir is durable on return, a
cross-directory rename is durable at its 2PC decision, and the rest
buffers until the next commit or sync. Unfsynced *data* may die with the
victim's cache while its journaled size survives (ext4's default mode),
so such a file legally reads back as zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.params import ArkFSParams, DEFAULT_PARAMS, KiB
from ..posix import ROOT_CREDS

__all__ = ["Step", "Workload", "WORKLOADS"]


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


# --------------------------------------------------------------------------
# shared pieces
# --------------------------------------------------------------------------

# Each subsystem's sweep configuration: small enough that its background
# machinery (split, drain and demotion) fires within a few steps.
# ``all_on`` takes both at once.
SHARDS = dict(shards_enabled=True, shard_split_threshold=6, shard_fanout=4)
TIER = dict(tier_enabled=True, tier_hot_capacity=192 * KiB,
            tier_high_watermark=0.75, tier_low_watermark=0.5,
            tier_dirty_max=128 * KiB, tier_drain_interval=0.4,
            tier_drain_batch=4, tier_promote_max=64 * KiB)


def mkdirs(*paths):
    """Setup: mkdir each path, then sync."""
    def setup(c):
        for path in paths:
            yield from c.mkdir(ROOT_CREDS, path)
        yield from c.sync()
    return setup


def _idle(c):
    yield c.sim.timeout(0)


def _sync(c):
    return c.sync()


def wr(path, data, fsync=False):
    """Step coroutine: write ``data`` to ``path``, fsync'd when asked."""
    return lambda c: c.write_file(ROOT_CREDS, path, data, do_fsync=fsync)


def reads_exactly(files: Dict[str, bytes], *paths):
    """Durability check: each of ``paths`` reads exactly its bytes in
    ``files``."""
    def check(fs):
        for path in paths:
            got = fs.read_file(path)
            assert got == files[path], \
                f"{path} holds {len(got)} bytes != expected"
    return check


def absent(*paths):
    """Durability check: no path in ``paths`` exists."""
    def check(fs):
        for path in paths:
            assert not fs.exists(path), f"{path} still exists"
    return check


def _content_or_zeros(fs, path, data):
    got = fs.read_file(path)
    assert got in (data, bytes(len(got))), \
        f"{path} holds {len(got)} unexpected bytes"


def torn_unlink(files: Dict[str, bytes], path):
    """Durability check for an fsync'd file that a later step unlinks. The
    unlink may have removed it. A crash mid-unlink may also have purged
    the data before the namespace commit, so the name reads zeros."""
    def check(fs):
        if fs.exists(path):
            _content_or_zeros(fs, path, files[path])
    return check


def committed(files: Dict[str, bytes], *paths):
    """Durability check for journal-committed, unfsynced writes: name and
    size survive, and the bytes are the content or zeros."""
    def check(fs):
        for path in paths:
            size = fs.stat(path).st_size
            assert size == len(files[path]), f"{path} size {size}"
            _content_or_zeros(fs, path, files[path])
    return check


def all_of(*checks):
    def check(fs):
        for c in checks:
            c(fs)
    return check


def exact_or_zeros(files: Dict[str, bytes], exact=()):
    """Invariant: a surviving name reads its content or zeros (bytes that
    lived only in the victim's cache or lost hot tier),
    never torn or foreign bytes. A path in ``exact`` reads its content."""
    def invariants(fs, violations):
        for path, data in files.items():
            if not fs.exists(path):
                continue
            got = fs.read_file(path)
            if got != data and (path in exact or got != bytes(len(got))):
                violations.append(f"{path} holds {len(got)} unexpected bytes")
    return invariants


def one_listing(d, files: Dict[str, bytes], src, dst):
    """Invariant of a sharded directory ``d``: readdir lists each name once
    and every listed name stats, the rename ``src -> dst`` never leaves
    both names, and every file is exact-or-zeros."""
    content = exact_or_zeros(files)

    def invariants(fs, violations):
        names = fs.readdir(d)
        if len(names) != len(set(names)):
            violations.append(
                f"sharded readdir lists duplicates: {sorted(names)}")
        violations.extend(f"{d}/{nm} listed but not stat-able"
                          for nm in names if not fs.exists(f"{d}/{nm}"))
        if fs.exists(src) and fs.exists(dst):
            violations.append(f"rename {src} -> {dst} duplicated across "
                              f"shard ranges")
        content(fs, violations)
    return invariants


def _sharded_fsync(d, files: Dict[str, bytes], i):
    """An fsync'd create of ``d/f<i>`` in the sharded workloads, where
    later steps unlink ``d/f1`` and rename ``d/f2`` to ``d/g2``."""
    path = f"{d}/f{i}"

    def renamed(fs):
        # Whichever name exists reads exactly; atomicity is an invariant.
        now = f"{d}/g2" if fs.exists(f"{d}/g2") else path
        reads_exactly({now: files[path]}, now)(fs)

    durable = {1: torn_unlink(files, path), 2: renamed}.get(
        i, reads_exactly(files, path))
    return Step(f"fsync:f{i}", gen=wr(path, files[path], True),
                durable=durable)


def _unlink(path):
    return lambda c: c.unlink(ROOT_CREDS, path)


def _rename(src, dst):
    return lambda c: c.rename(ROOT_CREDS, src, dst)


# --------------------------------------------------------------------------
# the workloads
# --------------------------------------------------------------------------

def _wl_mkdir() -> Workload:
    """Directory-tree construction: committed mkdirs, nesting, rmdir.

    Every mkdir commits its record and writes the child's inode object
    (it must be loadable before anyone acquires the child's lease) before
    it returns, so each one is durable on return.
    rmdir buffers the parent-journal delete, so the removal becomes
    durable at the *next sync*: the milestone lives on sync-2."""
    def mk(path):
        def made(fs):
            assert fs.stat(path).is_dir, f"{path} is not a directory"
        return Step(f"mkdir:{path}", gen=lambda c: c.mkdir(ROOT_CREDS, path),
                    durable=made)

    steps = [mk(p) for p in ("/m0", "/m1", "/m2", "/m3",
                             "/m0/s0", "/m0/s1", "/m1/s0")]
    steps.append(Step("sync-1", gen=_sync))
    steps += [mk(p) for p in ("/late0", "/late1", "/m2/s0")]
    steps += [Step("rmdir:/m3", gen=lambda c: c.rmdir(ROOT_CREDS, "/m3")),
              Step("sync-2", gen=_sync, durable=absent("/m3"))]
    return Workload("mkdir", setup=_idle, steps=steps)


def _wl_rename() -> Workload:
    """Cross-directory renames: the full 2PC prepare/decide/finish path.

    Each rename is durable on return (the decision record committed), so
    each one is a milestone; the atomicity invariant (exactly one of the
    old and new name exists, holding the original bytes) must hold at
    *every* crash point."""
    n = 20
    content = {i: bytes([65 + i]) * (100 + i) for i in range(n)}
    moved = {f"/b/g{i}": content[i] for i in range(n)}

    def setup(c):
        yield from c.mkdir(ROOT_CREDS, "/a")
        yield from c.mkdir(ROOT_CREDS, "/b")
        for i in range(n):
            yield from c.write_file(ROOT_CREDS, f"/a/f{i}", content[i],
                                    do_fsync=True)
        yield from c.sync()

    steps = [Step(f"rename:f{i}", gen=_rename(f"/a/f{i}", f"/b/g{i}"),
                  durable=all_of(reads_exactly(moved, f"/b/g{i}"),
                                 absent(f"/a/f{i}")))
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
    u = {f"/c/u{i}": b"u" * 50 for i in range(3)}
    s = {f"/c/s{i}": b"s" * 50 for i in range(3)}
    steps = [Step(f"write:u{i}", gen=wr(p, u[p])) for i, p in enumerate(u)]
    # > journal_commit_interval: the background threads commit (and then
    # checkpoint) the buffered creates, making their metadata durable.
    steps.append(Step("advance-commit", advance=2.5,
                      durable=committed(u, *u)))
    steps += [Step(f"write:s{i}", gen=wr(p, s[p], True))
              for i, p in enumerate(s)]
    steps += [Step("sync", gen=_sync, durable=reads_exactly(s, *s)),
              Step("advance-ckpt", advance=2.5)]
    return Workload("checkpoint", setup=mkdirs("/c"), steps=steps)


def _wl_shard_split() -> Workload:
    """Directory sharding: crash points across the whole two-phase split
    (pre-split checkpoint, splitting-map PUT, per-dentry migration, the
    activating map PUT), then post-split creates, an unlink and an
    intra-directory, possibly cross-shard, rename.

    The 6th create of ``/s`` triggers the split, so the next one blocks on
    the split gate. fsck checks the one authoritative layout structurally
    (every dentry hash-routes to the range holding it)."""
    files = {f"/s/f{i}": bytes([70 + i]) * (60 + 7 * i) for i in range(10)}
    f = list(files)
    files["/s/g2"] = files[f[2]]

    # f5's create crosses the threshold; f6's create waits on the split
    # gate, so the split's store ops all land inside these steps.
    steps = [_sharded_fsync("/s", files, i) for i in range(8)]
    steps += [Step("advance-split", advance=1.5),
              Step("unlink:f1", gen=_unlink(f[1])),
              Step("rename:f2", gen=_rename(f[2], "/s/g2")),
              Step("sync-1", gen=_sync, durable=all_of(
                  reads_exactly(files, "/s/g2"), absent(f[1], f[2])))]
    steps += [_sharded_fsync("/s", files, i) for i in (8, 9)]
    steps.append(Step("sync-2", gen=_sync))
    return Workload("shard_split", setup=mkdirs("/s"), steps=steps,
                    invariants=one_listing("/s", files, f[2], "/s/g2"),
                    params=DEFAULT_PARAMS.with_(**SHARDS))


def _wl_epoch_handoff() -> Workload:
    """Lease-manager scale-out: epoch-fenced range handoff under load.

    A three-manager ring serves the namespace; mid-workload every range
    fails over to its successor at epoch + 1 while the victim holds live
    leases and uncommitted transactions. The survivor then acquires a
    directory under the new epoch (recovery grant + journal replay), and
    the victim's stale leases must re-resolve to the new authority. The
    engine's FencingRegistry audit catches a stale-epoch commit (the
    ``fence-blind`` seeded bug proves it)."""
    udata, sdata, vdata = b"u" * 64, b"s" * 72, b"v" * 80
    files = {"/d0/s0": sdata, "/d0/v0": vdata, "/d1/s1": sdata,
             "/d0/u0": udata, "/d1/u1": udata, "/d0/u2": udata}

    def fail_all(cluster):
        svc = cluster.lease_service
        for rs in list(svc.ranges):
            svc.fail_over(rs.index)

    def fsync(path, **kw):
        return Step(f"fsync:{path[4:]}", gen=wr(path, files[path], True),
                    durable=reads_exactly(files, path), **kw)

    steps = [
        Step("write:u0", gen=wr("/d0/u0", udata)),
        Step("write:u1", gen=wr("/d1/u1", udata)),
        fsync("/d0/s0"),
        # Depose every range owner at epoch + 1, then sit out the per-range
        # fence window (one lease period) plus the victim's lease lapse.
        Step("failover", act=fail_all, advance=6.5),
        Step("survivor:v0", gen=wr("/d0/v0", vdata, True), survivor=True,
             durable=reads_exactly(files, "/d0/v0")),
        Step("write:u2", gen=wr("/d0/u2", udata)),
        Step("advance-commit", advance=2.5,
             durable=committed(files, "/d0/u0")),
        fsync("/d1/s1"),
        Step("sync", gen=_sync, durable=committed(files, "/d0/u2")),
    ]
    return Workload("epoch_handoff", setup=mkdirs("/d0", "/d1"), steps=steps,
                    invariants=exact_or_zeros(
                        files, exact=("/d0/s0", "/d0/v0", "/d1/s1")),
                    n_lease_managers=3)


def _wl_tier_drain() -> Workload:
    """Hot/cold tiered store: crash points across staging PUTs, the fsync
    drain barrier, the drain ticker, demand promotions and watermark
    demotions, forced by a 192 KB hot tier under ~280 KB of files.

    The engine loses the hot tier with the victim, so everything fsync'd
    or synced must be readable from the cold tier and journal alone."""
    files = {f"/t/f{i}": bytes([98 + i]) * (30_000 + 1_500 * i)
             for i in range(8)}
    f = list(files)

    def rd(i):
        return lambda c: c.read_file(ROOT_CREDS, f[i])

    # fsync = staged hot + drain barrier: durable at cold on return, so it
    # must survive losing the entire hot tier at any later crash point.
    steps = [Step(f"fsync:f{i}", gen=wr(f[i], files[f[i]], True),
                  durable=(torn_unlink(files, f[1]) if i == 1
                           else reads_exactly(files, f[i])))
             for i in range(4)]
    # Let the drain ticker and the watermark demoter run mid-workload, then
    # read: hot hits for resident objects, cold GET + promotion for
    # demoted ones — crash points inside the promotion PUTs too.
    steps += [Step("advance-drain", advance=1.0),
              Step("read:f0", gen=rd(0)),
              Step("read:f1", gen=rd(1))]
    steps += [Step(f"write:f{i}", gen=wr(f[i], files[f[i]]))
              for i in range(4, 8)]
    steps += [Step("sync-1", gen=_sync, durable=reads_exactly(files, *f[4:])),
              Step("unlink:f1", gen=_unlink(f[1])),
              Step("sync-2", gen=_sync, durable=absent(f[1])),
              # Everything is clean now; the demoter evicts past the
              # watermark.
              Step("advance-demote", advance=1.0),
              Step("sync-3", gen=_sync)]
    return Workload("tier_drain", setup=mkdirs("/t"), steps=steps,
                    invariants=exact_or_zeros(files),
                    params=DEFAULT_PARAMS.with_(**TIER))


def _wl_all_on() -> Workload:
    """Every optional subsystem in one directory: sharding and tiering,
    each configured as in its own workload.

    Eight fsync'd creates cross the split threshold while their bytes
    stage in the tier's hot store. Unsynced
    writes, unlinks and an intra-directory rename follow; the advance
    steps let the split, drain and demotion fire. The engine loses the hot
    tier with the victim."""
    files = {f"/x/f{i}": bytes([104 + i]) * (14_000 + 1_100 * i)
             for i in range(10)}
    f = list(files)
    files["/x/g2"] = files[f[2]]
    steps = [_sharded_fsync("/x", files, i) for i in range(8)]
    steps.append(Step("advance-split", advance=1.5))
    steps += [Step(f"write:f{i}", gen=wr(f[i], files[f[i]])) for i in (8, 9)]
    steps += [Step("unlink:f1", gen=_unlink(f[1])),
              Step("rename:f2", gen=_rename(f[2], "/x/g2")),
              Step("sync-1", gen=_sync, durable=all_of(
                  reads_exactly(files, "/x/g2", f[9]), absent(f[1], f[2]),
                  torn_unlink(files, f[8]))),
              Step("unlink:f8", gen=_unlink(f[8])),
              Step("advance-drain", advance=2.0),
              Step("sync-2", gen=_sync)]
    return Workload("all_on", setup=mkdirs("/x"), steps=steps,
                    invariants=one_listing("/x", files, f[2], "/x/g2"),
                    params=DEFAULT_PARAMS.with_(**SHARDS, **TIER))


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "mkdir": _wl_mkdir,
    "rename": _wl_rename,
    "checkpoint": _wl_checkpoint,
    "shard_split": _wl_shard_split,
    "epoch_handoff": _wl_epoch_handoff,
    "tier_drain": _wl_tier_drain,
    "all_on": _wl_all_on,
}
