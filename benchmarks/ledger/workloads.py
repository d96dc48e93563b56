"""The ledger's load generator: six closed-loop workloads and their oracle.

Everything here is the ``driver`` layer. A workload builds its cluster
through the public :func:`repro.bench.harness.build`, issues POSIX calls
through :class:`Probe` (a mount proxy that times, counts and checks every
root operation) and declares named phases; nothing in ``src/`` knows it is
being benchmarked.

The seed shapes *inputs only* — file names (hence object placement),
directory assignment, per-process operation order, file sizes and payload
bytes — while the totals a workload issues (root ops, files, user bytes)
are the same for every seed and pinned in :data:`WORKLOADS`. A run whose
totals differ from its pins fails instead of silently moving the numbers.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from calib import user_cpu_s
from repro.bench.harness import NET_10G, NET_50G, build
from repro.core.fsck import fsck
from repro.objectstore import EBS_GP_1GBS, LocalDisk
from repro.objectstore.profiles import KiB, MiB
from repro.posix import ROOT_CREDS, OpenFlags
from repro.posix.errors import NotFound
from repro.sim import Simulator
from repro.workloads import (
    ImageSpec,
    SyntheticDataset,
    WorkloadRunner,
    archive_from_disk,
    archive_to_disk,
    extract_in_fs,
    mscoco_like,
    run_phase,
)

CREATE = OpenFlags.O_CREAT | OpenFlags.O_EXCL | OpenFlags.O_WRONLY
RDONLY = OpenFlags.O_RDONLY

#: Deleted paths re-checked for ENOENT after the timed phases.
ENOENT_SAMPLE = 32


class Oracle:
    """What one repetition's load generator observed and must hold true."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.latencies: List[float] = []   # simulated seconds per root op
        self.failed = 0                     # ops that raised or broke a check
        self.failures: List[str] = []       # first few, for the report
        self.user_bytes = 0                 # payload bytes written + read
        self.files = 0                      # files created
        self.written: Dict[str, Tuple[int, int]] = {}   # path -> (size, crc32)
        self.deleted: List[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(what)


def _timed_op(op: str):
    """A Probe method that only times and counts ``mount.<op>``."""

    def method(self, *args):
        oracle = self.oracle
        t0 = oracle.sim.now
        try:
            result = yield from getattr(self.mount, op)(*args)
        except Exception as exc:
            oracle.fail(f"{op}{args[1:2]} raised {exc!r}")
            raise
        oracle.latencies.append(oracle.sim.now - t0)
        return result

    method.__name__ = op
    return method


class Probe:
    """The load generator's view of one mount.

    Each call is one *root op*: its simulated latency is recorded, an
    exception counts as a failed op, and sequential file I/O is
    checksummed so that every byte read back is compared with what was
    written under that path (``stat`` sizes likewise).
    """

    def __init__(self, mount, oracle: Oracle):
        self.mount = mount
        self.oracle = oracle
        self._open: Dict[object, list] = {}   # handle -> [path, n, crc, writing]

    mkdir = _timed_op("mkdir")
    readdir = _timed_op("readdir")
    fsync = _timed_op("fsync")
    _open_op = _timed_op("open")
    _close_op = _timed_op("close")
    _read_op = _timed_op("read")
    _write_op = _timed_op("write")
    _stat_op = _timed_op("stat")
    _unlink_op = _timed_op("unlink")

    def open(self, creds, path, flags, mode=0o666):
        handle = yield from self._open_op(creds, path, flags, mode)
        writing = flags.wants_write
        if writing and path not in self.oracle.written:
            self.oracle.files += 1
        self._open[handle] = [path, 0, 0, writing]
        return handle

    def write(self, handle, data):
        n = yield from self._write_op(handle, data)
        state = self._open[handle]
        state[1] += n
        state[2] = zlib.crc32(data, state[2])
        self.oracle.user_bytes += n
        return n

    def read(self, handle, size):
        data = yield from self._read_op(handle, size)
        state = self._open[handle]
        state[1] += len(data)
        state[2] = zlib.crc32(data, state[2])
        self.oracle.user_bytes += len(data)
        return data

    def close(self, handle):
        yield from self._close_op(handle)
        path, n, crc, writing = self._open.pop(handle)
        oracle = self.oracle
        if writing:
            oracle.written[path] = (n, crc)
        elif oracle.written.get(path, (n, crc)) != (n, crc):
            oracle.fail(f"read-back of {path}: got {(n, crc)}, "
                        f"wrote {oracle.written[path]}")

    def stat(self, creds, path):
        st = yield from self._stat_op(creds, path)
        expect = self.oracle.written.get(path)
        if expect is not None and st.st_size != expect[0]:
            self.oracle.fail(f"stat({path}).st_size={st.st_size}, "
                             f"wrote {expect[0]}")
        return st

    def unlink(self, creds, path):
        yield from self._unlink_op(creds, path)
        self.oracle.written.pop(path, None)
        self.oracle.deleted.append(path)


@dataclass
class Phase:
    name: str
    mutating: bool
    start: float
    end: float
    ops: int
    user_bytes: int
    cache_hits: int
    cache_misses: int


class Rep:
    """One repetition: a fresh cluster, its probes and its phase log."""

    def __init__(self, workload: "Workload", seed: int):
        self.workload = workload
        # A str seed is hashed with SHA-512, independent of PYTHONHASHSEED.
        self.rng = random.Random(f"{workload.name}:{seed}")
        self.sim = Simulator()
        self.cluster, self.raw_mounts = build(
            workload.kind, self.sim, n_clients=workload.n_clients,
            net=workload.net, cache_capacity=workload.cache_capacity)
        self.oracle = Oracle(self.sim)
        self.mounts = [Probe(m, self.oracle) for m in self.raw_mounts]
        self.runner = WorkloadRunner(self.sim, list(self.cluster.clients),
                                     list(self.raw_mounts))
        self.phases: List[Phase] = []
        # Host-clock reading at every phase boundary: the worker takes the
        # median of each slice over repetitions, which shrugs off a burst
        # of host noise that a whole-repetition median would swallow.
        self.host_marks: List[float] = []
        self.state: dict = {}    # workload-private, prep -> run -> check

    def mount_of(self, proc: int) -> Probe:
        return self.mounts[proc % len(self.mounts)]

    def prep(self, factories: Sequence[Callable]) -> None:
        """Untimed preparation (part of ``setup_s``, not of any phase)."""
        self.runner.setup(factories)

    def phase(self, name: str, mutating: bool,
              factories: Sequence[Callable]) -> None:
        """One timed phase: all processes to completion, then every client
        syncs (the paper calls fsync after each phase)."""
        oracle = self.oracle
        ops0, bytes0 = len(oracle.latencies), oracle.user_bytes
        hits0, misses0 = self._cache_counts()
        self.host_marks.append(user_cpu_s())
        result = self.runner.phase(name, factories)
        self.host_marks.append(user_cpu_s())
        hits1, misses1 = self._cache_counts()
        self.phases.append(Phase(
            name, mutating, result.start, result.end,
            len(oracle.latencies) - ops0, oracle.user_bytes - bytes0,
            hits1 - hits0, misses1 - misses0))

    def _cache_counts(self) -> Tuple[int, int]:
        hits = misses = 0
        for client in self.cluster.clients:
            stats = client.cache.stats
            hits += stats["hits"]
            misses += stats["misses"]
        return hits, misses

    def drop_caches(self) -> None:
        run_phase(self.sim, [self.sim.process(c.drop_caches())
                             for c in self.cluster.clients])

    def check(self) -> None:
        """Untimed end-of-run oracle: deleted paths are gone, the
        workload's own content check holds, and fsck is clean."""
        oracle, sim = self.oracle, self.sim
        sample = oracle.deleted
        if len(sample) > ENOENT_SAMPLE:
            sample = self.rng.sample(sample, ENOENT_SAMPLE)

        def stat_deleted():
            for path in sample:
                try:
                    yield from self.raw_mounts[0].stat(ROOT_CREDS, path)
                except NotFound:
                    continue
                oracle.fail(f"deleted path {path} still resolves")

        run_phase(sim, [sim.process(stat_deleted())])
        self.workload.check(self)
        for client in self.cluster.clients:
            sim.run_process(client.sync())
            sim.run_process(client.journal.flush_all(full=True))
        report = sim.run_process(fsck(self.cluster.prt))
        if not report.clean:
            oracle.fail("fsck: " + "; ".join(report.errors[:3]))


def fit_sizes(raw: Sequence[float], total: int, quantum: int) -> List[int]:
    """Scale ``raw`` to multiples of ``quantum`` summing to exactly
    ``total`` (largest-remainder rounding), keeping the shape."""
    units, rest = divmod(total, quantum)
    assert rest == 0 and units >= len(raw)
    scale = units / sum(raw)
    exact = [r * scale for r in raw]
    out = [max(1, int(x)) for x in exact]
    by_fraction = sorted(range(len(raw)), key=lambda i: exact[i] - out[i],
                         reverse=True)
    short = units - sum(out)
    assert 0 <= short <= len(out)    # holds while every size >> quantum
    for i in by_fraction[:short]:
        out[i] += 1
    return [n * quantum for n in out]


@dataclass(frozen=True)
class Workload:
    """A named workload: cluster shape, the three stages, and its pins."""

    name: str
    kind: str
    n_clients: int
    net: object
    cache_capacity: int
    prep: Callable[[Rep], None]      # untimed: directory trees, datasets
    run: Callable[[Rep], None]       # the timed phases
    ops: int                         # pinned root ops per repetition
    files: int                       # pinned files created
    user_bytes: int                  # pinned payload bytes written + read
    check: Callable[[Rep], None] = lambda rep: None   # content oracle


def _for_each(rep: Rep, op: str, proc: int, paths: Sequence[str]):
    """Process factory: ``op(path)`` on each path in turn (stat, unlink)."""
    def gen():
        mount = rep.mount_of(proc)
        for path in paths:
            yield from getattr(mount, op)(ROOT_CREDS, path)
    return gen


def _shuffled(rng: random.Random, n: int) -> List[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


# -- md_private / md_scale: empty files in private directories -------------

def _zero_sum_jitter(rng: random.Random, n: int, spread: int) -> List[int]:
    """``n`` seeded offsets in [-spread, spread] that sum to zero, so a
    per-process size can vary with the seed while the total does not."""
    offsets = [rng.randint(-spread, spread) for _ in range(n)]
    order = _shuffled(rng, n)
    excess = sum(offsets)
    while excess:                      # walk the excess off, one unit a step
        for i in order:
            step = (excess > 0) - (excess < 0)
            if step and abs(offsets[i] - step) <= spread:
                offsets[i] -= step
                excess -= step
    return offsets


def _private_prep(procs: int, files: int, jitter: int):
    def prep(rep: Rep) -> None:
        rng = rep.rng
        names = [[f"f.{rng.getrandbits(32):08x}.{i}"
                  for i in range(files + d)]
                 for d in _zero_sum_jitter(rng, procs, jitter)]
        rep.state["paths"] = [[f"/priv/dir.{p}/{n}" for n in names[p]]
                              for p in range(procs)]

        def base():
            yield from rep.raw_mounts[0].mkdir(ROOT_CREDS, "/priv")

        def leaf(p):
            def gen():
                yield from rep.raw_mounts[p % len(rep.raw_mounts)].mkdir(
                    ROOT_CREDS, f"/priv/dir.{p}")
            return gen

        rep.prep([base])
        rep.prep([leaf(p) for p in range(procs)])
    return prep


def _private_run(procs: int, phases: Sequence[str]):
    def run(rep: Rep) -> None:
        paths = rep.state["paths"]

        def create(p):
            def gen():
                m = rep.mount_of(p)
                for path in paths[p]:
                    h = yield from m.open(ROOT_CREDS, path, CREATE)
                    yield from m.close(h)
            return gen

        def shuffled_paths(p):
            return [paths[p][i] for i in _shuffled(rep.rng, len(paths[p]))]

        rep.phase("CREATE", True, [create(p) for p in range(procs)])
        if "STAT" in phases:
            rep.phase("STAT", False, [_for_each(rep, "stat", p,
                                                shuffled_paths(p))
                                      for p in range(procs)])
        if "DELETE" in phases:
            rep.phase("DELETE", True, [_for_each(rep, "unlink", p,
                                                 shuffled_paths(p))
                                       for p in range(procs)])
    return run


# -- md_shared: small files spread over shared directories -------------------

SHARED_FILE = 3901   # bytes; the IO500 mdtest-hard size the paper uses


def _shared_prep(procs: int, files: int, dirs: int):
    def prep(rep: Rep) -> None:
        rng = rep.rng
        # Balanced and seeded: process p's i-th file lives in directory
        # (i + turn[p]) mod dirs, so every process sweeps the directories
        # round-robin from its own seeded starting point.
        turn = [rng.randrange(dirs) for _ in range(procs)]
        rep.state["paths"] = [
            [f"/shared/d.{(i + turn[p]) % dirs}/f.{p}.{i}"
             for i in range(files)] for p in range(procs)]
        rep.state["pool"] = rng.randbytes(2 * SHARED_FILE)

        def tree():
            m = rep.raw_mounts[0]
            yield from m.mkdir(ROOT_CREDS, "/shared")
            for d in range(dirs):
                yield from m.mkdir(ROOT_CREDS, f"/shared/d.{d}")

        rep.prep([tree])
    return prep


def _shared_run(procs: int, files: int, dirs: int):
    def run(rep: Rep) -> None:
        paths, pool, rng = rep.state["paths"], rep.state["pool"], rep.rng
        offsets = [[rng.randrange(SHARED_FILE) for _ in range(files)]
                   for _ in range(procs)]

        def write(p, order):
            def gen():
                m = rep.mount_of(p)
                for i in order:
                    off = offsets[p][i]
                    h = yield from m.open(ROOT_CREDS, paths[p][i], CREATE)
                    yield from m.write(h, pool[off:off + SHARED_FILE])
                    yield from m.close(h)
            return gen

        def read(p, order):
            def gen():
                m = rep.mount_of(p)
                for i in order:
                    h = yield from m.open(ROOT_CREDS, paths[p][i], RDONLY)
                    yield from m.read(h, SHARED_FILE)
                    yield from m.close(h)
            return gen

        def orders():
            return [_shuffled(rng, files) for _ in range(procs)]

        # Which client first touches a directory becomes its leader and
        # decides how many ops are forwarded. Process p opens with its
        # file in directory p mod dirs so that leadership is spread evenly
        # for every seed, and sweeps on round-robin from there: creation
        # is where directory contention decides the makespan, and a seeded
        # order there moved sim_mutate_s by 7 % between seeds. The three
        # later phases each run in their own seeded order.
        write_orders = []
        for p in range(procs):
            first = next(i for i in range(files) if paths[p][i].startswith(
                f"/shared/d.{p % dirs}/"))
            write_orders.append([(first + k) % files for k in range(files)])
        rep.phase("WRITE", True,
                  [write(p, o) for p, o in enumerate(write_orders)])
        rep.phase("STAT", False,
                  [_for_each(rep, "stat", p, [paths[p][i] for i in o])
                   for p, o in enumerate(orders())])
        rep.phase("READ", False,
                  [read(p, o) for p, o in enumerate(orders())])
        rep.phase("DELETE", True,
                  [_for_each(rep, "unlink", p, [paths[p][i] for i in o])
                   for p, o in enumerate(orders())])
    return run


# -- seq_io: large sequential files, cold then warm read-back ----------------

SEQ_BLOCK = 128 * KiB


def _seq_prep(procs: int, mean_blocks: int, jitter: int):
    def prep(rep: Rep) -> None:
        rng = rep.rng
        # Sizes differ per process by a seeded number of blocks that sums
        # to zero, so total requests and bytes are seed-independent.
        rep.state["blocks"] = [mean_blocks + d for d in
                               _zero_sum_jitter(rng, procs, jitter)]
        rep.state["paths"] = [f"/seq/job{p}.{rng.getrandbits(32):08x}.dat"
                              for p in range(procs)]
        rep.state["pool"] = rng.randbytes(SEQ_BLOCK + 4096)

        def base():
            yield from rep.raw_mounts[0].mkdir(ROOT_CREDS, "/seq")

        rep.prep([base])
    return prep


def _seq_run(procs: int):
    def run(rep: Rep) -> None:
        blocks, paths = rep.state["blocks"], rep.state["paths"]
        pool, rng = rep.state["pool"], rep.rng
        skew = [rng.randrange(4096) for _ in range(procs)]

        def write(p):
            def gen():
                m = rep.mount_of(p)
                h = yield from m.open(
                    ROOT_CREDS, paths[p],
                    OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_TRUNC)
                for b in range(blocks[p]):
                    off = (skew[p] + b * 61) % 4096
                    yield from m.write(h, pool[off:off + SEQ_BLOCK])
                yield from m.fsync(h)
                yield from m.close(h)
            return gen

        def read(p):
            def gen():
                m = rep.mount_of(p)
                h = yield from m.open(ROOT_CREDS, paths[p], RDONLY)
                for _ in range(blocks[p]):
                    yield from m.read(h, SEQ_BLOCK)
                yield from m.close(h)
            return gen

        rep.phase("WRITE", True, [write(p) for p in range(procs)])
        rep.drop_caches()   # fio drops the written files' cache entries
        rep.phase("READ_COLD", False, [read(p) for p in range(procs)])
        rep.phase("READ_WARM", False, [read(p) for p in range(procs)])
    return run


# -- archive: tar in, extract, tar out (Table II) ----------------------------

ARCHIVE_QUANTUM = 512   # image sizes are whole tar blocks: no padding, so
                        # the tar stream length is the same for every seed


def _archive_prep(procs: int, nodes: int, images: int, mean_kib: int):
    def prep(rep: Rep) -> None:
        rng = rep.rng
        datasets = []
        for p in range(procs):
            shape = mscoco_like(images, seed=rng.getrandbits(32),
                                mean_kb=float(mean_kib))
            sizes = fit_sizes([im.size for im in shape],
                              images * mean_kib * KiB, ARCHIVE_QUANTUM)
            assert max(sizes) < MiB   # one data read + one EOF read each
            datasets.append(SyntheticDataset([
                ImageSpec(name=im.name, size=size, category=im.category)
                for im, size in zip(shape, sizes)]))
        rep.state["datasets"] = datasets
        rep.state["disks"] = [LocalDisk(rep.sim, EBS_GP_1GBS, name=f"ebs{n}")
                              for n in range(nodes)]
    return prep


def _archive_run(procs: int):
    def run(rep: Rep) -> None:
        datasets, disks = rep.state["datasets"], rep.state["disks"]

        def archive(p):
            def gen():
                m = rep.mount_of(p)
                yield from m.mkdir(ROOT_CREDS, f"/proc{p}")
                yield from archive_from_disk(
                    m, ROOT_CREDS, disks[p % len(disks)], datasets[p],
                    f"/proc{p}/dataset.tar")
            return gen

        def extract(p):
            def gen():
                yield from extract_in_fs(
                    rep.mount_of(p), ROOT_CREDS, f"/proc{p}/dataset.tar",
                    f"/proc{p}/extracted")
            return gen

        def unarchive(p):
            def gen():
                yield from archive_to_disk(
                    rep.mount_of(p), ROOT_CREDS, f"/proc{p}/extracted",
                    disks[p % len(disks)])
            return gen

        rep.phase("ARCHIVE", True, [archive(p) for p in range(procs)])
        rep.phase("EXTRACT", True, [extract(p) for p in range(procs)])
        rep.phase("UNARCHIVE", False, [unarchive(p) for p in range(procs)])
    return run


def _archive_check(rep: Rep) -> None:
    """Tar round trip: every extracted file equals its source image. (The
    probes already proved tar-read == tar-written and unarchive-read ==
    extract-written; this closes the chain back to the dataset.)"""
    written = rep.oracle.written
    for p, dataset in enumerate(rep.state["datasets"]):
        for im in dataset:
            path = f"/proc{p}/extracted/{im.category}/{im.name}"
            expect = (im.size, zlib.crc32(im.content()))
            if written.get(path) != expect:
                rep.oracle.fail(f"extracted {path}: {written.get(path)} "
                                f"!= source {expect}")


# -- tier_aged: ingest, age past the hot tier, re-read the oldest ------------

AGED_FILES = 20    # oldest files per process the aged read mix touches
AGED_PASSES = 3    # pass 1 promotes from cold; 2..3 should hit the hot tier
AGEING_S = 3.0     # simulated seconds for the drain + lifecycle demoter


def _tier_prep(clients: int, procs: int, files: int, mean_kib: int):
    def prep(rep: Rep) -> None:
        rng = rep.rng
        # The aged set and the rest are fitted separately, so the bytes the
        # read mix moves are seed-independent too.
        aged = min(AGED_FILES, files)

        def fitted(n):
            return fit_sizes([rng.lognormvariate(0.0, 0.3) for _ in range(n)],
                             n * mean_kib * KiB, 4 * KiB)

        rep.state["sizes"] = [fitted(aged) + fitted(files - aged)
                              for _ in range(clients * procs)]
        rep.state["pool"] = rng.randbytes(4 * MiB)
        assert max(map(max, rep.state["sizes"])) < 4 * MiB
        rep.state["tags"] = [f"{rng.getrandbits(32):08x}"
                             for _ in range(clients * procs)]

        def tree():
            m = rep.raw_mounts[0]
            yield from m.mkdir(ROOT_CREDS, "/tar")
            for c in range(clients):
                yield from m.mkdir(ROOT_CREDS, f"/tar/c{c}")

        rep.prep([tree])
    return prep


def _tier_run(clients: int, procs: int, files: int):
    def run(rep: Rep) -> None:
        sizes, pool = rep.state["sizes"], rep.state["pool"]
        tags, rng = rep.state["tags"], rep.rng
        n = clients * procs

        def path(q, i):
            return f"/tar/c{q % clients}/p{q}-{tags[q]}-f{i}"

        def ingest(q):
            def gen():
                m = rep.mount_of(q)
                for i, size in enumerate(sizes[q]):
                    off = (q * 8191 + i * 127) % (len(pool) - size)
                    h = yield from m.open(ROOT_CREDS, path(q, i), CREATE)
                    yield from m.write(h, pool[off:off + size])
                    yield from m.close(h)
            return gen

        def aged_read(q, orders):
            def gen():
                m = rep.mount_of(q)
                for order in orders:
                    for i in order:
                        h = yield from m.open(ROOT_CREDS, path(q, i), RDONLY)
                        yield from m.read(h, sizes[q][i])
                        yield from m.close(h)
            return gen

        rep.phase("INGEST", True, [ingest(q) for q in range(n)])
        # Age the population: the tier's maintenance tickers drain staged
        # objects and demote down to the low watermark, so the oldest
        # files are cold-only when the read mix starts.
        rep.sim.run(until=rep.sim.now + AGEING_S)
        rep.drop_caches()
        aged = min(AGED_FILES, files)
        rep.phase("AGED_READ", False, [
            aged_read(q, [_shuffled(rng, aged) for _ in range(AGED_PASSES)])
            for q in range(n)])
    return run


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="md_private", kind="arkfs", n_clients=4, net=NET_50G,
        cache_capacity=96 * MiB,
        prep=_private_prep(16, 60, 2),
        run=_private_run(16, ("CREATE", "STAT", "DELETE")),
        ops=16 * 60 * 4, files=16 * 60, user_bytes=0),
    Workload(
        name="md_shared", kind="arkfs", n_clients=4, net=NET_50G,
        cache_capacity=96 * MiB,
        prep=_shared_prep(16, 32, 8),
        run=_shared_run(16, 32, 8),
        ops=16 * 32 * 8, files=16 * 32,
        user_bytes=16 * 32 * SHARED_FILE * 2),
    Workload(
        name="seq_io", kind="arkfs", n_clients=2, net=NET_50G,
        cache_capacity=96 * MiB,
        prep=_seq_prep(4, 320, 2),
        run=_seq_run(4),
        ops=4 * 320 * 3 + 4 * 7, files=4,
        user_bytes=4 * 320 * SEQ_BLOCK * 3),
    Workload(
        name="archive", kind="arkfs", n_clients=2, net=NET_50G,
        cache_capacity=512 * MiB,
        prep=_archive_prep(8, 2, 48, 50),
        run=_archive_run(8),
        check=_archive_check,
        ops=3256, files=8 * 49, user_bytes=79_052_800),
    Workload(
        name="md_scale", kind="arkfs", n_clients=256, net=NET_10G,
        cache_capacity=96 * MiB,
        prep=_private_prep(256, 6, 1),
        run=_private_run(256, ("CREATE", "STAT")),
        ops=256 * 6 * 3, files=256 * 6, user_bytes=0),
    Workload(
        name="tier_aged", kind="arkfs-tier", n_clients=2, net=NET_50G,
        cache_capacity=4 * MiB,
        prep=_tier_prep(2, 4, 48, 192),
        run=_tier_run(2, 4, 48),
        ops=8 * 48 * 3 + 8 * AGED_PASSES * AGED_FILES * 3,
        files=8 * 48,
        user_bytes=8 * (48 + AGED_PASSES * AGED_FILES) * 192 * KiB),
)}
