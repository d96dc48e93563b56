"""The FUSE/kernel mount model: LOOKUP decomposition, dcache, locks."""

import pytest

from repro.core import build_arkfs
from repro.obs import Observability
from repro.posix import (
    FUSE_DEFAULTS,
    FuseMount,
    KernelMount,
    MountParams,
    NotFound,
    OpenFlags,
    ROOT_CREDS,
)
from repro.sim import Simulator
from repro.workloads import run_phase


@pytest.fixture
def mounted():
    sim = Simulator()
    cluster = build_arkfs(sim, n_clients=1, functional=True)
    return sim, cluster, cluster.mounts[0]


def run(sim, gen):
    return sim.run_process(gen)


class TestLookupDecomposition:
    def test_deep_path_issues_per_component_lookups(self, mounted):
        sim, cluster, mount = mounted

        def setup():
            yield from mount.mkdir(ROOT_CREDS, "/a")
            yield from mount.mkdir(ROOT_CREDS, "/a/b")
            yield from mount.mkdir(ROOT_CREDS, "/a/b/c")

        run(sim, setup())
        mount.invalidate_dcache()
        before = mount.request_count
        run(sim, mount.stat(ROOT_CREDS, "/a/b/c"))
        # Three LOOKUPs (a, b, c) plus the GETATTR request itself.
        assert mount.request_count - before == 4

    def test_dcache_absorbs_repeat_lookups(self, mounted):
        sim, cluster, mount = mounted
        run(sim, mount.mkdir(ROOT_CREDS, "/d"))

        def touch(i):
            h = yield from mount.open(
                ROOT_CREDS, f"/d/f{i}",
                OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
            yield from mount.close(h)

        run(sim, touch(0))
        count_first = mount.request_count
        run(sim, touch(1))
        delta = mount.request_count - count_first
        # Second create resolves /d from the dcache: fewer requests.
        assert delta <= 3

    def test_dcache_expires_after_ttl(self, mounted):
        sim, cluster, mount = mounted
        run(sim, mount.mkdir(ROOT_CREDS, "/d"))
        run(sim, mount.stat(ROOT_CREDS, "/d"))
        before = mount.request_count
        sim.run(until=sim.now + mount.params.entry_ttl + 0.1)
        run(sim, mount.stat(ROOT_CREDS, "/d"))
        assert mount.request_count - before >= 2  # LOOKUP again + GETATTR

    def test_negative_lookup_propagates_enoent(self, mounted):
        sim, cluster, mount = mounted
        with pytest.raises(NotFound):
            run(sim, mount.stat(ROOT_CREDS, "/nope"))

    def test_unlink_drops_dentry(self, mounted):
        sim, cluster, mount = mounted
        run(sim, mount.write_file(ROOT_CREDS, "/f", b"x"))
        run(sim, mount.stat(ROOT_CREDS, "/f"))
        run(sim, mount.unlink(ROOT_CREDS, "/f"))
        with pytest.raises(NotFound):
            run(sim, mount.stat(ROOT_CREDS, "/f"))

    def test_rename_invalidates_subtree(self, mounted):
        sim, cluster, mount = mounted

        def setup():
            yield from mount.mkdir(ROOT_CREDS, "/old")
            yield from mount.write_file(ROOT_CREDS, "/old/f", b"v")
            st = yield from mount.stat(ROOT_CREDS, "/old/f")  # warm dcache
            yield from mount.rename(ROOT_CREDS, "/old", "/new")
            return st

        run(sim, setup())
        with pytest.raises(NotFound):
            run(sim, mount.stat(ROOT_CREDS, "/old/f"))
        assert run(sim, mount.read_file(ROOT_CREDS, "/new/f")) == b"v"


class TestLockingModel:
    def test_fuse_lookup_lock_serializes_same_directory(self):
        """Concurrent LOOKUPs in one directory serialize on a FUSE mount
        (the paper's STAT-phase effect), but not on a kernel mount."""

        def run_stats(mount_cls, params):
            sim = Simulator()
            cluster = build_arkfs(sim, n_clients=1, functional=True)
            inner = cluster.clients[0]
            mount = mount_cls(inner, inner.node, params)

            def setup():
                yield from mount.mkdir(ROOT_CREDS, "/shared")
                for i in range(4):
                    yield from mount.write_file(ROOT_CREDS,
                                                f"/shared/f{i}", b"")

            run_phase(sim, [sim.process(setup())])
            mount.invalidate_dcache()

            def stat_worker(i):
                for _ in range(50):
                    mount.invalidate_dcache()
                    yield from mount.stat(ROOT_CREDS, f"/shared/f{i}")

            t0 = sim.now
            run_phase(sim, [sim.process(stat_worker(i)) for i in range(4)])
            return sim.now - t0

        slow_params = MountParams(crossing_latency=100e-6,
                                  lookup_locked=True)
        fuse_time = run_stats(FuseMount, slow_params)
        nolock = MountParams(crossing_latency=100e-6, lookup_locked=False)
        free_time = run_stats(FuseMount, nolock)
        assert fuse_time > free_time  # exclusive lookup lock costs

    def test_global_lock_serializes_the_whole_mount(self):
        def run_creates(params):
            sim = Simulator()
            cluster = build_arkfs(sim, n_clients=1, functional=True)
            inner = cluster.clients[0]
            mount = FuseMount(inner, inner.node, params)

            def setup():
                for i in range(4):
                    yield from mount.mkdir(ROOT_CREDS, f"/w{i}")

            run_phase(sim, [sim.process(setup())])

            def worker(i):
                for j in range(40):
                    h = yield from mount.open(
                        ROOT_CREDS, f"/w{i}/f{j}",
                        OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
                    yield from mount.close(h)

            t0 = sim.now
            run_phase(sim, [sim.process(worker(i)) for i in range(4)])
            return sim.now - t0

        unlocked = run_creates(FUSE_DEFAULTS)
        locked = run_creates(MountParams(global_lock_service=200e-6))
        assert locked > 2 * unlocked

    def test_kernel_mount_cheaper_than_fuse(self, mounted):
        def one_create(mount_cls, params):
            sim = Simulator()
            cluster = build_arkfs(sim, n_clients=1, functional=True)
            inner = cluster.clients[0]
            mount = mount_cls(inner, inner.node, params)

            def work():
                for i in range(100):
                    h = yield from mount.open(
                        ROOT_CREDS, f"/f{i}",
                        OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
                    yield from mount.close(h)

            t0 = sim.now
            run_phase(sim, [sim.process(work())])
            return sim.now - t0

        from repro.posix import KERNEL_DEFAULTS

        fuse_t = one_create(FuseMount, FUSE_DEFAULTS)
        kernel_t = one_create(KernelMount, KERNEL_DEFAULTS)
        assert kernel_t < fuse_t


def _frame_chain(gen):
    """The generator frames a resume of ``gen`` re-enters, outermost
    first: ``gen`` and each generator it is ``yield from``-ing."""
    names = []
    while gen is not None:
        names.append(gen.gi_code.co_name)
        gen = gen.gi_yieldfrom
    return names


class TestResumePath:
    """A resume re-enters every suspended ``yield from`` frame, so a frame
    that only forwards costs a Python call per event of everything below
    it (DESIGN §10). A path op's one mount frame is ``_pathop``: its
    requests are written out in its loop, and the root-op observer adds
    no frame."""

    @pytest.mark.parametrize("what", ["stat_cached", "open_create"])
    def test_first_hold_of_a_path_op_is_one_frame_deep(self, what):
        sim = Simulator()
        cluster = build_arkfs(sim, n_clients=1)
        mount = cluster.mounts[0]
        assert isinstance(mount, FuseMount)

        def setup():
            yield from mount.mkdir(ROOT_CREDS, "/d")
            yield from mount.write_file(ROOT_CREDS, "/d/f", b"x")
            yield from mount.stat(ROOT_CREDS, "/d/f")   # warm the dcache

        run(sim, setup())
        Observability.of(sim).enable_recorder()
        if what == "stat_cached":
            gen = mount.stat(ROOT_CREDS, "/d/f")
        else:
            gen = mount.open(ROOT_CREDS, "/d/new",
                             OpenFlags.O_CREAT | OpenFlags.O_WRONLY)
        proc = sim.process(gen)
        kickoff = proc._waiting_on
        while proc._waiting_on is kickoff:
            sim.step()
        # Both first hold on a request's crossing: the op's own GETATTR
        # (every component cached), or the LOOKUP of the new name. With a
        # request helper these were 2 frames deep (_pathop, _request); before
        # the observer's begin/end calls and the inlined walk, 3 (observe,
        # _pathop, _request) and 6 (observe, open, _pathop, _walk,
        # _lookup_component, _request).
        chain = _frame_chain(proc._gen)
        assert chain == ["_pathop"], chain
        sim.run(until=proc)
        assert proc.ok

    def test_local_lookup_holds_of_a_stat_are_three_frames_deep(self):
        sim = Simulator()
        cluster = build_arkfs(sim, n_clients=1)
        mount, client = cluster.mounts[0], cluster.client(0)

        def setup():
            yield from mount.mkdir(ROOT_CREDS, "/d")
            yield from mount.write_file(ROOT_CREDS, "/d/f", b"x")
            yield from mount.stat(ROOT_CREDS, "/d/f")   # warm the dcache

        run(sim, setup())
        proc = sim.process(mount.stat(ROOT_CREDS, "/d/f"))
        lookups, last = [], None
        while proc.is_alive:
            sim.step()
            gen = proc._gen
            while gen.gi_yieldfrom is not None:
                gen = gen.gi_yieldfrom
            held = gen.gi_frame.f_locals if gen.gi_frame else {}
            if (gen is not last and held.get("self") is client.node.cpu
                    and held.get("hold_time") == client.params.lookup_cpu):
                lookups.append(_frame_chain(proc._gen))
            last = gen
        # The op's own GETATTR resolves "d" in the root and "f" in /d, both
        # led here: each lookup-CPU hold resumes the mount's frame and the
        # client's walker only. With a per-component resolver and a charge
        # helper these were 5 frames deep (_pathop, _getattr_inode,
        # _walk_dirs, _lookup_component, use) and 4.
        assert lookups == [["_pathop", "_walk", "use"]] * 2, lookups
        assert proc.ok


class TestDataRequests:
    def test_large_io_split_into_max_request_chunks(self, mounted):
        sim, cluster, mount = mounted
        run(sim, mount.write_file(ROOT_CREDS, "/f", b"z" * (512 * 1024)))

        def read_big():
            h = yield from mount.open(ROOT_CREDS, "/f", OpenFlags.O_RDONLY)
            before = mount.request_count
            yield from mount.read(h, 512 * 1024)
            yield from mount.close(h)
            return mount.request_count - before

        # 512 KiB at 128 KiB max_request = 4 data requests (+1 for close).
        delta = run(sim, read_big())
        assert delta >= 4
