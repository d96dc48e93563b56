"""Cluster object store: functional parity with the memory store plus
timing/queueing behaviour."""

from types import SimpleNamespace

import pytest

from repro.objectstore import (
    ClusterObjectStore,
    LocalDisk,
    NoSuchKey,
    RADOS_PROFILE,
    S3_PROFILE,
    EBS_GP_1GBS,
    StoreProfile,
)
from repro.obs import Observability, install_layer_spans
from repro.sim import Interrupt, NetParams, Network, Node, Simulator


SMALL = StoreProfile(
    name="tiny", n_osds=4, media_bw=1e6, osd_queue_depth=2,
    get_latency=0.001, put_latency=0.002, delete_latency=0.001,
    head_latency=0.0005, list_latency=0.001, list_page=10,
    per_stream_bw=1e9, replication=2,
)


@pytest.fixture
def cluster():
    sim = Simulator()
    return sim, ClusterObjectStore(sim, SMALL)


def run(sim, gen):
    return sim.run_process(gen)


def test_roundtrip(cluster):
    sim, s = cluster
    run(sim, s.put("k", b"data"))
    assert run(sim, s.get("k")) == b"data"
    assert run(sim, s.head("k")) == 4
    run(sim, s.delete("k"))
    with pytest.raises(NoSuchKey):
        run(sim, s.get("k"))


def test_operations_cost_time(cluster):
    sim, s = cluster
    t0 = sim.now
    run(sim, s.put("k", b"x" * 1000))
    t1 = sim.now
    # put latency + 1000 bytes through 1 MB/s media
    assert t1 - t0 >= 0.002 + 0.001
    run(sim, s.get("k"))
    assert sim.now - t1 >= 0.001 + 0.001


def test_get_missing_costs_nothing(cluster):
    sim, s = cluster
    with pytest.raises(NoSuchKey):
        run(sim, s.get("ghost"))
    assert sim.now == 0


def test_get_range(cluster):
    sim, s = cluster
    run(sim, s.put("k", b"0123456789"))
    assert run(sim, s.get_range("k", 3, 4)) == b"3456"


def test_list_pagination_costs_scale(cluster):
    sim, s = cluster
    for i in range(25):
        run(sim, s.put(f"p/{i:03d}", b""))
    t0 = sim.now
    keys = run(sim, s.list("p/"))
    # 25 keys at 10/page = 3 pages
    assert len(keys) == 25
    assert sim.now - t0 == pytest.approx(3 * 0.001)


def test_placement_is_deterministic(cluster):
    sim, s = cluster
    assert s.osd_for("some/key") is s.osd_for("some/key")


def test_replicas_distinct(cluster):
    sim, s = cluster
    reps = s.replicas_for("k")
    assert len(reps) == 2
    assert reps[0] is not reps[1]


def test_replication_writes_parallel(cluster):
    """Replication should not double the write time (parallel fan-out)."""
    sim, s = cluster
    run(sim, s.put("k", b"x" * 10_000))
    t_repl = sim.now

    sim2 = Simulator()
    prof1 = StoreProfile(**{**SMALL.__dict__, "replication": 1})
    s2 = ClusterObjectStore(sim2, prof1)
    sim2.run_process(s2.put("k", b"x" * 10_000))
    # Same media/latency, so replication adds little (replicas may share an
    # OSD's media pipe; allow 2.5x headroom, not 2x strictly serial).
    assert t_repl < sim2.now * 2.5
    assert t_repl >= sim2.now


def test_osd_queueing_creates_contention():
    """Keys on the same OSD contend; spread keys do not."""
    sim = Simulator()
    prof = StoreProfile(**{**SMALL.__dict__, "n_osds": 1, "replication": 1,
                           "osd_queue_depth": 1})
    s = ClusterObjectStore(sim, prof)

    done = []

    def writer(tag):
        yield from s.put(f"key-{tag}", b"y" * 1000)
        done.append((tag, sim.now))

    sim.process(writer("a"))
    sim.process(writer("b"))
    sim.run()
    # Serial: second write finishes roughly twice as late.
    assert done[1][1] > done[0][1] * 1.5


def test_client_leg_charges_nic():
    sim = Simulator()
    net = Network(sim, NetParams(latency_s=0.01, bandwidth_bps=1e6))
    client = Node(sim, "client", net=net)
    s = ClusterObjectStore(sim, SMALL, net=net)
    run(sim, s.put("k", b"z" * 10_000, src=client))
    # NIC at 1 MB/s: 10 ms serialization + 10 ms latency at minimum
    assert sim.now >= 0.02
    assert client.nic.bytes_moved == 10_000


def test_per_stream_cap_limits_single_get():
    sim = Simulator()
    prof = StoreProfile(**{**S3_PROFILE.__dict__, "per_stream_bw": 1e6})
    s = ClusterObjectStore(sim, prof)
    run(sim, s.put("k", b"x" * 1_000_000))
    t0 = sim.now
    run(sim, s.get("k"))
    assert sim.now - t0 >= 1.0  # 1 MB at 1 MB/s stream cap


def test_rados_and_s3_profiles_load():
    sim = Simulator()
    ClusterObjectStore(sim, RADOS_PROFILE)
    ClusterObjectStore(sim, S3_PROFILE)
    assert S3_PROFILE.get_latency > RADOS_PROFILE.get_latency * 5


def test_bytes_accounting(cluster):
    sim, s = cluster
    run(sim, s.put("k", b"x" * 100))
    run(sim, s.get("k"))
    run(sim, s.get_range("k", 0, 10))
    assert s.bytes_written == 100
    assert s.bytes_read == 110


def test_contains_and_len(cluster):
    sim, s = cluster
    run(sim, s.put("k", b"v"))
    assert "k" in s
    assert len(s) == 1


def test_interrupted_delete_many_closes_its_span(cluster):
    """A caller interrupted while waiting on the scatter (a client crash
    under tracing) must not leave ``store.delete_many`` open on the
    tracer's per-process stack."""
    sim, s = cluster
    tracer = Observability.of(sim).enable_tracing(pid_name="t")
    install_layer_spans(SimpleNamespace(sim=sim, store=s))
    keys = [f"k{i}" for i in range(6)]
    run(sim, s.put_many([(k, b"v") for k in keys]))

    def deleter():
        try:
            yield from s.delete_many(keys)
        except Interrupt:
            return "interrupted"

    proc = sim.process(deleter())
    sim.run(until=sim.now + SMALL.delete_latency / 2)  # parked on all_of
    proc.interrupt("client crash")
    sim.run()
    assert proc.value == "interrupted"
    open_names = [sp.name for stack in tracer._stacks.values()
                  for sp in stack]
    assert "store.delete_many" not in open_names
    [closed] = [sp for sp in tracer.spans if sp.name == "store.delete_many"]
    assert closed.end == pytest.approx(closed.start
                                       + SMALL.delete_latency / 2)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("verb", ["delete", "get"])
def test_interrupted_while_queued_for_an_osd_slot_leaves_no_holder(
        verb, traced):
    """A process interrupted while it waits for an OSD service slot (a
    crashed client's commit thread) must not own the slot once the holder
    ahead of it finishes: on a depth-1 OSD the hand-rolled wait this
    replaced left ``in_use == 1`` for good."""
    sim = Simulator()
    prof = StoreProfile(**{**SMALL.__dict__, "n_osds": 1, "replication": 1,
                           "osd_queue_depth": 1})
    s = ClusterObjectStore(sim, prof)
    if traced:
        Observability.of(sim).enable_tracing(pid_name="t")
        install_layer_spans(SimpleNamespace(sim=sim, store=s))
    run(sim, s.put_many([(k, b"v") for k in ("held", "victim", "after")]))
    queue = s.osds[0].queue
    seen = []

    def victim():
        try:
            yield from getattr(s, verb)("victim")
        except Interrupt:
            seen.append(("interrupted", queue.in_use, queue.queue_length))

    sim.process(s.delete("held"))
    proc = sim.process(victim())
    sim.run(until=sim.now + prof.delete_latency / 2)
    assert (queue.in_use, queue.queue_length) == (1, 1)   # victim is queued
    proc.interrupt("client crash")
    sim.run()
    assert seen == [("interrupted", 1, 0)]
    assert (queue.in_use, queue.queue_length) == (0, 0)
    assert "held" not in s and "victim" in s
    run(sim, s.delete("after"))                 # the slot is there to take
    assert "after" not in s


def test_local_disk_read_write_cost():
    sim = Simulator()
    disk = LocalDisk(sim, EBS_GP_1GBS)
    sim.run_process(disk.write(1_000_000_000))
    # 1 GB at 1 GB/s plus latency
    assert sim.now == pytest.approx(1.0, rel=0.01)
    sim2 = Simulator()
    disk2 = LocalDisk(sim2, EBS_GP_1GBS)
    sim2.run_process(disk2.read(500_000_000))
    assert sim2.now == pytest.approx(0.5, rel=0.01)
    assert disk2.bytes_read == 500_000_000


class TestErasureCoding:
    def _make(self, erasure, media=1e6):
        from repro.objectstore import RADOS_EC_PROFILE, StoreProfile
        sim = Simulator()
        prof = StoreProfile(**{**SMALL.__dict__, "n_osds": 8,
                               "replication": 1, "erasure": erasure})
        return sim, ClusterObjectStore(sim, prof)

    def test_roundtrip_with_ec(self):
        sim, s = self._make((4, 2))
        run(sim, s.put("k", b"stripe me" * 100))
        assert run(sim, s.get("k")) == b"stripe me" * 100

    def test_shards_span_k_plus_m_osds(self):
        sim, s = self._make((4, 2))
        shards = s.shards_for("key")
        assert len(shards) == 6
        assert len({sh.index for sh in shards}) == 6

    def test_ec_write_cheaper_than_3x_replication(self):
        """4+2 moves 1.5x the bytes; 3x replication moves 3x — at equal
        media bandwidth the EC write should finish faster."""
        from repro.objectstore import StoreProfile

        def write_time(profile):
            sim = Simulator()
            store = ClusterObjectStore(sim, profile)
            sim.run_process(store.put("k", b"z" * 500_000))
            return sim.now

        base = {**SMALL.__dict__, "n_osds": 8}
        t_repl = write_time(StoreProfile(**{**base, "replication": 3}))
        t_ec = write_time(StoreProfile(**{**base, "replication": 1,
                                          "erasure": (4, 2)}))
        assert t_ec < t_repl

    def test_storage_overhead_property(self):
        from repro.objectstore import RADOS_EC_PROFILE, RADOS_PROFILE
        assert RADOS_PROFILE.storage_overhead == 3.0
        assert RADOS_EC_PROFILE.storage_overhead == pytest.approx(1.5)

    def test_ec_profile_preset_works_end_to_end(self):
        from repro.core import build_arkfs
        from repro.objectstore import RADOS_EC_PROFILE
        from repro.posix import ROOT_CREDS, SyncFS

        sim = Simulator()
        cluster = build_arkfs(sim, n_clients=1,
                              store_profile=RADOS_EC_PROFILE)
        fs = SyncFS(cluster.client(0), ROOT_CREDS)
        fs.mkdir("/ec")
        fs.write_file("/ec/f", b"erasure coded" * 1000, do_fsync=True)
        assert fs.read_file("/ec/f") == b"erasure coded" * 1000
