"""Scale-out object-store cluster with a queueing cost model.

Functionally this is the :class:`InMemoryObjectStore` data plane; the value
added here is *timing*: keys are hash-placed onto N simulated OSDs, each with
a bounded service queue and a media bandwidth pipe, requests pay the
profile's fixed latencies plus data-motion time, writes pay replication on
the backend, and the client-side network leg is charged against the calling
node's NIC. Saturation and queueing emerge from contention, which is what
the paper's bandwidth and scalability comparisons exercise.

Also provides :class:`LocalDisk`, the block-device model used for the EBS
staging volume in the archiving workload and the S3FS disk cache.
"""

from __future__ import annotations

import zlib
from typing import Callable, List, Optional, Sequence, Tuple

from ..sim.engine import SimGen, Simulator
from ..sim.network import Network, Node
from ..sim.resources import BandwidthPipe, Resource, ServiceHold
from .base import ObjectStore
from .memory import InMemoryObjectStore
from .profiles import DiskProfile, StoreProfile

__all__ = ["ClusterObjectStore", "LocalDisk"]


def _timed(sim: Simulator, delay: float, name: str, cat: str) -> SimGen:
    """A timeout, wrapped in an attribution span when the running process
    is traced."""
    tr = sim._active_proc.tracer
    if tr is not None:
        with tr.span(name, cat):
            yield sim.timeout(delay)
    else:
        yield sim.timeout(delay)


class _OSD:
    """One storage daemon: a service-slot queue plus a media pipe."""

    def __init__(self, sim: Simulator, index: int, profile: StoreProfile,
                 queue: Callable[..., Resource] = Resource):
        self.index = index
        self.queue = queue(sim, capacity=profile.osd_queue_depth,
                           name=f"osd{index}.q")
        # FIFO at full rate: a lone stream gets the whole device, while the
        # aggregate under contention still caps at media_bw.
        self.media = BandwidthPipe(sim, profile.media_bw,
                                   name=f"osd{index}.media")
        self.alive = True


class ClusterObjectStore(ObjectStore):
    """An object store sharded over ``profile.n_osds`` simulated OSDs.

    ``queue`` is the OSD service queues' discipline: a
    :class:`~repro.sim.resources.Resource` class or factory (FIFO by
    default; tenant-weighted when the QoS plane builds the store)."""

    def __init__(
        self,
        sim: Simulator,
        profile: StoreProfile,
        net: Optional[Network] = None,
        queue: Callable[..., Resource] = Resource,
    ):
        self.sim = sim
        self.profile = profile
        # Fixed per-GET service time: request latency plus the cold-tier
        # time-to-first-byte (0.0 on warm profiles — timing-identical).
        self._get_fixed = profile.get_latency + profile.first_byte_latency
        self.net = net
        self.backing = InMemoryObjectStore(sim)
        self.osds = [_OSD(sim, i, profile, queue)
                     for i in range(profile.n_osds)]
        self.bytes_read = 0
        self.bytes_written = 0
        self._pending_creates: set = set()

    # -- placement -----------------------------------------------------------

    def osd_for(self, key: str) -> _OSD:
        h = zlib.crc32(key.encode("utf-8", "surrogateescape"))
        return self.osds[h % len(self.osds)]

    # The list builders below are plain loops, not comprehensions: in
    # CPython 3.11 a comprehension is a nested function call, and one in a
    # generator turns every local it reads into a cell object that each
    # suspended frame keeps alive.

    def replicas_for(self, key: str) -> List[_OSD]:
        h = zlib.crc32(key.encode("utf-8", "surrogateescape"))
        osds = self.osds
        n = len(osds)
        replicas = []
        for i in range(self.profile.replication):
            replicas.append(osds[(h + i) % n])
        return replicas

    def shards_for(self, key: str) -> List[_OSD]:
        """Erasure coding: the k+m OSDs holding this object's shards."""
        assert self.profile.erasure is not None
        k, m = self.profile.erasure
        h = zlib.crc32(key.encode("utf-8", "surrogateescape"))
        osds = self.osds
        n = len(osds)
        shards = []
        for i in range(k + m):
            shards.append(osds[(h + i) % n])
        return shards

    # -- cost helpers ---------------------------------------------------------

    def _client_leg(self, src: Optional[Node], sizes: Sequence[int]) -> SimGen:
        """Client-side cost of one request moving ``sizes`` (one size per
        key of a batch): the calling node's NIC moves every byte, the
        request pays one stack latency (one enqueue), and the per-stream
        bandwidth cap (dominant on S3) applies per concurrent stream, not
        to the sum."""
        total = sum(sizes)
        # The latency and stream-cap legs yield their timeouts here, as
        # Network.send does: a helper generator would be one more frame to
        # resume.
        sim = self.sim
        tr = sim._active_proc.tracer
        if src is not None and src.net is not None:
            yield from src.nic.transfer(total)
            if tr is not None:
                with tr.span("net.lat", "net"):
                    yield sim.timeout(src.net.params.latency_s)
            else:
                yield sim.timeout(src.net.params.latency_s)
        if sizes and self.profile.per_stream_bw > 0:
            stream_time = max(sizes) / self.profile.per_stream_bw
            nic_time = (
                total / src.nic.bytes_per_sec if src is not None else 0.0
            )
            # The stream is jointly limited by NIC and per-stream cap; the
            # NIC leg above already billed nic_time, pay only the excess.
            if stream_time > nic_time:
                if tr is not None:
                    with tr.span("stream.cap", "net"):
                        yield sim.timeout(stream_time - nic_time)
                else:
                    yield sim.timeout(stream_time - nic_time)

    def _service(self, osd: _OSD, fixed: float, nbytes: int,
                 src: Optional[Node] = None) -> ServiceHold:
        """Occupy an OSD service slot for ``fixed`` seconds, then move
        ``nbytes`` through its media pipe: one object, which a single-key
        verb runs inline and a fan-out spawns as a process body, not a
        generator stack."""
        # Tags for a fair-queueing OSD (a FIFO ignores them): the calling
        # node's tenant (``None``, the default tenant, for infrastructure
        # ops), at a cost of slot time plus the media time induced.
        tenant = src.tenant if src is not None else None
        cost = fixed + (nbytes / self.profile.media_bw if nbytes else 0.0)
        return ServiceHold(osd.queue, fixed, tenant, cost, osd.media, nbytes)

    # -- operations ------------------------------------------------------------

    def get(self, key: str, src: Optional[Node] = None) -> SimGen:
        data = self.backing.sync_get(key)  # raise NoSuchKey before paying cost
        if self.profile.erasure is not None:
            yield from self._ec_gather(key, len(data), src)
        else:
            osd = self.osd_for(key)
            yield from self._service(osd, self._get_fixed, len(data), src)
        yield from self._client_leg(src, (len(data),))
        self.bytes_read += len(data)
        self.backing.op_counts["get"] += 1
        return data

    def _ec_gather(self, key: str, nbytes: int,
                   src: Optional[Node] = None) -> SimGen:
        """Read the k data shards in parallel and decode the stripe."""
        k, _m = self.profile.erasure
        shard = -(-nbytes // k)
        reads = []
        for osd in self.shards_for(key)[:k]:
            reads.append(self.sim.process(
                self._service(osd, self._get_fixed, shard, src),
                name=f"ec-read{osd.index}"))
        yield self.sim.all_of(reads)
        yield from _timed(self.sim, self.profile.ec_encode_latency,
                          "ec.decode", "cpu")

    def get_range(
        self, key: str, offset: int, length: int, src: Optional[Node] = None
    ) -> SimGen:
        whole = self.backing.sync_get(key)
        data = whole[offset : offset + length]
        osd = self.osd_for(key)
        yield from self._service(osd, self._get_fixed, len(data), src)
        yield from self._client_leg(src, (len(data),))
        self.bytes_read += len(data)
        self.backing.op_counts["get"] += 1
        return data

    def put(self, key: str, data: bytes, src: Optional[Node] = None) -> SimGen:
        yield from self._client_leg(src, (len(data),))
        yield from self._server_put(key, data, src)

    def _server_put(self, key: str, data: bytes,
                    src: Optional[Node] = None) -> SimGen:
        """Backend side of a PUT (replication / EC fan-out, no client leg)."""
        writes = []
        if self.profile.erasure is not None:
            k, m = self.profile.erasure
            shard = -(-len(data) // k)
            yield from _timed(self.sim, self.profile.ec_encode_latency,
                              "ec.encode", "cpu")
            for osd in self.shards_for(key):
                writes.append(self.sim.process(
                    self._service(osd, self.profile.put_latency, shard, src),
                    name=f"ec-write{osd.index}"))
        else:
            # Primary-copy replication: all replicas written in parallel,
            # the request completes when the slowest acknowledges.
            for osd in self.replicas_for(key):
                writes.append(self.sim.process(
                    self._service(osd, self.profile.put_latency, len(data),
                                  src),
                    name=f"put-replica{osd.index}"))
        yield self.sim.all_of(writes)
        self.backing.sync_put(key, data)
        self.bytes_written += len(data)
        self.backing.op_counts["put"] += 1

    def delete(self, key: str, src: Optional[Node] = None) -> SimGen:
        self.backing.sync_head(key)  # existence check (NoSuchKey)
        osd = self.osd_for(key)
        yield from self._service(osd, self.profile.delete_latency, 0, src)
        self.backing.sync_delete(key)
        self.backing.op_counts["delete"] += 1

    def head(self, key: str, src: Optional[Node] = None) -> SimGen:
        size = self.backing.sync_head(key)
        osd = self.osd_for(key)
        yield from self._service(osd, self.profile.head_latency, 0, src)
        self.backing.op_counts["head"] += 1
        return size

    def list(self, prefix: str, src: Optional[Node] = None) -> SimGen:
        keys = self.backing.sync_list(prefix)
        # LIST is served page by page (metadata service, not OSD media).
        pages = max(1, -(-len(keys) // self.profile.list_page))
        yield from _timed(self.sim, pages * self.profile.list_latency,
                          "store.list", "svc")
        self.backing.op_counts["list"] += 1
        return keys

    def put_if_absent(self, key: str, data: bytes,
                      src: Optional[Node] = None) -> SimGen:
        # The primary OSD arbitrates atomically. The reservation below makes
        # the existence check and the claim a single simulation step, so two
        # concurrent exclusive creates cannot both win.
        if key in self.backing or key in self._pending_creates:
            osd = self.osd_for(key)
            yield from self._service(osd, self.profile.put_latency, 0, src)
            return False
        self._pending_creates.add(key)
        try:
            yield from self.put(key, data, src=src)
        finally:
            self._pending_creates.discard(key)
        return True

    # -- batched operations ----------------------------------------------------
    #
    # One client enqueue for the whole batch; the per-key work still lands
    # on each key's OSD queue, so saturation behaviour under fan-out is the
    # same contention the paper's bandwidth figures exercise.

    def get_many(self, keys: Sequence[str],
                 src: Optional[Node] = None) -> SimGen:
        values = [self.backing._data.get(k) for k in keys]
        reads = []
        for key, data in zip(keys, values):
            if data is None:
                continue
            if self.profile.erasure is not None:
                gen = self._ec_gather(key, len(data), src)
            else:
                gen = self._service(self.osd_for(key),
                                    self._get_fixed, len(data), src)
            reads.append(self.sim.process(gen, name=f"mget:{key}"))
        if reads:
            yield self.sim.all_of(reads)
        sizes = [len(d) for d in values if d is not None]
        yield from self._client_leg(src, sizes)
        self.bytes_read += sum(sizes)
        self.backing.op_counts["get"] += len(sizes)
        return values

    def put_many(self, items: Sequence[Tuple[str, bytes]],
                 src: Optional[Node] = None) -> SimGen:
        if not items:
            return
        yield from self._client_leg(src, [len(d) for _k, d in items])
        writes = []
        for k, d in items:
            gen = self._server_put(k, d, src)
            writes.append(self.sim.process(gen, name=f"mput:{k}"))
        yield self.sim.all_of(writes)

    def delete_many(self, keys: Sequence[str],
                    src: Optional[Node] = None) -> SimGen:
        present = [k for k in keys if k in self.backing]
        deletes = []
        for k in present:
            gen = self._service(self.osd_for(k),
                                self.profile.delete_latency, 0, src)
            deletes.append(self.sim.process(gen, name=f"mdel:{k}"))
        if deletes:
            yield self.sim.all_of(deletes)
        else:
            yield self.sim.timeout(0)
        removed = 0
        for key in present:
            if key in self.backing:  # not raced away while we waited
                self.backing.sync_delete(key)
                self.backing.op_counts["delete"] += 1
                removed += 1
        return removed

    # -- functional helpers (for tests/recovery assertions) --------------------

    def usage(self):
        """(object count, stored bytes) — feeds statfs."""
        return self.backing.usage()

    @property
    def capacity_bytes(self) -> float:
        return self.profile.capacity_bytes

    def __len__(self) -> int:
        return len(self.backing)

    def __contains__(self, key: str) -> bool:
        return key in self.backing


class LocalDisk:
    """A node-local block device (EBS volume): bandwidth + per-request latency.

    Used as the source/sink in the archiving scenario (the burst-buffer side)
    and as the S3FS staging cache.
    """

    def __init__(self, sim: Simulator, profile: DiskProfile, name: str = ""):
        self.sim = sim
        self.profile = profile
        self.name = name or profile.name
        self.pipe = BandwidthPipe(sim, profile.bandwidth, name=self.name)
        self.bytes_read = 0
        self.bytes_written = 0

    def read(self, nbytes: int) -> SimGen:
        yield from _timed(self.sim, self.profile.latency,
                          f"{self.name}.lat", "media")
        yield from self.pipe.transfer(nbytes)
        self.bytes_read += nbytes

    def write(self, nbytes: int) -> SimGen:
        yield from _timed(self.sim, self.profile.latency,
                          f"{self.name}.lat", "media")
        yield from self.pipe.transfer(nbytes)
        self.bytes_written += nbytes
