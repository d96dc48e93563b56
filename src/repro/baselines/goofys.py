"""goofys baseline: a high-throughput, relaxed-POSIX S3 file system.

The namespace is :class:`~repro.baselines.s3common.PathKeyedClient`'s
(full-path keys, a HEAD per lookup, LIST-based readdir). goofys trades
POSIX fidelity for streaming performance on the data path (Section IV-B):

* reads are pipelined ranged GETs with a read-ahead window of up to
  **400 MB** — 50x ArkFS's default — which is why its sequential READ
  bandwidth beats ArkFS-ra8MB and is only matched by ArkFS-ra400MB in
  Fig. 6(b);
* writes are streaming multipart uploads: parts ship to S3 as the
  application writes, so there is no slow disk staging like s3fs;
* random writes, appends to existing objects, truncation to a non-zero
  size, directory renames, symlinks and ACLs are unsupported, and modes
  are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..posix.errors import BadFileHandle, UnsupportedOperation
from ..posix.types import Credentials, FileType, OpenFlags
from ..posix.vfs import FileHandle
from ..sim.engine import Event, SimGen, Simulator
from ..sim.network import Node
from .s3common import Bucket, FileAttrs, PathKeyedClient, key_of

__all__ = ["GoofysClient", "GoofysParams"]

MiB = 1024 * 1024


@dataclass(frozen=True)
class GoofysParams:
    readahead: int = 400 * MiB     # max read-ahead window
    chunk_size: int = 2 * MiB      # ranged-GET granularity
    max_inflight: int = 200        # concurrent ranged GETs per handle
    part_size: int = 5 * MiB       # multipart upload part size
    op_cpu: float = 5e-6


class _UploadState:
    """A streaming multipart upload in progress."""

    __slots__ = ("buffer", "parts", "uploads", "total")

    def __init__(self):
        self.buffer = bytearray()     # bytes not yet shipped as a part
        self.parts: List[bytes] = []  # shipped part payloads (for assembly)
        self.uploads: List = []       # in-flight upload processes
        self.total = 0


class _ReadState:
    """Pipelined ranged-GET read-ahead for one open handle."""

    __slots__ = ("chunks", "inflight", "next_chunk")

    def __init__(self):
        self.chunks: Dict[int, object] = {}   # idx -> bytes | Event
        self.inflight = 0
        self.next_chunk = 0


class GoofysClient(PathKeyedClient):
    """One goofys mount of a bucket."""

    FS = "goofys"
    #: goofys has no mode headers: every object without attrs (directories
    #: included) shows this fixed mode, and chmod/chown/utimens are no-ops.
    DEFAULT_MODE = 0o755

    def __init__(self, sim: Simulator, node: Node, bucket: Bucket,
                 params: GoofysParams = GoofysParams()):
        super().__init__(sim, node, bucket, params.op_cpu)
        self.params = params

    def _new_attrs(self, key: str, ftype: FileType, creds: Credentials,
                   mode: int, target=None) -> None:
        """goofys writes no headers for a new directory."""

    def _rename_dir(self, src: str, dst: str) -> SimGen:
        # Raises as the caller's ``yield from`` starts it: no extra event.
        raise UnsupportedOperation(src, "goofys cannot rename directories")

    def _setattr(self, path: str, **changes) -> SimGen:
        yield self.sim.timeout(0)  # accepted and ignored, like goofys

    def access(self, creds: Credentials, path: str, want: int) -> SimGen:
        yield from self._head(path)
        return True

    # -- data: streaming writes --------------------------------------------------------------

    def open(self, creds: Credentials, path: str, flags: OpenFlags,
             mode: int = 0o666) -> SimGen:
        key, size = yield from self._open_head(path, flags)
        if flags.wants_write and size is not None and \
                not flags & OpenFlags.O_TRUNC:
            raise UnsupportedOperation(
                path, "goofys cannot modify existing objects in place")
        if size is None or flags & OpenFlags.O_TRUNC:
            size = 0
        impl = {"key": key, "size": size}
        if flags.wants_write:
            impl["upload"] = _UploadState()
        if flags.wants_read:
            impl["reader"] = _ReadState()
        return FileHandle(hash(key) & 0x7FFFFFFF, flags, creds, impl=impl)

    def write(self, handle: FileHandle, data: bytes,
              offset: Optional[int] = None) -> SimGen:
        if handle.closed:
            raise BadFileHandle()
        up: _UploadState = handle.impl.get("upload")
        if up is None:
            raise BadFileHandle(detail="not open for writing")
        pos = handle.pos if offset is None else offset
        if pos != up.total:
            raise UnsupportedOperation(
                handle.impl["key"], "goofys supports sequential writes only")
        up.buffer += data
        up.total += len(data)
        handle.impl["size"] = up.total
        # Ship full parts as they accumulate — the streaming upload.
        while len(up.buffer) >= self.params.part_size:
            part = bytes(up.buffer[: self.params.part_size])
            del up.buffer[: self.params.part_size]
            up.parts.append(part)
            idx = len(up.parts)
            proc = self.sim.process(
                self._upload_part(handle.impl["key"], idx, part),
                name=f"goofys-part{idx}")
            up.uploads.append(proc)
        yield self.sim.timeout(0)
        if offset is None:
            handle.pos = pos + len(data)
        return len(data)

    def _upload_part(self, key: str, idx: int, part: bytes) -> SimGen:
        part_key = f"{key}.goofys-part.{idx:06d}"
        yield from self.store.put(part_key, part, src=self.node)

    def _complete_upload(self, key: str, up: _UploadState) -> SimGen:
        if up.buffer:
            part = bytes(up.buffer)
            up.buffer.clear()
            up.parts.append(part)
            up.uploads.append(self.sim.process(
                self._upload_part(key, len(up.parts), part)))
        if up.uploads:
            # Part uploads were launched by earlier write() calls; the wait
            # for them to drain is queueing charged to this flush.
            wait = self.sim.all_of(up.uploads)
            tr = self.sim._tracer
            if tr is not None:
                with tr.span("goofys.upload.wait", "queue"):
                    yield wait
            else:
                yield wait
            up.uploads.clear()
        # CompleteMultipartUpload: S3 assembles parts server-side, so the
        # final object appears without re-shipping the bytes.
        data = b"".join(up.parts)
        self.bucket.functional_put(key, data)
        for i in range(1, len(up.parts) + 1):
            self.bucket.functional_delete(f"{key}.goofys-part.{i:06d}")
        yield from self.store.head(key, src=self.node)  # the Complete call
        self.bucket.attrs[key] = FileAttrs(FileType.REGULAR, 0o644, 0, 0,
                                           self.sim.now)

    def fsync(self, handle: FileHandle) -> SimGen:
        if handle.closed:
            raise BadFileHandle()
        up: _UploadState = handle.impl.get("upload")
        if up is not None and (up.parts or up.buffer or up.uploads):
            yield from self._complete_upload(handle.impl["key"], up)
            handle.impl["upload"] = _UploadState()
            handle.impl["completed"] = True
        else:
            yield self.sim.timeout(0)

    def close(self, handle: FileHandle) -> SimGen:
        up: _UploadState = handle.impl.get("upload")
        if up is not None and not handle.impl.get("completed") and (
                up.parts or up.buffer or up.uploads or
                handle.impl["size"] == 0):
            yield from self._complete_upload(handle.impl["key"], up)
        else:
            yield self.sim.timeout(0)
        handle.closed = True

    def truncate(self, creds: Credentials, path: str, size: int) -> SimGen:
        yield self.sim.timeout(0)
        if size != 0:
            raise UnsupportedOperation(path, "goofys: truncate only to 0")
        yield from self.store.put(key_of(path), b"", src=self.node)

    # -- data: pipelined reads ------------------------------------------------------------------

    def read(self, handle: FileHandle, size: int,
             offset: Optional[int] = None) -> SimGen:
        if handle.closed:
            raise BadFileHandle()
        rd: _ReadState = handle.impl.get("reader")
        if rd is None:
            raise BadFileHandle(detail="not open for reading")
        key = handle.impl["key"]
        file_size = handle.impl["size"]
        pos = handle.pos if offset is None else offset
        eff = max(0, min(size, file_size - pos))
        if eff == 0:
            yield self.sim.timeout(0)
            return b""
        csz = self.params.chunk_size
        first = pos // csz
        last = (pos + eff - 1) // csz
        # Launch read-ahead: keep the window full of in-flight GETs.
        window_chunks = self.params.readahead // csz
        ra_last = min((file_size - 1) // csz, last + window_chunks)
        nxt = max(rd.next_chunk, first)
        while nxt <= ra_last and rd.inflight < self.params.max_inflight:
            if nxt not in rd.chunks:
                ev = self.sim.event()
                rd.chunks[nxt] = ev
                rd.inflight += 1
                self.sim.process(self._fetch_chunk(key, nxt, csz, file_size,
                                                   rd, ev))
            nxt += 1
        rd.next_chunk = nxt
        out = bytearray()
        for idx in range(first, last + 1):
            chunk = rd.chunks.get(idx)
            if chunk is None:
                ev = self.sim.event()
                rd.chunks[idx] = ev
                rd.inflight += 1
                self.sim.process(self._fetch_chunk(key, idx, csz, file_size,
                                                   rd, ev))
                chunk = ev
            if isinstance(chunk, Event):
                # The fetch may have been launched by an earlier read() call
                # (read-ahead), so its spans belong to that op; attribute the
                # wait itself as queueing on this one.
                tr = self.sim._tracer
                if tr is not None:
                    with tr.span("goofys.ra.wait", "queue"):
                        chunk = yield chunk
                else:
                    chunk = yield chunk
            lo = max(pos, idx * csz) - idx * csz
            hi = min(pos + eff, (idx + 1) * csz) - idx * csz
            out += chunk[lo:hi]
        # Trim consumed chunks so memory stays bounded.
        for idx in list(rd.chunks):
            if idx < first:
                del rd.chunks[idx]
        if offset is None:
            handle.pos = pos + len(out)
        return bytes(out)

    def _fetch_chunk(self, key: str, idx: int, csz: int, file_size: int,
                     rd: _ReadState, ev: Event) -> SimGen:
        length = min(csz, file_size - idx * csz)
        try:
            data = yield from self.store.get_range(key, idx * csz, length,
                                                   src=self.node)
        except Exception as exc:  # noqa: BLE001
            rd.inflight -= 1
            ev.fail(exc)
            return
        rd.inflight -= 1
        rd.chunks[idx] = data
        ev.succeed(data)
