"""A ustar tar implementation over the VFS interface (Table II substrate).

GNU tar is the paper's archiving tool; this is a from-scratch POSIX ustar
writer/reader that streams through VFS file handles, so the archive and
extract pipelines exercise the file systems' real data paths:

* :func:`archive_from_disk` — burst buffer → campaign storage: read each
  image off the (simulated EBS) staging volume, stream a tar into the FS.
* :func:`extract_in_fs` — unpack a tar stored in the FS back into the FS,
  categorized into per-category directories (the paper: "the dataset is
  extracted from the tar file and categorized by its date or its data
  type") — this is the metadata-heavy half ArkFS accelerates.
* :func:`archive_to_disk` — campaign storage → burst buffer: walk an FS
  tree, stream a tar onto the staging volume (the unarchiving scenario).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..objectstore.cluster import LocalDisk
from ..posix import path as pathmod
from ..posix.errors import AlreadyExists
from ..posix.types import Credentials, OpenFlags
from ..posix.vfs import FileHandle, VFSClient
from ..sim.engine import SimGen
from .dataset import SyntheticDataset

__all__ = ["TarWriter", "TarReader", "make_header", "parse_header",
           "archive_from_disk", "extract_in_fs", "archive_to_disk",
           "BLOCK"]

BLOCK = 512
_WRITE_BUFFER = 1 << 20  # stream tar bytes in 1 MiB writes
_OVERWRITE = OpenFlags.O_CREAT | OpenFlags.O_WRONLY | OpenFlags.O_TRUNC


def _octal(value: int, width: int) -> bytes:
    return f"{value:0{width - 1}o}".encode() + b"\x00"


def _pad_name(name: str, width: int) -> bytes:
    raw = name.encode()
    if len(raw) > width:
        raise ValueError(f"name too long for ustar field: {name!r}")
    return raw + b"\x00" * (width - len(raw))


USTAR_MAX_SIZE = 8 ** 11 - 1  # the 12-byte octal size field caps at 8 GiB-1


def make_header(name: str, size: int, typeflag: bytes = b"0",
                mode: int = 0o644, uid: int = 0, gid: int = 0,
                mtime: int = 0) -> bytes:
    """Build one 512-byte ustar header block."""
    if not 0 <= size <= USTAR_MAX_SIZE:
        raise ValueError(f"ustar cannot represent size {size}")
    raw_name = name.encode()
    prefix = b""
    if len(raw_name) > 100:
        # Split at a '/' so name <=100 and prefix <=155 (ustar long names).
        cut = raw_name[:-100].rfind(b"/", 0, 156)
        split = raw_name.rfind(b"/", max(0, len(raw_name) - 101))
        if split <= 0 or split > 155:
            raise ValueError(f"path too long for ustar: {name!r}")
        prefix, raw_name = raw_name[:split], raw_name[split + 1:]
        del cut
    header = bytearray(BLOCK)
    header[0:100] = raw_name + b"\x00" * (100 - len(raw_name))
    header[100:108] = _octal(mode, 8)
    header[108:116] = _octal(uid, 8)
    header[116:124] = _octal(gid, 8)
    header[124:136] = _octal(size, 12)
    header[136:148] = _octal(mtime, 12)
    header[148:156] = b" " * 8  # checksum placeholder
    header[156:157] = typeflag
    header[257:263] = b"ustar\x00"
    header[263:265] = b"00"
    header[265:297] = _pad_name("root", 32)
    header[297:329] = _pad_name("root", 32)
    header[345:345 + len(prefix)] = prefix
    chksum = sum(header)
    header[148:156] = f"{chksum:06o}".encode() + b"\x00 "
    return bytes(header)


def parse_header(block: bytes) -> Optional[Tuple[str, int, bytes]]:
    """Parse a header block; returns (name, size, typeflag) or None at the
    end-of-archive zero block. Raises ValueError on checksum mismatch."""
    if len(block) != BLOCK:
        raise ValueError("short tar header")
    if block == b"\x00" * BLOCK:
        return None
    stored = int(block[148:156].split(b"\x00")[0].strip() or b"0", 8)
    actual = sum(block) - sum(block[148:156]) + 8 * ord(" ")
    if stored != actual:
        raise ValueError("tar header checksum mismatch")
    name = block[0:100].split(b"\x00")[0].decode()
    prefix = block[345:500].split(b"\x00")[0].decode()
    if prefix:
        name = prefix + "/" + name
    size = int(block[124:136].split(b"\x00")[0].strip() or b"0", 8)
    typeflag = block[156:157]
    return name, size, typeflag


class TarWriter:
    """Streams a ustar archive into an open VFS file handle."""

    def __init__(self, mount: VFSClient, handle: FileHandle):
        self.mount = mount
        self.handle = handle
        self._buf = bytearray()
        self.bytes_written = 0

    def _flush_if_full(self) -> SimGen:
        while len(self._buf) >= _WRITE_BUFFER:
            chunk = bytes(self._buf[:_WRITE_BUFFER])
            del self._buf[:_WRITE_BUFFER]
            yield from self.mount.write(self.handle, chunk)
            self.bytes_written += len(chunk)

    def add_dir(self, name: str) -> SimGen:
        self._buf += make_header(name.rstrip("/") + "/", 0, typeflag=b"5",
                                 mode=0o755)
        yield from self._flush_if_full()

    def add_file(self, name: str, data: bytes) -> SimGen:
        self._buf += make_header(name, len(data))
        self._buf += data
        if len(data) % BLOCK:
            self._buf += b"\x00" * (BLOCK - len(data) % BLOCK)
        yield from self._flush_if_full()

    def finish(self) -> SimGen:
        self._buf += b"\x00" * (2 * BLOCK)
        if self._buf:
            yield from self.mount.write(self.handle, bytes(self._buf))
            self.bytes_written += len(self._buf)
            self._buf.clear()


class TarReader:
    """Streams entries out of a tar stored in a VFS file."""

    def __init__(self, mount: VFSClient, handle: FileHandle,
                 read_size: int = _WRITE_BUFFER):
        self.mount = mount
        self.handle = handle
        self.read_size = read_size
        self._buf = bytearray()
        self._eof = False

    def _ensure(self, n: int) -> SimGen:
        while len(self._buf) < n and not self._eof:
            data = yield from self.mount.read(self.handle, self.read_size)
            if not data:
                self._eof = True
                break
            self._buf += data
        return len(self._buf) >= n

    def entries(self) -> SimGen:
        """Coroutine-iterator: returns the full entry list
        ``[(name, typeflag, data), ...]`` (directories have ``data=b""``)."""
        out: List[Tuple[str, bytes, bytes]] = []
        while True:
            ok = yield from self._ensure(BLOCK)
            if not ok:
                break
            block = bytes(self._buf[:BLOCK])
            del self._buf[:BLOCK]
            parsed = parse_header(block)
            if parsed is None:
                break
            name, size, typeflag = parsed
            padded = size + (BLOCK - size % BLOCK) % BLOCK
            ok = yield from self._ensure(padded)
            if not ok and size > 0:
                raise ValueError(f"truncated tar entry {name!r}")
            data = bytes(self._buf[:size])
            del self._buf[:padded]
            out.append((name, typeflag, data))
        return out


# -- Table II pipelines -----------------------------------------------------


def archive_from_disk(mount: VFSClient, creds: Credentials, disk: LocalDisk,
                      dataset: SyntheticDataset, tar_path: str) -> SimGen:
    """Burst buffer -> campaign storage: tar the dataset into the FS."""
    h = yield from mount.open(creds, tar_path, _OVERWRITE)
    writer = TarWriter(mount, h)
    for image in dataset:
        yield from disk.read(image.size)          # read off the EBS volume
        yield from writer.add_file(f"{image.category}/{image.name}",
                                   image.content())
    yield from writer.finish()
    yield from mount.fsync(h)
    yield from mount.close(h)
    return writer.bytes_written


def extract_in_fs(mount: VFSClient, creds: Credentials, tar_path: str,
                  dst_dir: str) -> SimGen:
    """Unpack a tar stored in the FS into categorized directories."""
    try:
        yield from mount.mkdir(creds, dst_dir)
    except AlreadyExists:
        pass
    h = yield from mount.open(creds, tar_path, OpenFlags.O_RDONLY)
    reader = TarReader(mount, h)
    entries = yield from reader.entries()
    yield from mount.close(h)
    seen_dirs = set()
    count = 0
    for name, typeflag, data in entries:
        target = pathmod.join(dst_dir, *name.strip("/").split("/"))
        if typeflag == b"5":
            continue
        parent, _fname = pathmod.parent_and_name(target)
        if parent not in seen_dirs:
            parts = pathmod.split_path(parent)
            base_parts = pathmod.split_path(dst_dir)
            for i in range(len(base_parts) + 1, len(parts) + 1):
                p = "/" + "/".join(parts[:i])
                if p in seen_dirs:
                    continue
                try:
                    yield from mount.mkdir(creds, p)
                except AlreadyExists:
                    pass
                seen_dirs.add(p)
            seen_dirs.add(parent)
        hf = yield from mount.open(creds, target, _OVERWRITE)
        if data:
            yield from mount.write(hf, data)
        yield from mount.close(hf)
        count += 1
    return count


def _walk(mount: VFSClient, creds: Credentials, root: str) -> SimGen:
    """Recursive listing: returns [(path, is_dir)] in DFS order."""
    out: List[Tuple[str, bool]] = []
    stack = [root]
    while stack:
        cur = stack.pop()
        names = yield from mount.readdir(creds, cur)
        for name in names:
            p = pathmod.join(cur, name)
            st = yield from mount.stat(creds, p)
            if st.is_dir:
                out.append((p, True))
                stack.append(p)
            else:
                out.append((p, False))
    return out


def archive_to_disk(mount: VFSClient, creds: Credentials, src_dir: str,
                    disk: LocalDisk, read_size: int = _WRITE_BUFFER) -> SimGen:
    """Campaign storage -> burst buffer: tar an FS tree onto the disk."""
    entries = yield from _walk(mount, creds, src_dir)
    total = 0
    for path, is_dir in entries:
        rel = path[len(src_dir):].strip("/")
        if is_dir:
            total += BLOCK
            yield from disk.write(BLOCK)
            continue
        h = yield from mount.open(creds, path, OpenFlags.O_RDONLY)
        size = 0
        while True:
            data = yield from mount.read(h, read_size)
            if not data:
                break
            size += len(data)
            yield from disk.write(len(data))
        yield from mount.close(h)
        padded = BLOCK + size + (BLOCK - size % BLOCK) % BLOCK
        yield from disk.write(padded - size)
        total += padded
        del rel
    yield from disk.write(2 * BLOCK)
    return total + 2 * BLOCK
