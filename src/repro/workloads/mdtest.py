"""mdtest workload generators, following the IO500 configurations.

* :func:`mdtest_easy` — CREATE / STAT / DELETE of empty files, each process
  in its own leaf directory (no metadata sharing at all).
* :func:`mdtest_hard` — WRITE (create + one 3901-byte write) / STAT / READ
  / DELETE, files spread over a pool of *shared* directories that every
  process touches ("the client processes of mdtest-hard conduct file
  operations on an arbitrary directory, simulating the usage in a shared
  directory environment").

Both call a full client sync after each phase, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..posix.errors import FSError, UnsupportedOperation
from ..posix.types import Credentials, OpenFlags, ROOT_CREDS
from ..posix.vfs import VFSClient
from ..sim.engine import SimGen, Simulator
from .runner import WorkloadRunner

__all__ = ["MdtestResult", "mdtest_easy", "mdtest_hard", "HARD_FILE_SIZE"]

HARD_FILE_SIZE = 3901  # bytes; the IO500 mdtest-hard default the paper uses
_CREATE = OpenFlags.O_CREAT | OpenFlags.O_EXCL | OpenFlags.O_WRONLY


@dataclass
class MdtestResult:
    """Per-phase ops/sec plus error counts (MarFS READ errors etc.)."""

    phases: dict           # name -> ops/sec
    errors: dict           # name -> error count
    elapsed: dict          # name -> seconds
    total_files: int

    def rate(self, phase: str) -> float:
        return self.phases[phase]


def _mount_of(mounts: Sequence[VFSClient], proc: int) -> VFSClient:
    return mounts[proc % len(mounts)]


def _clients_of(mounts: Sequence[VFSClient]) -> List:
    out = []
    for m in mounts:
        inner = getattr(m, "inner", m)
        if inner not in out:
            out.append(inner)
    return out


def mdtest_easy(
    sim: Simulator,
    mounts: Sequence[VFSClient],
    n_procs: int,
    files_per_proc: int,
    creds: Credentials = ROOT_CREDS,
    base: str = "/mdtest-easy",
    phases: Sequence[str] = ("CREATE", "STAT", "DELETE"),
) -> MdtestResult:
    """mdtest-easy: empty-file metadata ops in private leaf directories."""
    runner = WorkloadRunner(sim, _clients_of(mounts), list(mounts))

    def setup() -> SimGen:
        m = mounts[0]
        try:
            yield from m.mkdir(creds, base)
        except FSError:
            pass  # reruns against an existing tree are fine

    def setup_leaf(p: int):
        def gen() -> SimGen:
            try:
                yield from _mount_of(mounts, p).mkdir(creds,
                                                      f"{base}/dir.{p}")
            except FSError:
                pass
        return gen

    runner.setup([setup])
    runner.setup([setup_leaf(p) for p in range(n_procs)])

    def create_proc(p: int):
        def gen() -> SimGen:
            m = _mount_of(mounts, p)
            for i in range(files_per_proc):
                h = yield from m.open(creds, f"{base}/dir.{p}/file.{i}",
                                      _CREATE)
                yield from m.close(h)
        return gen

    def stat_proc(p: int):
        def gen() -> SimGen:
            m = _mount_of(mounts, p)
            for i in range(files_per_proc):
                yield from m.stat(creds, f"{base}/dir.{p}/file.{i}")
        return gen

    def delete_proc(p: int):
        def gen() -> SimGen:
            m = _mount_of(mounts, p)
            for i in range(files_per_proc):
                yield from m.unlink(creds, f"{base}/dir.{p}/file.{i}")
        return gen

    factories = {"CREATE": create_proc, "STAT": stat_proc,
                 "DELETE": delete_proc}
    total = n_procs * files_per_proc
    result = MdtestResult(phases={}, errors={}, elapsed={}, total_files=total)
    for name in phases:
        r = runner.phase(name, [factories[name](p) for p in range(n_procs)],
                         ops=total)
        result.phases[name] = r.ops_per_sec
        result.elapsed[name] = r.elapsed
        result.errors[name] = r.errors
    return result


def _hard_dir_of(p: int, i: int, n_dirs: int) -> int:
    """Deterministic 'arbitrary directory' assignment per file."""
    return (p * 2654435761 + i * 40503) % n_dirs


def mdtest_hard(
    sim: Simulator,
    mounts: Sequence[VFSClient],
    n_procs: int,
    files_per_proc: int,
    creds: Credentials = ROOT_CREDS,
    base: str = "/mdtest-hard",
    n_dirs: Optional[int] = None,
    file_size: int = HARD_FILE_SIZE,
    phases: Sequence[str] = ("WRITE", "STAT", "READ", "DELETE"),
) -> MdtestResult:
    """mdtest-hard: small-file ops spread over shared directories."""
    if n_dirs is None:
        n_dirs = max(2, n_procs // 2)
    runner = WorkloadRunner(sim, _clients_of(mounts), list(mounts))
    payload = b"\xA5" * file_size

    def setup() -> SimGen:
        m = mounts[0]
        try:
            yield from m.mkdir(creds, base)
        except FSError:
            pass
        for d in range(n_dirs):
            try:
                yield from m.mkdir(creds, f"{base}/shared.{d}")
            except FSError:
                pass

    runner.setup([setup])

    def path_of(p: int, i: int) -> str:
        return f"{base}/shared.{_hard_dir_of(p, i, n_dirs)}/f.{p}.{i}"

    def write_proc(p: int):
        def gen() -> SimGen:
            m = _mount_of(mounts, p)
            for i in range(files_per_proc):
                h = yield from m.open(creds, path_of(p, i), _CREATE)
                yield from m.write(h, payload)
                yield from m.close(h)
        return gen

    def stat_proc(p: int):
        def gen() -> SimGen:
            m = _mount_of(mounts, p)
            for i in range(files_per_proc):
                yield from m.stat(creds, path_of(p, i))
        return gen

    def make_read_proc(p: int, errors: List[int]):
        def gen() -> SimGen:
            m = _mount_of(mounts, p)
            for i in range(files_per_proc):
                try:
                    h = yield from m.open(creds, path_of(p, i),
                                          OpenFlags.O_RDONLY)
                    yield from m.read(h, file_size)
                    yield from m.close(h)
                except (UnsupportedOperation, FSError):
                    errors[0] += 1
        return gen

    def delete_proc(p: int):
        def gen() -> SimGen:
            m = _mount_of(mounts, p)
            for i in range(files_per_proc):
                yield from m.unlink(creds, path_of(p, i))
        return gen

    total = n_procs * files_per_proc
    result = MdtestResult(phases={}, errors={}, elapsed={}, total_files=total)
    for name in phases:
        errs = [0]
        if name == "WRITE":
            fac = [write_proc(p) for p in range(n_procs)]
        elif name == "STAT":
            fac = [stat_proc(p) for p in range(n_procs)]
        elif name == "READ":
            fac = [make_read_proc(p, errs) for p in range(n_procs)]
        else:
            fac = [delete_proc(p) for p in range(n_procs)]
        r = runner.phase(name, fac, ops=total,
                         nbytes=total * file_size if name in ("WRITE", "READ")
                         else 0)
        result.phases[name] = r.ops_per_sec
        result.elapsed[name] = r.elapsed
        result.errors[name] = errs[0]
    return result
