"""Checkpoint/restart workload — the HPC pattern behind client-side metadata.

The paper's related work credits client-funded metadata services with
"higher throughput in metadata-intensive or checkpointing workloads"; this
generator reproduces the classic N-N checkpointing cadence:

* every *generation*, each of N ranks writes its own checkpoint file into a
  fresh generation directory and fsyncs it;
* rank 0 then writes a manifest naming every member (the commit point);
* generations beyond a retention window are deleted;
* on *restart*, every rank locates the newest complete generation via its
  manifest and reads its own checkpoint back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Sequence

from ..posix.errors import FSError, NotFound
from ..posix.types import Credentials, OpenFlags, ROOT_CREDS
from ..posix.vfs import VFSClient
from ..sim.engine import SimGen, Simulator
from .mdtest import _mount_of
from .runner import run_phase

__all__ = ["CheckpointResult", "checkpoint_restart"]


@dataclass
class CheckpointResult:
    generation_times: List[float] = field(default_factory=list)
    restart_time: float = 0.0
    bytes_per_generation: int = 0
    restored_ranks: int = 0

    @property
    def mean_generation_time(self) -> float:
        return (sum(self.generation_times) / len(self.generation_times)
                if self.generation_times else 0.0)


def _gen_dir(base: str, gen: int) -> str:
    return f"{base}/gen-{gen:05d}"


def checkpoint_restart(
    sim: Simulator,
    mounts: Sequence[VFSClient],
    n_ranks: int,
    ckpt_bytes: int,
    n_generations: int = 3,
    keep: int = 2,
    files_per_rank: int = 1,
    creds: Credentials = ROOT_CREDS,
    base: str = "/ckpt",
) -> CheckpointResult:
    """Run the full checkpoint cadence then a restart; returns timings.

    ``files_per_rank`` > 1 models the N-N-M pattern (each rank splits its
    state into several segment files) — the regime where per-directory
    metadata management amortizes its lease/metatable setup.
    """
    result = CheckpointResult(
        bytes_per_generation=n_ranks * ckpt_bytes * files_per_rank)
    seg_bytes = ckpt_bytes
    payload = b"\xCC" * seg_bytes

    def setup() -> SimGen:
        try:
            yield from mounts[0].mkdir(creds, base)
        except FSError:
            pass

    run_phase(sim, [sim.process(setup())])

    def write_rank(rank: int, gen: int):
        def gen_fn() -> SimGen:
            m = _mount_of(mounts, rank)
            if rank == 0:
                yield from m.mkdir(creds, _gen_dir(base, gen))
            else:
                # Non-zero ranks wait for the generation dir to appear.
                while True:
                    try:
                        yield from m.stat(creds, _gen_dir(base, gen))
                        break
                    except NotFound:
                        yield sim.timeout(0.001)
            last = None
            for seg in range(files_per_rank):
                suffix = f".{seg:03d}" if files_per_rank > 1 else ""
                path = (f"{_gen_dir(base, gen)}/"
                        f"rank-{rank:04d}.ckpt{suffix}")
                h = yield from m.open(
                    creds, path,
                    OpenFlags.O_CREAT | OpenFlags.O_WRONLY |
                    OpenFlags.O_TRUNC)
                yield from m.write(h, payload)
                if last is not None:
                    yield from m.close(last)
                last = h
            # One durability point per rank per generation (checkpoint
            # libraries batch their segment fsyncs exactly like this).
            yield from m.fsync(last)
            yield from m.close(last)
        return gen_fn

    def commit_manifest(gen: int):
        def gen_fn() -> SimGen:
            m = _mount_of(mounts, 0)
            suffix = ".000" if files_per_rank > 1 else ""
            manifest = {
                "generation": gen,
                "ranks": n_ranks,
                "segments": files_per_rank,
                "members": [f"rank-{r:04d}.ckpt{suffix}"
                            for r in range(n_ranks)],
            }
            yield from m.write_file(
                creds, f"{_gen_dir(base, gen)}/MANIFEST",
                json.dumps(manifest).encode(), do_fsync=True)
        return gen_fn

    def prune(gen: int):
        def gen_fn() -> SimGen:
            dead = gen - keep
            if dead < 0:
                yield sim.timeout(0)
                return
            m = _mount_of(mounts, 0)
            dead_dir = _gen_dir(base, dead)
            try:
                names = yield from m.readdir(creds, dead_dir)
            except NotFound:
                return
            for name in names:
                yield from m.unlink(creds, f"{dead_dir}/{name}")
            yield from m.rmdir(creds, dead_dir)
        return gen_fn

    for gen in range(n_generations):
        t0 = sim.now
        run_phase(sim, [sim.process(write_rank(r, gen)())
                        for r in range(n_ranks)])
        run_phase(sim, [sim.process(commit_manifest(gen)())])
        result.generation_times.append(sim.now - t0)
        run_phase(sim, [sim.process(prune(gen)())])

    # -- restart: every rank restores from the newest complete generation.
    latest = n_generations - 1

    def restore_rank(rank: int):
        def gen_fn() -> SimGen:
            m = _mount_of(mounts, rank)
            raw = yield from m.read_file(
                creds, f"{_gen_dir(base, latest)}/MANIFEST")
            manifest = json.loads(raw)
            name = manifest["members"][rank]
            data = yield from m.read_file(
                creds, f"{_gen_dir(base, latest)}/{name}")
            assert len(data) == seg_bytes, "truncated checkpoint"
            result.restored_ranks += 1
        return gen_fn

    t0 = sim.now
    run_phase(sim, [sim.process(restore_rank(r)()) for r in range(n_ranks)])
    result.restart_time = sim.now - t0
    return result
