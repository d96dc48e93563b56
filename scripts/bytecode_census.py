#!/usr/bin/env python3
"""Bytecodes per root op of one ledger repetition, in total and by function.

    python scripts/bytecode_census.py --workload md_private --seed 1 [--top 25]
    python scripts/bytecode_census.py --workload md_private --seed 1 --chains
    python scripts/bytecode_census.py --workload md_scale --seed 1 --gc

Runs one repetition of a ledger workload (``benchmarks/ledger``, imported
read-only) with ``sys.settrace`` opcode events switched on exactly where
the ledger's call count is taken: the timed phases, from the hook
``worker.repetition`` enables its profiler with. Prints the bytecodes
executed per root op, then the ``--top`` functions and source files by
bytecodes per op. Hash order is pinned as ``run.py`` pins it
(``PYTHONHASHSEED=0``; the script re-executes itself to set it).

Call counts overstate host time where frames are cheap and hide it where
one frame runs long; bytecodes count the work itself. Tracing every opcode
is slow (about 30 s for ``md_private`` on a 2-vCPU Xeon), so this is a
tool for aiming an optimisation, not a CI step.

``--chains`` counts resume chains instead: each time a process's
generator suspends, the frames its next resume re-enters (the generator
and every generator it is ``yield from``-ing, outermost first). A resume
costs one Python call per frame of its chain, so the frames re-entered
per resume, and the most frequent chains, say which forwarding frames a
resume still pays for (DESIGN §10). It runs under ``sys.setprofile`` and
takes seconds.

``--gc`` watches the cyclic collector instead, with the import-time heap
frozen as ``worker.main`` freezes it: collections, seconds and objects
freed per generation over the timed phases, counted apart inside
``Simulator.run`` (which pauses the collector, so none) and between runs,
the share of their CPU time that went to collecting, and the objects the
collector tracks at their end, by type. Nothing freed means every
collection traversed live state (for instance a backlog of queued
requests) for nothing.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "benchmarks", "ledger")


class OpcodeCensus:
    """A stand-in for the profiler ``worker.repetition`` enables and
    disables: counts the opcodes each code object executes meanwhile."""

    def __init__(self) -> None:
        self.counts: Dict[object, int] = {}

    def enable(self) -> None:
        counts = self.counts

        def local(frame, event, arg):
            if event == "opcode":
                code = frame.f_code
                counts[code] = counts.get(code, 0) + 1
            return local

        def on_call(frame, event, arg):   # every call and generator resume
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            return local

        sys.settrace(on_call)

    def disable(self) -> None:
        sys.settrace(None)


class ChainCensus:
    """A stand-in for the profiler ``worker.repetition`` enables and
    disables: counts, at every suspension of a process's generator, the
    chain of frames its next resume re-enters."""

    def __init__(self) -> None:
        self.counts: Dict[Tuple[str, ...], int] = {}

    def enable(self) -> None:
        from repro.sim.engine import Process

        resume = Process._resume.__code__
        counts = self.counts

        def hook(frame, event, arg):
            # Process._resume type-checks what the generator yielded: the
            # generator is suspended by then, its chain still in place.
            if (event == "c_call" and arg is isinstance
                    and frame.f_code is resume):
                gen = frame.f_locals["gen"]
                chain = []
                while gen is not None:
                    code = getattr(gen, "gi_code", None)
                    chain.append(code.co_name if code is not None
                                 else type(gen).__name__)
                    gen = getattr(gen, "gi_yieldfrom", None)
                key = tuple(chain)
                counts[key] = counts.get(key, 0) + 1

        sys.setprofile(hook)

    def disable(self) -> None:
        sys.setprofile(None)


class GcCensus:
    """A stand-in for the profiler ``worker.repetition`` enables and
    disables: times the cyclic collector's passes meanwhile, apart for
    passes made inside ``Simulator.run`` and between runs, and, when
    disabled, counts the objects it tracks by type."""

    WHERE = ("in run", "between")

    def __init__(self) -> None:
        self.collections = {w: [0, 0, 0] for w in self.WHERE}
        self.seconds = {w: [0.0, 0.0, 0.0] for w in self.WHERE}
        self.freed = {w: [0, 0, 0] for w in self.WHERE}
        self.tracked: Dict[str, int] = {}
        self._start = 0.0
        self._where = ""
        self._run_code = None

    def _inside_run(self) -> bool:
        frame = sys._getframe(2)
        while frame is not None:
            if frame.f_code is self._run_code:
                return True
            frame = frame.f_back
        return False

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._where = self.WHERE[not self._inside_run()]
            self._start = time.perf_counter()
            return
        gen, where = info["generation"], self._where
        self.collections[where][gen] += 1
        self.seconds[where][gen] += time.perf_counter() - self._start
        self.freed[where][gen] += info["collected"]

    def enable(self) -> None:
        from repro.sim.engine import Simulator

        self._run_code = Simulator.run.__code__
        gc.callbacks.append(self._on_gc)

    def disable(self) -> None:
        gc.callbacks.remove(self._on_gc)
        tracked = self.tracked
        for obj in gc.get_objects():
            name = type(obj).__qualname__
            tracked[name] = tracked.get(name, 0) + 1


def gc_report(census: GcCensus, timed_cpu_s: float, top: int) -> List[str]:
    total_s = sum(sum(s) for s in census.seconds.values())
    freed = sum(sum(f) for f in census.freed.values())
    lines = [f"timed CPU {timed_cpu_s:.3f} s, of which cyclic GC "
             f"{total_s:.3f} s ({total_s / timed_cpu_s:.1%}); "
             f"objects freed {freed}",
             f"\n{'gen':>3} {'where':>8} {'collections':>11} {'seconds':>8} "
             f"{'freed':>8}"]
    for gen in range(3):
        for where in census.WHERE:
            lines.append(f"{gen:>3} {where:>8} "
                         f"{census.collections[where][gen]:>11} "
                         f"{census.seconds[where][gen]:>8.3f} "
                         f"{census.freed[where][gen]:>8}")
    tracked = census.tracked
    n = sum(tracked.values())
    lines.append(f"\ntracked at the end: {n} objects"
                 f"\n{'objects':>9} {'share':>6}  type")
    for name, count in sorted(tracked.items(), key=lambda r: -r[1])[:top]:
        lines.append(f"{count:>9} {count / n:>6.1%}  {name}")
    return lines


def chain_report(counts: Dict[Tuple[str, ...], int], ops: int,
                 top: int) -> List[str]:
    resumes = sum(counts.values())
    frames = sum(len(chain) * n for chain, n in counts.items())
    lines = [f"resumes per root op: {resumes / ops:.2f}; frames re-entered "
             f"per resume: {frames / resumes:.3f} "
             f"({frames / ops:.2f} per root op)",
             f"\n{'per op':>9} {'share':>6}  chain (outermost first)"]
    for chain, n in sorted(counts.items(), key=lambda r: -r[1])[:top]:
        lines.append(f"{n / ops:>9.2f} {n / resumes:>6.1%}  "
                     + " > ".join(chain))
    return lines


def _where(code) -> str:
    path = os.path.relpath(code.co_filename, ROOT)
    if path.startswith(".."):               # the standard library
        path = os.path.basename(code.co_filename)
    return path


def report(counts: Dict[object, int], ops: int, top: int) -> List[str]:
    total = sum(counts.values())
    lines = [f"bytecodes per root op: {total / ops:.1f} "
             f"({total} over {ops} root ops)"]
    by_file: Dict[str, int] = {}
    for code, n in counts.items():
        by_file[_where(code)] = by_file.get(_where(code), 0) + n
    for title, rows in (
            ("function", [(f"{_where(c)}:{c.co_firstlineno} {c.co_qualname}", n)
                          for c, n in counts.items()]),
            ("file", list(by_file.items()))):
        lines.append(f"\n{'per op':>9} {'share':>6}  {title}")
        for name, n in sorted(rows, key=lambda r: -r[1])[:top]:
            lines.append(f"{n / ops:>9.1f} {n / total:>6.1%}  {name}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    sys.path[:0] = [LEDGER, os.path.join(ROOT, "src")]
    from workloads import WORKLOADS   # benchmarks/ledger

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--top", type=int, default=25)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--chains", action="store_true",
                      help="count resume frame chains, not bytecodes")
    mode.add_argument("--gc", action="store_true",
                      help="time the cyclic collector, not bytecodes")
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)

    import worker                     # benchmarks/ledger

    if args.gc:
        census = GcCensus()
        gc.collect()
        gc.freeze()
    elif args.chains:
        census = ChainCensus()
    else:
        census = OpcodeCensus()
    result = worker.repetition(WORKLOADS[args.workload], args.seed,
                               profile=census)
    print(f"{args.workload}, seed {args.seed}, timed phases of one "
          f"repetition")
    if args.gc:
        lines = gc_report(census, sum(result.slices_cpu), args.top)
    else:
        show = chain_report if args.chains else report
        lines = show(census.counts, result.facts["ops"], args.top)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
