"""Host-speed calibration kernel for the performance ledger.

FROZEN. Host times in the ledger are reported in *reference-host* seconds:
``cpu_s / calib_s * CALIB_REF_S``, where ``calib_s`` is the mean of this
kernel's user-CPU time immediately before and after the measured repetition.
Changing the kernel or the constant silently rescales every host metric
against the committed baseline — so neither ever changes; a different
normalisation is a new metric with a new name.

The kernel mirrors what the simulator's hot loop does (generator resumes, a
heap of timestamped entries, dict bookkeeping), so a host that runs the
simulator slower runs the kernel slower by about the same factor.
"""

from __future__ import annotations

import heapq
import resource

#: CPU seconds :func:`kernel` took on the reference host (the 2-core box
#: the first baseline was recorded on). Frozen with the kernel.
CALIB_REF_S = 0.19

_N_PROCS = 64
_N_EVENTS = 340_000


def _proc(pid: int):
    """A stand-in simulated process: yields its next wake-up delay."""
    delay = 1 + pid % 7
    while True:
        yield delay
        delay = delay % 11 + 1


def kernel() -> int:
    """Fixed generator + heapq + dict loop; returns a checksum."""
    procs = {pid: _proc(pid) for pid in range(_N_PROCS)}
    wakeups = {pid: 0 for pid in procs}
    heap = [(next(gen), pid) for pid, gen in procs.items()]
    heapq.heapify(heap)
    for _ in range(_N_EVENTS):
        now, pid = heapq.heappop(heap)
        wakeups[pid] += 1
        heapq.heappush(heap, (now + procs[pid].send(None), pid))
    return sum(wakeups.values()) + heap[0][0]


def user_cpu_s() -> float:
    """The ledger's host clock: user-mode CPU seconds of this process.

    Kernel-mode time is left out on purpose. On the shared VMs this runs
    on, page-fault service for the simulator's large ``bytes`` buffers
    swings between 0 and several seconds for identical runs, which says
    nothing about the program; memory cost is tracked by ``host_peak_mb``.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def timed() -> float:
    """Host-clock seconds one run of the kernel takes right now."""
    t0 = user_cpu_s()
    kernel()
    return user_cpu_s() - t0
