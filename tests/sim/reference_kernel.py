"""Heap-only reference scheduler: the identity oracle for ``sim/engine.py``.

Every event — due now or later — goes through one ``(time, seq, event)``
heap, nothing is resumed inline, and no engine-owned object is recycled.
This is the textbook scheduler the production two-queue kernel claims to
be equivalent to; ``test_kernel_identity.py`` holds it to that, trace for
trace. Nothing ships on it.

``textbook_use`` is the companion oracle for ``Resource.use``: it routes
every call through the two-yield definition the one-resume-per-hold body
claims to be equivalent to.
"""

import heapq
from contextlib import contextmanager

from repro.sim import Resource, Simulator


class _HeapSink:
    """Stands in for the ready deque: ``append`` pushes onto the heap at
    ``now`` with the next ``seq``; always empty (falsy), so the run loop
    only ever pops the heap and ``Process._step`` never finds a front
    event to consume inline."""

    def __init__(self, sim):
        self._sim = sim

    def __bool__(self):
        return False

    def append(self, event):
        sim = self._sim
        sim._seq += 1
        heapq.heappush(sim._heap, (sim.now, sim._seq, event))


class _NoPool(list):
    """A freelist that never keeps anything."""

    def append(self, item):
        pass


class ReferenceSimulator(Simulator):
    """``Simulator`` with the single-heap scheduler and pooling off."""

    def __init__(self):
        super().__init__()
        self._ready = _HeapSink(self)
        self._start_pool = _NoPool()

    def _timeout_release(self, t):
        pass

    def _hold_unobserved(self, delay):
        # Never inline: the always-empty ready sink must not pass for an
        # empty ready deque; every hold walks request -> grant -> timeout.
        return None


@contextmanager
def textbook_use(enabled=True):
    """While active, every ``Resource.use`` (pipes and nodes included) runs
    ``Resource._use_textbook``, whatever the hold or the tracer.
    ``enabled=False`` leaves the production choice in place, so a test can
    be parametrized over both bodies."""
    chooser = Resource.use
    if enabled:
        Resource.use = Resource._use_textbook
    try:
        yield
    finally:
        Resource.use = chooser
