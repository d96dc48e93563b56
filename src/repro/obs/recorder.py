"""Flight recorder: a bounded ring buffer of recent structured events.

Subsystems feed it through the ``sim._recorder`` hook (a Simulator class
attribute that is ``None`` until :meth:`repro.obs.Observability.
enable_recorder` installs one)::

    rec = sim._recorder
    if rec is not None:
        rec.record("lease.revoke", ino=ino, holder=holder)

so a disabled recorder costs one attribute check per hook site — the same
zero-cost-off rule the span tracer and fault hooks follow. Recording
never schedules events or reads wall-clock time, so enabling the recorder
cannot perturb any simulated outcome.

Recorded event kinds (one hook site each): root-op start/end (mount
layer), store retries and give-ups, fault injections (transient, crash,
message drop/delay, partial batch), lease revocations, journal commits
and cache writebacks. The ring keeps the most recent ``capacity``
events; :meth:`FlightRecorder.to_dict` reports how many were dropped, so
a dump is honest about its window.

Dumps happen on crashcheck failures (``repro.faults.crashcheck``), on
benchmark failures (``benchmarks/conftest.py``), or on demand
(``python -m repro.bench ... --flight out.json``).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, Optional

__all__ = ["FlightRecorder", "RECORDER_SCHEMA", "record"]

RECORDER_SCHEMA = "arkfs-flight-recorder-v1"

#: Default ring capacity (events). Big enough to cover the interesting
#: tail before a failure, small enough to dump wholesale into JSON.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Ring buffer of ``(sim time, kind, fields)`` events for one sim."""

    __slots__ = ("sim", "capacity", "events", "recorded")

    def __init__(self, sim, capacity: int = DEFAULT_CAPACITY):
        self.sim = sim
        self.capacity = capacity
        self.events: deque = deque(maxlen=capacity)
        self.recorded = 0  # total ever recorded (>= len(events))

    def record(self, kind: str, **fields) -> None:
        self.recorded += 1
        self.events.append((self.sim.now, kind, fields or None))

    @property
    def dropped(self) -> int:
        return self.recorded - len(self.events)

    def to_dict(self, last: Optional[int] = None) -> Dict[str, Any]:
        """JSON-safe dump of the ring (optionally only the last N events)."""
        events = list(self.events)
        if last is not None:
            events = events[-last:]
        out = []
        for t, kind, fields in events:
            ev = {"t": t, "kind": kind}
            if fields:
                ev.update(fields)
            out.append(ev)
        return {
            "schema": RECORDER_SCHEMA,
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dropped": self.recorded - len(self.events),
            "events": out,
        }

    def dump(self, path: str) -> int:
        """Write the ring to ``path`` as JSON; returns the event count."""
        doc = self.to_dict()
        with open(path, "w") as f:
            f.write(json.dumps(doc, allow_nan=False))
        return len(doc["events"])


def record(sim, kind: str, **fields) -> None:
    """Convenience for cold paths: record iff a recorder is installed."""
    rec = sim._recorder
    if rec is not None:
        rec.record(kind, **fields)
