"""Deterministic fault schedules for the ArkFS simulation.

A :class:`FaultPlan` is a *schedule*, not a random process: every fault it
injects is keyed to a deterministic index (the Nth store operation, the Kth
batch PUT, the Mth matching network message), so a failing run replays
bit-identically from its parameters alone. The plan is consulted from hooks
*beneath* the layers under test:

* :class:`~repro.faults.store.FaultyObjectStore` wraps the object store and
  calls :meth:`before_op` / :meth:`before_batch_put` on every operation;
* :class:`~repro.sim.network.Network` calls :meth:`on_message` on every
  message when a plan is attached.

When no plan is installed (``build_arkfs(faults=None)``, the default), none
of these hooks exist and the simulation is bit-identical to a build without
this module — the same rule the span tracer follows.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..objectstore.errors import TransientError

__all__ = ["FaultPlan", "InjectedCrash", "MessageRule"]


class InjectedCrash(Exception):
    """Raised at an injected crash point to unwind the victim's coroutines.

    Deliberately *not* an ``FSError``/``RpcError`` subclass: nothing in the
    client stack may catch-and-continue past its own death."""


class MessageRule:
    """Drop or delay a deterministic window of matching network messages.

    ``src``/``dst`` are :func:`fnmatch.fnmatchcase` patterns on node names;
    occurrences ``[start, start + count)`` of the matching stream are
    affected (``count=None`` means "from start onwards, forever")."""

    __slots__ = ("src", "dst", "start", "count", "action", "delay", "seen")

    def __init__(self, src: str = "*", dst: str = "*", start: int = 0,
                 count: Optional[int] = 1, action: str = "drop",
                 delay: float = 0.0):
        if action not in ("drop", "delay"):
            raise ValueError(f"unknown message action {action!r}")
        self.src = src
        self.dst = dst
        self.start = start
        self.count = count
        self.action = action
        self.delay = delay
        self.seen = 0  # matching messages observed so far

    def matches(self, src_name: str, dst_name: str) -> Optional[Tuple[str, float]]:
        if not (fnmatchcase(src_name, self.src)
                and fnmatchcase(dst_name, self.dst)):
            return None
        i = self.seen
        self.seen += 1
        if i < self.start:
            return None
        if self.count is not None and i >= self.start + self.count:
            return None
        return (self.action, self.delay)


class FaultPlan:
    """A deterministic schedule of store, crash, and network faults.

    All knobs are plain attributes so a test can build a plan imperatively;
    the ``crash_at`` / ``fail_ops`` / ... helpers exist for readability.
    The plan only acts while :attr:`armed` is true — crashcheck runs the
    workload *setup* phase unarmed so crash indices count only the phase
    under test.
    """

    def __init__(self):
        self.armed = True

        # (a) kill a client/leader at the Nth store operation it issues.
        self.crash_victim: Optional[str] = None   # node name whose ops count
        self.crash_at_op: Optional[int] = None    # 1-based; op N is *not* applied
        self.crash_handler: Optional[Callable[[], None]] = None
        self.crashed = False

        # (b) fail / partially apply a scatter-gather batch PUT.
        self.batch_put_fail_at: Optional[int] = None  # 1-based batch index
        self.batch_put_apply = 0                      # items applied before failing

        # (d) transient errors the client must absorb by retrying.
        self.transient_window: Optional[Tuple[int, int]] = None  # [start, end) op idx
        self.transient_every: Optional[int] = None    # op idx % n == 0 fails
        self.flaky_keys: Dict[str, int] = {}          # key substring -> failures left

        # bookkeeping (counts only while armed)
        self.ops_seen = 0        # global store-op index (next op gets this)
        self.victim_ops = 0      # ops issued by crash_victim
        self.batches_seen = 0    # put_many batches observed
        self.message_rules: List[MessageRule] = []

        # Decision-record (``t<txid>``) immutability audit: key -> value at
        # creation. A re-create after deletion or an overwrite with a
        # different value is a protocol violation the sweep must surface.
        self.decision_values: Dict[str, bytes] = {}
        self.retired_decisions: set = set()
        self.violations: List[str] = []

        self._metrics = None  # bound lazily in attach()
        self._sim = None      # bound in attach(); feeds the flight recorder

    # -- configuration helpers ------------------------------------------------

    def crash_at(self, victim: str, at_op: Optional[int],
                 handler: Optional[Callable[[], None]] = None) -> "FaultPlan":
        """Kill ``victim`` instead of executing its ``at_op``-th store op
        (``None``: only count its ops)."""
        self.crash_victim = victim
        self.crash_at_op = at_op
        if handler is not None:
            self.crash_handler = handler
        return self

    def fail_ops(self, start: int, end: int) -> "FaultPlan":
        """Store ops with global index in ``[start, end)`` raise TransientError."""
        self.transient_window = (start, end)
        return self

    def flaky_key(self, substring: str, failures: int) -> "FaultPlan":
        """The next ``failures`` ops touching a matching key fail transiently."""
        self.flaky_keys[substring] = failures
        return self

    def fail_batch_put(self, nth_batch: int, apply_items: int) -> "FaultPlan":
        """The ``nth_batch``-th batch PUT applies ``apply_items`` items then fails."""
        self.batch_put_fail_at = nth_batch
        self.batch_put_apply = apply_items
        return self

    def drop_messages(self, src: str = "*", dst: str = "*", start: int = 0,
                      count: Optional[int] = 1) -> "FaultPlan":
        self.message_rules.append(
            MessageRule(src, dst, start, count, action="drop"))
        return self

    def delay_messages(self, delay: float, src: str = "*", dst: str = "*",
                       start: int = 0, count: Optional[int] = 1) -> "FaultPlan":
        self.message_rules.append(
            MessageRule(src, dst, start, count, action="delay", delay=delay))
        return self

    def arm(self) -> None:
        self.armed = True

    def disarm(self) -> None:
        self.armed = False

    # -- observability ---------------------------------------------------------

    def attach(self, sim) -> None:
        """Bind fault counters into the sim-wide metrics registry."""
        from ..obs import Observability

        self._sim = sim
        m = Observability.of(sim).metrics.scope("faults")
        self._metrics = {
            "crashes": m.counter("crashes"),
            "transient": m.counter("transient"),
            "batch_partial": m.counter("batch_partial"),
            "msg_dropped": m.counter("msg_dropped"),
            "msg_delayed": m.counter("msg_delayed"),
        }

    def _count(self, what: str) -> None:
        if self._metrics is not None:
            self._metrics[what].inc()

    def _record(self, kind: str, **fields) -> None:
        """Feed the flight recorder, when one is installed on the sim."""
        sim = self._sim
        if sim is not None:
            rec = sim._recorder
            if rec is not None:
                rec.record(kind, **fields)

    # -- hooks (called from the wrappers) ---------------------------------------

    def _fire_crash(self, kind: str, key: str) -> None:
        self.crashed = True
        self._count("crashes")
        self._record("fault.crash", victim=self.crash_victim,
                     at_op=self.victim_ops, op=kind, key=key)
        if self.crash_handler is not None:
            self.crash_handler()

    def _transient(self, kind: str, key: str, why: str) -> None:
        self._count("transient")
        self._record("fault.transient", op=kind, key=key, why=why)
        raise TransientError(f"injected transient on {kind} {key!r} ({why})")

    def before_op(self, kind: str, key: str, src) -> None:
        """Consulted before every store operation; may raise.

        Raising here means the operation was *not* applied — transient
        errors and crashes both happen strictly between operations, which is
        what makes crash indices well-defined."""
        if not self.armed:
            return
        # A dead machine cannot reach the store: in-flight coroutines of a
        # crashed client (parallel batch legs, background threads) die at
        # their next store op instead of mutating state post-mortem.
        if src is not None and not src.alive:
            raise InjectedCrash(
                f"store {kind} {key!r} from crashed node {src.name}")
        i = self.ops_seen
        self.ops_seen += 1
        if src is not None and src.name == self.crash_victim:
            self.victim_ops += 1
            if (self.crash_at_op is not None and not self.crashed
                    and self.victim_ops >= self.crash_at_op):
                self._fire_crash(kind, key)
                raise InjectedCrash(
                    f"{self.crash_victim} killed at store op "
                    f"#{self.victim_ops} ({kind} {key!r})")
        if self.transient_window is not None:
            lo, hi = self.transient_window
            if lo <= i < hi:
                self._transient(kind, key, f"op window [{lo},{hi})")
        if self.transient_every is not None and i and i % self.transient_every == 0:
            self._transient(kind, key, f"every {self.transient_every}th op")
        if self.flaky_keys:
            for sub, left in self.flaky_keys.items():
                if left > 0 and sub in key:
                    self.flaky_keys[sub] = left - 1
                    self._transient(kind, key, f"flaky key {sub!r}")

    def before_batch_put(self, n_items: int, src) -> Optional[int]:
        """Returns how many items of this batch to apply before failing,
        or None for no batch-level fault."""
        if not self.armed:
            return None
        self.batches_seen += 1
        if (self.batch_put_fail_at is not None
                and self.batches_seen == self.batch_put_fail_at):
            self._count("batch_partial")
            applied = min(self.batch_put_apply, n_items)
            self._record("fault.batch_partial", batch=self.batches_seen,
                         applied=applied, items=n_items)
            return applied
        return None

    def on_message(self, src_name: str, dst_name: str,
                   size: int) -> Optional[Tuple[str, float]]:
        """Consulted by Network.send; returns ("drop"|"delay", delay) or None."""
        if not self.armed:
            return None
        for rule in self.message_rules:
            act = rule.matches(src_name, dst_name)
            if act is not None:
                self._count("msg_dropped" if act[0] == "drop" else "msg_delayed")
                self._record("fault.msg_" + act[0], src=src_name,
                             dst=dst_name, delay=act[1])
                return act
        return None

    # -- decision-record audit ---------------------------------------------------

    def note_put(self, key: str, data: bytes, created: bool) -> None:
        """Record writes to 2PC decision records (``t...`` keys).

        ``created`` is False for a put_if_absent that lost the race (no
        mutation happened)."""
        if key[:1] != "t" or not created:
            return
        old = self.decision_values.get(key)
        if old is not None and old != bytes(data):
            self.violations.append(
                f"decision record {key} overwritten: "
                f"{old!r} -> {bytes(data)!r}")
        elif old is None and key in self.retired_decisions:
            self.violations.append(
                f"decision record {key} re-created after deletion")
        self.decision_values[key] = bytes(data)

    def note_delete(self, key: str) -> None:
        if key[:1] != "t":
            return
        if self.decision_values.pop(key, None) is not None:
            self.retired_decisions.add(key)
