"""Bounded exponential backoff for retryable storage / transport failures.

Object stores fail transiently (S3 503 SlowDown, RADOS EAGAIN); a real
client SDK absorbs those with capped exponential backoff. A cluster has one
:class:`RetryPolicy` (``ArkFSParams.store_retry_*``, read once in
``build_arkfs``) and it is applied in exactly two places:

* **Store verbs** — by :class:`~repro.objectstore.retrying.RetryingObjectStore`,
  a store layer the builder installs directly above whatever can raise
  :class:`~repro.objectstore.errors.TransientError` (each fault shim, a
  caller-supplied backend). Nothing above that layer wraps a store call:
  journal, cache, pack, PRT, tier and client call plain verbs, so a path
  cannot forget the wrapper, and a transient costs backoff time instead of
  killing a background thread or leaking out of a VFS call.
* **What is not a store verb** — by the client itself: lease RPCs that a
  fault plan dropped (``MessageDropped``), its QoS layer's admission
  (``TenantBusy``), and :meth:`RetryPolicy.note_retry` for the whole-op
  redispatch that follows a verb exhausting its budget.

Retries are observable: every retry increments ``store.retry.attempts`` and
records the backoff slept in the ``store.retry.backoff`` histogram (one
registry-wide pair, so BENCH output shows the aggregate when faults are
enabled). A success adds zero simulation events, and a fault-free build on
a built-in backend has no retry layer at all — no-fault runs stay
bit-identical.
"""

from __future__ import annotations

from typing import Callable, Tuple, Type

from ..objectstore.errors import TransientError
from ..sim.engine import SimGen, Simulator

__all__ = ["RetryPolicy"]


class RetryPolicy:
    """Retry a coroutine factory on selected exceptions, backing off
    ``base, 2*base, 4*base, ...`` capped at ``cap``, at most ``limit``
    retries (so ``limit + 1`` attempts total) — then re-raise."""

    __slots__ = ("sim", "limit", "base", "cap",
                 "_c_attempts", "_c_giveups", "_h_backoff")

    def __init__(self, sim: Simulator, limit: int = 6, base: float = 1e-3,
                 cap: float = 0.064):
        self.sim = sim
        self.limit = limit
        self.base = base
        self.cap = cap
        from ..obs import Observability

        m = Observability.of(sim).metrics.scope("store.retry")
        self._c_attempts = m.counter("attempts")
        self._c_giveups = m.counter("giveups")
        self._h_backoff = m.histogram("backoff")

    @classmethod
    def from_params(cls, sim: Simulator, params) -> "RetryPolicy":
        return cls(sim, limit=params.store_retry_limit,
                   base=params.store_retry_base, cap=params.store_retry_cap)

    def note_retry(self, delay: float) -> None:
        """Count a retry performed by an external loop (e.g. the client's
        whole-op redispatch on TransientError) in the shared metrics."""
        self._c_attempts.inc()
        self._h_backoff.observe(delay)
        rec = self.sim._recorder
        if rec is not None:
            rec.record("store.retry", delay=delay)

    def call(self, factory: Callable[[], SimGen],
             retry_on: Tuple[Type[BaseException], ...] = (TransientError,)
             ) -> SimGen:
        """Run ``factory()`` (a fresh coroutine per attempt) to completion.

        The factory must be idempotent: store verbs qualify (PUTs carry
        full state, an injected transient means the op did not apply,
        batches settle every item before raising), which is what makes
        blind retry safe."""
        delay = self.base
        for attempt in range(self.limit + 1):
            try:
                return (yield from factory())
            except retry_on:
                rec = self.sim._recorder
                if attempt >= self.limit:
                    self._c_giveups.inc()
                    if rec is not None:
                        rec.record("store.retry.giveup", attempts=attempt + 1)
                    raise
                self._c_attempts.inc()
                self._h_backoff.observe(delay)
                if rec is not None:
                    rec.record("store.retry", attempt=attempt + 1, delay=delay)
                yield self.sim.timeout(delay)
                delay = min(delay * 2.0, self.cap)
        raise AssertionError("unreachable")
