"""The store SDK's bounded-backoff retry, as one :class:`ObjectStore` layer.

Installed by the cluster builder directly above whatever can raise
:class:`~repro.objectstore.errors.TransientError` — each fault shim, or a
caller-supplied backend — so everything above it (tier, PRT, journal, cache,
pack, client) calls plain store verbs and never sees a transient that the
retry budget could absorb. Every verb is idempotent under blind retry: PUTs
carry full state, an injected transient means the op did *not* apply, and
the batched verbs settle every item before raising (see ``base.py``), so a
whole-batch retry converges. A success adds no simulation events.
"""

from __future__ import annotations

from .base import ObjectStore

__all__ = ["RetryingObjectStore"]


def _retried(verb: str):
    def method(self, *args, **kwargs):
        op = getattr(self.inner, verb)
        return self._call(lambda: op(*args, **kwargs))
    method.__name__ = verb
    return method


class RetryingObjectStore(ObjectStore):
    """Runs every verb of ``inner`` under ``policy`` (a
    :class:`~repro.core.retry.RetryPolicy`); everything else — ``sync_*``
    helpers, ``usage()``, ``plan`` — delegates untouched."""

    def __init__(self, inner: ObjectStore, policy):
        self.inner = inner
        self.sim = inner.sim
        self._call = policy.call

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __contains__(self, key: str) -> bool:
        return key in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    get = _retried("get")
    get_range = _retried("get_range")
    put = _retried("put")
    delete = _retried("delete")
    head = _retried("head")
    list = _retried("list")
    put_if_absent = _retried("put_if_absent")
    # Batched verbs go to the inner batched verbs whole (one retry ladder
    # per batch), not through the base-class per-key fan-out.
    get_many = _retried("get_many")
    put_many = _retried("put_many")
    delete_many = _retried("delete_many")
    # exists / delete_prefix: the base bodies, over the retried verbs above.
