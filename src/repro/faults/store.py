"""An object-store wrapper that injects the faults a :class:`FaultPlan` asks for.

``build_arkfs(faults=plan)`` installs it around whichever backend the
cluster uses (each tier's, when tiered), so every store operation of every
client flows through :meth:`FaultPlan.before_op` — which is what makes "the
Nth store operation" a well-defined, replayable crash point. Directly above
it rides the :class:`~repro.objectstore.retrying.RetryingObjectStore` that
absorbs the transients injected here; a retried verb passes through
``before_op`` again, so each attempt is a store operation of its own.

Batched operations are decomposed into per-item operations here (each item
consults the plan, then hits the backend individually), so a crash point
can land *between* the items of a scatter-gather batch — exactly the
non-atomicity a real batch PUT against S3/RADOS exposes.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..objectstore.base import ObjectStore
from ..objectstore.errors import TransientError
from ..sim.engine import SimGen
from ..sim.network import Node
from .plan import FaultPlan

__all__ = ["FaultyObjectStore"]


class FaultyObjectStore(ObjectStore):
    """Wraps any :class:`ObjectStore`, consulting a plan before every op.

    Adds no simulation events of its own: a plan that injects nothing
    leaves event order and timing identical to the bare backend (batched
    ops excepted — see module docstring — which is why bit-identical
    no-fault runs simply omit the wrapper)."""

    def __init__(self, inner: ObjectStore, plan: FaultPlan):
        self.inner = inner
        self.sim = inner.sim
        self.plan = plan

    def __getattr__(self, name):
        # sync_* helpers, usage(), op_counts, osds, ... delegate untouched.
        return getattr(self.inner, name)

    def __contains__(self, key: str) -> bool:
        return key in self.inner

    def __len__(self) -> int:
        return len(self.inner)

    # -- single-key operations ------------------------------------------------

    def get(self, key: str, src: Optional[Node] = None) -> SimGen:
        self.plan.before_op("get", key, src)
        return (yield from self.inner.get(key, src=src))

    def get_range(self, key: str, offset: int, length: int,
                  src: Optional[Node] = None) -> SimGen:
        self.plan.before_op("get", key, src)
        return (yield from self.inner.get_range(key, offset, length, src=src))

    def put(self, key: str, data: bytes, src: Optional[Node] = None) -> SimGen:
        self.plan.before_op("put", key, src)
        yield from self.inner.put(key, data, src=src)
        self.plan.note_put(key, data, created=True)

    def delete(self, key: str, src: Optional[Node] = None) -> SimGen:
        self.plan.before_op("delete", key, src)
        yield from self.inner.delete(key, src=src)
        self.plan.note_delete(key)

    def head(self, key: str, src: Optional[Node] = None) -> SimGen:
        self.plan.before_op("head", key, src)
        return (yield from self.inner.head(key, src=src))

    def list(self, prefix: str, src: Optional[Node] = None) -> SimGen:
        self.plan.before_op("list", prefix, src)
        return (yield from self.inner.list(prefix, src=src))

    def put_if_absent(self, key: str, data: bytes,
                      src: Optional[Node] = None) -> SimGen:
        self.plan.before_op("put", key, src)
        created = yield from self.inner.put_if_absent(key, data, src=src)
        self.plan.note_put(key, data, created=created)
        return created

    # -- batched operations ----------------------------------------------------
    #
    # Decomposed per item through our own single-op wrappers (the base-class
    # defaults fan them out as concurrent processes), so per-op faults apply
    # inside batches and partial batch application is expressible.

    def put_many(self, items: Sequence[Tuple[str, bytes]],
                 src: Optional[Node] = None) -> SimGen:
        partial = self.plan.before_batch_put(len(items), src)
        if partial is not None:
            # Non-atomic batch PUT: a prefix of the items lands, the rest
            # don't, and the caller sees a retryable failure. Re-putting the
            # whole batch is idempotent, so the retry layer above converges.
            for key, data in items[:partial]:
                yield from self.put(key, data, src=src)
            raise TransientError(
                f"injected batch PUT failure: {partial}/{len(items)} "
                f"items applied")
        yield from ObjectStore.put_many(self, items, src=src)

    # get_many / delete_many / exists / delete_prefix inherit the base-class
    # bodies, which route through our wrapped get()/delete()/head()/list().
