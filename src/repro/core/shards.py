"""Hash-ranged directory shards (the elastic metadata plane).

A directory whose dentry count crosses ``shard_split_threshold`` is split
into ``shard_fanout`` *sub-shards*. Each shard is an ordinary directory to
the rest of the stack — it has its own ino, its own ``e<shard>/`` dentry
range, its own journal stream and its own lease — but it has no inode
object of its own: the parent's inode stays the directory's identity, and
a small *shard map* object (``s<parent>``) records how the name space is
partitioned.

Names route by ``crc32(name)`` over the full 32-bit hash space, which the
map divides into contiguous ``[lo, hi)`` ranges, one per shard. The map is
a total partition: every name routes to exactly one shard.

The split is a journaled two-phase protocol whose commit point is a single
atomic PUT:

1. flush the parent's journal (store == metatable), then PUT the map in
   state ``"splitting"`` — the parent range is still the only authority;
2. copy every dentry to its shard's range (batched PUTs), delete the
   parent-range dentries;
3. PUT the map in state ``"active"`` — this is the commit point; from here
   the shards are authoritative and the parent range is retired.

A crash anywhere in between leaves either no map (parent authoritative,
nothing happened) or a ``"splitting"`` map (parent authoritative; the next
leader *rolls the split forward* — every step is idempotent) or an
``"active"`` map (shards authoritative; leftover parent-range dentries are
impossible because they are deleted before activation). There is exactly
one authoritative layout at every crash point, which
``repro.faults.crashcheck``'s ``shard_split`` workload enumerates.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import List, Tuple

from .types import compact_json, ino_hex

__all__ = ["HASH_SPACE", "ShardRange", "ShardMap", "name_hash",
           "make_ranges"]

#: Names hash into ``[0, HASH_SPACE)`` via crc32.
HASH_SPACE = 1 << 32


def name_hash(name: str) -> int:
    return zlib.crc32(name.encode("utf-8", "surrogatepass"))


def make_ranges(fanout: int) -> List[Tuple[int, int]]:
    """Split the hash space into ``fanout`` contiguous ``[lo, hi)`` ranges."""
    if fanout < 2:
        raise ValueError("shard fanout must be at least 2")
    step = HASH_SPACE // fanout
    bounds = [i * step for i in range(fanout)] + [HASH_SPACE]
    return [(bounds[i], bounds[i + 1]) for i in range(fanout)]


@dataclass(frozen=True)
class ShardRange:
    """One shard: the ino whose ``e<ino>/`` range holds names hashing
    into ``[lo, hi)``."""

    ino: int
    lo: int
    hi: int

    def covers(self, h: int) -> bool:
        return self.lo <= h < self.hi


class ShardMap:
    """The persisted partition of one sharded directory (``s<parent>``)."""

    __slots__ = ("dir_ino", "state", "shards")

    SPLITTING = "splitting"
    ACTIVE = "active"

    def __init__(self, dir_ino: int, state: str, shards: List[ShardRange]):
        if state not in (self.SPLITTING, self.ACTIVE):
            raise ValueError(f"unknown shard-map state {state!r}")
        ordered = sorted(shards, key=lambda r: r.lo)
        if not ordered or ordered[0].lo != 0 or ordered[-1].hi != HASH_SPACE:
            raise ValueError("shard ranges must cover the hash space")
        for a, b in zip(ordered, ordered[1:]):
            if a.hi != b.lo:
                raise ValueError("shard ranges must be contiguous")
        self.dir_ino = dir_ino
        self.state = state
        self.shards = ordered

    @property
    def active(self) -> bool:
        return self.state == self.ACTIVE

    def shard_for_hash(self, h: int) -> ShardRange:
        for r in self.shards:
            if r.covers(h):
                return r
        raise AssertionError("total partition violated")  # unreachable

    def route(self, name: str) -> int:
        """The ino of the shard authoritative for ``name``."""
        return self.shard_for_hash(name_hash(name)).ino

    def shard_inos(self) -> List[int]:
        return [r.ino for r in self.shards]

    def home_ino(self) -> int:
        """The designated shard that owns the parent *inode* updates
        (setattr on the directory itself, getattr_dir): the one covering
        hash 0. Serializing those at one shard keeps the parent inode a
        single-writer object."""
        return self.shards[0].ino

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        return compact_json({
            "dir": ino_hex(self.dir_ino),
            "state": self.state,
            "shards": [[ino_hex(r.ino), r.lo, r.hi] for r in self.shards],
        }).encode()

    @classmethod
    def from_bytes(cls, raw: bytes) -> "ShardMap":
        d = json.loads(raw)
        return cls(dir_ino=int(d["dir"], 16), state=d["state"],
                   shards=[ShardRange(int(s[0], 16), int(s[1]), int(s[2]))
                           for s in d["shards"]])

    def with_state(self, state: str) -> "ShardMap":
        return ShardMap(self.dir_ino, state, self.shards)
