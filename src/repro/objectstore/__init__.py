"""Object-storage substrate: the flat KV layer every file system here runs on.

* :class:`InMemoryObjectStore` — zero-latency functional reference.
* :class:`ClusterObjectStore` — sharded OSD cluster with a queueing cost
  model, parameterized by :class:`StoreProfile` (RADOS-like or S3-like).
* :class:`LocalDisk` — block-device model (EBS) for staging volumes.
* :class:`TieredObjectStore` / :class:`RetryingObjectStore` — layers over
  the same surface: hot/cold tiering, and the SDK's bounded-backoff retry.
"""

from .base import ObjectStore
from .cluster import ClusterObjectStore, LocalDisk
from .errors import NoSuchKey, ObjectStoreError, StoreUnavailable
from .memory import InMemoryObjectStore
from .rest import RestAPIRegistry, RestObjectStore
from .retrying import RetryingObjectStore
from .tiered import TieredObjectStore
from .profiles import (
    EBS_GP_1GBS,
    EBS_SLOW_CACHE,
    GiB,
    KiB,
    MiB,
    RADOS_EC_PROFILE,
    RADOS_PROFILE,
    S3_COLD_PROFILE,
    S3_PROFILE,
    DiskProfile,
    StoreProfile,
)

__all__ = [
    "ClusterObjectStore",
    "DiskProfile",
    "EBS_GP_1GBS",
    "EBS_SLOW_CACHE",
    "GiB",
    "InMemoryObjectStore",
    "KiB",
    "LocalDisk",
    "MiB",
    "NoSuchKey",
    "ObjectStore",
    "ObjectStoreError",
    "RADOS_EC_PROFILE",
    "RADOS_PROFILE",
    "RestAPIRegistry",
    "RestObjectStore",
    "RetryingObjectStore",
    "S3_COLD_PROFILE",
    "S3_PROFILE",
    "StoreProfile",
    "StoreUnavailable",
    "TieredObjectStore",
]
