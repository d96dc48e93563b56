"""All ArkFS tunables in one place.

Defaults follow the paper where it states a value (5 s lease period, 2 MB
cache entries, 8 MB max read-ahead matching CephFS, 1 s in-memory
transaction buffering); the CPU service costs are this reproduction's
calibration knobs (see EXPERIMENTS.md for the calibration story).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["ArkFSParams", "DEFAULT_PARAMS"]

KiB = 1024
MiB = 1024 * KiB


@dataclass(frozen=True)
class ArkFSParams:
    # --- lease management (Section III-B) ---------------------------------
    lease_period: float = 5.0        # seconds a metatable lease is valid
    lease_renew_margin: float = 1.0  # renew when this close to expiry
    lease_retry_delay: float = 0.05  # wait before retrying a blocked acquire

    # --- per-directory journaling (Section III-E) --------------------------
    journal_commit_interval: float = 1.0   # compound-transaction buffering;
                                           # 0 = commit synchronously per op
                                           # (ablation A2: no compounding)
    n_commit_threads: int = 4              # journals statically mapped by ino
    single_journal: bool = False           # ablation A1: one global journal
                                           # instead of per-directory ones
                                           # (breaks per-dir recovery; for
                                           # benchmarking only)

    # --- data object cache (Section III-D) ---------------------------------
    data_object_size: int = 2 * MiB        # PRT chunking == cache entry size
    cache_capacity_bytes: int = 256 * MiB  # per-client object cache
    max_readahead: int = 8 * MiB           # default, same as CephFS
    file_lease_period: float = 5.0         # read/write lease on file data

    # --- parallel I/O fan-out (scatter-gather data path) --------------------
    fetch_parallel: int = 16               # concurrent demand-read GETs per
                                           # request (1 = serial ablation)
    writeback_parallel: int = 8            # concurrent flusher-thread PUTs

    # --- permission caching mode (Section III-C) ----------------------------
    permission_cache: bool = True          # ArkFS-pcache vs ArkFS-no-pcache

    # --- packed small-file containers (archiving / Table 2) -----------------
    pack_enabled: bool = False             # off by default: runs stay
                                           # structurally identical to a build
                                           # without the pack subsystem
    pack_threshold: int = 256 * KiB        # chunks smaller than this are
                                           # appended to a container object
                                           # instead of PUT individually
    pack_target_size: int = 8 * MiB        # seal the open container once it
                                           # reaches this many bytes
    pack_seal_age: float = 1.0             # ... or once its oldest byte is
                                           # this old (seconds)
    pack_compact_live_ratio: float = 0.5   # rewrite a sealed container when
                                           # live/total drops below this

    # --- elastic metadata plane: directory sharding -------------------------
    shards_enabled: bool = False           # off by default: runs stay
                                           # structurally identical to a build
                                           # without the shard subsystem
    shard_split_threshold: int = 4096      # split a directory once its dentry
                                           # count crosses this
    shard_fanout: int = 4                  # hash-ranged sub-shards per split

    # --- hot/cold tiered object store ---------------------------------------
    tier_enabled: bool = False             # off by default: runs stay
                                           # structurally identical to a build
                                           # without the tier subsystem
    tier_hot_capacity: int = 64 * MiB      # fast-tier resident-byte budget
    tier_high_watermark: float = 0.9       # demote once hot bytes exceed
                                           # high * capacity ...
    tier_low_watermark: float = 0.7        # ... down to low * capacity
    tier_dirty_max: int = 32 * MiB         # staged-not-drained byte bound;
                                           # writers wait for the drain (never
                                           # for demotion) beyond this
    tier_drain_interval: float = 0.5       # background drain ticker period
    tier_drain_batch: int = 32             # objects per drain batch
    tier_promote_max: int = 8 * MiB        # promote whole objects up to this
                                           # size; larger ones (pack
                                           # containers) serve range GETs cold

    # --- multi-tenant QoS plane ---------------------------------------------
    qos_enabled: bool = False              # off by default: runs stay
                                           # structurally identical to a build
                                           # without the QoS subsystem
    qos_default_weight: float = 1.0        # WFQ weight for unregistered tenants
    qos_ops_rate: float = 2000.0           # per-tenant metadata ops/s
    qos_ops_burst: float = 64.0            # ... with this much burst credit
    qos_bytes_rate: float = 256 * MiB      # per-tenant data bytes/s
    qos_bytes_burst: float = 16 * MiB
    qos_max_inflight: int = 32             # admission control: concurrent
                                           # admitted ops per tenant; overflow
                                           # is EAGAIN (TenantBusy) + retry

    # --- transient-failure handling (client-side store SDK behavior) --------
    store_retry_limit: int = 6             # retries per op before giving up
    store_retry_base: float = 1e-3         # first backoff; doubles per retry
    store_retry_cap: float = 0.064         # backoff ceiling (bounded expo)

    # --- client-side CPU service costs (calibration) -------------------------
    md_op_cpu: float = 8e-6       # one local metadata operation on a metatable
    lookup_cpu: float = 2e-6      # one local component resolution
    journal_entry_cpu: float = 1e-6   # appending one op to the running txn
    cache_copy_bw: float = 8e9    # bytes/sec memcpy into/out of the cache
    rpc_handler_cpu: float = 4e-6     # leader-side work per forwarded op

    # --- lease manager -----------------------------------------------------------
    lease_op_cpu: float = 2e-6    # "acquiring/extending a lease is very
                                  # lightweight" (Section III-B)

    # --- misc -----------------------------------------------------------------
    symlink_max_follow: int = 40  # ELOOP bound, as in Linux

    def with_(self, **kw) -> "ArkFSParams":
        """A copy with some fields replaced (e.g. ``with_(max_readahead=400*MiB)``)."""
        return replace(self, **kw)


DEFAULT_PARAMS = ArkFSParams()
