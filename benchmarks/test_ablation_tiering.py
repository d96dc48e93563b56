"""Ablation A10 — hot/cold tiered object store (write-back staging,
demand promotion, lifecycle demotion).

The archival scenario the paper motivates (ingest once, read back later)
is hostile to a single capacity tier: every aged read pays the cold
store's first-byte latency. ``arkfs-tier`` fronts the same cold-S3
profile with a capacity-bounded RADOS-like hot tier — writes land hot
and drain in the background, aged reads promote on first miss and hit
hot on every re-read. The acceptance gate is a >= 2x aged-read latency
improvement over the single-tier ``arkfs-cold`` baseline, with the hit
rate and cold GET-byte savings printed; the tier's hit, promotion and
demotion counts are pinned at SMALL.
"""

import pytest

from repro.bench.tiering import (REREADS, format_tier_report, tier_ablation)

#: Exact at SMALL. The ablation drives clients directly, not through a
#: mount, so neither run serves a root VFS op.
PINS = {
    "arkfs-cold": {"obs.root_ops": 0},
    "arkfs-tier": {"obs.root_ops": 0, "tier.hits": 1720,
                   "tier.promotions": 332, "tier.demotions": 574},
}


@pytest.mark.figure("ablation-A10")
def test_tiering_speeds_up_aged_reads(bench_once, scale):
    """Acceptance criterion: tiered aged reads >= 2x single-tier cold."""

    results = bench_once(tier_ablation, scale)
    cold = results["arkfs-cold"]
    tier = results["arkfs-tier"]
    print("\n" + format_tier_report(results))

    speedup = cold["read_mean"] / tier["read_mean"]
    stats = tier["tier"]
    assert cold["tier"] is None, \
        "single-tier baseline must not construct a tier"
    assert stats is not None
    assert speedup >= 2.0, f"tiering speedup {speedup:.2f}x < 2x"
    # The read mix makes REREADS passes; pass one is the promotion misses,
    # the rest should be absorbed hot. Demand a clear majority of hits.
    assert tier["hit_rate"] >= (REREADS - 2) / REREADS, \
        f"hot hit rate {tier['hit_rate']:.2%} too low"
    assert stats["promotions"] > 0, "aged reads must demand-promote"
    assert stats["demotions"] > 0, \
        "ingest beyond hot capacity must trigger lifecycle demotion"
    # Cold GET-byte savings: the hot tier must serve more bytes than the
    # cold store does during the aged mix.
    assert stats["hit_bytes"] > stats["cold_get_bytes"], \
        "hot tier served fewer bytes than cold during the read mix"
    assert tier["cold_cost_saved"] > 0.0
    # Write-back staging must not slow ingest below the cold baseline.
    assert tier["ingest_rate"] >= cold["ingest_rate"], \
        "staged writes should not be slower than single-tier cold ingest"
    bench_once.pin(PINS, scale)
