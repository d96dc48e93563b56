"""Benchmark harness: one reproduction entry point per paper figure/table."""

from .figures import (
    fig1_mds_scalability,
    fig4_mdtest_easy,
    fig5_mdtest_hard,
    fig6a_fio_rados,
    fig6b_fio_s3,
    fig7_arkfs_scalability,
    table2_archiving,
)
from .io500 import IO500Result, io500_run, io500_table
from .harness import (
    BENCH_OBS,
    DEFAULT,
    FS_KINDS,
    NET_10G,
    NET_50G,
    SMALL,
    Scale,
    build,
)
from .tiering import format_tier_report, tier_ablation, tier_aged_read
from .report import (
    format_attribution_merged,
    format_fanout,
    format_series,
    format_slowlog,
    format_speedups,
    format_table,
)

__all__ = [
    "BENCH_OBS",
    "DEFAULT",
    "FS_KINDS",
    "NET_10G",
    "NET_50G",
    "SMALL",
    "Scale",
    "build",
    "fig1_mds_scalability",
    "fig4_mdtest_easy",
    "fig5_mdtest_hard",
    "fig6a_fio_rados",
    "fig6b_fio_s3",
    "fig7_arkfs_scalability",
    "IO500Result",
    "format_attribution_merged",
    "format_fanout",
    "format_series",
    "format_slowlog",
    "format_speedups",
    "format_table",
    "format_tier_report",
    "tier_ablation",
    "tier_aged_read",
    "io500_run",
    "io500_table",
    "table2_archiving",
]
