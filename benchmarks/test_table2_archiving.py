"""Table II — tar archiving/unarchiving scenarios.

Paper (32 procs, MS-COCO from a 1 GB/s EBS volume):

                Archiving   Unarchiving
    CephFS-F     2016.86 s    1791.24 s
    CephFS-K      450.28 s     837.35 s
    ArkFS         297.64 s     475.93 s
    Speed-up   6.78x/1.51x   3.76x/1.76x

The improvement over CephFS-K is modest because EBS bandwidth takes a
nontrivial share of the elapsed time — a property our reproduction shares.
"""

import pytest

from repro.bench import table2_archiving, format_table

#: Exact at SMALL: root VFS ops per configuration, and ArkFS's journal
#: commits and cache flushes summed over its clients.
PINS = {
    "arkfs": {"obs.root_ops": 9890, "*.journal.commits": 47,
              "*.cache.flushes": 1240},
    "cephfs-k": {"obs.root_ops": 9890},
    "cephfs-f": {"obs.root_ops": 9890},
}


@pytest.mark.figure("table2")
def test_table2_archiving(bench_once, scale):
    rows = bench_once(table2_archiving, scale)
    print()
    print(format_table("Table II — elapsed seconds (simulated)", rows,
                       unit="s", fmt="{:>14.2f}"))
    for phase in ("Archiving", "Unarchiving"):
        f_ratio = rows["cephfs-f"][phase] / rows["arkfs"][phase]
        k_ratio = rows["cephfs-k"][phase] / rows["arkfs"][phase]
        print(f"{phase:>12}: ArkFS {f_ratio:.2f}x vs CephFS-F "
              f"(paper {'6.78' if phase == 'Archiving' else '3.76'}x), "
              f"{k_ratio:.2f}x vs CephFS-K "
              f"(paper {'1.51' if phase == 'Archiving' else '1.76'}x)")

    for phase in ("Archiving", "Unarchiving"):
        # Ordering: ArkFS fastest, CephFS-F slowest.
        assert rows["arkfs"][phase] < rows["cephfs-k"][phase]
        assert rows["cephfs-k"][phase] < rows["cephfs-f"][phase]
        # The CephFS-K margin stays modest (EBS-bound), as the paper notes.
        assert rows["cephfs-k"][phase] / rows["arkfs"][phase] < 2.5
        # The CephFS-F margin is large.
        assert rows["cephfs-f"][phase] / rows["arkfs"][phase] > 1.5
    bench_once.pin(PINS, scale)
