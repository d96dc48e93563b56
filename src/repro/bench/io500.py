"""IO500-style combined scoring.

The paper takes its mdtest configurations from IO500 [27]; this module
completes the picture with the benchmark's scoring method: the final score
is the geometric mean of a bandwidth score (GiB/s over the ior-easy/hard-
style phases — our fio workload stands in) and a metadata score (kIOPS over
the mdtest-easy/hard phases).

Not a paper figure — a convenience for comparing configurations with one
number (``python -m repro.bench io500``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Sequence

from ..sim.engine import Simulator
from ..workloads import fio_seq, mdtest_easy, mdtest_hard
from .harness import DEFAULT, NET_50G, Scale, build

__all__ = ["IO500Result", "io500_run", "io500_table"]

GiB = 1024 ** 3


def _geomean(vals: Sequence[float]) -> float:
    """Geometric mean of positive values (0.0 for none)."""
    return statistics.geometric_mean(vals) if vals else 0.0


@dataclass
class IO500Result:
    """Scores for one file-system configuration."""

    kind: str
    bw_phases: Dict[str, float]      # GiB/s per bandwidth phase
    md_phases: Dict[str, float]      # kIOPS per metadata phase

    @property
    def bw_score(self) -> float:
        return _geomean([v for v in self.bw_phases.values() if v > 0])

    @property
    def md_score(self) -> float:
        return _geomean([v for v in self.md_phases.values() if v > 0])

    @property
    def score(self) -> float:
        if self.bw_score <= 0 or self.md_score <= 0:
            return 0.0
        return math.sqrt(self.bw_score * self.md_score)


def io500_run(kind: str, scale: Scale = DEFAULT) -> IO500Result:
    """Run the bandwidth + metadata phases for one configuration."""
    # Bandwidth: the fio sequential workload (ior-easy stand-in).
    sim = Simulator()
    _c, mounts = build(kind, sim, n_clients=scale.fio_nodes, net=NET_50G)
    fio = fio_seq(sim, mounts, n_procs=scale.fio_procs,
                  file_size=scale.fio_file, block_size=scale.fio_block)
    bw = {
        "write": fio.write_mbps * 1e6 / GiB,
        "read": fio.read_mbps * 1e6 / GiB,
    }

    # Metadata: mdtest-easy + mdtest-hard, fresh cluster each.
    sim = Simulator()
    _c, mounts = build(kind, sim, n_clients=scale.mdtest_nodes, net=NET_50G)
    easy = mdtest_easy(sim, mounts, n_procs=scale.mdtest_procs,
                       files_per_proc=scale.easy_files_per_proc)
    sim = Simulator()
    _c, mounts = build(kind, sim, n_clients=scale.mdtest_nodes, net=NET_50G)
    hard = mdtest_hard(sim, mounts, n_procs=scale.mdtest_procs,
                       files_per_proc=scale.hard_files_per_proc,
                       n_dirs=scale.hard_dirs)
    md = {f"easy-{k.lower()}": v / 1e3 for k, v in easy.phases.items()}
    md.update({f"hard-{k.lower()}": v / 1e3 for k, v in hard.phases.items()})
    return IO500Result(kind=kind, bw_phases=bw, md_phases=md)


def io500_table(kinds: Sequence[str] = ("arkfs", "cephfs-k", "cephfs-f"),
                scale: Scale = DEFAULT) -> str:
    """Run and render a comparison table."""
    from .report import LABELS

    results = [io500_run(kind, scale) for kind in kinds]
    width = max(len(LABELS.get(r.kind, r.kind)) for r in results) + 2
    lines = [f"{'':{width}}{'BW (GiB/s)':>12}{'MD (kIOPS)':>12}"
             f"{'SCORE':>10}"]
    for r in results:
        lines.append(f"{LABELS.get(r.kind, r.kind):<{width}}"
                     f"{r.bw_score:>12.2f}{r.md_score:>12.1f}"
                     f"{r.score:>10.2f}")
    return "\n".join(lines)
