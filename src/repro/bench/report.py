"""Text rendering of the reproduced tables and figure series."""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence

from ..obs import format_attribution

__all__ = ["format_table", "format_series", "format_speedups",
           "format_fanout", "merge_attributions",
           "format_attribution_merged", "format_slowlog"]

LABELS = {
    "arkfs": "ArkFS",
    "arkfs-no-pcache": "ArkFS-no-pcache",
    "arkfs-s3": "ArkFS-ra8MB",
    "arkfs-s3-ra400": "ArkFS-ra400MB",
    "cephfs-k": "CephFS-K (1 MDS)",
    "cephfs-k16": "CephFS-K (16 MDS)",
    "cephfs-f": "CephFS-F",
    "marfs": "MarFS",
    "s3fs": "S3FS",
    "goofys": "goofys",
}


def _label(kind: str) -> str:
    return LABELS.get(kind, kind)


def format_table(title: str, rows: Mapping[str, Mapping[str, float]],
                 unit: str = "", fmt: str = "{:>14.1f}") -> str:
    """Render ``{fs: {column: value}}`` as an aligned text table."""
    columns: list = []
    for row in rows.values():
        for col in row:
            if col not in columns:
                columns.append(col)
    width = max(len(_label(k)) for k in rows) + 2
    out = [title + (f"  [{unit}]" if unit else "")]
    out.append(" " * width + "".join(f"{c:>15}" for c in columns))
    for kind, row in rows.items():
        cells = "".join(
            fmt.format(row[c]) + " " if c in row else " " * 15
            for c in columns
        )
        out.append(f"{_label(kind):<{width}}" + cells)
    return "\n".join(out)


def format_series(title: str, series: Mapping[str, Mapping[int, float]],
                  x_label: str = "clients") -> str:
    """Render ``{fs: {x: y}}`` scalability curves as a text table."""
    xs = sorted({x for s in series.values() for x in s})
    width = max(len(_label(k)) for k in series) + 2
    out = [title]
    out.append(" " * width + "".join(f"{x:>10}" for x in xs) +
               f"   ({x_label})")
    for kind, s in series.items():
        cells = "".join(
            f"{s[x]:>10.2f}" if x in s else " " * 10 for x in xs
        )
        out.append(f"{_label(kind):<{width}}" + cells)
    return "\n".join(out)


def format_speedups(title: str, rows: Mapping[str, Mapping[str, float]],
                    base: str, versus: Sequence[str],
                    invert: bool = False) -> str:
    """Summarize ``base``'s advantage over each fs in ``versus`` per column.

    ``invert=True`` for elapsed-time tables (smaller is better)."""
    out = [title]
    for other in versus:
        for col, val in rows[base].items():
            if col not in rows.get(other, {}):
                continue
            ov = rows[other][col]
            if val <= 0 or ov <= 0:
                continue
            ratio = (ov / val) if invert else (val / ov)
            out.append(f"  {col:>12}: {_label(base)} is {ratio:5.2f}x "
                       f"vs {_label(other)}")
    return "\n".join(out)


def format_fanout(title: str, cache_stats: Mapping[str, int],
                  journal_fanout: Optional[Mapping[str, int]] = None) -> str:
    """Summarize how parallel the scatter-gather I/O paths actually ran.

    Takes ``DataObjectCache.stats`` and (optionally)
    ``JournalManager.fanout`` and renders batched-vs-serial op counts plus
    batch-size / in-flight high-water marks — the observability check that
    a "parallel" run really fanned out."""
    s = cache_stats
    out = [title]
    bg, sg = s.get("batched_gets", 0), s.get("serial_gets", 0)
    bp, sp = s.get("batched_puts", 0), s.get("serial_puts", 0)
    out.append(f"  demand GETs : {bg:6d} batched / {sg:6d} serial in "
               f"{s.get('fetch_batches', 0)} batches "
               f"(max batch {s.get('max_fetch_batch', 0)}, "
               f"max in-flight {s.get('max_inflight_gets', 0)})")
    out.append(f"  writebacks  : {bp:6d} batched / {sp:6d} serial in "
               f"{s.get('wb_batches', 0)} batches "
               f"(max batch {s.get('max_wb_batch', 0)}, "
               f"max in-flight {s.get('max_inflight_puts', 0)})")
    if journal_fanout is not None:
        j = journal_fanout
        out.append(f"  checkpoints : {j.get('ckpt_batched_ops', 0):6d} "
                   f"batched / {j.get('ckpt_serial_ops', 0):6d} serial ops "
                   f"in {j.get('ckpt_batches', 0)} batches "
                   f"(max batch {j.get('ckpt_max_batch', 0)})")
        out.append(f"  commits     : {j.get('commit_rounds', 0):6d} rounds "
                   f"(max dirs/round {j.get('commit_max_fanout', 0)})")
    return "\n".join(out)


def merge_attributions(parts: Sequence[Dict[str, Dict[str, Any]]]
                       ) -> Dict[str, Dict[str, Any]]:
    """Merge per-build :func:`repro.obs.attribute_latency` results (one
    figure may build the same kind many times, e.g. per client count)."""
    out: Dict[str, Dict[str, Any]] = {}
    for attrib in parts:
        for phase, row in attrib.items():
            dst = out.setdefault(phase, {
                "ops": 0, "total_s": 0.0, "attributed_s": 0.0,
                "unattributed_s": 0.0, "by_cat": {},
            })
            for key in ("ops", "total_s", "attributed_s", "unattributed_s"):
                dst[key] += row[key]
            for cat, sec in row["by_cat"].items():
                dst["by_cat"][cat] = dst["by_cat"].get(cat, 0.0) + sec
    return out


def format_slowlog(collected, max_entries: int = 5) -> str:
    """Slow-op tables for a bench run, one per build that logged any.

    ``collected`` is ``BENCH_OBS.collected``; each entry line shows when
    the op started, how long it took, why it was logged (static threshold
    or rolling p99), and — when the op was sampled — the phase-attributed
    waterfall of where its time went."""
    out = []
    for kind, obs in collected:
        log = obs.slowlog
        if log is None or not log.n_slow:
            continue
        doc = log.to_dict(max_entries=max_entries)
        out.append(f"slow ops — {_label(kind)} "
                   f"(threshold {doc['default_threshold_s'] * 1e3:.0f}ms, "
                   f"{doc['n_slow']} logged)")
        for op, row in doc["ops"].items():
            if not row["slow"]:
                continue
            out.append(f"  {op:<14} count={row['count']} "
                       f"p50={row['p50_s'] * 1e3:.2f}ms "
                       f"p99={row['p99_s'] * 1e3:.2f}ms "
                       f"max={row['max_s'] * 1e3:.2f}ms")
            for e in row["slow"]:
                line = (f"    @{e['start_s']:.3f}s {e['dur_s'] * 1e3:8.2f}ms "
                        f"[{e['why']}]")
                wf = e.get("waterfall_s")
                if wf:
                    line += "  " + " ".join(
                        f"{cat}={sec * 1e3:.2f}ms"
                        for cat, sec in wf.items())
                out.append(line)
    if not out:
        return "slow ops: none logged"
    return "\n".join(out)


def format_attribution_merged(collected) -> str:
    """Latency-attribution tables for a bench run, one per fs kind.

    ``collected`` is ``BENCH_OBS.collected``: ``(kind, Observability)``
    pairs in build order; builds of the same kind merge into one table."""
    from ..obs import attribute_latency

    by_kind: Dict[str, list] = {}
    for kind, obs in collected:
        if obs.tracer is None or not obs.tracer.spans:
            continue
        by_kind.setdefault(kind, []).append(attribute_latency(obs.tracer))
    out = []
    for kind, parts in by_kind.items():
        merged = merge_attributions(parts)
        if merged:
            out.append(format_attribution(
                f"latency attribution — {_label(kind)}", merged))
    return "\n".join(out)
