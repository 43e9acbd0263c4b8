"""Render a :class:`~repro.obs.analyze.TraceAnalysis` as a deterministic report.

The span-analysis section of ``python -m repro.obs report FILE``: critical
path, per-phase wall/CPU table (whose wall column sums to the root span --
the timeline sweep partitions the root interval), per-pid attribution for
process backends, per-span-name aggregates and the N slowest queries, as
aligned text or GitHub-flavoured markdown.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.obs.analyze import TraceAnalysis, span_phase
from repro.obs.trace import SpanRecord


def _seconds(value: float) -> str:
    return f"{value:.6f}s"


def _percent(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}%" if whole > 0 else "  0.0%"


def _table(header: Sequence[str], rows: Sequence[Sequence[str]], markdown: bool) -> List[str]:
    """One table, as aligned text or markdown (both deterministic)."""
    if markdown:
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        for row in rows:
            lines.append("| " + " | ".join(row) + " |")
        return lines
    widths = [
        max(len(header[column]), *(len(row[column]) for row in rows)) if rows else len(header[column])
        for column in range(len(header))
    ]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(header)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return lines


def _describe(record: SpanRecord) -> str:
    """A one-line span label: name plus its most informative attributes."""
    interesting = {
        key: value
        for key, value in sorted(record.attributes.items())
        if key in ("shard", "shards", "queries", "hits", "query_length", "streaming")
    }
    attributes = ", ".join(f"{key}={value}" for key, value in interesting.items())
    return f"{record.name}[{attributes}]" if attributes else record.name


def render_report(
    analysis: TraceAnalysis, markdown: bool = False, title: str = "trace report"
) -> str:
    """The full report as one deterministic string."""
    out: List[str] = []
    heading = "# " if markdown else ""
    section = "## " if markdown else "-- "
    root_names = ", ".join(sorted({record.name for record in analysis.roots})) or "none"
    out.append(f"{heading}{title}")
    out.append(
        f"{analysis.span_count} spans, {len(analysis.roots)} root(s) [{root_names}], "
        f"total wall {_seconds(analysis.total_wall_seconds)}"
    )

    out.append("")
    out.append(f"{section}critical path")
    rows = []
    for node in analysis.critical_path:
        indent = "" if markdown else "  " * node.depth
        rows.append(
            [
                indent + _describe(node.record),
                span_phase(node.record),
                _seconds(node.record.wall_seconds),
                _seconds(node.record.cpu_seconds),
                str(node.record.pid),
            ]
        )
    out.extend(_table(["span", "phase", "wall", "cpu", "pid"], rows, markdown))

    out.append("")
    out.append(f"{section}per-phase breakdown")
    rows = [
        [
            entry.phase,
            _seconds(entry.wall_seconds),
            _percent(entry.wall_seconds, analysis.total_wall_seconds),
            _seconds(entry.cpu_seconds),
            str(entry.span_count),
        ]
        for entry in analysis.phases
    ]
    rows.append(
        [
            "total",
            _seconds(sum(entry.wall_seconds for entry in analysis.phases)),
            _percent(
                sum(entry.wall_seconds for entry in analysis.phases),
                analysis.total_wall_seconds,
            ),
            _seconds(sum(entry.cpu_seconds for entry in analysis.phases)),
            str(analysis.span_count),
        ]
    )
    out.extend(_table(["phase", "wall", "%", "self-cpu", "spans"], rows, markdown))

    if len(analysis.pid_wall) > 1:
        out.append("")
        out.append(f"{section}per-pid attribution")
        rows = [
            [
                str(pid),
                _seconds(analysis.pid_wall.get(pid, 0.0)),
                _percent(analysis.pid_wall.get(pid, 0.0), analysis.total_wall_seconds),
                _seconds(analysis.pid_cpu.get(pid, 0.0)),
            ]
            for pid in sorted(set(analysis.pid_wall) | set(analysis.pid_cpu))
        ]
        out.extend(_table(["pid", "wall", "%", "self-cpu"], rows, markdown))

    out.append("")
    out.append(f"{section}per-span-name aggregates")
    rows = [
        [
            stats.name,
            str(stats.count),
            _seconds(stats.wall_seconds),
            _seconds(stats.mean_wall_seconds),
            _seconds(stats.max_wall_seconds),
            _seconds(stats.cpu_seconds),
        ]
        for stats in analysis.names
    ]
    out.extend(
        _table(["name", "count", "wall", "mean", "max", "cpu"], rows, markdown)
    )

    if analysis.slowest_queries:
        out.append("")
        out.append(f"{section}slowest queries")
        rows = [
            [
                _describe(record),
                _seconds(record.wall_seconds),
                _seconds(record.cpu_seconds),
                str(record.pid),
                record.status,
            ]
            for record in analysis.slowest_queries
        ]
        out.extend(_table(["query", "wall", "cpu", "pid", "status"], rows, markdown))
    return "\n".join(out)
