"""Trace analytics: where did the time of a recorded trace actually go?

PR 4 made every search emit spans; this module turns a span list (usually
the spans of a file read back with :func:`repro.obs.recording.load`) into
answers:

* the **critical path** -- the chain of spans, root to leaf, that bounded
  the run's wall clock (at each level, the child that finished last);
* a **per-phase breakdown** -- wall time attributed to the engine's phases
  (expand / scatter / shard / merge / batch) by a timeline sweep
  that charges every instant of the root interval to the *deepest* span
  covering it, so the phase totals sum exactly to the root span's wall time
  even when shards overlap in parallel (a naive per-span sum would double
  count concurrent children);
* **per-pid attribution** -- the same sweep keyed by recording process, so
  a ``processes:N`` trace shows how much of the wall clock each worker
  bounded, plus self-CPU per pid;
* per-span-name aggregates and the N **slowest queries**.

Phases come from the ``phase`` span attribute the engine stamps at every
span site; a foreign span without one is reported as ``other``.  Everything
here is pure computation over records -- deterministic for a given trace,
no clocks, no I/O -- so reports diff cleanly.  Rendering lives in
:mod:`repro.obs.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.trace import SpanRecord

#: Span attribute carrying the phase label (stamped by the engine layers).
PHASE_ATTRIBUTE = "phase"

#: Phase reported for spans that carry no ``phase`` attribute (foreign spans:
#: every engine span site stamps one).
OTHER_PHASE = "other"

#: Stable report order for the known phases (unknown ones sort after).
PHASE_ORDER = ("batch", "scatter", "expand", "shard", "merge", OTHER_PHASE)


def span_phase(record: SpanRecord) -> str:
    """The phase one span's time belongs to."""
    phase = record.attributes.get(PHASE_ATTRIBUTE)
    if isinstance(phase, str) and phase:
        return phase
    return OTHER_PHASE


@dataclass
class SpanNode:
    """One span in the reconstructed tree, with its clamped interval.

    ``start``/``end`` are epoch seconds clamped into the parent's interval:
    ``start_epoch`` comes from ``time.time()`` while ``wall_seconds`` comes
    from the monotonic clock, so a child measured in another process can
    overhang its parent by clock skew; clamping keeps the timeline sweep's
    accounting closed (children never attribute time outside their root).
    """

    record: SpanRecord
    depth: int
    start: float
    end: float
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)


@dataclass
class SpanTree:
    """A trace reconstructed as a forest (orphans become extra roots)."""

    roots: List[SpanNode]
    by_id: Dict[str, SpanNode]

    def subtree(self, node: SpanNode) -> List[SpanNode]:
        """``node`` and every descendant, in deterministic pre-order."""
        out: List[SpanNode] = []
        stack = [node]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(reversed(current.children))
        return out


def build_tree(records: Sequence[SpanRecord]) -> SpanTree:
    """Reconstruct the span forest, children sorted deterministically."""
    by_id: Dict[str, SpanNode] = {}
    for record in records:
        by_id[record.span_id] = SpanNode(
            record=record,
            depth=0,
            start=record.start_epoch,
            end=record.start_epoch + max(0.0, record.wall_seconds),
        )
    roots: List[SpanNode] = []
    for record in records:
        node = by_id[record.span_id]
        parent = by_id.get(record.parent_id) if record.parent_id is not None else None
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)

    def sort_key(node: SpanNode) -> Tuple[float, str, str]:
        return (node.record.start_epoch, node.record.name, node.record.span_id)

    roots.sort(key=sort_key)
    # Depth-first: assign depths and clamp children into their parent.
    for root in roots:
        stack = [root]
        while stack:
            current = stack.pop()
            current.children.sort(key=sort_key)
            for child in current.children:
                child.depth = current.depth + 1
                child.start = min(max(child.start, current.start), current.end)
                child.end = min(max(child.end, child.start), current.end)
                stack.append(child)
    return SpanTree(roots=roots, by_id=by_id)


@dataclass(frozen=True)
class PhaseSlice:
    """Time attributed to one phase under one root."""

    phase: str
    wall_seconds: float
    cpu_seconds: float
    span_count: int


@dataclass(frozen=True)
class NameStats:
    """Inclusive aggregates over every span sharing one name."""

    name: str
    count: int
    wall_seconds: float
    cpu_seconds: float
    max_wall_seconds: float

    @property
    def mean_wall_seconds(self) -> float:
        return self.wall_seconds / self.count if self.count else 0.0


@dataclass
class TraceAnalysis:
    """Everything :func:`analyze` computed over one trace."""

    span_count: int
    roots: List[SpanRecord]
    #: Sum of the root spans' wall seconds (the denominator of the phase %).
    total_wall_seconds: float
    phases: List[PhaseSlice]
    #: Wall seconds of the root interval each recording pid bounded.
    pid_wall: Dict[int, float]
    #: Self-CPU seconds per recording pid.
    pid_cpu: Dict[int, float]
    names: List[NameStats]
    #: Root-to-leaf chain of the spans that bounded the wall clock.
    critical_path: List[SpanNode]
    slowest_queries: List[SpanRecord]

    def phase_wall(self, phase: str) -> float:
        for entry in self.phases:
            if entry.phase == phase:
                return entry.wall_seconds
        return 0.0


def _sweep(
    nodes: Sequence[SpanNode], root: SpanNode
) -> Tuple[Dict[str, float], Dict[int, float]]:
    """Attribute every instant of ``root``'s interval to the deepest span.

    A boundary sweep over the clamped intervals: between two consecutive
    event times the set of covering spans is constant, so the whole segment
    is charged to the deepest active span (ties broken by later start, then
    span id -- deterministic).  The per-phase and per-pid sums therefore
    partition the root interval exactly: concurrent shard spans never double
    count, and gaps no child covers stay with the ancestor that does.
    """
    phase_wall: Dict[str, float] = {}
    pid_wall: Dict[int, float] = {}
    events: List[Tuple[float, int, SpanNode]] = []
    for node in nodes:
        if node.end > node.start:
            events.append((node.start, 1, node))
            events.append((node.end, 0, node))
    # Ends (0) before starts (1) at equal times: adjacent spans hand the
    # timeline over exactly, with no zero-width segment in between.
    events.sort(key=lambda item: (item[0], item[1], item[2].record.span_id))

    active: Dict[str, SpanNode] = {}
    previous = root.start
    for when, kind, node in events:
        if when > previous and active:
            deepest = max(
                active.values(),
                key=lambda entry: (entry.depth, entry.start, entry.record.span_id),
            )
            length = when - previous
            phase = span_phase(deepest.record)
            phase_wall[phase] = phase_wall.get(phase, 0.0) + length
            pid = deepest.record.pid
            pid_wall[pid] = pid_wall.get(pid, 0.0) + length
        previous = max(previous, when)
        if kind == 1:
            active[node.record.span_id] = node
        else:
            active.pop(node.record.span_id, None)
    return phase_wall, pid_wall


def _self_cpu(node: SpanNode) -> float:
    """CPU charged to ``node`` alone: its total minus same-pid children.

    A child recorded in another process burned *that* process's CPU clock,
    which the parent's ``process_time`` never contained -- so only same-pid
    children are subtracted.  Clamped at zero against measurement jitter.
    """
    inherited = sum(
        child.record.cpu_seconds
        for child in node.children
        if child.record.pid == node.record.pid
    )
    return max(0.0, node.record.cpu_seconds - inherited)


def critical_path(tree: SpanTree, root: SpanNode) -> List[SpanNode]:
    """Root-to-leaf chain through the child finishing last at each level."""
    path = [root]
    current = root
    while current.children:
        current = max(
            current.children,
            key=lambda child: (child.end, child.start, child.record.span_id),
        )
        path.append(current)
    return path


def phase_breakdown(
    records: Sequence[SpanRecord], root_id: Optional[str] = None
) -> Dict[str, float]:
    """Per-phase wall seconds under one root (or every root when ``None``).

    The sums partition the root interval(s) exactly; this is the function
    the CLI's ``--slow-log`` uses to explain one slow query span.
    """
    tree = build_tree(records)
    if root_id is not None:
        node = tree.by_id.get(root_id)
        roots = [node] if node is not None else []
    else:
        roots = tree.roots
    totals: Dict[str, float] = {}
    for root in roots:
        phase_wall, _ = _sweep(tree.subtree(root), root)
        for phase, seconds in phase_wall.items():
            totals[phase] = totals.get(phase, 0.0) + seconds
    return totals


def sort_phases(phases: Iterable[str]) -> List[str]:
    """Phase names in canonical report order (unknown phases last, sorted)."""
    present = set(phases)
    known = [phase for phase in PHASE_ORDER if phase in present]
    unknown = sorted(phase for phase in present if phase not in PHASE_ORDER)
    return known + unknown


def slowest_queries(records: Sequence[SpanRecord], top: int = 5) -> List[SpanRecord]:
    """The ``top`` slowest ``query`` spans, slowest first (deterministic)."""
    queries = [record for record in records if record.name == "query"]
    queries.sort(key=lambda record: (-record.wall_seconds, record.span_id))
    return queries[: max(0, top)]


def analyze(records: Sequence[SpanRecord], top: int = 5) -> TraceAnalysis:
    """Run every analysis over one trace."""
    tree = build_tree(records)
    phase_wall: Dict[str, float] = {}
    phase_cpu: Dict[str, float] = {}
    phase_spans: Dict[str, int] = {}
    pid_wall: Dict[int, float] = {}
    pid_cpu: Dict[int, float] = {}
    for root in tree.roots:
        nodes = tree.subtree(root)
        root_phase_wall, root_pid_wall = _sweep(nodes, root)
        for phase, seconds in root_phase_wall.items():
            phase_wall[phase] = phase_wall.get(phase, 0.0) + seconds
        for pid, seconds in root_pid_wall.items():
            pid_wall[pid] = pid_wall.get(pid, 0.0) + seconds
        for node in nodes:
            phase = span_phase(node.record)
            phase_spans[phase] = phase_spans.get(phase, 0) + 1
            cpu = _self_cpu(node)
            phase_cpu[phase] = phase_cpu.get(phase, 0.0) + cpu
            pid_cpu[node.record.pid] = pid_cpu.get(node.record.pid, 0.0) + cpu

    name_stats: Dict[str, List[float]] = {}
    for record in records:
        entry = name_stats.setdefault(record.name, [0.0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += record.wall_seconds
        entry[2] += record.cpu_seconds
        entry[3] = max(entry[3], record.wall_seconds)

    longest_root = max(
        tree.roots,
        key=lambda node: (node.duration, node.record.span_id),
        default=None,
    )
    return TraceAnalysis(
        span_count=len(records),
        roots=[root.record for root in tree.roots],
        total_wall_seconds=sum(root.duration for root in tree.roots),
        phases=[
            PhaseSlice(
                phase=phase,
                wall_seconds=phase_wall.get(phase, 0.0),
                cpu_seconds=phase_cpu.get(phase, 0.0),
                span_count=phase_spans.get(phase, 0),
            )
            for phase in sort_phases(set(phase_wall) | set(phase_spans))
        ],
        pid_wall=pid_wall,
        pid_cpu=pid_cpu,
        names=[
            NameStats(
                name=name,
                count=int(entry[0]),
                wall_seconds=entry[1],
                cpu_seconds=entry[2],
                max_wall_seconds=entry[3],
            )
            for name, entry in sorted(name_stats.items())
        ],
        critical_path=(
            critical_path(tree, longest_root) if longest_root is not None else []
        ),
        slowest_queries=slowest_queries(records, top=top),
    )
