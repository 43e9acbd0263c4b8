"""The one on-disk telemetry format: a kind-tagged JSON-lines recording.

``search --trace FILE`` and ``search --flight FILE`` write the same
document, one JSON object per line, tagged by ``kind``:

* one ``header`` (first line): format name and version, why the file was
  written (``reason``), the pid and trace id, how many ``span`` / ``event``
  / ``metrics`` records follow, and ``partial`` -- ``false`` for a finished
  run's trace (the span set is a closed tree), ``true`` for a flight dump
  (a bounded ring: old spans evicted, the root possibly still open);
* ``span`` records (:class:`~repro.obs.trace.SpanRecord` fields);
* ``event`` and ``metrics`` records (the flight recorder's structured
  events and metric-snapshot deltas; a trace has none).

This module owns the one writer (:func:`write`), the one reader
(:func:`load`), the one structural check (:func:`validate`) and the one
replay (:func:`render`); ``python -m repro.obs {validate,report}`` are thin
shells over them.  Whether the tree checks apply is read from the file's
own header, never from a flag: any file a tool writes, every tool reads.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.obs.analyze import SpanNode, analyze, build_tree
from repro.obs.report import render_report
from repro.obs.trace import SpanRecord

PathLike = Union[str, "os.PathLike[str]"]

#: Format tag + version written into every header; :func:`load` accepts no other.
FORMAT = "oasis-recording"
VERSION = 1

#: Required span-record fields and the types their JSON values must have.
SPAN_SCHEMA = {
    "name": str,
    "span_id": str,
    "trace_id": str,
    "start_epoch": (int, float),
    "wall_seconds": (int, float),
    "cpu_seconds": (int, float),
    "attributes": dict,
    "status": str,
    "pid": int,
}


@dataclass
class Recording:
    """A header plus the span, event and metric-delta records it declares."""

    header: Dict[str, object]
    spans: List[SpanRecord]
    events: List[Dict[str, object]] = field(default_factory=list)
    metric_deltas: List[Dict[str, object]] = field(default_factory=list)

    @classmethod
    def of(
        cls,
        spans: Sequence[SpanRecord],
        partial: bool,
        reason: str,
        trace_id: Optional[str] = None,
        events: Sequence[Dict[str, object]] = (),
        metric_deltas: Sequence[Dict[str, object]] = (),
        **extra: object,
    ) -> "Recording":
        """Records in hand plus the header that declares them.

        ``extra`` rides in the header as-is (the flight recorder's ring
        capacities and elapsed time).  ``trace_id`` defaults to the first
        span's.
        """
        if trace_id is None and spans:
            trace_id = spans[0].trace_id
        header: Dict[str, object] = {
            "kind": "header",
            "format": FORMAT,
            "version": VERSION,
            "partial": partial,
            "reason": reason,
            "pid": os.getpid(),
            "trace_id": trace_id,
            # Epoch stamp so recordings from different processes line up.
            "epoch": time.time(),  # repro: allow[monotonic-time]
            "spans": len(spans),
            "events": len(events),
            "metric_deltas": len(metric_deltas),
        }
        header.update(extra)
        return cls(header, list(spans), list(events), list(metric_deltas))


def write(path: PathLike, recording: Recording) -> None:
    """Write ``recording`` to ``path``, replacing whatever was there.

    ``"w"`` mode on purpose: the file is one self-describing document (one
    run's trace, or the latest dump -- the semantics of a flight recorder),
    so a rerun never interleaves two of them.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(recording.header, sort_keys=True) + "\n")
        for record in recording.spans:
            handle.write(json.dumps({**record.to_dict(), "kind": "span"}, sort_keys=True) + "\n")
        for entry in recording.events + recording.metric_deltas:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")


def load(path: PathLike) -> Recording:
    """Parse a recording; a malformed line raises ``ValueError`` with ``path:line``.

    Blank lines are tolerated (hand-edited files have them).  The header
    must come first and carry the format and version this module writes.
    """
    where = os.fspath(path)
    recording: Optional[Recording] = None
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{where}:{number}: invalid JSON: {error}") from error
            if not isinstance(payload, dict):
                raise ValueError(f"{where}:{number}: expected a JSON object")
            kind = payload.get("kind")
            if kind == "header":
                if recording is not None:
                    raise ValueError(f"{where}:{number}: duplicate header")
                found = (payload.get("format"), payload.get("version"))
                if found != (FORMAT, VERSION):
                    raise ValueError(
                        f"{where}:{number}: header says format/version {found!r}, "
                        f"this reader knows {(FORMAT, VERSION)!r}"
                    )
                recording = Recording(payload, [])
            elif recording is None:
                raise ValueError(f"{where}:{number}: expected the header first, got kind {kind!r}")
            elif kind == "span":
                try:
                    recording.spans.append(SpanRecord.from_dict(payload))
                except (KeyError, TypeError, ValueError) as error:
                    raise ValueError(f"{where}:{number}: malformed span record: {error!r}") from error
            elif kind == "event":
                recording.events.append(payload)
            elif kind == "metrics":
                recording.metric_deltas.append(payload)
            else:
                raise ValueError(f"{where}:{number}: unknown record kind {kind!r}")
    if recording is None:
        raise ValueError(f"{where}: no header record (empty, or not a recording)")
    return recording


def validate(recording: Recording) -> List[str]:
    """Schema- and structure-check a recording; returns problems (empty = ok).

    Always: the header names a reason and says whether the span set is
    partial, the declared counts match what the file holds (a truncated
    file fails here), every span passes :data:`SPAN_SCHEMA` with a unique
    id, every event and metric delta has its fields.  When the header says
    the span set is complete, the tree checks too: one trace id, a root,
    every parent resolvable, no cycles.  A partial set -- a ring that
    evicted old spans, a root still open at dump time -- legally fails those;
    the replay shows its orphans as roots.
    """
    problems: List[str] = []
    header = recording.header
    if not isinstance(header.get("reason"), str) or not header.get("reason"):
        problems.append("header has no reason")
    if not isinstance(header.get("partial"), bool):
        problems.append("header does not say whether the span set is partial")
    for count_field in ("spans", "events", "metric_deltas"):
        declared = header.get(count_field)
        actual = len(getattr(recording, count_field))
        if declared != actual:
            problems.append(f"header declares {declared!r} {count_field}, file has {actual}")

    spans = recording.spans
    by_id: Dict[str, SpanRecord] = {}
    for index, record in enumerate(spans):
        data = record.to_dict()
        for fieldname, expected in SPAN_SCHEMA.items():
            value = data.get(fieldname)
            if not isinstance(value, expected):  # type: ignore[arg-type]
                problems.append(
                    f"span {index} ({record.name!r}): field {fieldname!r} "
                    f"has {type(value).__name__}, expected {expected}"
                )
        if record.wall_seconds < 0:
            problems.append(f"span {index} ({record.name!r}): negative wall time")
        if record.span_id in by_id:
            problems.append(f"duplicate span id {record.span_id!r}")
        by_id[record.span_id] = record
    for index, event in enumerate(recording.events):
        if not isinstance(event.get("event"), str) or not event.get("event"):
            problems.append(f"event {index}: missing event name")
        if not isinstance(event.get("elapsed_seconds"), (int, float)):
            problems.append(f"event {index}: missing elapsed_seconds")
        if not isinstance(event.get("fields"), dict):
            problems.append(f"event {index}: fields must be an object")
    for index, delta in enumerate(recording.metric_deltas):
        if not isinstance(delta.get("changed"), dict):
            problems.append(f"metric delta {index}: changed must be an object")
    if header.get("partial") is not False:
        return problems

    trace_ids = {record.trace_id for record in spans}
    if len(trace_ids) > 1:
        problems.append(f"records span {len(trace_ids)} trace ids: {sorted(trace_ids)}")
    if not any(record.parent_id is None for record in spans):
        problems.append("no root span (the span set is empty or every record has a parent)")
    for record in spans:
        if record.parent_id is not None and record.parent_id not in by_id:
            problems.append(
                f"span {record.name!r} ({record.span_id}) has unresolved "
                f"parent {record.parent_id!r}"
            )
    # Cycle check: walk each record's parent chain with a visited set.
    for record in spans:
        seen = set()
        current: Optional[str] = record.span_id
        while current is not None:
            if current in seen:
                problems.append(f"parent cycle through span {record.span_id!r}")
                break
            seen.add(current)
            parent = by_id.get(current)
            current = parent.parent_id if parent is not None else None
    return problems


def span_tree(spans: Sequence[SpanRecord]) -> str:
    """An indented, human-readable tree of the spans (roots first).

    Siblings are ordered by start time, then name and span id, so the
    rendering reads as a timeline and is fully deterministic (diffable
    across runs).  Orphans (unresolved parents -- a partial recording) are
    shown as extra roots rather than dropped.
    """
    lines: List[str] = []

    def visit(node: SpanNode) -> None:
        record = node.record
        attributes = ", ".join(f"{key}={value}" for key, value in sorted(record.attributes.items()))
        suffix = f" [{attributes}]" if attributes else ""
        flag = "" if record.status == "ok" else f" !{record.status}"
        lines.append(
            f"{'  ' * node.depth}{record.name}  wall={record.wall_seconds * 1e3:.2f}ms "
            f"cpu={record.cpu_seconds * 1e3:.2f}ms pid={record.pid}{flag}{suffix}"
        )
        for child in node.children:
            visit(child)

    for root in build_tree(spans).roots:
        visit(root)
    return "\n".join(lines)


def _metric_delta(name: str, state: Dict[str, object]) -> str:
    kind = state.get("type")
    if kind == "counter":
        return f"{name}+{state.get('delta')}"
    if kind == "gauge":
        return f"{name}={state.get('value')}"
    if kind == "histogram":
        return f"{name}+{state.get('delta')}obs"
    return f"{name}?"


def render(
    recording: Recording, markdown: bool = False, title: str = "recording", top: int = 5
) -> str:
    """The replay: header summary, events, metric deltas, span tree, analysis."""
    header = recording.header
    spans = recording.spans
    section = "## " if markdown else "-- "
    out = [
        f"{'# ' if markdown else ''}{title}",
        f"reason={header.get('reason')} pid={header.get('pid')} trace={header.get('trace_id')} "
        f"{'partial' if header.get('partial') else 'complete'}: {len(spans)} spans, "
        f"{len(recording.events)} events, {len(recording.metric_deltas)} metric deltas",
    ]
    if recording.events:
        out += ["", f"{section}events"]
        for event in recording.events:
            fields = event.get("fields") or {}
            rendered = ", ".join(
                f"{key}={value}" for key, value in sorted(fields.items())  # type: ignore[attr-defined]
            )
            out.append(
                f"  +{float(event.get('elapsed_seconds', 0.0)):9.3f}s "  # type: ignore[arg-type]
                f"{event.get('event')}{f' [{rendered}]' if rendered else ''}"
            )
    if recording.metric_deltas:
        out += ["", f"{section}metric deltas"]
        for delta in recording.metric_deltas:
            changed = delta.get("changed") or {}
            moved = ", ".join(
                _metric_delta(name, state)
                for name, state in sorted(changed.items())  # type: ignore[attr-defined]
            )
            out.append(
                f"  +{float(delta.get('elapsed_seconds', 0.0)):9.3f}s "  # type: ignore[arg-type]
                f"{moved or '(baseline)'}"
            )
    if spans:
        tree = span_tree(spans)
        out += ["", f"{section}span tree (orphans shown as roots)"]
        out += [f"```\n{tree}\n```" if markdown else tree, ""]
        out.append(render_report(analyze(spans, top=top), markdown=markdown, title="span analysis"))
    return "\n".join(out)
