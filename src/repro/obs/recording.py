"""The one on-disk telemetry format: a kind-tagged JSON-lines recording.

``search --trace FILE`` writes it when the run ends, one JSON object per
line, tagged by ``kind``:

* one ``header`` (first line): format name and version, why the file was
  written (``reason``), the pid and trace id, and how many ``span`` records
  follow;
* ``span`` records (:class:`~repro.obs.trace.SpanRecord` fields), which
  form one closed tree.

This module owns the one writer (:func:`write`), the one reader
(:func:`load`), the one structural check (:func:`validate`) and the one
replay (:func:`render`); ``python -m repro.obs {validate,report}`` are thin
shells over them.  The reader ignores header keys it does not check, so a
file whose header carries more keys reads the same.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
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
    """A header plus the span records it declares."""

    header: Dict[str, object]
    spans: List[SpanRecord]

    @classmethod
    def of(
        cls, spans: Sequence[SpanRecord], reason: str, trace_id: Optional[str] = None
    ) -> "Recording":
        """Spans in hand plus the header that declares them.

        ``trace_id`` defaults to the first span's.
        """
        if trace_id is None and spans:
            trace_id = spans[0].trace_id
        header: Dict[str, object] = {
            "kind": "header",
            "format": FORMAT,
            "version": VERSION,
            "reason": reason,
            "pid": os.getpid(),
            "trace_id": trace_id,
            # Epoch stamp so recordings from different processes line up.
            "epoch": time.time(),  # repro: allow[monotonic-time]
            "spans": len(spans),
        }
        return cls(header, list(spans))


def write(path: PathLike, recording: Recording) -> None:
    """Write ``recording`` to ``path``, replacing whatever was there.

    ``"w"`` mode on purpose: the file is one self-describing document, one
    run's trace, so a rerun never interleaves two of them.
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(recording.header, sort_keys=True) + "\n")
        for record in recording.spans:
            handle.write(json.dumps({**record.to_dict(), "kind": "span"}, sort_keys=True) + "\n")


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
            else:
                raise ValueError(f"{where}:{number}: unknown record kind {kind!r}")
    if recording is None:
        raise ValueError(f"{where}: no header record (empty, or not a recording)")
    return recording


def validate(recording: Recording) -> List[str]:
    """Schema- and structure-check a recording; returns problems (empty = ok).

    The header names a reason and declares the span count the file holds (a
    truncated file fails here); every span passes :data:`SPAN_SCHEMA` with a
    unique id; the header and the spans name one trace id; and the spans
    form a tree: a root, every parent resolvable, no cycles.
    """
    problems: List[str] = []
    header = recording.header
    spans = recording.spans
    if not isinstance(header.get("reason"), str) or not header.get("reason"):
        problems.append("header has no reason")
    if header.get("spans") != len(spans):
        problems.append(f"header declares {header.get('spans')!r} spans, file has {len(spans)}")

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

    trace_ids = {str(header.get("trace_id"))} | {record.trace_id for record in spans}
    if len(trace_ids) > 1:
        problems.append(f"header and spans name {len(trace_ids)} trace ids: {sorted(trace_ids)}")
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
    across runs).  Orphans (unresolved parents) are shown as extra roots
    rather than dropped.
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


def render(
    recording: Recording, markdown: bool = False, title: str = "recording", top: int = 5
) -> str:
    """The replay: header summary, span tree, span analysis."""
    header = recording.header
    spans = recording.spans
    out = [
        f"{'# ' if markdown else ''}{title}",
        f"reason={header.get('reason')} pid={header.get('pid')} trace={header.get('trace_id')}: "
        f"{len(spans)} spans",
    ]
    if spans:
        tree = span_tree(spans)
        out += ["", f"{'## ' if markdown else '-- '}span tree"]
        out += [f"```\n{tree}\n```" if markdown else tree, ""]
        out.append(render_report(analyze(spans, top=top), markdown=markdown, title="span analysis"))
    return "\n".join(out)
