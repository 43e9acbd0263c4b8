"""Unit tests for the telemetry layer: spans, recordings, logging.

Integration with the search stack (sharded traces across processes, stats
consistency under timeout/abort) lives in ``test_obs_integration.py`` and
``test_stats_consistency.py``, the on-disk format in
``test_obs_recording.py``; this module pins the primitives.
"""

from __future__ import annotations

import io
import logging
import threading

import pytest

from repro.obs import (
    Recording,
    SpanRecord,
    TraceContext,
    Tracer,
    configure_logging,
    get_logger,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.logsetup import verbosity_level
from repro.obs.recording import load, span_tree, validate, write


def validate_trace(records):
    """Problems of ``records`` taken as one finished run's complete trace."""
    return validate(Recording.of(records, reason="test"))


# --------------------------------------------------------------------- #
# Spans and tracer
# --------------------------------------------------------------------- #
class TestSpans:
    def test_nested_spans_parent_by_default(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        records = tracer.records()
        assert [record.name for record in records] == ["inner", "outer"]
        assert records[0].parent_id == records[1].span_id
        assert records[1].parent_id is None
        assert all(record.trace_id == tracer.trace_id for record in records)

    def test_attributes_and_timing(self):
        tracer = Tracer()
        with tracer.span("work", size=3) as span:
            span.set_attribute("extra", "yes")
        (record,) = tracer.records()
        assert record.attributes == {"size": 3, "extra": "yes"}
        assert record.wall_seconds >= 0.0
        assert record.cpu_seconds >= 0.0
        assert record.status == "ok"
        assert record.pid > 0

    def test_exception_marks_error_status(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (record,) = tracer.records()
        assert record.status == "error"
        assert "ValueError: boom" in record.attributes["error"]

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("forced-root", parent_id=None):
                pass
            with tracer.span("reparented", parent_id="elsewhere"):
                pass
        by_name = {record.name: record for record in tracer.records()}
        assert by_name["forced-root"].parent_id is None
        assert by_name["reparented"].parent_id == "elsewhere"
        assert outer.span_id is not None

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.span("once")
        span.finish()
        span.finish()
        assert len(tracer.records()) == 1

    def test_parent_stack_is_per_thread(self):
        tracer = Tracer()
        seen = {}

        def worker():
            seen["parent"] = tracer.current_span_id

        with tracer.span("caller"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["parent"] is None

    def test_active_spans_show_another_threads_open_span_until_it_closes(self):
        tracer = Tracer()
        opened, release = threading.Event(), threading.Event()

        def worker():
            with tracer.span("shard"):
                opened.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert opened.wait(timeout=10)
            active = tracer.active_spans()
            assert [[span.name for span in stack] for stack in active.values()] == [["shard"]]
            assert list(active) == [thread.ident]
        finally:
            release.set()
            thread.join(timeout=10)
        assert tracer.active_spans() == {}
        assert [record.name for record in tracer.records()] == ["shard"]

    def test_span_record_round_trip(self):
        record = SpanRecord(
            name="n",
            span_id="a-1",
            trace_id="t-1",
            parent_id=None,
            start_epoch=12.5,
            wall_seconds=0.25,
            cpu_seconds=0.125,
            attributes={"k": "v"},
            status="ok",
            pid=99,
        )
        assert SpanRecord.from_dict(record.to_dict()) == record

    def test_trace_context_continues_the_trace(self):
        parent = Tracer()
        with parent.span("query") as span:
            context = parent.context()
            assert context.trace_id == parent.trace_id
            assert context.parent_id == span.span_id

        # Worker side: rebuild, record, ship back as dicts, adopt.
        worker = context.tracer()
        with worker.span("shard", parent_id=context.parent_id):
            pass
        payload = [record.to_dict() for record in worker.records()]
        parent.adopt(payload)

        records = parent.records()
        assert {record.name for record in records} == {"query", "shard"}
        assert validate_trace(records) == []

    def test_clear_drops_records(self):
        tracer = Tracer()
        with tracer.span("gone"):
            pass
        tracer.clear()
        assert tracer.records() == []


# --------------------------------------------------------------------- #
# Exporters, validation, rendering
# --------------------------------------------------------------------- #
def _sample_tracer() -> Tracer:
    tracer = Tracer()
    with tracer.span("query", queries=1):
        with tracer.span("shard", shard=0):
            pass
        with tracer.span("merge"):
            pass
    return tracer


class TestExporters:
    def test_jsonl_round_trip_via_path(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        write(path, Recording.of(tracer.records(), reason="test"))
        recording = load(path)
        assert recording.spans == tracer.records()
        assert validate(recording) == []

    def test_validate_catches_structural_problems(self):
        records = _sample_tracer().records()
        assert any("no root span" in p for p in validate_trace([]))

        duplicated = records + [records[0]]
        assert any("duplicate span id" in p for p in validate_trace(duplicated))

        orphan = SpanRecord.from_dict(records[0].to_dict())
        orphan.span_id = "x-1"
        orphan.parent_id = "missing-1"
        assert any("unresolved" in p for p in validate_trace(records + [orphan]))

        foreign = SpanRecord.from_dict(records[0].to_dict())
        foreign.span_id = "x-2"
        foreign.trace_id = "other-trace"
        assert any("trace ids" in p for p in validate_trace(records + [foreign]))

    def test_render_span_tree_indents_children(self):
        rendered = span_tree(_sample_tracer().records())
        lines = rendered.splitlines()
        assert lines[0].startswith("query")
        assert lines[1].startswith("  shard")
        assert lines[2].startswith("  merge")
        assert "shard=0" in lines[1]

    def test_validate_cli(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        write(path, Recording.of(_sample_tracer().records(), reason="test"))

        assert obs_main(["validate", str(path), "--tree"]) == 0
        out = capsys.readouterr().out
        assert "ok: 3 spans" in out
        assert "query" in out

        bad = tmp_path / "bad.jsonl"
        bad.write_text("")
        assert obs_main(["validate", str(bad)]) == 1
        assert obs_main(["validate"]) == 2
        assert obs_main(["validate", str(tmp_path / "absent.jsonl")]) == 1


# --------------------------------------------------------------------- #
# Logging
# --------------------------------------------------------------------- #
class TestProfileAndLogging:
    def test_get_logger_lives_under_repro(self):
        assert get_logger("sharding.engine").name == "repro.sharding.engine"
        assert get_logger("repro.core").name == "repro.core"
        assert get_logger().name == "repro"

    def test_verbosity_mapping(self):
        assert verbosity_level(0) == logging.WARNING
        assert verbosity_level(1) == logging.INFO
        assert verbosity_level(2) == logging.DEBUG
        assert verbosity_level(5) == logging.DEBUG

    def test_configure_logging_is_idempotent(self):
        stream = io.StringIO()
        root = configure_logging(1, stream=stream)
        configure_logging(1, stream=stream)
        handlers = [
            handler
            for handler in root.handlers
            if not isinstance(handler, logging.NullHandler)
        ]
        assert len(handlers) == 1
        get_logger("test").info("hello from the hierarchy")
        assert "hello from the hierarchy" in stream.getvalue()
        configure_logging(0)  # restore the quiet default for other tests


# --------------------------------------------------------------------- #
# Reader diagnostics, deterministic rendering
# --------------------------------------------------------------------- #
class TestReaderDiagnostics:
    def _lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        records = _sample_tracer().records()
        write(path, Recording.of(records, reason="test"))
        return path, records, path.read_text().splitlines()

    def test_read_jsonl_skips_blank_lines(self, tmp_path):
        path, records, lines = self._lines(tmp_path)
        path.write_text("\n\n".join(lines) + "\n\n")
        assert load(path).spans == records

    def test_read_jsonl_reports_the_offending_line(self, tmp_path):
        path, _records, lines = self._lines(tmp_path)
        lines.insert(2, "{broken")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as excinfo:
            load(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert ":3:" in message
        assert "invalid JSON" in message


class TestRenderOrdering:
    def test_siblings_render_in_start_time_order(self):
        # Hand-built records with adoption-order scrambled relative to start
        # times: rendering must order siblings by when they started.
        def record(name, span_id, parent_id, start):
            return SpanRecord(
                name=name,
                span_id=span_id,
                trace_id="t-1",
                parent_id=parent_id,
                start_epoch=start,
                wall_seconds=0.1,
                cpu_seconds=0.0,
            )

        records = [
            record("query", "a-1", None, 100.0),
            record("late", "a-4", "a-1", 103.0),
            record("early", "a-2", "a-1", 101.0),
            record("middle", "a-3", "a-1", 102.0),
        ]
        lines = span_tree(records).splitlines()
        assert [line.split()[0] for line in lines] == [
            "query",
            "early",
            "middle",
            "late",
        ]
        # Deterministic: a shuffled copy renders identically.
        assert span_tree(list(reversed(records))) == span_tree(records)
