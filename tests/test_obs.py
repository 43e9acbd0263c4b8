"""Unit tests for the telemetry layer: spans, metrics, logging.

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
    MetricsRegistry,
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
# Metrics
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("events", description="things")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert registry.counter("events") is counter

    def test_gauge_tracks_high_water(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.inc(3)
        gauge.dec(2)
        gauge.set(1.5)
        assert gauge.value == 1.5
        assert gauge.max_value == 3.0

    def test_histogram_buckets_and_quantiles(self):
        histogram = MetricsRegistry().histogram("lat", boundaries=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(6.05 / 4)
        counts = dict(histogram.bucket_counts())
        assert counts[0.1] == 1 and counts[1.0] == 2 and counts[None] == 1
        assert histogram.quantile(0.5) == 1.0

    def test_histogram_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", boundaries=(1.0, 1.0))

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_merge_round_trip(self):
        worker = MetricsRegistry()
        worker.counter("n").inc(7)
        worker.gauge("g").set(2.0)
        worker.histogram("h", boundaries=(1.0,)).observe(0.5)

        parent = MetricsRegistry()
        parent.counter("n").inc(1)
        parent.merge_snapshot(worker.snapshot())
        assert parent.counter("n").value == 8
        assert parent.gauge("g").value == 2.0
        assert parent.histogram("h", boundaries=(1.0,)).count == 1

    def test_merge_rejects_mismatched_buckets(self):
        a = MetricsRegistry().histogram("h", boundaries=(1.0,))
        b = MetricsRegistry().histogram("h", boundaries=(2.0,))
        with pytest.raises(ValueError):
            a.merge(b.snapshot())

    def test_render_lists_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(4)
        registry.histogram("h").observe(0.01)
        rendered = registry.render()
        assert "c = 2" in rendered
        assert "g = 4" in rendered
        assert "h: count=1" in rendered
        assert len(registry) == 3


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
# Histogram quantile edges, reader diagnostics, deterministic rendering
# --------------------------------------------------------------------- #
class TestHistogramQuantileEdges:
    def make(self, *values, boundaries=(0.1, 1.0)):
        histogram = MetricsRegistry().histogram("h", boundaries=boundaries)
        for value in values:
            histogram.observe(value)
        return histogram

    def test_empty_histogram_is_zero_everywhere(self):
        histogram = self.make()
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(0.5) == 0.0
        assert histogram.quantile(1.0) == 0.0

    def test_q_zero_reports_the_smallest_observations_bucket(self):
        histogram = self.make(0.05, 0.5, 5.0)
        # Never the edge of an empty leading bucket: rank floors at 1.
        assert histogram.quantile(0.0) == 0.1

    def test_q_one_reports_the_largest_observations_bucket(self):
        assert self.make(0.05, 0.5).quantile(1.0) == 1.0

    def test_single_observation_is_every_quantile(self):
        histogram = self.make(0.5)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert histogram.quantile(q) == 1.0

    def test_overflow_bucket_reports_the_mean(self):
        histogram = self.make(5.0, 7.0)
        assert histogram.quantile(1.0) == pytest.approx(6.0)

    def test_out_of_range_q_rejected(self):
        histogram = self.make(0.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)
        with pytest.raises(ValueError):
            histogram.quantile(1.1)


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
