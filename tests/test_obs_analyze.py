"""Unit tests for trace analytics (`repro.obs.analyze` + `repro.obs.report`).

Everything here runs over hand-built synthetic span records with exact
timings, so the partition property -- phase wall times sum exactly to the
root interval -- is assertable to machine precision rather than within a
tolerance.  End-to-end reports over real recorded traces live in the CLI
tests.
"""

from __future__ import annotations

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.analyze import (
    OTHER_PHASE,
    PHASE_ORDER,
    analyze,
    build_tree,
    critical_path,
    phase_breakdown,
    slowest_queries,
    sort_phases,
    span_phase,
)
from repro.obs.recording import Recording, write
from repro.obs.report import render_report
from repro.obs.trace import SpanRecord


def report_main(argv):
    return obs_main(["report", *argv])


def rec(
    name,
    span_id,
    parent_id,
    start,
    wall,
    cpu=0.0,
    pid=1,
    **attributes,
) -> SpanRecord:
    return SpanRecord(
        name=name,
        span_id=span_id,
        trace_id="t-1",
        parent_id=parent_id,
        start_epoch=float(start),
        wall_seconds=float(wall),
        cpu_seconds=float(cpu),
        attributes=dict(attributes),
        pid=pid,
    )


def sharded_trace():
    """A synthetic processes-backend query: scatter, overlapping shards, merge.

    Timeline (epoch seconds):
      batch   [0, 10]                      pid 1
        query [1, 7]   phase=scatter       pid 1
          shard [1.5, 3.5]  pid 2          phase=shard
          shard [2.5, 5.5]  pid 3          phase=shard (overlaps the first)
          merge [6, 6.5]    pid 1          phase=merge
    """
    return [
        rec("batch", "a-1", None, 0.0, 10.0, cpu=0.05, pid=1, phase="batch"),
        rec("query", "a-2", "a-1", 1.0, 6.0, cpu=0.5, pid=1, phase="scatter"),
        rec("shard", "b-1", "a-2", 1.5, 2.0, cpu=1.0, pid=2, phase="shard", shard=0),
        rec("shard", "c-1", "a-2", 2.5, 3.0, cpu=2.0, pid=3, phase="shard", shard=1),
        rec("merge", "a-3", "a-2", 6.0, 0.5, cpu=0.1, pid=1, phase="merge"),
    ]


class TestSpanPhase:
    def test_attribute_wins(self):
        record = rec("query", "x-1", None, 0, 1, phase="scatter")
        assert span_phase(record) == "scatter"

    def test_unknown_name_is_other(self):
        # No name-based guess: a span that carries no phase is foreign.
        for name in ("mystery", "query", "shard"):
            assert span_phase(rec(name, "x-1", None, 0, 1)) == OTHER_PHASE


class TestBuildTree:
    def test_parents_and_depths(self):
        tree = build_tree(sharded_trace())
        assert [root.record.name for root in tree.roots] == ["batch"]
        root = tree.roots[0]
        assert root.depth == 0
        query = root.children[0]
        assert query.depth == 1
        assert {child.depth for child in query.children} == {2}

    def test_siblings_sorted_by_start_time(self):
        tree = build_tree(sharded_trace())
        query = tree.roots[0].children[0]
        assert [child.record.span_id for child in query.children] == [
            "b-1",
            "c-1",
            "a-3",
        ]

    def test_orphan_becomes_root(self):
        records = sharded_trace() + [rec("stray", "z-1", "missing-9", 0.0, 1.0)]
        tree = build_tree(records)
        assert [root.record.name for root in tree.roots] == ["batch", "stray"]

    def test_self_parent_becomes_root(self):
        tree = build_tree([rec("loop", "z-1", "z-1", 0.0, 1.0)])
        assert [root.record.name for root in tree.roots] == ["loop"]

    def test_children_clamped_into_parent(self):
        records = [
            rec("parent", "p-1", None, 5.0, 2.0),
            # Starts before and ends after the parent: cross-process skew.
            rec("child", "c-1", "p-1", 4.0, 5.0),
        ]
        tree = build_tree(records)
        child = tree.roots[0].children[0]
        assert child.start == 5.0
        assert child.end == 7.0

    def test_subtree_preorder_is_deterministic(self):
        tree = build_tree(sharded_trace())
        names = [node.record.span_id for node in tree.subtree(tree.roots[0])]
        assert names == ["a-1", "a-2", "b-1", "c-1", "a-3"]


class TestSweepPartition:
    def test_phase_walls_partition_the_root_exactly(self):
        breakdown = phase_breakdown(sharded_trace())
        # Overlapping shards must not double count: union is [1.5, 5.5].
        assert breakdown["shard"] == pytest.approx(4.0)
        assert breakdown["merge"] == pytest.approx(0.5)
        # Scatter keeps the query time no child covers.
        assert breakdown["scatter"] == pytest.approx(1.5)
        # Batch keeps the root time outside the query span.
        assert breakdown["batch"] == pytest.approx(4.0)
        assert sum(breakdown.values()) == pytest.approx(10.0)

    def test_breakdown_for_one_root_id(self):
        breakdown = phase_breakdown(sharded_trace(), root_id="a-2")
        assert breakdown["shard"] == pytest.approx(4.0)
        assert "batch" not in breakdown
        assert sum(breakdown.values()) == pytest.approx(6.0)

    def test_unknown_root_id_is_empty(self):
        assert phase_breakdown(sharded_trace(), root_id="nope") == {}

    def test_pid_attribution_breaks_overlap_ties_deterministically(self):
        analysis = analyze(sharded_trace())
        # While both shards overlap ([2.5, 3.5]) the later-started one wins.
        assert analysis.pid_wall[2] == pytest.approx(1.0)
        assert analysis.pid_wall[3] == pytest.approx(3.0)
        assert analysis.pid_wall[1] == pytest.approx(6.0)
        assert sum(analysis.pid_wall.values()) == pytest.approx(10.0)


class TestAnalyze:
    def test_totals_and_counts(self):
        analysis = analyze(sharded_trace())
        assert analysis.span_count == 5
        assert analysis.total_wall_seconds == pytest.approx(10.0)
        assert [record.name for record in analysis.roots] == ["batch"]
        assert sum(entry.wall_seconds for entry in analysis.phases) == pytest.approx(
            10.0
        )

    def test_phases_in_canonical_order(self):
        analysis = analyze(sharded_trace())
        assert [entry.phase for entry in analysis.phases] == [
            "batch",
            "scatter",
            "shard",
            "merge",
        ]

    def test_self_cpu_subtracts_same_pid_children_only(self):
        analysis = analyze(sharded_trace())
        by_phase = {entry.phase: entry for entry in analysis.phases}
        # query (cpu 0.5) minus its same-pid merge child (0.1); the shard
        # children burned other processes' CPU clocks and are not subtracted.
        assert by_phase["scatter"].cpu_seconds == pytest.approx(0.4)
        assert by_phase["shard"].cpu_seconds == pytest.approx(3.0)
        # batch (0.05) minus same-pid query child (0.5), clamped at zero.
        assert by_phase["batch"].cpu_seconds == 0.0

    def test_critical_path_follows_latest_finisher(self):
        analysis = analyze(sharded_trace())
        assert [node.record.name for node in analysis.critical_path] == [
            "batch",
            "query",
            "merge",
        ]

    def test_name_aggregates(self):
        analysis = analyze(sharded_trace())
        by_name = {stats.name: stats for stats in analysis.names}
        assert by_name["shard"].count == 2
        assert by_name["shard"].wall_seconds == pytest.approx(5.0)
        assert by_name["shard"].mean_wall_seconds == pytest.approx(2.5)
        assert by_name["shard"].max_wall_seconds == pytest.approx(3.0)

    def test_empty_trace(self):
        analysis = analyze([])
        assert analysis.span_count == 0
        assert analysis.total_wall_seconds == 0.0
        assert analysis.critical_path == []
        assert analysis.phases == []

    def test_phase_wall_lookup(self):
        analysis = analyze(sharded_trace())
        assert analysis.phase_wall("shard") == pytest.approx(4.0)
        assert analysis.phase_wall("absent") == 0.0


class TestHelpers:
    def test_sort_phases_known_then_unknown(self):
        assert sort_phases({"zeta", "shard", "batch", "alpha"}) == [
            "batch",
            "shard",
            "alpha",
            "zeta",
        ]
        assert sort_phases(PHASE_ORDER) == list(PHASE_ORDER)

    def test_slowest_queries_order_and_top(self):
        records = [
            rec("query", "q-1", None, 0, 1.0),
            rec("query", "q-2", None, 0, 3.0),
            rec("query", "q-3", None, 0, 3.0),
            rec("shard", "s-1", None, 0, 9.0),
        ]
        slowest = slowest_queries(records, top=2)
        # Slowest first; equal walls tie-break on span id.
        assert [record.span_id for record in slowest] == ["q-2", "q-3"]
        assert slowest_queries(records, top=0) == []

    def test_critical_path_single_span(self):
        tree = build_tree([rec("only", "o-1", None, 0, 1.0)])
        assert [n.record.name for n in critical_path(tree, tree.roots[0])] == ["only"]


class TestRenderReport:
    def test_text_report_is_deterministic(self):
        analysis = analyze(sharded_trace())
        first = render_report(analysis)
        second = render_report(analyze(sharded_trace()))
        assert first == second
        assert "critical path" in first
        assert "per-phase breakdown" in first
        assert "per-pid attribution" in first  # 3 pids in the fixture
        assert "slowest queries" in first  # the fixture has one query span

    def test_phase_table_total_matches_root(self):
        text = render_report(analyze(sharded_trace()))
        total_line = next(
            line for line in text.splitlines() if line.startswith("total")
        )
        assert "10.000000s" in total_line
        assert "100.0%" in total_line

    def test_markdown_tables(self):
        text = render_report(analyze(sharded_trace()), markdown=True, title="t")
        assert text.startswith("# t")
        assert "| phase | wall | % | self-cpu | spans |" in text
        assert "| --- |" in text

    def test_single_pid_omits_pid_section(self):
        records = [rec("query", "q-1", None, 0, 1.0, pid=7)]
        assert "per-pid attribution" not in render_report(analyze(records))


class TestReportCli:
    def write_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write(path, Recording.of(sharded_trace(), reason="test"))
        return str(path)

    def test_ok(self, tmp_path, capsys):
        assert report_main([self.write_trace(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "per-phase breakdown" in out

    def test_markdown_and_top(self, tmp_path, capsys):
        assert report_main([self.write_trace(tmp_path), "--markdown", "--top", "1"]) == 0
        assert "| phase |" in capsys.readouterr().out

    def test_usage_errors(self, tmp_path, capsys):
        assert report_main([]) == 2
        assert report_main(["a.jsonl", "b.jsonl"]) == 2
        assert report_main([self.write_trace(tmp_path), "--top", "x"]) == 2
        capsys.readouterr()

    def test_unreadable_and_empty(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "absent.jsonl")]) == 1
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert report_main([str(empty)]) == 1
        capsys.readouterr()
