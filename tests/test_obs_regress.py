"""Unit tests for the benchmark-regression sentry (`repro.obs.regress`)."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.__main__ import main as obs_main
from repro.obs.regress import (
    DEFAULT_THRESHOLD,
    HISTORY_FILENAME,
    MIN_COMPARABLE_SECONDS,
    append_history,
    build_report,
    compare_records,
    extract_metrics,
    is_smoke,
    load_bench_records,
    load_history,
    metric_direction,
    render_markdown,
    run_key,
)


def regress_main(argv):
    return obs_main(["regress", *argv])


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(
    name="batch",
    scale="small",
    backend="serial",
    smoke=False,
    sha="abc0001",
    at="2026-08-08T00:00:00Z",
    results=None,
):
    return {
        "name": name,
        "scale": scale,
        "backend": backend,
        "smoke": smoke,
        "git_sha": sha,
        "recorded_at": at,
        "results": results if results is not None else {"total_seconds": 2.0},
    }


class TestRecordBasics:
    def test_run_key_and_smoke(self):
        record = bench(name="x", scale="tiny", backend="threads:2", smoke=True)
        assert run_key(record) == ("x", "tiny", "threads:2")
        assert is_smoke(record)
        assert not is_smoke(bench())
        assert run_key({}) == ("", "", "")

    def test_load_bench_records_sorted_and_tolerant(self, tmp_path):
        (tmp_path / "BENCH_b.json").write_text(json.dumps(bench(name="b")))
        (tmp_path / "BENCH_a.json").write_text(json.dumps(bench(name="a")))
        (tmp_path / "BENCH_bad.json").write_text("{not json")
        (tmp_path / "BENCH_list.json").write_text("[1, 2]")
        (tmp_path / "other.json").write_text(json.dumps(bench(name="ignored")))
        records = load_bench_records(str(tmp_path))
        assert [record["name"] for record in records] == ["a", "b"]
        assert load_bench_records(str(tmp_path / "absent")) == []

    def test_load_history_tolerant(self, tmp_path):
        path = tmp_path / HISTORY_FILENAME
        path.write_text(
            json.dumps(bench(name="one")) + "\n\nnot json\n" + json.dumps(bench(name="two")) + "\n"
        )
        assert [r["name"] for r in load_history(str(path))] == ["one", "two"]
        assert load_history(str(tmp_path / "absent.jsonl")) == []

    def test_append_history_dedupes_by_identity(self, tmp_path):
        path = str(tmp_path / HISTORY_FILENAME)
        first = bench(sha="aaa")
        assert append_history(path, [first, first]) == 1
        # Same identity again: nothing added; a new sha is a new entry.
        assert append_history(path, [first, bench(sha="bbb")]) == 1
        assert len(load_history(path)) == 2


class TestMetricExtraction:
    def test_flattens_nested_dicts_to_dotted_paths(self):
        record = bench(results={"profile": {"wall_seconds": 1.5}, "n": 3})
        metrics = extract_metrics(record)
        assert metrics == {"profile.wall_seconds": 1.5, "n": 3.0}

    def test_labeled_rows_become_stable_metrics(self):
        record = bench(
            results={
                "rows": [
                    {"index": "disk", "speedup": 2.0, "serial_seconds": 4.0},
                    {"index": "in-memory", "speedup": 1.5, "serial_seconds": 1.0},
                ]
            }
        )
        metrics = extract_metrics(record)
        assert metrics["rows[disk].speedup"] == 2.0
        assert metrics["rows[in-memory].serial_seconds"] == 1.0

    def test_rows_labeled_by_configuration(self):
        # The shape of BENCH_backend_scatter.json / BENCH_sharded.json, which
        # the smoke benchmarks leave at the repo root.
        record = bench(
            results={
                "queries": 4,
                "rows": [
                    {"configuration": "serial", "identical": True, "speedup": 1.0, "wall_seconds": 0.02},
                    {"configuration": "threads:4", "identical": True, "speedup": 1.1, "wall_seconds": 0.018},
                ],
            }
        )
        metrics = extract_metrics(record)
        assert metrics["rows[threads:4].speedup"] == 1.1
        assert metric_direction("rows[threads:4].speedup") == "higher"
        assert metric_direction("rows[serial].wall_seconds") == "lower"

    def test_unlabeled_lists_and_bools_are_skipped(self):
        record = bench(
            results={
                "hot_functions": [{"func": "expand", "tottime": 1.0}],
                "scalars": [1.0, 2.0],
                "converged": True,
            }
        )
        assert extract_metrics(record) == {}

    def test_committed_bench_records_yield_metrics(self):
        # The real records at the repo root must flatten into comparable
        # metrics -- the sentry's whole premise.
        records = load_bench_records(REPO_ROOT)
        assert records, "no committed BENCH_*.json at the repo root"
        for record in records:
            metrics = extract_metrics(record)
            assert any(metric_direction(m) for m in metrics), record["name"]

    def test_direction(self):
        assert metric_direction("total_seconds") == "lower"
        assert metric_direction("rows[disk].parallel_seconds") == "lower"
        assert metric_direction("seconds") == "lower"
        assert metric_direction("rows[disk].speedup") == "higher"
        assert metric_direction("throughput_qps") == "higher"
        assert metric_direction("queries") is None
        assert metric_direction("ratio") is None


class TestCompare:
    def test_slower_timing_regresses(self):
        baseline = bench(results={"total_seconds": 1.0})
        current = bench(results={"total_seconds": 1.0 + DEFAULT_THRESHOLD + 0.1})
        (delta,) = compare_records(current, baseline)
        assert delta.regressed and not delta.improved
        assert delta.ratio == pytest.approx(1.35)

    def test_within_threshold_is_ok(self):
        baseline = bench(results={"total_seconds": 1.0})
        current = bench(results={"total_seconds": 1.2})
        (delta,) = compare_records(current, baseline)
        assert not delta.regressed and not delta.improved

    def test_faster_timing_improves(self):
        baseline = bench(results={"total_seconds": 1.0})
        current = bench(results={"total_seconds": 0.5})
        (delta,) = compare_records(current, baseline)
        assert delta.improved

    def test_speedup_drop_regresses(self):
        baseline = bench(results={"speedup": 4.0})
        current = bench(results={"speedup": 2.0})
        (delta,) = compare_records(current, baseline)
        assert delta.direction == "higher"
        assert delta.regressed

    def test_sub_jitter_timings_are_not_compared(self):
        baseline = bench(results={"tiny_seconds": MIN_COMPARABLE_SECONDS / 2})
        current = bench(results={"tiny_seconds": MIN_COMPARABLE_SECONDS / 2 * 10})
        # Both sides below the floor... the current one is above it, so the
        # metric IS compared; only when both are sub-floor is it skipped.
        assert compare_records(current, baseline)
        both_small = bench(results={"tiny_seconds": 0.002})
        assert compare_records(bench(results={"tiny_seconds": 0.004}), both_small) == []

    def test_smoke_flag_travels_on_deltas(self):
        baseline = bench(results={"total_seconds": 1.0})
        current = bench(smoke=True, results={"total_seconds": 2.0})
        (delta,) = compare_records(current, baseline)
        assert delta.regressed and delta.smoke


class TestBuildReport:
    def test_smoke_history_is_never_a_baseline(self):
        history = [
            bench(sha="old", results={"total_seconds": 1.0}),
            bench(sha="noise", smoke=True, results={"total_seconds": 50.0}),
        ]
        current = [bench(sha="now", results={"total_seconds": 1.1})]
        report = build_report(current, history)
        assert report.regressions == []
        assert report.baselines[run_key(current[0])]["git_sha"] == "old"

    def test_last_non_smoke_record_wins(self):
        history = [
            bench(sha="v1", results={"total_seconds": 4.0}),
            bench(sha="v2", results={"total_seconds": 1.0}),
        ]
        current = [bench(sha="now", results={"total_seconds": 2.0})]
        report = build_report(current, history)
        # Against v2 (1.0s) this is a 2x regression; against v1 it would pass.
        assert len(report.regressions) == 1

    def test_new_series_without_baseline(self):
        report = build_report([bench(name="fresh")], history=[])
        assert report.new_series == [("fresh", "small", "serial")]
        assert report.deltas == []

    def test_renamed_metric_starts_a_new_series(self):
        # The kernel A/B renamed its speedup when the kernel it measured was
        # replaced: the new name has no baseline (new), the old name has no
        # current value (not a regression), shared metrics still compare.
        history = [bench(results={"batched_speedup": 1.68, "reference_seconds": 8.0})]
        current = [bench(sha="now", results={"live_speedup": 4.0, "reference_seconds": 8.1})]
        report = build_report(current, history)
        assert report.regressions == []
        assert [delta.metric for delta in report.deltas] == ["reference_seconds"]
        assert report.new_metrics == [(("batch", "small", "serial"), "live_speedup")]
        assert report.new_series == []
        text = render_markdown(report, DEFAULT_THRESHOLD)
        assert "## New series (no baseline yet)" in text
        assert "batch (scale=small, backend=serial): live_speedup" in text

    def test_hard_regressions_exclude_smoke_currents(self):
        history = [bench(results={"total_seconds": 1.0})]
        current = [bench(smoke=True, results={"total_seconds": 9.0})]
        report = build_report(current, history)
        assert len(report.regressions) == 1
        assert report.hard_regressions == []

    def test_markdown_render(self):
        history = [bench(sha="base", results={"total_seconds": 1.0})]
        current = [bench(sha="now", results={"total_seconds": 3.0})]
        report = build_report(current, history)
        text = render_markdown(report, DEFAULT_THRESHOLD)
        assert "# Benchmark trajectory" in text
        assert "batch (scale=small, backend=serial)" in text
        assert "REGRESSED" in text
        assert "baseline: base" in text


class TestCli:
    def seed(self, tmp_path, current_seconds, baseline_seconds=1.0, smoke=False):
        (tmp_path / "BENCH_batch.json").write_text(
            json.dumps(bench(smoke=smoke, results={"total_seconds": current_seconds}))
        )
        history = tmp_path / HISTORY_FILENAME
        history.write_text(
            json.dumps(bench(sha="base", results={"total_seconds": baseline_seconds}))
            + "\n"
        )
        return str(tmp_path)

    def test_clean_trajectory_exits_zero(self, tmp_path, capsys):
        directory = self.seed(tmp_path, current_seconds=1.05)
        assert regress_main(["--dir", directory]) == 0
        assert "No regressions" in capsys.readouterr().out

    def test_injected_regression_exits_one(self, tmp_path, capsys):
        directory = self.seed(tmp_path, current_seconds=5.0)
        assert regress_main(["--dir", directory]) == 1
        captured = capsys.readouterr()
        assert "regression: batch" in captured.err
        assert "REGRESSED" in captured.out

    def test_tolerate_smoke_downgrades(self, tmp_path, capsys):
        directory = self.seed(tmp_path, current_seconds=5.0, smoke=True)
        assert regress_main(["--dir", directory]) == 1
        capsys.readouterr()
        assert regress_main(["--dir", directory, "--tolerate-smoke"]) == 0
        assert "tolerated" in capsys.readouterr().err

    def test_markdown_artifact_written(self, tmp_path, capsys):
        directory = self.seed(tmp_path, current_seconds=1.0)
        artifact = tmp_path / "perf.md"
        assert regress_main(["--dir", directory, "--markdown", str(artifact)]) == 0
        assert "# Benchmark trajectory" in artifact.read_text()
        capsys.readouterr()

    def test_update_history_appends_once(self, tmp_path, capsys):
        directory = self.seed(tmp_path, current_seconds=1.0)
        assert regress_main(["--dir", directory, "--update-history"]) == 0
        assert regress_main(["--dir", directory, "--update-history"]) == 0
        capsys.readouterr()
        assert len(load_history(str(tmp_path / HISTORY_FILENAME))) == 2

    def test_no_records_exits_two(self, tmp_path, capsys):
        assert regress_main(["--dir", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert regress_main(["--threshold"]) == 2
        assert regress_main(["--threshold", "nope"]) == 2
        assert regress_main(["--threshold", "-1", "--dir", str(tmp_path)]) == 2
        assert regress_main(["--bogus"]) == 2
        capsys.readouterr()

    def test_committed_trajectory_is_clean(self, capsys):
        # Acceptance criterion: the repo's own committed records and history
        # pass the sentry.
        assert regress_main(["--dir", REPO_ROOT, "--tolerate-smoke"]) == 0
        capsys.readouterr()
