"""Benchmark-regression sentry: ``python -m repro.obs regress``.

The benchmarks persist one ``BENCH_<name>.json`` record per run (see
:func:`repro.testing.persist_bench`) and the repo commits them, building a
perf trajectory.  This module is the sentry that *reads* the trajectory:

* current records are the ``BENCH_*.json`` files in a directory (the repo
  root by default);
* the baseline per ``(name, scale, backend)`` key is the most recent
  **non-smoke** record in the append-only ``BENCH_history.jsonl`` (smoke
  runs are CI load noise -- ``persist_bench`` stamps them, and they are
  never a baseline);
* numeric metrics are flattened out of each record's ``results`` payload
  -- ``*seconds`` keys are lower-is-better, ``*speedup``/``*throughput``/
  ``*qps`` higher-is-better, everything else informational -- and compared
  under a noise-tolerant relative threshold (default 25%), with
  sub-50 ms timings skipped outright (pure jitter at that magnitude).

Exit codes: 0 -- no regression; 1 -- at least one metric regressed
(``--tolerate-smoke`` downgrades regressions on smoke-stamped *current*
records to warnings, for CI lanes that regenerate records in smoke mode);
2 -- usage error or no benchmark records found.  ``--markdown FILE``
writes the trajectory report CI uploads as an artifact;
``--update-history`` appends the current records to the history file
(how the committed trajectory grows by one run per optimisation PR).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Default relative change tolerated before a metric counts as regressed.
DEFAULT_THRESHOLD = 0.25

#: Lower-is-better timings below this baseline are skipped: at sub-50 ms a
#: shared runner's scheduling jitter exceeds any signal.
MIN_COMPARABLE_SECONDS = 0.05

#: File name of the append-only trajectory next to the ``BENCH_*.json`` files.
HISTORY_FILENAME = "BENCH_history.jsonl"

#: Keys that label the entries of a list in a results payload.  Lists whose
#: entries carry none of them (e.g. profiler hot-function lists, whose
#: membership changes run to run) are not flattened into metrics.
_LIST_LABEL_KEYS = ("index", "name", "shard", "configuration")

#: (key, record) pairs identifying one benchmark series.
RunKey = Tuple[str, str, str]


def run_key(record: Dict[str, object]) -> RunKey:
    return (
        str(record.get("name", "")),
        str(record.get("scale", "")),
        str(record.get("backend", "")),
    )


def is_smoke(record: Dict[str, object]) -> bool:
    return bool(record.get("smoke", False))


def load_bench_records(directory: str) -> List[Dict[str, object]]:
    """Every ``BENCH_*.json`` in ``directory``, sorted by file name."""
    records: List[Dict[str, object]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return records
    for filename in names:
        if not (filename.startswith("BENCH_") and filename.endswith(".json")):
            continue
        path = os.path.join(directory, filename)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if isinstance(payload, dict):
            records.append(payload)
    return records


def load_history(path: str) -> List[Dict[str, object]]:
    """The append-only trajectory, oldest first (missing file -> empty)."""
    records: List[Dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue
                if isinstance(payload, dict):
                    records.append(payload)
    except OSError:
        return []
    return records


def append_history(path: str, records: Sequence[Dict[str, object]]) -> int:
    """Append records not already present (by identity fields); returns count."""
    existing = {
        (
            str(entry.get("name")),
            str(entry.get("scale")),
            str(entry.get("backend")),
            str(entry.get("git_sha")),
            str(entry.get("recorded_at")),
        )
        for entry in load_history(path)
    }
    added = 0
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            identity = (
                str(record.get("name")),
                str(record.get("scale")),
                str(record.get("backend")),
                str(record.get("git_sha")),
                str(record.get("recorded_at")),
            )
            if identity in existing:
                continue
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            existing.add(identity)
            added += 1
    return added


def extract_metrics(record: Dict[str, object]) -> Dict[str, float]:
    """Flatten the numeric leaves of a record's ``results`` payload.

    Nested dicts become dotted paths; lists are flattened only when every
    entry is a dict carrying a label key (``index``/``name``/``shard``), so
    ``rows[disk].speedup`` is a stable metric while a profiler's
    hot-function list (unstable membership) contributes nothing.  Booleans
    are not metrics.
    """
    metrics: Dict[str, float] = {}

    def visit(prefix: str, value: object) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            metrics[prefix] = float(value)
            return
        if isinstance(value, dict):
            for key in sorted(value):
                child = f"{prefix}.{key}" if prefix else str(key)
                visit(child, value[key])
            return
        if isinstance(value, list) and value:
            if not all(isinstance(entry, dict) for entry in value):
                return
            label_key = next(
                (
                    candidate
                    for candidate in _LIST_LABEL_KEYS
                    if all(candidate in entry for entry in value)
                ),
                None,
            )
            if label_key is None:
                return
            for entry in value:
                label = str(entry[label_key])
                for key in sorted(entry):
                    if key == label_key:
                        continue
                    visit(f"{prefix}[{label}].{key}", entry[key])

    results = record.get("results")
    if isinstance(results, dict):
        visit("", results)
    return metrics


def metric_direction(metric: str) -> Optional[str]:
    """``"lower"``, ``"higher"`` or ``None`` (informational, not compared)."""
    leaf = metric.rsplit(".", 1)[-1]
    if leaf == "seconds" or leaf.endswith("_seconds"):
        return "lower"
    if leaf.endswith("_sampled_share"):
        # Wall-clock sample share of a hot path (the stackprof benchmark
        # records core/expand.py's): shrinking it is the point of the
        # planned vectorisation, so track it directionally.
        return "lower"
    if "speedup" in leaf or "throughput" in leaf or leaf.endswith("qps"):
        return "higher"
    return None


@dataclass(frozen=True)
class MetricDelta:
    """One metric of one benchmark series, compared against its baseline."""

    key: RunKey
    metric: str
    direction: str
    baseline: float
    current: float
    #: current/baseline (1.0 = unchanged); 0 when the baseline is 0.
    ratio: float
    regressed: bool
    improved: bool
    #: A regression on a smoke-stamped current record (warn, never fail,
    #: under ``--tolerate-smoke``).
    smoke: bool


def compare_records(
    current: Dict[str, object],
    baseline: Dict[str, object],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[MetricDelta]:
    """Compare every directional metric the two records share."""
    deltas: List[MetricDelta] = []
    current_metrics = extract_metrics(current)
    baseline_metrics = extract_metrics(baseline)
    smoke = is_smoke(current)
    for metric in sorted(set(current_metrics) & set(baseline_metrics)):
        direction = metric_direction(metric)
        if direction is None:
            continue
        now = current_metrics[metric]
        then = baseline_metrics[metric]
        if direction == "lower" and max(now, then) < MIN_COMPARABLE_SECONDS:
            continue
        ratio = now / then if then else 0.0
        if direction == "lower":
            regressed = then > 0 and now > then * (1.0 + threshold)
            improved = then > 0 and now < then * (1.0 - threshold)
        else:
            regressed = then > 0 and now < then * (1.0 - threshold)
            improved = then > 0 and now > then * (1.0 + threshold)
        deltas.append(
            MetricDelta(
                key=run_key(current),
                metric=metric,
                direction=direction,
                baseline=then,
                current=now,
                ratio=ratio,
                regressed=regressed,
                improved=improved,
                smoke=smoke,
            )
        )
    return deltas


@dataclass
class RegressionReport:
    """Everything one sentry run decided."""

    deltas: List[MetricDelta]
    #: Series with a current record but no non-smoke baseline in history.
    new_series: List[RunKey]
    #: Baseline record count consulted per series.
    baselines: Dict[RunKey, Dict[str, object]]
    #: Directional metrics the current record has and its baseline lacks (a
    #: renamed or added metric): the start of a new series, not a comparison
    #: -- and the old name's absence from the current record is not a failure.
    new_metrics: Sequence[Tuple[RunKey, str]] = ()

    @property
    def regressions(self) -> List[MetricDelta]:
        return [delta for delta in self.deltas if delta.regressed]

    @property
    def hard_regressions(self) -> List[MetricDelta]:
        """Regressions on non-smoke current records (always fatal)."""
        return [delta for delta in self.regressions if not delta.smoke]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [delta for delta in self.deltas if delta.improved]


def build_report(
    current_records: Sequence[Dict[str, object]],
    history: Sequence[Dict[str, object]],
    threshold: float = DEFAULT_THRESHOLD,
) -> RegressionReport:
    """Compare each current record against its last non-smoke baseline."""
    baselines: Dict[RunKey, Dict[str, object]] = {}
    for record in history:  # oldest first: the last write per key wins
        if not is_smoke(record):
            baselines[run_key(record)] = record
    deltas: List[MetricDelta] = []
    new_series: List[RunKey] = []
    new_metrics: List[Tuple[RunKey, str]] = []
    consulted: Dict[RunKey, Dict[str, object]] = {}
    for record in current_records:
        key = run_key(record)
        baseline = baselines.get(key)
        if baseline is None:
            new_series.append(key)
            continue
        consulted[key] = baseline
        deltas.extend(compare_records(record, baseline, threshold=threshold))
        known = extract_metrics(baseline)
        new_metrics.extend(
            (key, metric)
            for metric in sorted(extract_metrics(record))
            if metric not in known and metric_direction(metric) is not None
        )
    return RegressionReport(
        deltas=deltas, new_series=new_series, baselines=consulted, new_metrics=new_metrics
    )


def _format_key(key: RunKey) -> str:
    name, scale, backend = key
    return f"{name} (scale={scale}, backend={backend})"


def _status(delta: MetricDelta) -> str:
    if delta.regressed:
        return "REGRESSED (smoke)" if delta.smoke else "REGRESSED"
    if delta.improved:
        return "improved"
    return "ok"


def render_markdown(report: RegressionReport, threshold: float) -> str:
    """The trajectory report CI uploads as an artifact (deterministic)."""
    out: List[str] = ["# Benchmark trajectory", ""]
    out.append(
        f"threshold: ±{threshold:.0%} relative; timings under "
        f"{MIN_COMPARABLE_SECONDS * 1000:.0f} ms are not compared."
    )
    regressions = report.regressions
    out.append("")
    if regressions:
        hard = len(report.hard_regressions)
        out.append(
            f"**{len(regressions)} regression(s)** "
            f"({hard} on non-smoke records), "
            f"{len(report.improvements)} improvement(s)."
        )
    elif report.deltas:
        out.append(
            f"No regressions across {len(report.deltas)} compared metric(s); "
            f"{len(report.improvements)} improvement(s)."
        )
    else:
        out.append("Nothing to compare (no series with a committed baseline).")
    keys = sorted({delta.key for delta in report.deltas})
    for key in keys:
        out.append("")
        out.append(f"## {_format_key(key)}")
        baseline = report.baselines.get(key, {})
        out.append(
            f"baseline: {baseline.get('git_sha', 'unknown')} "
            f"recorded {baseline.get('recorded_at', 'unknown')}"
        )
        out.append("")
        out.append("| metric | baseline | current | delta | status |")
        out.append("| --- | --- | --- | --- | --- |")
        for delta in report.deltas:
            if delta.key != key:
                continue
            change = (delta.ratio - 1.0) * 100.0
            out.append(
                f"| {delta.metric} | {delta.baseline:.6g} | {delta.current:.6g} "
                f"| {change:+.1f}% | {_status(delta)} |"
            )
    if report.new_series or report.new_metrics:
        out.append("")
        out.append("## New series (no baseline yet)")
        for key in sorted(report.new_series):
            out.append(f"- {_format_key(key)}")
        for key, metric in report.new_metrics:
            out.append(f"- {_format_key(key)}: {metric}")
    return "\n".join(out)


def run(
    directory: str = ".",
    history_path: Optional[str] = None,
    threshold: float = DEFAULT_THRESHOLD,
    markdown_path: Optional[str] = None,
    tolerate_smoke: bool = False,
    update_history: bool = False,
) -> int:
    """Compare ``directory``'s records with the history; returns the exit code."""
    if threshold <= 0:
        print("--threshold must be positive", file=sys.stderr)
        return 2
    if history_path is None:
        history_path = os.path.join(directory, HISTORY_FILENAME)

    current_records = load_bench_records(directory)
    if not current_records:
        print(f"no BENCH_*.json records found in {directory}", file=sys.stderr)
        return 2
    history = load_history(history_path)
    report = build_report(current_records, history, threshold=threshold)

    rendered = render_markdown(report, threshold)
    if markdown_path is not None:
        with open(markdown_path, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    try:
        print(rendered)
    except BrokenPipeError:  # reader (e.g. `| head`) closed the pipe early
        pass

    if update_history:
        added = append_history(history_path, current_records)
        print(f"appended {added} record(s) to {history_path}", file=sys.stderr)

    fatal = report.hard_regressions if tolerate_smoke else report.regressions
    tolerated = len(report.regressions) - len(fatal)
    if tolerated:
        print(
            f"warning: {tolerated} regression(s) on smoke records tolerated",
            file=sys.stderr,
        )
    if fatal:
        for delta in fatal:
            print(
                f"regression: {_format_key(delta.key)} {delta.metric}: "
                f"{delta.baseline:.6g} -> {delta.current:.6g} "
                f"({(delta.ratio - 1.0) * 100.0:+.1f}%)",
                file=sys.stderr,
            )
        return 1
    return 0
