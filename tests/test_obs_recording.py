"""The one on-disk telemetry format and its one reader (`repro.obs.recording`).

``search --trace`` and ``search --flight`` write the same kind-tagged
JSON-lines document; whether the tree checks apply is read from the file's
header.  These tests pin that any file the tools write can be read by every
tool, and the exit-code contract of ``python -m repro.obs``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.obs import Recording, SpanRecord, Tracer
from repro.obs.__main__ import main as obs_main
from repro.obs.flight import FlightRecorder
from repro.obs.recording import load, render, validate, write
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sharding import ShardedEngine, ShardedIndexBuilder

QUERY = "WKDDGNGYISAAE"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def span(name, span_id, parent_id, start, trace_id="t-1", **attributes) -> SpanRecord:
    return SpanRecord(
        name=name,
        span_id=span_id,
        trace_id=trace_id,
        parent_id=parent_id,
        start_epoch=float(start),
        wall_seconds=1.0,
        cpu_seconds=0.5,
        attributes={"phase": "expand", **attributes},
        pid=7,
    )


def healthy():
    return [span("query", "a-1", None, 0), span("shard", "a-2", "a-1", 0.1, shard=0)]


def analysis_section(rendered: str) -> str:
    return rendered[rendered.index("span analysis") :]


def test_a_trace_and_a_flight_dump_of_one_search_read_the_same(
    small_protein_database, tmp_path
):
    """A real ``processes:2`` scatter: worker spans are adopted into the tracer
    and reach the recorder's ring, so both files hold the same span list."""
    index = tmp_path / "index"
    ShardedIndexBuilder(pam30(), FixedGapModel(-8), shard_count=4).build(
        small_protein_database, index
    )
    trace_path, dump_path = tmp_path / "t.jsonl", tmp_path / "f.jsonl"
    tracer = Tracer()
    with FlightRecorder(tracer, path=str(dump_path)) as recorder:
        with ShardedEngine.open(str(index), backend="processes:2") as engine:
            engine.instrument(tracer)
            report = engine.search_many([QUERY], min_score=40, tracer=tracer)
        assert not report.statistics.failed
        recorder.dump("complete")
    write(trace_path, Recording.of(tracer.records(), partial=False, reason="trace"))

    trace, dump = load(trace_path), load(dump_path)
    assert trace.header["partial"] is False and dump.header["partial"] is True
    assert validate(trace) == [] and validate(dump) == []
    assert len({record.pid for record in trace.spans}) > 1  # workers took part
    assert trace.spans == dump.spans == tracer.records()
    assert analysis_section(render(trace)) == analysis_section(render(dump))
    assert dump.events and not trace.events


DEFECTS = {
    "orphan parent": (healthy() + [span("stray", "a-3", "gone-9", 0.2)], "unresolved"),
    "two trace ids": (healthy() + [span("other", "b-1", "a-1", 0.2, trace_id="t-2")], "trace ids"),
    "cycle": (
        healthy() + [span("x", "c-1", "c-2", 0.2), span("y", "c-2", "c-1", 0.3)],
        "parent cycle",
    ),
    "no root": ([span("shard", "a-2", "a-1", 0.1)], "no root span"),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_tree_checks_apply_exactly_when_the_header_says_complete(defect, tmp_path):
    spans, expected = DEFECTS[defect]
    path = tmp_path / "r.jsonl"
    write(path, Recording.of(spans, partial=False, reason="test"))
    assert any(expected in problem for problem in validate(load(path)))
    assert obs_main(["validate", str(path)]) == 1

    # The same spans as a ring's partial contents are legal; the replay
    # promotes what it cannot parent to a root.
    write(path, Recording.of(spans, partial=True, reason="test"))
    partial = load(path)
    assert validate(partial) == []
    if defect != "cycle":  # a closed loop has no entry point to draw from
        for record in spans:
            assert record.name in render(partial)
    assert obs_main(["report", str(path)]) == 0


def test_a_dump_cut_off_after_its_header_fails_on_the_declared_counts(tmp_path):
    path = tmp_path / "cut.jsonl"
    write(path, Recording.of(healthy(), partial=True, reason="signal"))
    path.write_text(path.read_text().splitlines()[0] + "\n")
    assert validate(load(path)) == ["header declares 2 spans, file has 0"]
    assert obs_main(["validate", str(path)]) == 1


def _header(**changes) -> str:
    return json.dumps({**Recording.of([], partial=True, reason="test").header, **changes})


MALFORMED = {
    "unknown version": ([_header(version=99)], 1, "format/version"),
    "second header": ([_header(), _header()], 2, "duplicate header"),
    "unknown kind": ([_header(), json.dumps({"kind": "mystery"})], 2, "unknown record kind"),
    "non-object line": ([_header(), "[1, 2]"], 2, "expected a JSON object"),
    "broken JSON": ([_header(), "{broken"], 2, "invalid JSON"),
    "span before header": ([json.dumps({"kind": "span"})], 1, "expected the header first"),
    "span missing a field": ([_header(), json.dumps({"kind": "span"})], 2, "malformed span"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_line_is_named_by_path_and_line(case, tmp_path, capsys):
    lines, number, message = MALFORMED[case]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as excinfo:
        load(path)
    assert f"{path}:{number}: " in str(excinfo.value)
    assert message in str(excinfo.value)
    # ... and the tools print it and exit 1 rather than trace back.
    assert obs_main(["report", str(path)]) == 1
    assert f"{path}:{number}: " in capsys.readouterr().err


def test_non_ascii_identifiers_round_trip_to_the_report(tmp_path, capsys):
    name = "Müller-Lüdenscheidt"
    spans = [span("query", "a-1", None, 0, author=name)]
    path = tmp_path / "umlaut.jsonl"
    write(path, Recording.of(spans, partial=False, reason="test", note=name))
    recording = load(path)
    assert recording.spans == spans
    assert recording.header["note"] == name
    assert obs_main(["report", str(path)]) == 0
    assert f"author={name}" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# python -m repro.obs: 0 ok / 1 unreadable, invalid or empty / 2 usage.
# Each subcommand's three codes are pinned next to what it reads:
# test_obs.py::test_validate_cli, test_obs_analyze.py::TestReportCli.
# Here: what argparse bought.
# --------------------------------------------------------------------- #
@pytest.fixture
def good(tmp_path) -> str:
    path = tmp_path / "good.jsonl"
    write(path, Recording.of(healthy(), partial=False, reason="test"))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [["validate", "--treee"], ["report", "--markdwon"], ["flight"], []],
    ids=lambda argv: " ".join(argv) or "none",
)
def test_a_misspelled_option_is_a_usage_error_not_dropped(argv, good, capsys):
    assert obs_main(argv + [good] if argv else argv) == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and "ok:" not in captured.out


@pytest.mark.parametrize("command", ["validate", "report"])
def test_a_closed_pipe_is_not_an_error(command, good, monkeypatch):
    class ClosedPipe:
        def write(self, _text):
            raise BrokenPipeError

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert obs_main([command, good]) == 0


def test_cli_trace_then_the_tools_as_ci_runs_them(tmp_path, capsys):
    """The CI smoke step: ``search --trace F``, then ``validate --tree F`` and
    ``report F`` as real ``python -m repro.obs`` processes."""
    fasta, queries, trace = tmp_path / "db.fasta", tmp_path / "q.txt", tmp_path / "t.jsonl"
    generate = ["generate", "--output", str(fasta), "--queries", str(queries)]
    assert cli_main(generate + ["--families", "4", "--query-count", "2", "--seed", "3"]) == 0
    search = ["search", "--database", str(fasta), "--queries", str(queries)]
    assert cli_main(search + ["--min-score", "15", "--trace", str(trace)]) == 0
    capsys.readouterr()
    for arguments, expected in (
        (["validate", "--tree", str(trace)], "ok: "),
        (["report", str(trace)], "span analysis"),
    ):
        finished = subprocess.run(
            [sys.executable, "-m", "repro.obs", *arguments],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert finished.returncode == 0, finished.stderr
        assert "query" in finished.stdout and expected in finished.stdout
