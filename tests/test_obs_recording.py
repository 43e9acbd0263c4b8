"""The one on-disk telemetry format and its one reader (`repro.obs.recording`).

``search --trace`` writes a kind-tagged JSON-lines document: a header, then
the spans of one closed tree.  These tests pin that any file the tools write
can be read by every tool, that a file an older writer left reads the same,
and the exit-code contract of ``python -m repro.obs``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.obs import Recording, SpanRecord
from repro.obs.__main__ import main as obs_main
from repro.obs.recording import load, render, validate, write

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


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
def test_a_broken_tree_is_invalid_and_still_renders(defect, tmp_path):
    spans, expected = DEFECTS[defect]
    path = tmp_path / "r.jsonl"
    write(path, Recording.of(spans, reason="test"))
    recording = load(path)
    assert any(expected in problem for problem in validate(recording))
    assert obs_main(["validate", str(path)]) == 1
    assert obs_main(["report", str(path)]) == 1
    # The replay itself promotes what it cannot parent to a root.
    if defect != "cycle":  # a closed loop has no entry point to draw from
        for record in spans:
            assert record.name in render(recording)


def test_a_header_that_names_another_trace_is_invalid():
    recording = Recording.of(healthy(), reason="test", trace_id="t-9")
    assert validate(recording) == ["header and spans name 2 trace ids: ['t-1', 't-9']"]


def test_a_file_cut_off_after_its_header_fails_on_the_declared_count(tmp_path):
    path = tmp_path / "cut.jsonl"
    write(path, Recording.of(healthy(), reason="trace"))
    path.write_text(path.read_text().splitlines()[0] + "\n")
    assert validate(load(path))[0] == "header declares 2 spans, file has 0"
    assert obs_main(["validate", str(path)]) == 1


def test_a_trace_written_before_the_flight_recorder_was_cut_still_reads(capsys):
    """``trace_v1.jsonl`` is a 2-shard ``search --trace`` from the writer that
    also put ``partial``, ``events`` and ``metric_deltas`` in the header."""
    path = os.path.join(FIXTURES, "trace_v1.jsonl")
    recording = load(path)
    assert recording.header["partial"] is False  # an old key, ignored
    assert validate(recording) == []
    assert [record.name for record in recording.spans] == ["shard", "shard", "merge", "query", "batch"]
    assert "span analysis" in render(recording)
    assert obs_main(["report", path]) == 0
    assert "critical path" in capsys.readouterr().out


def test_an_old_flight_dump_is_one_unknown_kind_line():
    """A ``search --flight`` dump holds ``event`` and ``metrics`` records,
    which no writer produces any more: one error line, exit 1."""
    path = os.path.join(FIXTURES, "flight_dump_v1.jsonl")
    finished = subprocess.run(
        [sys.executable, "-m", "repro.obs", "validate", path],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 1
    (line,) = finished.stderr.splitlines()
    assert "unknown record kind 'event'" in line
    assert finished.stdout == ""


def _header(**changes) -> str:
    return json.dumps({**Recording.of([], reason="test").header, **changes})


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
    write(path, Recording.of(spans, reason=name))
    recording = load(path)
    assert recording.spans == spans
    assert recording.header["reason"] == name
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
    write(path, Recording.of(healthy(), reason="test"))
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
