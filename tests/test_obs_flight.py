"""Flight recorder: rings, events, dumps, signal handling, CLI wiring.

The acceptance scenarios from the live-introspection work: a deliberate
query timeout and a ``SIGUSR1`` each produce a dump that
``python -m repro.obs validate`` accepts and ``report`` replays,
with the instrumented call sites (batch executor, shard scatter, deadline
check) feeding structured events into the black box.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time

import pytest

from repro.cli import main as cli_main
from repro.obs import Tracer
from repro.obs.__main__ import main as obs_main
from repro.obs.flight import EVICTION_BURST_THRESHOLD, FlightRecorder
from repro.obs.recording import FORMAT, load as load_dump, render as render_dump
from repro.obs.recording import validate as validate_dump
from repro.scoring.data import pam30
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import PROTEIN_ALPHABET
from repro.sequences.database import SequenceDatabase
from repro.sharding import ShardedEngine
from repro.testing import AMINO_ACIDS, random_protein

QUERY = "WKDDGNGYISAAE"
MIN_SCORE = 40


def _database() -> SequenceDatabase:
    rng = random.Random(11)
    texts = []
    for index in range(6):
        mutated = list(QUERY)
        if index % 2:
            mutated[rng.randrange(len(mutated))] = rng.choice(AMINO_ACIDS)
        texts.append(
            random_protein(rng, rng.randint(10, 30))
            + "".join(mutated)
            + random_protein(rng, rng.randint(10, 30))
        )
    texts.extend(random_protein(rng, rng.randint(20, 60)) for _ in range(3))
    return SequenceDatabase.from_texts(
        texts, alphabet=PROTEIN_ALPHABET, name="flight-proteins"
    )


@pytest.fixture(scope="module")
def engine():
    with ShardedEngine.build(
        _database(), pam30(), FixedGapModel(-8), shard_count=3
    ) as built:
        yield built


class TestRings:
    def test_span_ring_is_bounded_and_keeps_newest(self):
        tracer = Tracer()
        recorder = FlightRecorder(tracer, span_capacity=4).attach()
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        names = [record.name for record in recorder.spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_event_ring_is_bounded(self):
        recorder = FlightRecorder(Tracer(), event_capacity=3).attach()
        for index in range(7):
            recorder.event("tick", index=index)
        indexes = [event["fields"]["index"] for event in recorder.events()]
        assert indexes == [4, 5, 6]

    def test_detach_removes_sink_and_flight_hook(self):
        tracer = Tracer()
        recorder = FlightRecorder(tracer).attach()
        assert tracer.flight is recorder
        recorder.detach()
        assert tracer.flight is None
        with tracer.span("after"):
            pass
        assert recorder.spans() == []

    def test_disabled_recorder_is_inert(self, tmp_path):
        recorder = FlightRecorder(None, path=str(tmp_path / "never.jsonl"))
        recorder.attach()
        recorder.event("anything", x=1)
        recorder.install_signal_handler()
        assert recorder.dump("why") is None
        assert not recorder.enabled
        assert recorder.events() == []
        assert not (tmp_path / "never.jsonl").exists()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(Tracer(), span_capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(Tracer(), metrics_interval=0.0)


class TestMetricDeltas:
    def test_counter_movement_recorded_as_delta(self):
        tracer = Tracer()
        recorder = FlightRecorder(tracer, metrics_interval=0.0001).attach()
        tracer.metrics.counter("search.queries").inc(3)
        time.sleep(0.001)
        recorder.event("poke")
        deltas = recorder.metric_deltas()
        moved = [delta for delta in deltas if "search.queries" in delta["changed"]]
        assert moved
        assert moved[-1]["changed"]["search.queries"]["delta"] == 3

    def test_eviction_burst_synthesises_event(self):
        tracer = Tracer()
        recorder = FlightRecorder(tracer, metrics_interval=0.0001).attach()
        tracer.metrics.counter("pool.evictions").inc(EVICTION_BURST_THRESHOLD + 5)
        time.sleep(0.001)
        recorder.event("poke")
        bursts = [
            event
            for event in recorder.events()
            if event["event"] == "pool_eviction_burst"
        ]
        assert bursts
        assert bursts[0]["fields"]["evictions"] == EVICTION_BURST_THRESHOLD + 5

    def test_small_eviction_delta_is_not_a_burst(self):
        tracer = Tracer()
        recorder = FlightRecorder(tracer, metrics_interval=0.0001).attach()
        tracer.metrics.counter("pool.evictions").inc(2)
        time.sleep(0.001)
        recorder.event("poke")
        assert not [
            event
            for event in recorder.events()
            if event["event"] == "pool_eviction_burst"
        ]


class TestDumpRoundTrip:
    def _recorded(self, tmp_path):
        tracer = Tracer()
        path = str(tmp_path / "dump.jsonl")
        recorder = FlightRecorder(tracer, path=path, metrics_interval=0.0001).attach()
        with tracer.span("batch", phase="batch"):
            with tracer.span("query", phase="expand"):
                tracer.metrics.counter("search.queries").inc()
                recorder.event("query_admitted", index=0, query=QUERY)
                time.sleep(0.002)
                recorder.event("query_finished", index=0, status="ok", hits=2)
        return tracer, recorder, path

    def test_dump_validates_and_replays(self, tmp_path, capsys):
        _tracer, recorder, path = self._recorded(tmp_path)
        assert recorder.dump("test") == path
        dump = load_dump(path)
        assert validate_dump(dump) == []
        assert dump.header["format"] == FORMAT
        assert dump.header["reason"] == "test"
        assert len(dump.spans) == 2
        assert [event["event"] for event in dump.events][:2] == [
            "query_admitted",
            "query_finished",
        ]
        rendered = render_dump(dump)
        assert "query_admitted" in rendered
        assert "span analysis" in rendered
        # The -m replay entry point agrees.
        assert obs_main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "reason=test" in out

    def test_dump_overwrites_previous_dump(self, tmp_path):
        _tracer, recorder, path = self._recorded(tmp_path)
        recorder.dump("first")
        recorder.dump("second")
        dump = load_dump(path)
        assert dump.header["reason"] == "second"
        assert validate_dump(dump) == []

    def test_orphan_spans_are_legal_in_a_dump(self, tmp_path):
        # Dump mid-flight: the children are in the ring but their parent
        # (still open, so never recorded) is not -- genuine orphans.
        tracer = Tracer()
        path = str(tmp_path / "orphan.jsonl")
        recorder = FlightRecorder(tracer, path=path, span_capacity=1).attach()
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
            recorder.dump("partial")
        dump = load_dump(path)
        assert len(dump.spans) == 1
        assert dump.spans[0].parent_id is not None  # genuinely orphaned
        assert validate_dump(dump) == []
        assert "leaf" in render_dump(dump)

    def test_validate_cli_accepts_flight_dumps(self, tmp_path, capsys):
        _tracer, recorder, path = self._recorded(tmp_path)
        recorder.dump("signal")
        assert obs_main(["validate", path]) == 0
        assert "partial, reason=signal" in capsys.readouterr().out
        assert obs_main(["validate", "--tree", path]) == 0
        assert "batch" in capsys.readouterr().out

    def test_validate_cli_rejects_corrupt_dump(self, tmp_path, capsys):
        _tracer, recorder, path = self._recorded(tmp_path)
        recorder.dump("ok")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"kind": "mystery"}) + "\n")
        assert obs_main(["validate", path]) == 1
        assert "mystery" in capsys.readouterr().err

    def test_header_count_mismatch_is_reported(self, tmp_path):
        _tracer, recorder, path = self._recorded(tmp_path)
        recorder.dump("ok")
        lines = open(path, encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        header["spans"] = 99
        lines[0] = json.dumps(header)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        problems = validate_dump(load_dump(path))
        assert any("declares 99" in problem for problem in problems)

    def test_load_rejects_headerless_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps({"kind": "event", "event": "x"}) + "\n")
        with pytest.raises(ValueError, match="expected the header first"):
            load_dump(str(path))

    def test_flight_main_usage_errors(self, tmp_path, capsys):
        # A dump is replayed by `report`; `flight` is not a subcommand.
        assert obs_main(["flight", str(tmp_path / "dump.jsonl")]) == 2
        assert obs_main(["report"]) == 2
        assert obs_main(["report", str(tmp_path / "missing.jsonl")]) == 1
        capsys.readouterr()


class TestInstrumentedCallSites:
    def test_search_feeds_query_and_shard_events(self, engine, tmp_path):
        tracer = Tracer()
        path = str(tmp_path / "search.jsonl")
        with FlightRecorder(tracer, path=path) as recorder:
            report = engine.search_many(
                [QUERY, "MKVLAADTGLAV"], workers=2, min_score=MIN_SCORE, tracer=tracer
            )
            assert not report.statistics.failed
            recorder.dump("complete")
        dump = load_dump(path)
        assert validate_dump(dump) == []
        kinds = [event["event"] for event in dump.events]
        assert kinds.count("query_admitted") == 2
        assert kinds.count("query_finished") == 2
        # One dispatch event per shard per query.
        assert kinds.count("shard_dispatched") == 2 * len(engine.shards)
        finished = [e for e in dump.events if e["event"] == "query_finished"]
        assert {event["fields"]["status"] for event in finished} == {"ok"}

    def test_deadline_expiry_emits_event(self, engine, tmp_path):
        tracer = Tracer()
        path = str(tmp_path / "deadline.jsonl")
        with FlightRecorder(tracer, path=path) as recorder:
            report = engine.search_many(
                [QUERY],
                workers=1,
                min_score=MIN_SCORE,
                timeout=1e-7,
                tracer=tracer,
            )
            assert report.statistics.timed_out == 1
            recorder.dump("timeout")
        dump = load_dump(path)
        assert validate_dump(dump) == []
        kinds = [event["event"] for event in dump.events]
        assert "deadline_expired" in kinds
        finished = [e for e in dump.events if e["event"] == "query_finished"]
        assert finished and finished[0]["fields"]["status"] == "timeout"

    def test_no_events_without_flight_attached(self, engine):
        # tracer without a recorder: the guarded call sites never fire.
        tracer = Tracer()
        report = engine.search_many([QUERY], min_score=MIN_SCORE, tracer=tracer)
        assert not report.statistics.failed
        assert tracer.flight is None


class TestSignalDump:
    def test_sigusr1_produces_replayable_dump(self, tmp_path):
        tracer = Tracer()
        path = str(tmp_path / "signal.jsonl")
        recorder = FlightRecorder(tracer, path=path).attach()
        with tracer.span("query", phase="expand"):
            pass
        recorder.install_signal_handler()
        try:
            os.kill(os.getpid(), signal.SIGUSR1)
            deadline = time.perf_counter() + 5.0
            while recorder.dumps_written == 0 and time.perf_counter() < deadline:
                time.sleep(0.01)
        finally:
            recorder.uninstall_signal_handler()
            recorder.detach()
        assert recorder.dumps_written == 1
        assert recorder.last_dump_reason == "signal"
        dump = load_dump(path)
        assert validate_dump(dump) == []
        assert dump.header["reason"] == "signal"
        assert any(
            event["event"] == "signal_dump_requested" for event in dump.events
        )
        assert obs_main(["validate", path]) == 0
        assert obs_main(["report", path]) == 0

    def test_uninstall_restores_previous_handler(self):
        recorder = FlightRecorder(Tracer())
        previous = signal.getsignal(signal.SIGUSR1)
        recorder.install_signal_handler()
        assert signal.getsignal(signal.SIGUSR1) is not previous
        recorder.uninstall_signal_handler()
        assert signal.getsignal(signal.SIGUSR1) is previous
        # Idempotent.
        recorder.uninstall_signal_handler()


class TestCliFlight:
    @pytest.fixture
    def generated(self, tmp_path):
        fasta = tmp_path / "db.fasta"
        queries = tmp_path / "queries.txt"
        code = cli_main(
            [
                "generate",
                "--output",
                str(fasta),
                "--queries",
                str(queries),
                "--families",
                "4",
                "--query-count",
                "3",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        return fasta, queries

    def test_healthy_run_still_writes_black_box(self, generated, tmp_path, capsys):
        fasta, queries = generated
        flight = tmp_path / "flight.jsonl"
        code = cli_main(
            [
                "search",
                "--database",
                str(fasta),
                "--queries",
                str(queries),
                "--min-score",
                "15",
                "--flight",
                str(flight),
            ]
        )
        assert code == 0
        capsys.readouterr()
        dump = load_dump(str(flight))
        assert validate_dump(dump) == []
        assert dump.header["reason"] == "complete"
        kinds = [event["event"] for event in dump.events]
        assert "query_admitted" in kinds and "query_finished" in kinds

    def test_deliberate_timeout_dumps_black_box(self, generated, tmp_path, capsys):
        fasta, queries = generated
        flight = tmp_path / "flight.jsonl"
        code = cli_main(
            [
                "search",
                "--database",
                str(fasta),
                "--queries",
                str(queries),
                "--min-score",
                "15",
                "--timeout",
                "0.0000001",
                "--flight",
                str(flight),
            ]
        )
        assert code == 0  # timeouts keep partial results; not a failure
        assert "flight recorder dumped" in capsys.readouterr().err
        dump = load_dump(str(flight))
        assert validate_dump(dump) == []
        assert dump.header["reason"] == "timeout"
        assert any(
            event["event"] == "deadline_expired" for event in dump.events
        )
        assert obs_main(["validate", str(flight)]) == 0
        assert obs_main(["report", str(flight)]) == 0
        capsys.readouterr()
