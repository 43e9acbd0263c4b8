"""Sampling wall-clock profiler: sampling, phase join, collapsed-stack export."""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import Tracer
from repro.obs.stackprof import (
    DEFAULT_INTERVAL,
    UNATTRIBUTED_PHASE,
    StackProfiler,
    _collapse,
    _format_frame,
)


def _burn(seconds: float) -> int:
    """CPU-bound loop the sampler can catch on the stack."""
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestSampling:
    def test_profiler_collects_samples(self):
        profiler = StackProfiler(interval=0.001)
        with profiler:
            _burn(0.08)
        assert profiler.sample_count > 0
        assert profiler.elapsed_seconds > 0
        leaves = {stack[-1] for (_phase, stack) in profiler.counts()}
        assert any("_burn" in leaf for leaf in leaves)

    def test_phase_join_against_tracer_spans(self):
        tracer = Tracer()
        profiler = StackProfiler(tracer, interval=0.001)
        with profiler:
            with tracer.span("query", phase="expand"):
                _burn(0.08)
        shares = profiler.phase_shares()
        assert shares.get("expand", 0.0) > 0.5

    def test_without_tracer_everything_is_unattributed(self):
        profiler = StackProfiler(interval=0.001)
        with profiler:
            _burn(0.05)
        assert set(profiler.phase_shares()) == {UNATTRIBUTED_PHASE}

    def test_share_of_uses_leaf_frame(self):
        tracer = Tracer()
        profiler = StackProfiler(tracer, interval=0.001)
        with profiler:
            with tracer.span("query", phase="expand"):
                _burn(0.08)
        assert profiler.share_of("test_obs_stackprof") > 0.0
        assert profiler.share_of("no_such_file.py") == 0.0
        assert profiler.share_of("test_obs_stackprof", phase="expand") > 0.0
        assert profiler.share_of("test_obs_stackprof", phase="merge") == 0.0

    def test_start_twice_raises(self):
        profiler = StackProfiler(interval=0.01)
        profiler.start()
        try:
            with pytest.raises(RuntimeError):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_is_idempotent(self):
        profiler = StackProfiler(interval=0.01)
        profiler.start()
        profiler.stop()
        profiler.stop()

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            StackProfiler(interval=0.0)

    def test_default_interval_is_sane(self):
        assert 0.001 <= DEFAULT_INTERVAL <= 0.02

    def test_samples_other_threads(self):
        profiler = StackProfiler(interval=0.001)
        worker = threading.Thread(target=_burn, args=(0.08,), name="burner")
        with profiler:
            worker.start()
            worker.join()
        leaves = {stack[-1] for (_phase, stack) in profiler.counts()}
        assert any("_burn" in leaf for leaf in leaves)


class TestFrameFormatting:
    @staticmethod
    def _fake_frame(filename: str, funcname: str):
        from types import SimpleNamespace

        return SimpleNamespace(
            f_code=SimpleNamespace(co_filename=filename, co_name=funcname),
            f_back=None,
        )

    def test_repro_paths_are_shortened(self):
        frame = self._fake_frame(
            "/site-packages/src/repro/core/expand.py", "expand_column"
        )
        assert _format_frame(frame) == "repro/core/expand.py:expand_column"

    def test_foreign_paths_keep_basename(self):
        frame = self._fake_frame("/usr/lib/python3.11/threading.py", "wait")
        assert _format_frame(frame) == "threading.py:wait"

    def test_collapse_is_outermost_first(self):
        def inner():
            import sys

            return _collapse(sys._getframe())

        def outer():
            return inner()

        stack = outer()
        names = [frame.rsplit(":", 1)[1] for frame in stack]
        assert names.index("outer") < names.index("inner")


class TestExports:
    def _profiled(self):
        tracer = Tracer()
        profiler = StackProfiler(tracer, interval=0.001)
        with profiler:
            with tracer.span("query", phase="expand"):
                _burn(0.06)
        return profiler

    def test_collapsed_format(self):
        profiler = self._profiled()
        lines = profiler.collapsed().splitlines()
        assert lines
        for line in lines:
            stack, _space, count = line.rpartition(" ")
            assert count.isdigit() and stack
        assert any(line.startswith("phase:expand;") for line in lines)
        # Phase prefix can be switched off for plain flamegraph tooling.
        bare = profiler.collapsed(include_phase=False).splitlines()
        assert not any(line.startswith("phase:") for line in bare)

    def test_write_exports_round_trip(self, tmp_path):
        profiler = self._profiled()
        collapsed_path = tmp_path / "profile.collapsed"
        profiler.write_collapsed(str(collapsed_path))
        lines = collapsed_path.read_text().splitlines()
        assert lines == profiler.collapsed().splitlines()
        assert sum(int(line.rpartition(" ")[2]) for line in lines) == profiler.sample_count

    @pytest.mark.parametrize("shard_count", [2, 4])
    def test_a_sharded_search_profile_validates(
        self, small_protein_database, pam30_matrix, gap8, shard_count
    ):
        """A real run, not a busy loop: searches scattered over the shards."""
        from repro.sharding import ShardedEngine

        tracer = Tracer()
        profiler = StackProfiler(tracer, interval=0.001)
        with ShardedEngine.build(
            small_protein_database, pam30_matrix, gap8, shard_count=shard_count
        ) as engine:
            with profiler:
                deadline = time.perf_counter() + 0.05
                while time.perf_counter() < deadline:
                    engine.search("WKDDGNGYISAAE", min_score=20, tracer=tracer)
        assert profiler.sample_count > 0 and profiler.elapsed_seconds > 0
        lines = profiler.collapsed().splitlines()
        assert sum(int(line.rpartition(" ")[2]) for line in lines) == profiler.sample_count

    def test_empty_profiler_exports_empty_but_valid_collapsed(self):
        profiler = StackProfiler(interval=0.01)
        assert profiler.collapsed() == ""
        assert profiler.phase_shares() == {}
        assert profiler.share_of("anything") == 0.0
