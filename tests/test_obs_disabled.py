"""Telemetry that is off runs nothing, and nothing stays behind after it was on.

The count behind the "disabled telemetry is free" claim: a search with no
tracer, watched by ``sys.setprofile``, makes **zero** calls into any frame
under ``repro/obs/`` (``logsetup``, the stdlib-logging shim, aside) -- before
any traced search, and again after one.  A tracer is passed per call and
nothing attaches it to an engine or a pool, so there is nothing to detach.
"""

from __future__ import annotations

import os
import sys
from typing import List

import pytest

from repro.core.engine import OasisEngine
from repro.obs import Tracer
from support import disk_engine, index_engine

QUERY = "WKDDGNGYISAAE"
OBS = os.sep + os.path.join("repro", "obs") + os.sep


def obs_calls(action) -> List[str]:
    """``file:function`` of every Python call into ``repro/obs/`` during ``action``."""
    seen: List[str] = []

    def probe(frame, event, _arg):
        filename = frame.f_code.co_filename
        if event == "call" and OBS in filename and not filename.endswith("logsetup.py"):
            seen.append(f"{os.path.basename(filename)}:{frame.f_code.co_name}")

    sys.setprofile(probe)
    try:
        action()
    finally:
        sys.setprofile(None)
    return seen


def _memory(database, matrix, gap, _directory):
    return OasisEngine.build(database, matrix=matrix, gap_model=gap)


def _disk(database, matrix, gap, directory):
    return disk_engine(
        database,
        matrix,
        str(directory / "image.oasis"),
        gap_model=gap,
        block_size=512,
        buffer_pool_bytes=16384,
    )


def _sharded(database, matrix, gap, directory):
    return index_engine(database, directory / "index", matrix, gap, shard_count=2)


@pytest.mark.parametrize("build", [_memory, _disk, _sharded], ids=["memory", "disk", "shard2"])
def test_an_untraced_search_never_enters_obs(
    build, small_protein_database, pam30_matrix, gap8, tmp_path
):
    with build(small_protein_database, pam30_matrix, gap8, tmp_path) as engine:

        def untraced():
            assert len(engine.search(QUERY, min_score=40)) >= 1
            report = engine.search_many([QUERY], min_score=40, workers=1)
            assert not report.statistics.failed

        assert obs_calls(untraced) == []

        tracer = Tracer()

        def traced():
            engine.search(QUERY, min_score=40, tracer=tracer)
            engine.search_many([QUERY], min_score=40, workers=1, tracer=tracer)

        # The probe does see the telemetry when it is on ...
        assert "trace.py:span" in obs_calls(traced)
        # ... and nothing of it once it is off again.
        assert obs_calls(untraced) == []
