"""Plain helpers of the paper-figure benchmarks.

Fixtures live in ``benchmarks/conftest.py``; these are imported by name
(``from bench_support import emit``).  The module is named so that no
``tests/`` module shadows it when pytest collects both directories in one
run.
"""

from __future__ import annotations

import os

from repro.experiments.common import ExperimentConfig, default_config

#: Default number of workload queries used by the per-figure benchmarks.
DEFAULT_BENCH_QUERIES = 24


def smoke_mode() -> bool:
    """Whether the benchmarks run as a CI smoke check.

    In smoke mode (``OASIS_BENCH_SMOKE=1``) every benchmark still *executes*
    -- that is the point: collection-only CI lets the benchmark bodies
    bit-rot -- but wall-clock comparisons and curve-shape assertions are
    skipped, because a shared CI runner at the tiny scale proves nothing
    about either.  Correctness assertions must stay unconditional.
    """
    return os.environ.get("OASIS_BENCH_SMOKE", "") == "1"


def bench_config(**overrides) -> ExperimentConfig:
    """The experiment configuration the benchmarks run with.

    Uses the scale selected by ``OASIS_BENCH_SCALE`` (default ``small``) with
    the workload capped by ``OASIS_BENCH_QUERIES`` (default 24) so the full
    benchmark suite finishes in a few minutes; raise either knob for sharper
    curves.
    """
    query_count = int(os.environ.get("OASIS_BENCH_QUERIES", str(DEFAULT_BENCH_QUERIES)))
    return default_config(query_count=query_count, **overrides)


def emit(result) -> None:
    """Print an experiment's table (shown with ``-s``; kept out of captures)."""
    print()
    print(result.format_table())
