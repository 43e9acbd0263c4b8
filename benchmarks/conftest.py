"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
section through its driver in :mod:`repro.experiments`, and asserts the
shape the paper reports.  The benchmarks run against the synthetic
SWISS-PROT-like dataset at the scale selected by ``OASIS_BENCH_SCALE``
(default ``small``), with the workload size capped by ``OASIS_BENCH_QUERIES``
(default 24) so that the full suite finishes in a few minutes; raise either
knob for sharper curves.  Performance is not recorded here: ``bench_e2e/``
is the repository's one performance record.

The plain helpers (``bench_config``, ``emit``, ``smoke_mode``) live in
``benchmarks/bench_support.py`` so benchmark modules can import them without
relying on cross-directory ``conftest`` module resolution; only the fixtures
live here.

Run with ``pytest benchmarks/ -s`` to see the tables.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import ExperimentConfig
from bench_support import bench_config


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return bench_config()
