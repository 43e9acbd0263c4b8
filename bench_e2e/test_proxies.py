"""The timing proxies must be invisible to the search.

    PYTHONPATH=src python3 -m pytest bench_e2e/test_proxies.py -q

For every workload, the engine rebuilt around ``TimedCursor``/``TimedKernel``
returns the same hit lists and the same ``result.statistics`` counters
(buffer-pool counters included) as the engine the timed passes use, and the
spans it yields add up: no query's child spans exceed its root span.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from bench_e2e.trace import LayerClock, traced_query  # noqa: E402
from bench_e2e.workloads import WORKLOADS, Session, traced_engine  # noqa: E402


def _outcome(engine, session: Session, query: str):
    result = engine.execute(query, **session.search_kwargs(query)).result()
    counters = result.statistics.as_dict()
    del counters["elapsed_seconds"]
    return [(hit.sequence_identifier, hit.score) for hit in result.hits], counters


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_proxies_change_no_hit_list_and_no_counter(workload, tmp_path):
    session = Session(workload, seed=11, work_dir=str(tmp_path), quick=True)
    plain = session.setup()
    clock = LayerClock()
    proxied = traced_engine(session, clock)
    try:
        session.build_oracle(plain)
        for index, query in enumerate(session.queries):
            expected = _outcome(plain, session, query)
            (hits, counters), trace = traced_query(
                clock, index, lambda: _outcome(proxied, session, query)
            )
            assert (hits, counters) == expected
            assert hits == session.reference[index]
            assert counters["columns_expanded"] > 0
            assert trace.layers["core.kernels"][1] > 0
            assert trace.remainder() >= 0
            assert {span["span"] for span in trace.spans()} >= {"query", "core.kernels", "core.oasis"}
    finally:
        session.close(plain)
        session.close(proxied)
