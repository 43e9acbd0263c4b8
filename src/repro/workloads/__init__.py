"""Workload execution: engine adapters, the runner, and aggregation.

The experiments of Section 4 all share the same skeleton: run a workload of
queries through one or more engines, record per-query measurements (time, DP
columns expanded, matches returned, buffer-pool behaviour) and aggregate them
by query length.  This package factors that skeleton out so each experiment
module in :mod:`repro.experiments` only has to describe what is different
about its figure.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.workloads.engines import (
        BlastAdapter,
        EngineAdapter,
        OasisAdapter,
        SmithWatermanAdapter,
    )
    from repro.workloads.runner import (
        LengthAggregate,
        QueryMeasurement,
        WorkloadRunner,
        aggregate_by_length,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.workloads.engines": (
                "BlastAdapter",
                "EngineAdapter",
                "OasisAdapter",
                "SmithWatermanAdapter",
            ),
            "repro.workloads.runner": (
                "LengthAggregate",
                "QueryMeasurement",
                "WorkloadRunner",
                "aggregate_by_length",
            ),
        },
    )

__all__ = [
    "EngineAdapter",
    "OasisAdapter",
    "SmithWatermanAdapter",
    "BlastAdapter",
    "QueryMeasurement",
    "LengthAggregate",
    "WorkloadRunner",
    "aggregate_by_length",
]
