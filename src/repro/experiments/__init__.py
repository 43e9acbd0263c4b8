"""Experiment drivers: one module per table/figure of the paper's evaluation.

Each module exposes a ``run(config)`` function returning a result object with
the rows/series the corresponding figure plots, plus a ``format_table``
method that renders them as text.  The drivers call the engines directly:
:mod:`repro.experiments.common` builds the shared dataset and gives each
driver ``searches`` (OASIS, BLAST and S-W at one E-value, each a plain
``query -> SearchResult`` call) and ``means_by_length`` (per-query results
folded into per-length means).  Figures 7 and 8 share one buffer-pool sweep,
:func:`repro.experiments.figure7.sweep`.  ``repro-oasis experiment NAME``
prints one table; the benchmark harness in ``benchmarks/`` calls the same
drivers and asserts the paper's shapes::

    pytest benchmarks/test_bench_figure3.py --benchmark-only -s
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.common import (
        ExperimentConfig,
        ProteinDataset,
        available_scales,
        build_protein_dataset,
        default_config,
    )
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.experiments.common": (
                "ExperimentConfig",
                "ProteinDataset",
                "available_scales",
                "build_protein_dataset",
                "default_config",
            ),
        },
    )

__all__ = [
    "ExperimentConfig",
    "ProteinDataset",
    "available_scales",
    "build_protein_dataset",
    "default_config",
]
