"""Experiment drivers: one module per table/figure of the paper's evaluation.

Each module exposes a ``run(config)`` function returning a result object with
the rows/series the corresponding figure plots, plus a ``format_table`` (or
``format_report``) method that renders them as text.  The benchmark harness in
``benchmarks/`` calls these drivers and prints their tables, so regenerating
any figure is::

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
