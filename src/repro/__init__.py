"""repro: a reproduction of OASIS (Meek, Patel, Kasetty -- VLDB 2003).

OASIS is an online and *accurate* local-alignment search technique: it returns
exactly the alignments Smith-Waterman would (nothing above the score threshold
is ever missed), emits them in decreasing score order, and does so by driving
a best-first dynamic-programming search over a suffix tree built on the
sequence database.

Quick start::

    from repro import OasisEngine
    from repro.datagen import SwissProtLikeGenerator
    from repro.scoring import pam30, FixedGapModel

    database = SwissProtLikeGenerator(seed=7, family_count=40).generate()
    engine = OasisEngine.build(database, matrix=pam30(), gap_model=FixedGapModel(-8))
    for hit in engine.search("MKVLAADTG", evalue=20_000):
        print(hit.sequence_identifier, hit.score, hit.evalue)

README.md's "Layout" table is the module inventory, and its "Tests and
benchmarks" section says how to regenerate the paper's tables and figures.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.engine import OasisEngine
    from repro.core.oasis import OasisSearchStatistics, QueryExecution
    from repro.core.request import SearchRequest
    from repro.core.results import Alignment, SearchHit, SearchResult
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        configure_logging,
        get_logger,
    )
    from repro.parallel import BatchSearchExecutor, BatchSearchReport
    from repro.sequences.database import SequenceDatabase
    from repro.sequences.sequence import Sequence, SequenceRecord
    from repro.sharding import ShardCatalog, ShardedEngine, ShardedIndexBuilder
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.core.engine": ("OasisEngine",),
            "repro.core.oasis": ("OasisSearchStatistics", "QueryExecution"),
            "repro.core.request": ("SearchRequest",),
            "repro.core.results": ("Alignment", "SearchHit", "SearchResult"),
            "repro.obs": (
                "MetricsRegistry",
                "Tracer",
                "configure_logging",
                "get_logger",
            ),
            "repro.parallel": ("BatchSearchExecutor", "BatchSearchReport"),
            "repro.sequences.database": ("SequenceDatabase",),
            "repro.sequences.sequence": ("Sequence", "SequenceRecord"),
            "repro.sharding": ("ShardCatalog", "ShardedEngine", "ShardedIndexBuilder"),
        },
    )

__version__ = "1.4.0"

__all__ = [
    "Tracer",
    "MetricsRegistry",
    "configure_logging",
    "get_logger",
    "OasisEngine",
    "OasisSearchStatistics",
    "QueryExecution",
    "SearchRequest",
    "Alignment",
    "SearchHit",
    "SearchResult",
    "BatchSearchExecutor",
    "BatchSearchReport",
    "SequenceDatabase",
    "Sequence",
    "SequenceRecord",
    "ShardCatalog",
    "ShardedEngine",
    "ShardedIndexBuilder",
    "__version__",
]
