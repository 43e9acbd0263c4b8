"""OASIS core: the paper's primary contribution.

The public entry point is :class:`repro.core.engine.OasisEngine`, which wraps
index construction and exposes :meth:`~repro.core.engine.OasisEngine.search`
(batch) and :meth:`~repro.core.engine.OasisEngine.search_online` (streaming,
results emitted in decreasing score order).  The lower-level pieces --
heuristic vector, search nodes, column expansion, priority-queue driver -- are
available for inspection and ablation.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.results import Alignment, SearchHit, SearchResult
    from repro.core.heuristic import compute_heuristic_vector
    from repro.core.search_node import NodeState, SearchNode
    from repro.core.oasis import OasisSearchStatistics
    from repro.core.request import SearchRequest
    from repro.core.engine import OasisEngine
    from repro.core.evalue import SelectivityConverter
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.core.results": (
                "Alignment",
                "SearchHit",
                "SearchResult",
            ),
            "repro.core.heuristic": ("compute_heuristic_vector",),
            "repro.core.search_node": ("NodeState", "SearchNode"),
            "repro.core.oasis": ("OasisSearchStatistics",),
            "repro.core.request": ("SearchRequest",),
            "repro.core.engine": ("OasisEngine",),
            "repro.core.evalue": ("SelectivityConverter",),
        },
    )

__all__ = [
    "Alignment",
    "SearchHit",
    "SearchResult",
    "compute_heuristic_vector",
    "NodeState",
    "SearchNode",
    "OasisSearchStatistics",
    "SearchRequest",
    "OasisEngine",
    "SelectivityConverter",
]
