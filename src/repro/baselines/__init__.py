"""Baseline search engines the paper compares OASIS against.

* :class:`SmithWatermanAligner` -- the accurate dynamic-programming reference
  (Section 2.2); OASIS must agree with it exactly on the strongest alignment
  score of every database sequence.
* :class:`BlastLikeSearch` -- a word-seeded, extend-and-score heuristic in the
  style of BLAST, used (as in the paper) purely as a speed/sensitivity
  baseline.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.baselines.smith_waterman import SmithWatermanAligner
    from repro.baselines.blast import BlastLikeSearch, BlastParameters
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.baselines.smith_waterman": ("SmithWatermanAligner",),
            "repro.baselines.blast": ("BlastLikeSearch", "BlastParameters"),
        },
    )

__all__ = [
    "SmithWatermanAligner",
    "BlastLikeSearch",
    "BlastParameters",
]
