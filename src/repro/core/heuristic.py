"""The optimistic heuristic vector of Section 3.1.

Entry ``h[i]`` is an upper bound on the score that can still be gained by
aligning the remaining query portion ``q_{i+1} .. q_m`` against *any* target.
OASIS adds it to the partial alignment scores to obtain the ``f`` value that
orders the priority queue, so the bound must never underestimate
(admissibility is what guarantees that results come out in decreasing score
order and that nothing above the threshold is missed).

With non-positive insertion/deletion penalties the bound is simply the sum of
each remaining symbol's best possible substitution score; symbols whose best
score is negative contribute nothing (the alignment is free to stop before
them), hence the clamp at zero.  That clamped gain per symbol code is a
property of the matrix, cached once on it
(:attr:`~repro.scoring.matrix.SubstitutionMatrix.gains`); a query's ``h`` is
a running sum of its codes' gains, which the compiled frontier builds in C
and :func:`heuristic_vector` builds for the Python one.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, List, Sequence

from repro.scoring.matrix import SubstitutionMatrix


def heuristic_vector(query_codes: Iterable[int], gains: Sequence[int]) -> List[int]:
    """``h`` of length ``m + 1`` from a per-code gain table
    (:attr:`SubstitutionMatrix.gains <repro.scoring.matrix.SubstitutionMatrix.gains>`):
    ``h[i]`` is the sum of the gains of ``q_{i+1} .. q_m``."""
    # h[i] = h[i + 1] + gain of q_{i+1}; a reversed running sum.
    heuristic = list(accumulate(reversed([gains[code] for code in query_codes]), initial=0))
    heuristic.reverse()
    return heuristic


def compute_heuristic_vector(query_codes: Iterable[int], matrix: SubstitutionMatrix) -> List[int]:
    """Return ``h`` of length ``m + 1``: best achievable score after position i.

    ``h[m]`` is 0 (nothing of the query remains); ``h[0]`` bounds the score of
    any alignment of the full query.
    """
    return heuristic_vector(query_codes, matrix.gains)
