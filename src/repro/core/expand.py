"""Arc expansion: Algorithm 3, the core of OASIS.

Expanding a suffix-tree node fills the portion of the Smith-Waterman matrix
whose columns are labelled by the symbols on the node's incoming arc, seeded
with the parent search node's final column.  Three things differ from plain
Smith-Waterman:

1. **No reset to zero.**  Restarting an alignment at a later target position
   would duplicate work done on another tree path (every substring of the
   database is the prefix of some suffix), so scores are allowed to go
   negative -- and are then pruned.

2. **Alignment pruning** (Section 3.2).  A cell is discarded (set to the
   ``PRUNED`` sentinel) when
   (a) its score is non-positive,
   (b) even the optimistic heuristic cannot lift it above the strongest
       alignment already found along this path, or
   (c) it cannot reach the ``min_score`` threshold.

3. **Early termination.**  After each column the expansion checks whether any
   surviving cell could still beat the path's best alignment
   (``f > max_score``) and whether it could still reach ``min_score``; if not,
   the node is finished immediately and tagged ACCEPTED or UNVIABLE.

This module holds the per-query :class:`ExpansionContext` and the *dense*
form of the algorithm, :func:`expand_arc_reference`: one NumPy column of
``m + 1`` cells per arc symbol, the vertical (insertion) dependency
``column[i] = max(candidate[i], column[i-1] + gap)`` resolved with a
running-maximum transform.  It is the oracle the production kernel in
:mod:`repro.core.kernels` is gated against cell for cell, and the one form
that can switch a pruning rule off (:class:`~repro.core.kernels.ReferenceKernel`
passes its switches through).  The dense forms import NumPy where they run,
so a search on the live-cell kernel never loads it.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.heuristic import heuristic_vector
from repro.core.search_node import NodeState, PRUNED, SearchNode

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import numpy as np

#: Closes every limit list: one row past the last, above any score.
_NO_SCORE_ABOVE = -PRUNED


class ExpansionContext:
    """Query-specific constants and counters shared by every expansion of one search.

    One context belongs to one :class:`~repro.core.oasis.QueryExecution`:
    kernels are stateless and shared between concurrent executions, so
    everything a kernel reads or counts per query lives here.  Construction
    stores its arguments and nothing else; the list, packed and array forms
    the kernels read are derived on first use, so a query that never
    expands a node (or a shard that holds nothing for it) pays for none of
    them.

    ``query_codes`` are the query's symbol codes (``bytes`` or any sequence
    of ints), ``score_rows`` the substitution table as one list of scores per
    code (:attr:`SubstitutionMatrix.rows
    <repro.scoring.matrix.SubstitutionMatrix.rows>`), ``gains`` the
    matrix's clamped gain per code (:attr:`SubstitutionMatrix.gains
    <repro.scoring.matrix.SubstitutionMatrix.gains>`), the table Section
    3.1's heuristic sums, and ``packed_score_rows``, where given, the rows
    as the matrix caches them packed (:attr:`SubstitutionMatrix.packed_rows
    <repro.scoring.matrix.SubstitutionMatrix.packed_rows>`).  The C
    frontier builds the heuristic, the profile and the root column from
    ``query_codes``, ``gains`` and :attr:`packed_score_rows` itself; the
    list forms here serve the Python frontier.
    """

    def __init__(
        self,
        query_codes: Sequence[int],
        score_rows: Sequence[Sequence[int]],
        gap_penalty: int,
        gains: Sequence[int],
        min_score: int,
        packed_score_rows: Optional[Sequence[bytes]] = None,
    ):
        if min_score < 1:
            raise ValueError("min_score must be at least 1")
        if gap_penalty >= 0:
            raise ValueError("the gap penalty must be negative")
        self.query_codes = query_codes
        self.score_rows = score_rows
        self.gains = gains
        self._packed_score_rows = packed_score_rows
        self.gap_penalty = int(gap_penalty)
        self.min_score = int(min_score)
        self.query_length = len(self.query_codes)
        #: Number of matrix columns expanded (the Figure 4 metric).
        self.columns_expanded = 0
        #: Children handed back to the driver so far (``nodes_enqueued``).
        #: A kernel numbers each frontier entry it builds from here, in child
        #: order; the number is the heap's last tie-break.
        self.nodes_enqueued = 0
        #: Children that came out UNVIABLE and were dropped by the kernel
        #: instead of being handed back to the driver (``nodes_pruned``).
        self.nodes_dropped = 0
        self._limits: Dict[int, List[int]] = {}

    # ------------------------------------------------------------------ #
    # Derived forms, built on first use
    # ------------------------------------------------------------------ #
    @cached_property
    def profile_rows(self) -> List[List[int]]:
        """Per-symbol substitution profile: ``profile_rows[t][i-1] = S(q_i, t)``.

        Precomputing it once per query turns the per-column score lookup
        into a plain row read.
        """
        query_rows = [self.score_rows[code] for code in self.query_codes]
        return [[row[symbol] for row in query_rows] for symbol in range(len(self.score_rows))]

    @cached_property
    def heuristic(self) -> List[int]:
        """``h`` of Section 3.1 as Python ints: non-increasing, ``h[m] == 0``
        (:func:`~repro.core.heuristic.heuristic_vector` over :attr:`gains`)."""
        return heuristic_vector(self.query_codes, self.gains)

    @cached_property
    def packed_score_rows(self) -> Sequence[bytes]:
        """The score rows as native ``int64`` bytes, one per code (the C
        frontier joins a query's into its profile): as given, or packed here."""
        if self._packed_score_rows is not None:
            return self._packed_score_rows
        return [array("q", row).tobytes() for row in self.score_rows]

    @cached_property
    def profile(self) -> "np.ndarray":
        """:attr:`profile_rows` as an ``int64`` array (the dense form)."""
        import numpy as np

        return np.array(self.profile_rows, dtype=np.int64).reshape(len(self.score_rows), -1)

    @cached_property
    def heuristic_array(self) -> "np.ndarray":
        """:attr:`heuristic` as an ``int64`` array (the dense form)."""
        import numpy as np

        return np.array(self.heuristic, dtype=np.int64)

    @cached_property
    def offsets(self) -> "np.ndarray":
        """``gap * i`` per row: the running-maximum resolution of the
        vertical dependency in the dense form."""
        import numpy as np

        return self.gap_penalty * np.arange(self.query_length + 1, dtype=np.int64)

    def limit_for(self, cutoff: int) -> List[int]:
        """The fused prune limit ``max(0, cutoff - h)`` per row, cached per cutoff.

        A cell survives all three rules exactly when it exceeds this limit
        (``cutoff = max(path max_score, min_score - 1)``); a path's cutoff
        only ever rises, and only through the few scores a query can reach,
        so a query builds a handful of these.  The list has ``m + 2`` entries:
        the last is a sentinel no score exceeds, where a vertical chain that
        starts in row ``m`` stops (see :mod:`repro.core.kernels`).
        """
        limit = self._limits.get(cutoff)
        if limit is None:
            limit = self._limits[cutoff] = [
                cutoff - bound if bound < cutoff else 0 for bound in self.heuristic
            ]
            limit.append(_NO_SCORE_ABOVE)
        return limit

    def make_root_cells(self) -> List[Tuple[int, int]]:
        """The seed column of Algorithm 2, live cells only: a zero in every
        row from which the threshold is still within reach."""
        min_score = self.min_score
        return [(row, 0) for row, bound in enumerate(self.heuristic) if bound >= min_score]

    def dense_column(self, cells: List[Tuple[int, int]]) -> "np.ndarray":
        """Live cells as the ``m + 1`` array of the dense form, the rest pruned."""
        import numpy as np

        column = np.full(self.query_length + 1, PRUNED, dtype=np.int64)
        for row, score in cells:
            column[row] = score
        return column

    def make_root_column(self) -> "np.ndarray":
        """:meth:`make_root_cells` in the dense form: zeros, pruned where hopeless."""
        return self.dense_column(self.make_root_cells())


def expand_arc_reference(
    parent: SearchNode,
    tree_node,
    arc_symbols: bytes,
    is_leaf: bool,
    context: ExpansionContext,
    *,
    prune_non_positive: bool = True,
    prune_dominated: bool = True,
    prune_threshold: bool = True,
) -> SearchNode:
    """Algorithm 3, reference form: expand one suffix-tree arc below ``parent``.

    This is the original per-column implementation, kept verbatim as the
    parity oracle for the live-cell kernel in :mod:`repro.core.kernels` (run
    it via ``OASIS_KERNEL=reference`` or ``kernel="reference"``).  It computes
    all ``m + 1`` cells of every column, pruned or not, and supports every
    combination of rule switches.

    Parameters
    ----------
    parent:
        The search node being expanded (its ``column`` seeds the matrix).
    tree_node:
        The suffix-tree handle of the child node (stored on the result).
    arc_symbols:
        Codes labelling the child's incoming arc (``bytes``, one per symbol).
    is_leaf:
        Whether the child is a leaf (no further expansion is possible below
        it, so a viable outcome is impossible).
    context:
        The per-query :class:`ExpansionContext`.
    prune_non_positive, prune_dominated, prune_threshold:
        The rules of Section 3.2, all on by default.  Switching one off
        never changes the result set, only the amount of work (the
        ablation experiment measures it).

    Returns
    -------
    SearchNode
        A new search node tagged VIABLE, ACCEPTED or UNVIABLE.
    """
    import numpy as np

    gap = context.gap_penalty
    heuristic = context.heuristic_array
    min_score = context.min_score
    profile = context.profile
    offsets = context.offsets
    all_rules = prune_non_positive and prune_dominated and prune_threshold

    column = parent.column
    if column is None:
        raise ValueError("cannot expand below a node whose column was discarded")
    max_score = parent.max_score
    depth = parent.depth

    best_ending_here = PRUNED
    final_column: Optional["np.ndarray"] = None

    for symbol in arc_symbols:
        depth += 1
        substitution = profile[symbol]

        # Row 0 (empty query prefix): only a deletion from the previous row-0
        # entry is possible -- no reset to zero.
        candidate = np.empty_like(column)
        candidate[0] = column[0] + gap
        candidate[1:] = np.maximum(column[1:] + gap, column[:-1] + substitution)
        # Vertical (insertion) dependency, resolved without a Python loop:
        #   new[i] = max(candidate[i], new[i-1] + gap)
        #          = max_{k <= i} (candidate[k] + gap * (i - k))
        new_column = np.maximum.accumulate(candidate - offsets) + offsets
        context.columns_expanded += 1

        column_best = int(new_column.max())
        if column_best > max_score:
            max_score = column_best
        if column_best > best_ending_here:
            best_ending_here = column_best

        # --- Alignment pruning (Section 3.2) --------------------------- #
        optimistic = new_column + heuristic
        if all_rules:
            # Fast path: the three rules collapse into two comparisons.
            #   dominated-or-hopeless  <=>  optimistic <= max(max_score, min_score - 1)
            mask = (new_column <= 0) | (optimistic <= max(max_score, min_score - 1))
        else:
            mask = None
            if prune_non_positive:
                mask = new_column <= 0
            if prune_dominated:
                dominated = optimistic <= max_score
                mask = dominated if mask is None else (mask | dominated)
            if prune_threshold:
                hopeless = optimistic < min_score
                mask = hopeless if mask is None else (mask | hopeless)
        if mask is not None:
            new_column[mask] = PRUNED
            optimistic[mask] = PRUNED

        column = new_column
        final_column = new_column

        # --- Early termination checks ---------------------------------- #
        f_bound = int(optimistic.max())
        if f_bound <= max_score:
            # Nothing below this node can beat what the path already found.
            state = NodeState.ACCEPTED if max_score >= min_score else NodeState.UNVIABLE
            return SearchNode(
                tree_node=tree_node,
                column=None,
                max_score=max_score,
                f=max_score,
                b=max_score,
                state=state,
                depth=depth,
            )
        if f_bound < min_score:
            return SearchNode(
                tree_node=tree_node,
                column=None,
                max_score=max_score,
                f=f_bound,
                b=best_ending_here,
                state=NodeState.UNVIABLE,
                depth=depth,
            )

    # All arc symbols processed and the node is still promising.
    assert final_column is not None, "suffix tree arcs are never empty"
    f_bound = int((final_column + heuristic).max())
    if is_leaf:
        # No further expansion is possible below a leaf: the strongest
        # alignment along this path is whatever has been found already.
        state = NodeState.ACCEPTED if max_score >= min_score else NodeState.UNVIABLE
        return SearchNode(
            tree_node=tree_node,
            column=None,
            max_score=max_score,
            f=max_score,
            b=max_score,
            state=state,
            depth=depth,
        )
    return SearchNode(
        tree_node=tree_node,
        column=final_column,
        max_score=max_score,
        f=f_bound,
        b=best_ending_here,
        state=NodeState.VIABLE,
        depth=depth,
    )
