"""Search nodes: the elements of the OASIS priority queue (Section 3).

Each search node corresponds to one suffix-tree node and represents the
partial alignments between the query and the portion of the database spelled
by the path to that tree node.  The fields mirror the paper exactly:

* ``tree_node`` -- the corresponding suffix tree node (``sn`` in the paper);
* ``column`` -- the ``C`` vector: one Smith-Waterman column, the best score of
  an alignment ending at query position ``i`` and at the end of the path.  The
  live-cell kernel stores it as the ascending list of ``(i, score)`` cells that
  survived pruning; the dense reference form as an array of ``m + 1`` entries,
  pruned ones holding a large negative sentinel;
* ``max_score`` -- the strongest alignment found anywhere along the path;
* ``f`` -- the optimistic bound on what further expansion can achieve (the
  priority-queue key);
* ``b`` -- the best score ending exactly at this node;
* ``state`` -- VIABLE / ACCEPTED / UNVIABLE.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

import numpy as np

#: Sentinel used for pruned alignment entries.  Large enough in magnitude to
#: dominate any real score, small enough that adding substitution scores and
#: heuristic bounds cannot overflow int64.
PRUNED = -(10**15)


class NodeState(enum.Enum):
    """The status tags of Section 3 (``viable`` / ``accepted`` / ``unviable``)."""

    VIABLE = "viable"
    ACCEPTED = "accepted"
    UNVIABLE = "unviable"


@dataclass
class SearchNode:
    """One entry of the OASIS priority queue."""

    tree_node: Any
    column: Union[List[Tuple[int, int]], np.ndarray, None]
    max_score: int
    f: int
    b: int
    state: NodeState
    #: String depth of the corresponding tree node (how many target symbols
    #: the path spells); useful for reporting and debugging.
    depth: int = 0

    @property
    def is_accepted(self) -> bool:
        return self.state is NodeState.ACCEPTED

    @property
    def is_viable(self) -> bool:
        return self.state is NodeState.VIABLE

    @property
    def is_unviable(self) -> bool:
        return self.state is NodeState.UNVIABLE

    def __repr__(self) -> str:
        return (
            f"SearchNode(state={self.state.value}, f={self.f}, "
            f"max_score={self.max_score}, depth={self.depth})"
        )


def make_terminal_node(tree_node: Any, max_score: int, min_score: int, depth: int) -> SearchNode:
    """A finished node: no further expansion below it can improve the path.

    Both the early-termination check (``f <= max_score``) and the leaf case
    of Algorithm 3 end here: the strongest alignment along the path is
    ``max_score``, so ``f`` and ``b`` collapse to it, the column is
    discarded, and the node is ACCEPTED when the path reached the threshold
    (its sequences are reported when it surfaces from the queue) and
    UNVIABLE otherwise.  Shared by every expansion kernel.
    """
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


def make_queue_entry(node: SearchNode, counter: int) -> tuple:
    """Build a heap entry for ``heapq`` (a min-heap, hence the negations).

    The entry is a plain tuple ``(-f, accepted-first flag, counter, node)``:
    accepted nodes sort before viable nodes of equal ``f`` so that a result
    that is already provably optimal is emitted before more speculative work
    is done -- this matches the behaviour described in the paper's example
    (Section 3.3) and keeps the online stream as early as possible.  The
    unique counter breaks all remaining ties, so the node itself is never
    compared.
    """
    return (-node.f, 0 if node.is_accepted else 1, counter, node)
