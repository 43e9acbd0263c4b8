"""Search nodes: the elements of the OASIS priority queue (Section 3).

Each search node corresponds to one suffix-tree node and represents the
partial alignments between the query and the portion of the database spelled
by the path to that tree node.  The paper's fields are

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

They exist in three forms.

The **frontier entry** is what the search runs on: one entry per node,

    ``(-f, accepted-first flag, counter, tree_node, column, max_score, depth)``

On the compiled kernel over a cursor's ``node_records`` it is a C struct in
the C frontier (``core/_column_step.c``, :mod:`repro.core.frontier`): the
handle as its kind and four ints, the column as a slice of the frontier's
cell arena, never a Python object until a hit's handle is returned.
Everywhere else -- the Python frontier, with the ``live`` and ``reference``
kernels, dense columns and cursors without ``node_records`` -- it is this
flat tuple, built and numbered by the expansion kernel, pushed onto the
heap exactly as received, read by index when it is popped and handed back
to the kernel as the parent of the next expansion; and the tuple is the
test view of the C frontier's pops (its ``popped`` list), slot for slot.
The heap is a min-heap, hence ``-f``.  The flag is 0 for an ACCEPTED node
and 1 for a VIABLE one, so that among equal ``f`` a result that is already
provably optimal is emitted before more speculative work is done -- this
matches the behaviour described in the paper's example (Section 3.3) and
keeps the online stream as early as possible.  The counter is the node's enqueue number, unique within a query
and assigned in child order; it breaks all remaining ties, so a comparison
never goes past the third slot.  UNVIABLE nodes are never enqueued, and an
entry carries no ``b``: the frontier has no use for it.

:class:`SearchNode` is the same node with every field named, ``b`` and the
state included.  It is what a kernel's ``expand_arc`` takes and returns --
the view of the parity oracle and of the tests, which compare the two
kernels field by field, UNVIABLE children included.  :func:`frontier_entry`
and :func:`node_view` convert between the forms; a default search builds no
:class:`SearchNode` at all.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    import numpy as np

#: Sentinel used for pruned alignment entries.  Large enough in magnitude to
#: dominate any real score, small enough that adding substitution scores and
#: heuristic bounds cannot overflow int64.
PRUNED = -(10**15)

#: One DP column: sparse ``(row, score)`` survivors, dense array, or
#: ``None`` once the node is finished and the column discarded.
Column = Union[List[Tuple[int, int]], "np.ndarray", None]

#: ``(-f, accepted-first flag, counter, tree_node, column, max_score, depth)``.
FrontierEntry = Tuple[int, int, int, Any, Column, int, int]

#: The flag slot of a :data:`FrontierEntry`.
ACCEPTED_FIRST = 0
VIABLE_AFTER = 1


class NodeState(enum.Enum):
    """The status tags of Section 3 (``viable`` / ``accepted`` / ``unviable``)."""

    VIABLE = "viable"
    ACCEPTED = "accepted"
    UNVIABLE = "unviable"


@dataclass
class SearchNode:
    """One search node with every field of the paper named."""

    tree_node: Any
    column: Column
    max_score: int
    f: int
    b: int
    state: NodeState
    #: String depth of the corresponding tree node (how many target symbols
    #: the path spells); useful for reporting and debugging.
    depth: int = 0

    def __repr__(self) -> str:
        return (
            f"SearchNode(state={self.state.value}, f={self.f}, "
            f"max_score={self.max_score}, depth={self.depth})"
        )


def frontier_entry(node: SearchNode, counter: int) -> FrontierEntry:
    """The frontier entry of an ACCEPTED or VIABLE node, numbered ``counter``."""
    return (
        -node.f,
        ACCEPTED_FIRST if node.state is NodeState.ACCEPTED else VIABLE_AFTER,
        counter,
        node.tree_node,
        node.column,
        node.max_score,
        node.depth,
    )


def node_view(entry: FrontierEntry, min_score: int, b: Optional[int] = None) -> SearchNode:
    """A frontier entry as a :class:`SearchNode`.

    An entry without a column is finished: ACCEPTED when its path reached
    ``min_score``, UNVIABLE otherwise (a kernel's ``expand_arc`` keeps those
    too), and its ``b`` has collapsed to ``max_score``.  The ``b`` of a
    VIABLE node is not part of its entry; the caller supplies it when it
    knows it, and ``max_score``, its upper bound, stands in otherwise.
    """
    negated_f, _, _, tree_node, column, max_score, depth = entry
    if column is None:
        state = NodeState.ACCEPTED if max_score >= min_score else NodeState.UNVIABLE
        b = max_score
    else:
        state = NodeState.VIABLE
        if b is None:
            b = max_score
    return SearchNode(tree_node, column, max_score, -negated_f, b, state, depth)
