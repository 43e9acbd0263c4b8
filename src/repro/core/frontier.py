"""The frontier: Algorithm 1's priority queue and the loop that drains it.

A search is one loop over a frontier object (:class:`~repro.core.oasis.
QueryExecution`).  The frontier is seeded with the root's entry and holds
the queue of search nodes, best bound first.  A partition of the tree (a
process scatter's task) gives it ``root_symbols`` as well: its first
expansion, the root's, then keeps to the children whose first arc symbol is
among them.  Its ``advance(bound_floor, budget)`` pops and expands entries
until one of four things happens:

* an ACCEPTED entry surfaces: it returns ``(score, handle)``, the path's
  score and its tree node, which the search loop turns into hits;
* the top bound drops below ``bound_floor`` (``None``: no floor): it
  returns :data:`BELOW_FLOOR` and leaves that entry queued -- the search's
  held hits at that score are then complete;
* ``budget`` pops have passed: it returns :data:`PAUSED`, so the search
  loop can check the abort flag and the deadline (:data:`FRONTIER_BUDGET`);
* the queue is empty: it returns :data:`EMPTY`.

Before each pop it notes the queue's length in ``max_queue_size``.  Its
other counters are ``nodes_expanded`` (the entries it popped and expanded,
the root's included) and the context's three: ``columns_expanded``,
``nodes_enqueued`` and ``nodes_dropped``.  They are the search's.

There are two forms of it.  The compiled kernel's, over a cursor's
``node_records``, is C (``frontier(records, context, root, root_symbols)``
in ``_column_step.c``): a binary heap of C entries whose columns live in
one cell arena, each node's children decoded from the records and walked
where they lie, and only a hit's handle ever made a Python object.
:class:`PythonFrontier` is the same loop over ``heapq`` and the flat tuples
of :mod:`repro.core.search_node`, expanding each node through a callable:
it serves the ``live`` and ``reference`` kernels, dense columns and cursors
without ``node_records``, and the ``live`` kernel's, over
``cursor.siblings``, is the twin the C frontier is tested against.  Heap
keys ``(-f, flag, counter)`` are unique within a query, so both pop the
same sequence.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Protocol, Tuple, Union

from repro.core.expand import ExpansionContext
from repro.core.search_node import ACCEPTED_FIRST, FrontierEntry

#: ``advance`` found the queue empty.
EMPTY = 0
#: ``advance`` found the top bound below ``bound_floor``.
BELOW_FLOOR = 1
#: ``advance`` made ``budget`` pops without a hit.
PAUSED = 2

#: The pops one ``advance`` call makes at most: how often the search checks
#: the abort flag and the deadline.  A pop and its expansion take a few
#: microseconds in C and tens on the Python frontier, so a stop is honoured
#: within a few milliseconds at most.
FRONTIER_BUDGET = 256

#: ``(score, handle)`` of an ACCEPTED entry, or one of the three codes.
Step = Union[Tuple[int, Any], int]


class Frontier(Protocol):
    """The queue an OASIS search pops from: :class:`PythonFrontier` or the C frontier."""

    def advance(self, bound_floor: Optional[int], budget: int) -> Step: ...

    def __len__(self) -> int: ...

    @property
    def nodes_expanded(self) -> int: ...

    @property
    def max_queue_size(self) -> int: ...

    @property
    def columns_expanded(self) -> int: ...

    @property
    def nodes_enqueued(self) -> int: ...

    @property
    def nodes_dropped(self) -> int: ...


class PythonFrontier:
    """The frontier over ``heapq`` and flat entries, expanding through ``expand``.

    ``expand(parent, context)`` returns the entries of the children to
    enqueue, numbered from ``context.nodes_enqueued``; the queue starts with
    ``root`` alone.  :attr:`popped`, a list, receives every popped entry
    (the test view the C frontier's ``popped`` list matches).
    """

    def __init__(
        self,
        expand: Callable[[FrontierEntry, ExpansionContext], List[FrontierEntry]],
        context: ExpansionContext,
        root: FrontierEntry,
    ) -> None:
        self._expand = expand
        self._context = context
        self._queue = [root]
        self.popped: Optional[List[FrontierEntry]] = None
        self.nodes_expanded = 0
        self.max_queue_size = 0

    def advance(self, bound_floor: Optional[int], budget: int) -> Step:
        if budget < 1:
            raise ValueError("the budget is at least one pop")
        queue, expand, context, popped = self._queue, self._expand, self._context, self.popped
        # Looked up per call, so that a test can watch the heap.
        push, pop = heapq.heappush, heapq.heappop
        for _ in range(budget):
            if not queue:
                return EMPTY
            if len(queue) > self.max_queue_size:
                self.max_queue_size = len(queue)
            if bound_floor is not None and -queue[0][0] < bound_floor:
                return BELOW_FLOOR
            entry = pop(queue)
            if popped is not None:
                popped.append(entry)
            if entry[1] == ACCEPTED_FIRST:
                return entry[5], entry[3]
            self.nodes_expanded += 1
            for child in expand(entry, context):
                push(queue, child)
        return PAUSED

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def columns_expanded(self) -> int:
        return self._context.columns_expanded

    @property
    def nodes_enqueued(self) -> int:
        return self._context.nodes_enqueued

    @property
    def nodes_dropped(self) -> int:
        return self._context.nodes_dropped
