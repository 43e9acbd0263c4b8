"""Arc-expansion kernels: Algorithm 3 over the cells that survive pruning.

Alignment pruning (Section 3.2) leaves a frontier column almost empty: on
the benchmark's inputs the column that seeds an arc holds about two live
cells out of 15 (protein motifs) or 40-120 (DNA) rows, two arcs in three
end after a single column, two columns in five enter with one live cell
and as many leave with none.  The dense form in :mod:`repro.core.expand`
still pays a dozen NumPy calls per column for all of them.  The production
kernel here never materialises the dead ones:

:class:`LiveCellKernel` (``live``, the default)
    A column is the ascending list of ``(row, score)`` cells that survived
    pruning.  One DP step is one walk down that list: each live cell emits
    its horizontal (``+gap``, same row) and diagonal (``+S(q, t)``, next
    row) successor, the walk carries the diagonal one until the next cell
    shows whether a horizontal successor shares its row, follows the
    vertical ``+gap`` chain below each *surviving* successor for as long as
    it stays alive, and appends survivors as it meets them -- all in plain
    Python ints against per-query lists held by the
    :class:`~repro.core.expand.ExpansionContext`.  The column's strongest
    cell is tracked on the way: it is the strongest diagonal or horizontal
    successor, because a chain never exceeds the cell it starts from.

    It is exact, not approximate.  With every rule on, the reference's three
    tests ``new <= 0``, ``new + h <= max_score`` and ``new + h < min_score``
    are, per cell, ``new <= limit[i]`` with ``limit[i] = max(0, cutoff -
    h[i])`` and ``cutoff = max(max_score, min_score - 1)``.  ``h`` is
    non-increasing, so ``limit`` is non-decreasing down a column: a ``+gap``
    chain that has fallen to its limit can never rise above a later one, a
    cell derived from a pruned cell (the ``PRUNED`` sentinel plus a small
    score) sits below every limit, and neither can be a column's maximum.
    So the survivor set and its scores, ``max_score``, ``f``, ``b``, node
    states, ``columns_expanded`` and every ``nodes_*`` counter equal the
    reference's.  Any survivor has ``score + h > cutoff``, hence ``f >
    max_score`` and ``f >= min_score``: early termination is exactly "no
    cell survived".

    The reference prunes a column against the cutoff *including* that
    column's own strongest cell, which the walk only knows when it ends.  So
    the walk prunes against the limit in force when the column starts, and
    when the strongest cell raises the cutoff (it exceeds ``max_score`` and
    reaches ``min_score``: rare) tests the survivors once more against the
    new limit.  That is exact as well: a cell dropped under the lower limit
    is dropped under every higher one and starts no chain that could
    survive, so each first-pass survivor already holds its dense value
    ``max_k(candidate[k] + gap * (i - k))``, and ``limit_for`` is monotone
    in the cutoff, so the survivors under the new limit are among them.
    ``h[m] == 0`` makes the last row's final limit the cutoff itself, which
    no score exceeds, so a finished column has no cell in row ``m``; under
    the *earlier* limit a new strongest cell can sit there for the rest of
    the walk and start a chain towards row ``m + 1``, which is why every
    limit list ends in a sentinel row that stops it.

:class:`ReferenceKernel` (``reference``)
    The dense implementation, verbatim
    (:func:`~repro.core.expand.expand_arc_reference`): the parity oracle.
    It knows how to expand one arc; the base class's ``expand_children``
    runs it over a sibling list.  The live-cell kernel hands over to the
    same path when a pruning rule is off or per-rule counts are tracked
    (``context.live_cells`` is false) -- columns are dense by construction
    then.

The driver and a kernel exchange frontier entries, the flat tuples of
:mod:`repro.core.search_node`.  ``expand_children(parent, siblings,
context)`` receives the entry the driver popped and the node's children as a
list of ``(handle, arc symbols, is_leaf)`` triples, and returns the entries
of the children to enqueue, in child order and numbered from
``context.nodes_enqueued`` (the heap tie-break depends on both); the driver
pushes them as they are.  Four in five children come out UNVIABLE and are
counted in ``context.nodes_dropped`` without ever becoming an entry.
Kernels hold no per-query state -- one instance serves concurrent
executions -- and never call the cursor.

Selection goes through :func:`get_kernel`: an explicit ``kernel=`` argument
(``OasisSearch`` / the engines / the CLI all thread one through) wins,
otherwise the ``OASIS_KERNEL`` environment variable, otherwise ``live``.

Purity contract, enforced by the ``kernel-purity`` analysis rule over this
file: no NumPy call and no tracer/metrics access inside a kernel loop.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core.expand import ExpansionContext, expand_arc_reference
from repro.core.search_node import (
    ACCEPTED_FIRST,
    FrontierEntry,
    NodeState,
    PRUNED,
    SearchNode,
    VIABLE_AFTER,
    frontier_entry,
    node_view,
)

# One child of a VIABLE node as the driver hands it to a kernel, exactly what
# ``SuffixTreeCursor.siblings`` returns: the arc is ``bytes``, so a kernel
# loop iterates plain Python ints.
from repro.suffixtree.cursor import Sibling


#: Environment variable selecting the default kernel (``live`` otherwise).
KERNEL_ENVIRONMENT_VARIABLE = "OASIS_KERNEL"

DEFAULT_KERNEL = "live"

_UNVIABLE = NodeState.UNVIABLE


class ExpansionKernel:
    """One strategy for running Algorithm 3 over a node's children.

    ``expand_children`` is what the search driver calls: it receives the
    frontier entry of a VIABLE node and that node's whole sibling list and
    returns the frontier entries of the children to enqueue, *in child
    order*, numbered from ``context.nodes_enqueued``; UNVIABLE children are
    dropped and counted in ``context.nodes_dropped``.  ``expand_arc`` expands
    a single arc into its :class:`SearchNode`, whatever its state.

    The implementation here serves every kernel that only knows how to
    expand one arc densely: it views the parent as a :class:`SearchNode`,
    runs ``expand_arc`` per sibling and turns what is kept into entries.
    """

    name = ""

    def expand_arc(
        self,
        parent: SearchNode,
        tree_node,
        arc_symbols: bytes,
        is_leaf: bool,
        context: ExpansionContext,
    ) -> SearchNode:
        raise NotImplementedError

    def expand_children(
        self,
        parent: FrontierEntry,
        siblings: Sequence[Sibling],
        context: ExpansionContext,
    ) -> List[FrontierEntry]:
        node = node_view(parent, context.min_score)
        if isinstance(node.column, list):
            # The root column is created sparse; the dense form below it is
            # dense all the way down.
            node.column = context.dense_column(node.column)
        kept: List[FrontierEntry] = []
        counter = context.nodes_enqueued
        for tree_node, arc_symbols, is_leaf in siblings:
            child = self.expand_arc(node, tree_node, arc_symbols, is_leaf, context)
            if child.state is _UNVIABLE:
                context.nodes_dropped += 1
            else:
                counter += 1
                kept.append(frontier_entry(child, counter))
        context.nodes_enqueued = counter
        return kept

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ReferenceKernel(ExpansionKernel):
    """The dense per-column implementation, unmodified (the parity oracle)."""

    name = "reference"

    def expand_arc(
        self,
        parent: SearchNode,
        tree_node,
        arc_symbols: bytes,
        is_leaf: bool,
        context: ExpansionContext,
    ) -> SearchNode:
        return expand_arc_reference(parent, tree_node, arc_symbols, is_leaf, context)


def _expand_live(
    parent: FrontierEntry,
    siblings: Sequence[Sibling],
    context: ExpansionContext,
    arc_bests: Optional[List[int]] = None,
) -> List[FrontierEntry]:
    """Live-cell Algorithm 3 below ``parent``, one arc per sibling.

    Returns the entries of the ACCEPTED and VIABLE children in sibling
    order, numbered from ``context.nodes_enqueued``; an UNVIABLE child is
    counted in ``context.nodes_dropped``.  With ``arc_bests`` (the
    ``expand_arc`` view) every child is returned, its ``b`` is appended to
    that list, and neither counter moves.
    """
    seed = parent[4]
    if seed is None:
        raise ValueError("cannot expand below a node whose column was discarded")
    gap = context.gap_penalty
    min_score = context.min_score
    profile = context.profile_rows
    heuristic = context.heuristic
    limit_for = context.limit_for
    parent_max = parent[5]
    parent_depth = parent[6]
    parent_limit = limit_for(parent_max if parent_max >= min_score else min_score - 1)
    view = arc_bests is not None
    # ``b`` is the strongest cell of any column on the arc.  The walk tracks
    # the diagonal candidates; a horizontal one is below the strongest cell
    # of the column before it, so only the seed's can count -- and only for
    # ``b``, because a seed cell never exceeds ``parent_max``.
    floor = max([score for _, score in seed]) + gap if view else PRUNED

    kept: List[FrontierEntry] = []
    counter = context.nodes_enqueued
    dropped = 0
    columns = 0
    for tree_node, arc_symbols, is_leaf in siblings:
        column = seed
        max_score = parent_max
        limit = parent_limit
        best = floor
        depth = parent_depth
        for symbol in arc_symbols:
            depth += 1
            scores = profile[symbol]
            # One walk down the live cells.  Each emits a horizontal
            # candidate (``+gap``, same row) and a diagonal one (``+S(q, t)``,
            # next row, held back as ``pending`` until the next cell shows
            # whether a horizontal candidate shares its row).  A settled
            # candidate is raised to the vertical chain arriving from the
            # survivor above it where that is higher, survives if it exceeds
            # its limit, and starts the chain below it; the chain's own
            # cells between candidates survive for as long as they stay above
            # theirs.
            survivors: List[Tuple[int, int]] = []
            pending_row = -1
            pending = 0
            chain_row = -1
            chain = 0
            for row, score in column:
                value = score + gap
                if pending_row == row:
                    if pending > value:
                        value = pending
                elif pending_row >= 0:
                    if chain_row >= 0:
                        while chain_row < pending_row and chain > limit[chain_row]:
                            survivors.append((chain_row, chain))
                            chain += gap
                            chain_row += 1
                        if chain_row == pending_row and chain > pending:
                            pending = chain
                    if pending > limit[pending_row]:
                        survivors.append((pending_row, pending))
                        chain = pending + gap
                        chain_row = pending_row + 1
                    else:
                        chain_row = -1
                if chain_row >= 0:
                    while chain_row < row and chain > limit[chain_row]:
                        survivors.append((chain_row, chain))
                        chain += gap
                        chain_row += 1
                    if chain_row == row and chain > value:
                        value = chain
                if value > limit[row]:
                    survivors.append((row, value))
                    chain = value + gap
                    chain_row = row + 1
                else:
                    chain_row = -1
                pending = score + scores[row]
                pending_row = row + 1
                if pending > best:
                    best = pending
            if chain_row >= 0:
                while chain_row < pending_row and chain > limit[chain_row]:
                    survivors.append((chain_row, chain))
                    chain += gap
                    chain_row += 1
                if chain_row == pending_row and chain > pending:
                    pending = chain
            if pending > limit[pending_row]:
                survivors.append((pending_row, pending))
                chain = pending + gap
                chain_row = pending_row + 1
                while chain > limit[chain_row]:
                    survivors.append((chain_row, chain))
                    chain += gap
                    chain_row += 1

            if best > max_score:
                max_score = best
                if best >= min_score:
                    # The cutoff rose: what survived the limit in force when
                    # the column started is tested against the new one.
                    limit = limit_for(best)
                    survivors = [cell for cell in survivors if cell[1] > limit[cell[0]]]
            column = survivors
            if not column:
                break
        columns += depth - parent_depth
        if column and not is_leaf:
            # The arc is spelled out and cells are still alive.
            counter += 1
            bound = max([score + heuristic[row] for row, score in column])
            kept.append((-bound, VIABLE_AFTER, counter, tree_node, column, max_score, depth))
        # Otherwise finished: every cell pruned (nothing below can beat the
        # path's best) or a leaf (nothing below at all).  ``f`` collapses to
        # ``max_score`` and the column is discarded.
        elif max_score >= min_score:
            counter += 1
            kept.append((-max_score, ACCEPTED_FIRST, counter, tree_node, None, max_score, depth))
        elif view:
            # UNVIABLE: never enqueued, so its number and flag mean nothing.
            kept.append((-max_score, VIABLE_AFTER, counter, tree_node, None, max_score, depth))
        else:
            dropped += 1
        if view:
            arc_bests.append(best)
    context.columns_expanded += columns
    if not view:
        context.nodes_enqueued = counter
        context.nodes_dropped += dropped
    return kept


class LiveCellKernel(ExpansionKernel):
    """Algorithm 3 over the live cells of each column only (the default).

    Applies when all three pruning rules are on and nothing is tallied per
    rule (``context.live_cells``); otherwise columns are dense and the
    reference form runs, through the base class's ``expand_children``.
    """

    name = "live"

    def expand_arc(
        self,
        parent: SearchNode,
        tree_node,
        arc_symbols: bytes,
        is_leaf: bool,
        context: ExpansionContext,
    ) -> SearchNode:
        if not context.live_cells:
            return expand_arc_reference(parent, tree_node, arc_symbols, is_leaf, context)
        column = parent.column
        if column is not None and not isinstance(column, list):
            # A dense column, as a reference-built node carries it.
            cells = [(row, score) for row, score in enumerate(column.tolist()) if score != PRUNED]
            parent = replace(parent, column=cells)
        arc_bests: List[int] = []
        (child,) = _expand_live(
            frontier_entry(parent, 0), ((tree_node, arc_symbols, is_leaf),), context, arc_bests
        )
        return node_view(child, context.min_score, arc_bests[0])

    def expand_children(
        self,
        parent: FrontierEntry,
        siblings: Sequence[Sibling],
        context: ExpansionContext,
    ) -> List[FrontierEntry]:
        if not context.live_cells:
            return super().expand_children(parent, siblings, context)
        return _expand_live(parent, siblings, context)


# --------------------------------------------------------------------- #
# Selection
# --------------------------------------------------------------------- #
_KERNELS: Dict[str, Type[ExpansionKernel]] = {
    ReferenceKernel.name: ReferenceKernel,
    LiveCellKernel.name: LiveCellKernel,
}


def available_kernels() -> Tuple[str, ...]:
    """The kernel names: the oracle, then the production kernel."""
    return tuple(_KERNELS)


def get_kernel(
    kernel: Union[str, ExpansionKernel, None] = None,
) -> ExpansionKernel:
    """Resolve a kernel selection into a kernel instance.

    Precedence: an explicit instance is used as-is, an explicit name is
    looked up, ``None`` falls back to the ``OASIS_KERNEL`` environment
    variable and finally to :data:`DEFAULT_KERNEL`.
    """
    if isinstance(kernel, ExpansionKernel):
        return kernel
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENVIRONMENT_VARIABLE) or DEFAULT_KERNEL
    try:
        return _KERNELS[kernel]()
    except KeyError:
        raise ValueError(
            f"unknown expansion kernel {kernel!r}; "
            f"available: {', '.join(available_kernels())}"
        ) from None
