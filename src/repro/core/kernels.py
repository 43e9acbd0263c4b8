"""Arc-expansion kernels: Algorithm 3 over the cells that survive pruning.

Alignment pruning (Section 3.2) leaves a frontier column almost empty: on
the benchmark's inputs the column that seeds an arc holds about two live
cells out of 15 (protein motifs) or 40-120 (DNA) rows, and two arcs in three
end after a single column.  The dense form in :mod:`repro.core.expand` still
pays a dozen NumPy calls per column for all of them.  The production kernel
here never materialises the dead ones:

:class:`LiveCellKernel` (``live``, the default)
    A column is the ascending list of ``(row, score)`` cells that survived
    pruning.  One DP step visits each live cell once, emits its horizontal
    (``+gap``, same row) and diagonal (``+S(q, t)``, next row) successors,
    and follows the vertical ``+gap`` chain below each *surviving* successor
    for as long as it stays alive -- all in plain Python ints against
    per-query lists held by the :class:`~repro.core.expand.ExpansionContext`.

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
    cell survived".  ``h[m] == 0`` makes the last row's limit the cutoff
    itself, which no score exceeds, so live rows stay below ``m`` and no
    index runs off a list.

:class:`ReferenceKernel` (``reference``)
    The dense implementation, verbatim
    (:func:`~repro.core.expand.expand_arc_reference`): the parity oracle.
    The live-cell kernel also hands over to it when a pruning rule is off or
    per-rule counts are tracked (``context.live_cells`` is false) -- columns
    are dense by construction then.

A kernel's ``expand_children`` returns only the children the driver should
enqueue, in child order (the enqueue counter, and with it the heap
tie-break, depends on that); four in five children come out UNVIABLE and
are counted in ``context.nodes_dropped`` without ever becoming a
:class:`SearchNode`.  Kernels hold no per-query state -- one instance
serves concurrent executions -- and never call the cursor.

Selection goes through :func:`get_kernel`: an explicit ``kernel=`` argument
(``OasisSearch`` / the engines / the CLI all thread one through) wins,
otherwise the ``OASIS_KERNEL`` environment variable, otherwise ``live``.

Purity contract, enforced by the ``kernel-purity`` analysis rule over this
file: no NumPy call and no tracer/metrics access inside a kernel loop.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Tuple, Type, Union

from repro.core.expand import ExpansionContext, expand_arc_reference
from repro.core.search_node import NodeState, PRUNED, SearchNode, make_terminal_node

#: One child of a VIABLE node, as the search driver hands it to a kernel:
#: ``(tree node handle, arc symbol codes, is-leaf flag)``.  The codes are
#: what ``SuffixTreeCursor.arc_symbols`` returns: ``bytes``, one code per
#: byte, so a kernel loop iterates plain Python ints.
Sibling = Tuple[object, bytes, bool]

#: Environment variable selecting the default kernel (``live`` otherwise).
KERNEL_ENVIRONMENT_VARIABLE = "OASIS_KERNEL"

DEFAULT_KERNEL = "live"

_UNVIABLE = NodeState.UNVIABLE
_VIABLE = NodeState.VIABLE


class ExpansionKernel:
    """One strategy for running Algorithm 3 over a node's children.

    ``expand_arc`` expands a single arc into its :class:`SearchNode`,
    whatever its state.  ``expand_children`` receives the whole sibling set
    of a VIABLE node (lazily iterable: consuming it child by child preserves
    the interleaved cursor access pattern) and returns the children to
    enqueue, *in child order*; UNVIABLE children are dropped and counted in
    ``context.nodes_dropped``.
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
        parent: SearchNode,
        siblings: Iterable[Sibling],
        context: ExpansionContext,
    ) -> List[SearchNode]:
        kept: List[SearchNode] = []
        for tree_node, arc_symbols, is_leaf in siblings:
            child = self.expand_arc(parent, tree_node, arc_symbols, is_leaf, context)
            if child.state is _UNVIABLE:
                context.nodes_dropped += 1
            else:
                kept.append(child)
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
    parent: SearchNode,
    siblings: Iterable[Sibling],
    context: ExpansionContext,
    keep_unviable: bool,
) -> List[SearchNode]:
    """Live-cell Algorithm 3 below ``parent``, one arc per sibling.

    Returns the ACCEPTED and VIABLE children in sibling order; an UNVIABLE
    child is counted in ``context.nodes_dropped`` unless ``keep_unviable``
    asks for its node as well.
    """
    seed = parent.column
    if seed is None:
        raise ValueError("cannot expand below a node whose column was discarded")
    if not isinstance(seed, list):
        # The dense root column of ``make_root_column()``: convert it once.
        seed = [(row, score) for row, score in enumerate(seed.tolist()) if score != PRUNED]
    gap = context.gap_penalty
    min_score = context.min_score
    profile = context.profile_rows
    heuristic = context.heuristic_list
    limit_for = context.limit_for
    parent_max = parent.max_score
    parent_depth = parent.depth
    parent_limit = limit_for(parent_max if parent_max >= min_score else min_score - 1)

    kept: List[SearchNode] = []
    columns = 0
    for tree_node, arc_symbols, is_leaf in siblings:
        column = seed
        max_score = parent_max
        limit = parent_limit
        best_ending_here = PRUNED
        depth = parent_depth
        for symbol in arc_symbols:
            depth += 1
            scores = profile[symbol]
            # Candidates: each live cell's horizontal successor (same row)
            # and diagonal successor (next row), merged where the diagonal
            # of one cell and the horizontal of the next share a row.
            rows: List[int] = []
            values: List[int] = []
            below = -1
            for row, score in column:
                value = score + gap
                if row == below:
                    if value > values[-1]:
                        values[-1] = value
                else:
                    rows.append(row)
                    values.append(value)
                below = row + 1
                rows.append(below)
                values.append(score + scores[row])
            columns += 1

            column_best = max(values)
            if column_best > best_ending_here:
                best_ending_here = column_best
                if column_best > max_score:
                    max_score = column_best
                    if column_best >= min_score:
                        limit = limit_for(column_best)

            # Survivors: a candidate above its limit, raised to the vertical
            # chain arriving from the survivor above it where that is
            # higher, plus the chain's own cells between candidates.
            column = []
            chain_row = -1
            chain = 0
            for row, value in zip(rows, values):
                if chain_row >= 0:
                    while chain_row < row and chain > limit[chain_row]:
                        column.append((chain_row, chain))
                        chain += gap
                        chain_row += 1
                    if chain_row == row and chain > value:
                        value = chain
                if value > limit[row]:
                    column.append((row, value))
                    chain = value + gap
                    chain_row = row + 1
                else:
                    chain_row = -1
            if chain_row >= 0:
                while chain > limit[chain_row]:
                    column.append((chain_row, chain))
                    chain += gap
                    chain_row += 1
            if not column:
                break
        else:
            # The arc is spelled out and cells are still alive.
            if not is_leaf:
                kept.append(
                    SearchNode(
                        tree_node,
                        column,
                        max_score,
                        max([score + heuristic[row] for row, score in column]),
                        best_ending_here,
                        _VIABLE,
                        depth,
                    )
                )
                continue
        # Finished: every cell pruned (nothing below can beat the path's
        # best) or a leaf (nothing below at all).
        if keep_unviable or max_score >= min_score:
            kept.append(make_terminal_node(tree_node, max_score, min_score, depth))
        else:
            context.nodes_dropped += 1
    context.columns_expanded += columns
    return kept


class LiveCellKernel(ExpansionKernel):
    """Algorithm 3 over the live cells of each column only (the default).

    Applies when all three pruning rules are on and nothing is tallied per
    rule (``context.live_cells``); otherwise columns are dense and the
    reference form runs.
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
        return _expand_live(parent, ((tree_node, arc_symbols, is_leaf),), context, True)[0]

    def expand_children(
        self,
        parent: SearchNode,
        siblings: Iterable[Sibling],
        context: ExpansionContext,
    ) -> List[SearchNode]:
        if not context.live_cells:
            return super().expand_children(parent, siblings, context)
        return _expand_live(parent, siblings, context, False)


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
