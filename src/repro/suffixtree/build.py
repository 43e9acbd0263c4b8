"""Building the Section 3.4 record arrays of a database, on NumPy and one C pass.

:meth:`repro.suffixtree.generalized.GeneralizedSuffixTree.build` imports this
module when it is called, so a tree read from a disk image (and a cold
``search --index``) loads neither NumPy nor the suffix sorter.  The arrays
are built straight from sorted suffixes and their LCPs, never as node objects:

* :func:`sorted_suffixes` sorts every suffix at once and hands over the suffix
  positions and their LCPs as two flat arrays (the paper's Section 3.4.1 sorts
  one lexical partition at a time; why this does not,
  :mod:`repro.suffixtree.suffix_array` says);
* one rightmost-path stack pass over the LCPs (:func:`_flat_tree`) writes,
  per internal node, its string depth, its leftmost leaf and its parent, and
  per leaf its parent, to flat 4-byte arrays; the LCPs are then let go.  The
  pass runs in C, ``flat_tree`` of the compiled step that the search kernel
  loads (``core/_column_step.c``), and as a Python loop only where that
  step does not build;
* NumPy does the rest on those arrays (:func:`_level_order_records`): tree
  level from the parents, level order as one ``lexsort``, leaf records as a
  stable sort by parent, first-child pointers and last-sibling bits from the
  run boundaries -- so that the internal children of a node and its leaf
  children each end up as one contiguous run.

Counted with ``tracemalloc`` on 1 000 042 residues of random protein (100 to
600 per sequence), the sort and the LCPs peak at 53 bytes per residue (text
included) and the last step, which holds the record arrays and their sort
permutations, at 53 as well.  The stack pass peaks at 16 in between: 8 for
the positions and LCPs it is handed, 8 for what it writes (4 per leaf, 12
per internal node, a third of a node per residue), and a stack of at most
the longest LCP + 1 entries.  ``tests/image_oracle.py`` keeps the object
tree and the level-order walk over it that this replaced, and the test-suite
holds the two to the same bytes.
"""

from __future__ import annotations

from array import array
from typing import Tuple

import numpy as np

from repro.sequences.database import SequenceDatabase
from repro.suffixtree.cursor import LAST_SIBLING_BIT, NO_POINTER, VALUE_MASK
from repro.suffixtree.suffix_array import build_lcp_array, build_suffix_array


def tree_records(database: SequenceDatabase) -> Tuple[array, array]:
    """The internal and leaf record arrays of the suffix tree of ``database``."""
    symbol_count = len(database.concatenated_codes)
    if symbol_count > VALUE_MASK:
        raise ValueError(f"{symbol_count} symbols do not fit the records' 31-bit pointers")
    sequence_ends = np.array(database.sequence_starts[1:] + [symbol_count])
    # The sorted suffixes go straight into the call: their LCPs are let go
    # before the record arrays are built.
    return _level_order_records(*_flat_tree(*sorted_suffixes(database), sequence_ends))


def construction_codes(database: SequenceDatabase) -> np.ndarray:
    """The concatenated codes with each sequence's terminal replaced by a distinct code.

    Terminal ``i`` becomes ``alphabet.size_with_terminal + i``: no suffix is a
    prefix of another, terminals sort after every residue and among
    themselves in sequence order.
    """
    codes = np.frombuffer(database.concatenated_codes, dtype=np.uint8).astype(np.int32)
    terminal_positions = np.array(database.sequence_starts[1:] + [len(codes)]) - 1
    codes[terminal_positions] = database.alphabet.size_with_terminal + np.arange(len(database))
    return codes


def sorted_suffixes(database: SequenceDatabase) -> Tuple[np.ndarray, np.ndarray]:
    """``(positions, lcps)``: the database's suffixes in lexical order and their LCPs.

    ``lcps[k]`` is the longest common prefix of the suffixes at
    ``positions[k]`` and ``positions[k - 1]`` (``lcps[0]`` is 0).  Suffixes
    that begin at a terminal carry no alignable content; terminals sort after
    every residue, so they are the tail of the suffix array, and are left out.
    """
    database.freeze()
    text = construction_codes(database)
    suffix_array = build_suffix_array(text)
    kept = database.total_symbols
    return suffix_array[:kept], build_lcp_array(text, suffix_array)[:kept]


def _flat_tree(
    positions: np.ndarray, lcps: np.ndarray, sequence_ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The compact suffix tree of sorted suffixes, as five flat arrays.

    ``positions`` are the suffixes in lexical order and ``lcps[k]`` the
    longest common prefix of ``positions[k]`` with the suffix before it.
    Returns ``(positions, leaf_parent, node_depth, node_leftmost,
    node_parent)``: leaves are numbered in sorted order, internal nodes in
    creation order (the root is node 0, its own parent), and
    ``node_leftmost`` is the number of the leftmost leaf below a node.

    The stack is the rightmost path of the tree built so far.  A node's
    parent is final once the node has left the path -- except that a later
    suffix may still split the arc above the node popped last, which then
    hangs below the new node.

    The pass runs in C wherever the compiled step builds (``flat_tree`` in
    ``core/_column_step.c``): it reads the LCPs in place, counts the nodes
    first so that each output is sized to what it holds, and keeps nothing
    else but a stack of at most the longest LCP + 1 entries.  Elsewhere
    :func:`_python_stack_pass` runs the same pass over ``lcps.tolist()``.
    The refusals are NumPy's, before either.
    """
    # The end of the sequence each text position lies in, then each suffix's length.
    end_at = np.repeat(sequence_ends.astype(positions.dtype), np.diff(sequence_ends, prepend=0))
    lengths = end_at[positions] - positions
    del end_at
    if (lcps >= lengths).any():
        raise ValueError(
            "a suffix is a prefix of its predecessor; terminal symbols "
            "must make all suffixes distinct"
        )
    del lengths
    if len(lcps) and lcps[0] != 0:
        raise ValueError("the first suffix of all must have LCP 0")
    from repro.core.kernels import _compiled_step  # suffixtree sits below core

    step = _compiled_step()
    if isinstance(step, str):
        return (positions, *_python_stack_pass(lcps))
    nodes = step.flat_tree(lcps)
    leaf_parent = np.empty(len(lcps), dtype=np.intc)
    node_depth, node_leftmost, node_parent = (np.empty(nodes, dtype=np.intc) for _ in range(3))
    step.flat_tree(lcps, leaf_parent, node_depth, node_leftmost, node_parent)
    return positions, leaf_parent, node_depth, node_leftmost, node_parent


def _python_stack_pass(
    lcps: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_flat_tree`'s stack pass where the compiled step does not build.

    The twin of ``flat_tree`` in ``core/_column_step.c``, array for array.
    """
    leaf_parent = array("i")
    node_depth, node_leftmost, node_parent = array("i", [0]), array("i", [0]), array("i", [0])
    path_nodes, path_depths = [0], [0]

    for common in lcps.tolist():
        popped = -1
        while path_depths[-1] > common:
            path_depths.pop()
            popped = path_nodes.pop()
        top = path_nodes[-1]
        if path_depths[-1] < common:
            # The split point falls inside the arc of what was popped last
            # (the previous leaf when no node was): a new node takes over
            # that child and its leftmost leaf.
            new = len(node_depth)
            node_depth.append(common)
            node_parent.append(top)
            if popped < 0:
                node_leftmost.append(len(leaf_parent) - 1)
                leaf_parent[-1] = new
            else:
                node_leftmost.append(node_leftmost[popped])
                node_parent[popped] = new
            path_nodes.append(new)
            path_depths.append(common)
            top = new
        leaf_parent.append(top)

    return (
        np.frombuffer(leaf_parent, dtype=np.intc),
        np.frombuffer(node_depth, dtype=np.intc),
        np.frombuffer(node_leftmost, dtype=np.intc),
        np.frombuffer(node_parent, dtype=np.intc),
    )


def _level_order_records(
    positions: np.ndarray,
    leaf_parent: np.ndarray,
    node_depth: np.ndarray,
    node_leftmost: np.ndarray,
    node_parent: np.ndarray,
) -> Tuple[array, array]:
    """The internal and leaf record arrays from :func:`_flat_tree`'s arrays.

    Internal nodes are renumbered in level order, left to right within a
    level, so a node's internal children are consecutive and follow those of
    the node before it; the leaf records are laid out in the order of their
    parents' new numbers, each run in lexical order.  Both come back as
    ``array('I')`` (native byte order), filled through NumPy views.
    """
    # Tree level by pointer jumping: ``level`` is the distance to ``hop``,
    # which doubles every round (the root is its own parent at distance 0).
    level = np.ones(len(node_parent), dtype=np.int32)
    level[0] = 0
    hop = node_parent
    while hop.any():
        level = level + level[hop]
        hop = hop[hop]

    # Two nodes with the same leftmost leaf are ancestor and descendant, so
    # (level, leftmost leaf) is a total order: the level-order walk's.
    order = np.lexsort((node_leftmost, level))
    number = np.empty(len(order), dtype=np.uint32)
    number[order] = np.arange(len(order), dtype=np.uint32)

    internal_records = array("I", [0]) * (4 * len(order))
    internal = np.frombuffer(internal_records, dtype=np.uint32).reshape(-1, 4)
    internal[:, 0] = node_depth[order]
    internal[:, 1] = positions[node_leftmost[order]] + node_depth[node_parent[order]]
    internal[0, 1] = 0  # the root has no incoming arc
    internal[:, 2:] = NO_POINTER
    internal[0, 0] |= LAST_SIBLING_BIT
    starts, ends, parents = _sibling_runs(number[node_parent[order[1:]]])
    internal[parents, 2] = starts + 1
    internal[ends + 1, 0] |= LAST_SIBLING_BIT

    leaf_number = number[leaf_parent]
    leaf_order = np.argsort(leaf_number, kind="stable")
    leaf_records = array("I", [0]) * len(leaf_order)
    leaves = np.frombuffer(leaf_records, dtype=np.uint32)
    leaves[:] = positions[leaf_order]
    starts, ends, parents = _sibling_runs(leaf_number[leaf_order])
    internal[parents, 3] = starts
    leaves[ends] |= LAST_SIBLING_BIT
    return internal_records, leaf_records


def _sibling_runs(parents: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First index, last index and parent of each run of equal values in ``parents``."""
    if not len(parents):
        empty = np.empty(0, dtype=np.intp)
        return empty, empty, empty
    starts = np.flatnonzero(np.concatenate(([True], parents[1:] != parents[:-1])))
    ends = np.append(starts[1:] - 1, len(parents) - 1)
    return starts, ends, parents[starts]
