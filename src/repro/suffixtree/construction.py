"""Building a compact suffix tree from a suffix array + LCP array.

The classic stack-based conversion: suffixes are inserted in sorted order, and
the stack always holds the rightmost path of the partially-built tree.  For
each new suffix, nodes deeper than the LCP with the previous suffix are popped;
if the LCP falls strictly inside the last popped node's incoming arc, that arc
is split by a new internal node.  The new suffix then hangs off the stack top
as a leaf.  The result is exactly the compact PATRICIA trie of Section 2.3.

The construction is generic over which suffixes are inserted (the generalized
tree skips suffixes that begin at a terminal symbol).

The node objects built here are what the *in-memory* engine searches.  The
disk image is not written from them: :mod:`repro.storage.builder` runs this
same rightmost-path loop over plain ints -- depth, leftmost leaf and parent
per internal node, appended to flat arrays -- and never makes a node.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.suffixtree.nodes import InternalNode, LeafNode, SuffixTreeNode


def build_tree_from_suffix_array(
    suffix_positions: Sequence[int],
    lcp: Sequence[int],
    suffix_end_of: Callable[[int], int],
    sequence_index_of: Callable[[int], int],
) -> InternalNode:
    """Build a suffix tree from sorted suffixes.

    Parameters
    ----------
    suffix_positions:
        Start positions of the suffixes to insert, in lexicographic order.
    lcp:
        ``lcp[k]`` is the longest common prefix between ``suffix_positions[k]``
        and ``suffix_positions[k - 1]``; ``lcp[0]`` must be 0.
    suffix_end_of:
        Maps a suffix start position to the exclusive end position of that
        suffix (one past its terminal symbol).
    sequence_index_of:
        Maps a suffix start position to the database sequence it belongs to.

    Returns
    -------
    InternalNode
        The root of the tree.
    """
    if len(suffix_positions) != len(lcp):
        raise ValueError("suffix_positions and lcp must have the same length")
    root = InternalNode(depth=0)
    if not suffix_positions:
        return root
    if lcp[0] != 0:
        raise ValueError("the first suffix inserted into an empty tree must have LCP 0")

    # The stack holds (node, string depth) pairs along the rightmost path.
    stack: List[Tuple[SuffixTreeNode, int]] = [(root, 0)]

    for k, position in enumerate(suffix_positions):
        position = int(position)
        common = int(lcp[k])
        suffix_end = suffix_end_of(position)
        suffix_length = suffix_end - position
        if common >= suffix_length:
            raise ValueError(
                f"suffix at position {position} is a prefix of its predecessor; "
                "terminal symbols must make all suffixes distinct"
            )

        last_popped: Tuple[SuffixTreeNode, int] | None = None
        while stack[-1][1] > common:
            last_popped = stack.pop()
        top_node, top_depth = stack[-1]

        if top_depth < common:
            # The split point falls inside last_popped's incoming arc: insert a
            # new internal node at string depth ``common``.
            assert last_popped is not None, "an LCP above the stack top implies a pop"
            split_child, _ = last_popped
            assert isinstance(top_node, InternalNode)
            new_internal = InternalNode(
                edge_start=split_child.edge_start,
                edge_end=split_child.edge_start + (common - top_depth),
                parent=top_node,
                depth=common,
            )
            # Replace the split child with the new internal node, then re-hang
            # the split child below it with a shortened arc.
            child_slot = top_node.children.index(split_child)
            top_node.children[child_slot] = new_internal
            split_child.edge_start = new_internal.edge_end
            split_child.parent = new_internal
            new_internal.children.append(split_child)
            stack.append((new_internal, common))
            top_node, top_depth = new_internal, common

        assert isinstance(top_node, InternalNode)
        leaf = LeafNode(
            suffix_start=position,
            sequence_index=sequence_index_of(position),
            edge_start=position + top_depth,
            edge_end=suffix_end,
            parent=top_node,
        )
        top_node.add_child(leaf)
        stack.append((leaf, suffix_length))

    return root


def validate_tree(root: InternalNode, codes: Sequence[int]) -> List[str]:
    """Structural validation of a suffix tree; returns a list of problems.

    Checks the compactness invariant (every non-root internal node has at
    least two children), that children are ordered and start with distinct
    symbols (terminal arcs excepted), and that arc references stay within the
    symbol array.  An empty list means the tree is well-formed.
    """
    problems: List[str] = []
    n = len(codes)

    def first_symbol(node: SuffixTreeNode) -> int:
        return int(codes[node.edge_start])

    stack: List[SuffixTreeNode] = [root]
    while stack:
        node = stack.pop()
        if not 0 <= node.edge_start <= node.edge_end <= n:
            problems.append(f"arc reference out of bounds: {node!r}")
        if isinstance(node, InternalNode):
            if node is not root and len(node.children) < 2:
                problems.append(f"non-root internal node with <2 children: {node!r}")
            if node is not root and node.edge_length == 0:
                problems.append(f"internal node with empty incoming arc: {node!r}")
            symbols = [first_symbol(child) for child in node.children]
            if symbols != sorted(symbols):
                problems.append(f"children not in sorted symbol order under {node!r}")
            stack.extend(node.children)
        else:
            if node.edge_length == 0:
                problems.append(f"leaf with empty incoming arc: {node!r}")
    return problems
