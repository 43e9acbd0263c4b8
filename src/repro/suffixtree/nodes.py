"""In-memory suffix tree node types.

The tree is a *compact* (PATRICIA) trie: every internal node has at least two
children, and arcs are labelled with substrings of the indexed text.  Arc
labels are never stored as strings; they are ``(start, end)`` references into
the database's concatenated symbol array, exactly like the ``symbolPtr`` of
the paper's disk representation (Section 3.4).
"""

from __future__ import annotations

from typing import ClassVar, Iterator, List, Optional


class SuffixTreeNode:
    """Common behaviour of internal and leaf nodes."""

    __slots__ = ("edge_start", "edge_end", "parent")

    #: A class attribute of each node class, not a property: the search reads
    #: it once per child.
    is_leaf: ClassVar[bool]

    def __init__(self, edge_start: int, edge_end: int, parent: Optional["InternalNode"]):
        #: Start offset (inclusive) of the incoming arc label in the symbol array.
        self.edge_start = edge_start
        #: End offset (exclusive) of the incoming arc label in the symbol array.
        self.edge_end = edge_end
        self.parent = parent

    @property
    def edge_length(self) -> int:
        """Number of symbols on the incoming arc."""
        return self.edge_end - self.edge_start

    @property
    def is_root(self) -> bool:
        return self.parent is None


class InternalNode(SuffixTreeNode):
    """A branching node (or the root, which has an empty incoming arc)."""

    __slots__ = ("children", "depth")

    is_leaf = False

    def __init__(
        self,
        edge_start: int = 0,
        edge_end: int = 0,
        parent: Optional["InternalNode"] = None,
        depth: int = 0,
    ):
        super().__init__(edge_start, edge_end, parent)
        #: String depth: total label length from the root to this node.
        self.depth = depth
        #: Children ordered by their first arc symbol (insertion order from the
        #: suffix-array construction is already sorted).
        self.children: List[SuffixTreeNode] = []

    def add_child(self, child: SuffixTreeNode) -> None:
        """Attach a child (children must be added in sorted symbol order)."""
        child.parent = self
        self.children.append(child)

    def __repr__(self) -> str:
        return (
            f"InternalNode(depth={self.depth}, children={len(self.children)}, "
            f"arc=[{self.edge_start}, {self.edge_end}))"
        )


class LeafNode(SuffixTreeNode):
    """A leaf: represents exactly one suffix of the indexed database.

    Attributes
    ----------
    suffix_start:
        Global position (offset into the concatenated symbol array) where the
        suffix represented by this leaf begins.  This is the number shown in
        the leaf labels of Figure 2 of the paper, and it is also how the leaf
        array on disk addresses the symbol array.
    sequence_index:
        Which database sequence the suffix belongs to.
    """

    __slots__ = ("suffix_start", "sequence_index")

    is_leaf = True

    def __init__(
        self,
        suffix_start: int,
        sequence_index: int,
        edge_start: int,
        edge_end: int,
        parent: Optional[InternalNode] = None,
    ):
        super().__init__(edge_start, edge_end, parent)
        self.suffix_start = suffix_start
        self.sequence_index = sequence_index

    def __repr__(self) -> str:
        return (
            f"LeafNode(suffix_start={self.suffix_start}, "
            f"sequence={self.sequence_index}, arc=[{self.edge_start}, {self.edge_end}))"
        )


def iter_subtree(node: SuffixTreeNode) -> Iterator[SuffixTreeNode]:
    """Depth-first pre-order iteration over a subtree (including ``node``)."""
    stack: List[SuffixTreeNode] = [node]
    while stack:
        current = stack.pop()
        yield current
        if isinstance(current, InternalNode):
            # Reverse so children come out in left-to-right order.
            stack.extend(reversed(current.children))


def iter_leaves(node: SuffixTreeNode) -> Iterator[LeafNode]:
    """Iterate over all leaf descendants of ``node`` (including itself)."""
    for descendant in iter_subtree(node):
        if isinstance(descendant, LeafNode):
            yield descendant


def count_nodes(root: SuffixTreeNode) -> dict:
    """Count internal and leaf nodes below (and including) ``root``."""
    internal = 0
    leaves = 0
    for node in iter_subtree(root):
        if node.is_leaf:
            leaves += 1
        else:
            internal += 1
    return {"internal": internal, "leaves": leaves, "total": internal + leaves}
