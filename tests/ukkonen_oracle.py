"""Ukkonen's online suffix tree construction for a single string: a test oracle.

The paper cites Ukkonen/McCreight as the classic in-memory construction
algorithms (Section 3.4.1) before adopting the partitioned approach of Hunt et
al. for disk-scale data.  No product path builds a tree this way; it is here
because it gives the test-suite an *independent* construction to
cross-validate the suffix-array-based builder against: the two are written
in completely different styles, so agreeing on substring membership and
occurrence sets for random inputs is strong evidence that both are correct.

The implementation follows the standard formulation with an active point
(node, edge, length), suffix links, and the global-end trick for leaves.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np


class _UkkonenNode:
    """A node in the Ukkonen tree (children keyed by first edge symbol)."""

    __slots__ = ("start", "end", "children", "suffix_link", "suffix_index")

    def __init__(self, start: int, end: Optional[int]):
        #: Start index of the incoming edge label.
        self.start = start
        #: End index of the incoming edge label; ``None`` means "global end"
        #: (the edge grows as the string is extended), used for leaves.
        self.end = end
        self.children: Dict[int, "_UkkonenNode"] = {}
        self.suffix_link: Optional["_UkkonenNode"] = None
        #: For leaves, the start position of the suffix; -1 for internal nodes.
        self.suffix_index = -1

    def edge_length(self, current_end: int) -> int:
        end = self.end if self.end is not None else current_end
        return end - self.start


class UkkonenSuffixTree:
    """Suffix tree over a single integer-coded string (plus unique sentinel).

    Parameters
    ----------
    codes:
        The string as a sequence of non-negative integer codes.  A sentinel
        strictly larger than every code is appended automatically so that all
        suffixes end at leaves.
    """

    def __init__(self, codes: Sequence[int]):
        original = np.asarray(list(codes), dtype=np.int64)
        if original.ndim != 1:
            raise ValueError("input must be one-dimensional")
        sentinel = int(original.max()) + 1 if len(original) else 0
        self._codes = np.concatenate([original, np.array([sentinel], dtype=np.int64)])
        self._original_length = len(original)
        self._root = _UkkonenNode(-1, -1)
        self._build()
        self._assign_suffix_indices()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        codes = self._codes
        root = self._root
        active_node = root
        active_edge = -1  # index into codes of the first symbol of the active edge
        active_length = 0
        remaining = 0
        last_new_node: Optional[_UkkonenNode] = None
        leaf_end = 0  # exclusive global end, updated per phase

        for phase in range(len(codes)):
            leaf_end = phase + 1
            remaining += 1
            last_new_node = None
            symbol = int(codes[phase])

            while remaining > 0:
                if active_length == 0:
                    active_edge = phase

                edge_symbol = int(codes[active_edge])
                child = active_node.children.get(edge_symbol)
                if child is None:
                    # Rule 2: create a new leaf directly under the active node.
                    leaf = _UkkonenNode(phase, None)
                    active_node.children[symbol] = leaf
                    if last_new_node is not None:
                        last_new_node.suffix_link = active_node
                        last_new_node = None
                else:
                    edge_len = child.edge_length(leaf_end)
                    if active_length >= edge_len:
                        # Walk down (skip/count trick).
                        active_edge += edge_len
                        active_length -= edge_len
                        active_node = child
                        continue
                    if int(codes[child.start + active_length]) == symbol:
                        # Rule 3: the symbol is already on the edge; stop early.
                        active_length += 1
                        if last_new_node is not None:
                            last_new_node.suffix_link = active_node
                            last_new_node = None
                        break
                    # Rule 2 with an edge split.
                    split = _UkkonenNode(child.start, child.start + active_length)
                    active_node.children[edge_symbol] = split
                    leaf = _UkkonenNode(phase, None)
                    split.children[symbol] = leaf
                    child.start += active_length
                    split.children[int(codes[child.start])] = child
                    if last_new_node is not None:
                        last_new_node.suffix_link = split
                    last_new_node = split

                remaining -= 1
                if active_node is root and active_length > 0:
                    active_length -= 1
                    active_edge = phase - remaining + 1
                elif active_node is not root:
                    active_node = active_node.suffix_link or root

        self._leaf_end = leaf_end

    def _assign_suffix_indices(self) -> None:
        """Label each leaf with the start position of its suffix (DFS)."""
        total = len(self._codes)
        stack: List[Tuple[_UkkonenNode, int]] = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            if not node.children:
                node.suffix_index = total - depth
                continue
            for child in node.children.values():
                stack.append((child, depth + child.edge_length(self._leaf_end)))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    @property
    def text_length(self) -> int:
        """Length of the original string (sentinel excluded)."""
        return self._original_length

    def contains(self, query: Sequence[int]) -> bool:
        """Whether ``query`` occurs as a substring of the original string."""
        return self._locate(np.asarray(list(query), dtype=np.int64)) is not None

    def occurrences(self, query: Sequence[int]) -> List[int]:
        """Sorted start positions of every occurrence of ``query``."""
        located = self._locate(np.asarray(list(query), dtype=np.int64))
        if located is None:
            return []
        node, _ = located
        positions = [
            leaf.suffix_index
            for leaf in self._iter_leaves(node)
            if leaf.suffix_index < self._original_length
        ]
        return sorted(positions)

    def suffix_array(self) -> List[int]:
        """The suffix array implied by lexicographic DFS over the tree."""
        order: List[int] = []
        self._collect_suffixes(self._root, order)
        return [p for p in order if p < self._original_length]

    def _collect_suffixes(self, node: _UkkonenNode, out: List[int]) -> None:
        if not node.children:
            out.append(node.suffix_index)
            return
        for symbol in sorted(node.children):
            self._collect_suffixes(node.children[symbol], out)

    def _locate(self, query: np.ndarray) -> Optional[Tuple[_UkkonenNode, int]]:
        """Walk the query from the root; return (node, matched) or None."""
        if len(query) == 0:
            return self._root, 0
        node = self._root
        matched = 0
        while matched < len(query):
            child = node.children.get(int(query[matched]))
            if child is None:
                return None
            edge_end = child.end if child.end is not None else self._leaf_end
            edge = self._codes[child.start : edge_end]
            compare = min(len(edge), len(query) - matched)
            if not np.array_equal(edge[:compare], query[matched : matched + compare]):
                return None
            matched += compare
            node = child
        return node, matched

    def _iter_leaves(self, node: _UkkonenNode) -> Iterator[_UkkonenNode]:
        stack = [node]
        while stack:
            current = stack.pop()
            if not current.children:
                yield current
            else:
                stack.extend(current.children.values())

    def node_counts(self) -> Dict[str, int]:
        """Counts of internal nodes and leaves (for tests and reports)."""
        internal = 0
        leaves = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.children:
                internal += 1
                stack.extend(node.children.values())
            else:
                leaves += 1
        return {"internal": internal, "leaves": leaves, "total": internal + leaves}
