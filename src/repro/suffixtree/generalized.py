"""GeneralizedSuffixTree: the in-memory index over a SequenceDatabase.

This is the structure of Section 2.3: a compact suffix tree representing every
suffix of every database sequence, with each sequence terminated by the ``$``
symbol.  Construction goes through a suffix array (per-sequence distinct
terminal codes guarantee that no suffix is a prefix of another, so every
suffix gets its own leaf), which keeps the pure-Python overhead manageable for
databases in the hundreds of thousands to millions of symbols.

The class implements :class:`repro.suffixtree.cursor.SuffixTreeCursor`, so the
OASIS search can run on it directly.  (The disk image in :mod:`repro.storage`
is built from the same :func:`sorted_suffixes`, not from this tree.)
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.sequences.database import SequenceDatabase
from repro.suffixtree.construction import build_tree_from_suffix_array, validate_tree
from repro.suffixtree.cursor import Sibling, SuffixTreeCursor
from repro.suffixtree.nodes import InternalNode, LeafNode, SuffixTreeNode, count_nodes, iter_leaves
from repro.suffixtree.suffix_array import build_lcp_array, build_suffix_array


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
    Both trees -- :class:`GeneralizedSuffixTree` and the disk image -- are
    built from these two arrays.
    """
    database.freeze()
    text = construction_codes(database)
    suffix_array = build_suffix_array(text)
    kept = database.total_symbols
    return suffix_array[:kept], build_lcp_array(text, suffix_array)[:kept]


class GeneralizedSuffixTree(SuffixTreeCursor):
    """A generalized suffix tree over all sequences of a database.

    Use :meth:`build` to construct one:

    >>> from repro.sequences import SequenceDatabase, DNA_ALPHABET
    >>> db = SequenceDatabase.from_texts(["AGTACGCCTAG"], alphabet=DNA_ALPHABET)
    >>> tree = GeneralizedSuffixTree.build(db)
    >>> tree.contains("TACG")
    True
    """

    def __init__(self, database: SequenceDatabase, root: InternalNode):
        database.freeze()
        self._database = database
        self._root = root
        # Arc labels are slices of the concatenated codes: bytes, one code
        # per byte (the form the disk image stores).
        self._codes = database.concatenated_codes

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, database: SequenceDatabase) -> "GeneralizedSuffixTree":
        """Build the tree for every suffix of every sequence in ``database``."""
        positions, lcps = sorted_suffixes(database)
        # suffix_end[p]: one past the terminal of the sequence holding p;
        # sequence_of[p]: that sequence's index.
        starts = np.array(database.sequence_starts)
        ends = np.append(starts[1:], database.total_symbols_with_terminals)
        lengths = ends - starts
        suffix_end = np.repeat(ends, lengths)
        sequence_of = np.repeat(np.arange(len(database)), lengths)

        root = build_tree_from_suffix_array(
            positions.tolist(),
            lcps.tolist(),
            suffix_end_of=lambda position: int(suffix_end[position]),
            sequence_index_of=lambda position: int(sequence_of[position]),
        )
        return cls(database, root)

    # ------------------------------------------------------------------ #
    # Cursor interface
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> SequenceDatabase:
        return self._database

    @property
    def root(self) -> InternalNode:
        return self._root

    def is_leaf(self, node: SuffixTreeNode) -> bool:
        return node.is_leaf

    def children(self, node: SuffixTreeNode) -> List[SuffixTreeNode]:
        if isinstance(node, InternalNode):
            # The caller must not mutate the returned list; avoiding a copy
            # matters because child enumeration is on the search's hot path.
            return node.children
        return []

    def siblings(self, node: SuffixTreeNode) -> List[Sibling]:
        if isinstance(node, InternalNode):
            codes = self._codes
            return [
                (child, codes[child.edge_start : child.edge_end], child.is_leaf)
                for child in node.children
            ]
        return []

    def arc(self, node: SuffixTreeNode) -> Tuple[int, int]:
        return node.edge_start, node.edge_length

    def arc_symbols(self, node: SuffixTreeNode) -> bytes:
        return self._codes[node.edge_start : node.edge_end]

    def string_depth(self, node: SuffixTreeNode) -> int:
        if isinstance(node, InternalNode):
            return node.depth
        parent_depth = node.parent.depth if node.parent is not None else 0
        return parent_depth + node.edge_length

    def suffix_start(self, node: SuffixTreeNode) -> int:
        if not isinstance(node, LeafNode):
            raise TypeError("suffix_start is only defined for leaves")
        return node.suffix_start

    def leaf_positions(self, node: SuffixTreeNode) -> Iterator[int]:
        for leaf in iter_leaves(node):
            yield leaf.suffix_start

    def sequences_below(self, node: SuffixTreeNode) -> List[int]:
        # Every leaf records its own sequence: same first-seen order as the
        # base implementation, without locating each leaf's position.
        return list(dict.fromkeys(leaf.sequence_index for leaf in iter_leaves(node)))

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def path_label(self, node: SuffixTreeNode) -> str:
        """The full path label from the root down to ``node``."""
        parts: List[str] = []
        current: Optional[SuffixTreeNode] = node
        while current is not None and current.parent is not None:
            parts.append(self._database.alphabet.decode(self.arc_symbols(current)))
            current = current.parent
        return "".join(reversed(parts))

    # ------------------------------------------------------------------ #
    # Statistics and validation
    # ------------------------------------------------------------------ #
    @cached_property
    def _counts(self) -> Dict[str, int]:
        # One walk over the whole tree, so only on first use: a search never
        # asks, and the tree does not change once it is wrapped here.
        return count_nodes(self._root)

    @property
    def internal_node_count(self) -> int:
        return self._counts["internal"]

    @property
    def leaf_count(self) -> int:
        return self._counts["leaves"]

    @property
    def node_count(self) -> int:
        return self._counts["total"]

    def validate(self) -> List[str]:
        """Structural validation; returns a list of problems (empty = OK)."""
        problems = validate_tree(self._root, self._codes)
        expected_leaves = self._database.total_symbols
        if self.leaf_count != expected_leaves:
            problems.append(
                f"expected {expected_leaves} leaves (one per non-terminal suffix), "
                f"found {self.leaf_count}"
            )
        return problems

    def __repr__(self) -> str:
        return (
            f"GeneralizedSuffixTree(database={self._database.name!r}, "
            f"internal={self.internal_node_count}, leaves={self.leaf_count})"
        )
