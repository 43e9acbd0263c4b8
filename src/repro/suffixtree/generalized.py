"""GeneralizedSuffixTree: the in-memory index over a SequenceDatabase.

This is the structure of Section 2.3: a compact suffix tree representing every
suffix of every database sequence, with each sequence terminated by the ``$``
symbol.  It is held as the paper's Section 3.4 representation -- the same
internal-node and leaf record arrays the disk image stores
(:mod:`repro.storage.layout`), next to the database's symbol array, never as
node objects.  The arrays come from one of two places:

* :meth:`GeneralizedSuffixTree.build` sorts the database's suffixes and turns
  them into records (:mod:`repro.suffixtree.build`, on NumPy, imported only
  then);
* :meth:`GeneralizedSuffixTree.from_image` reads them back from a disk image,
  one read per region, when a search first needs them: what ``search
  --index`` does for every image that fits its pool budget
  (:func:`repro.storage.open_image`).  This module loads
  neither NumPy nor the suffix sorter.

The class implements :class:`repro.suffixtree.cursor.SuffixTreeCursor` with
the disk cursor's node handles, so the OASIS search runs on it directly, and
:func:`repro.storage.build_disk_image` writes its arrays as they are.  It
keeps nothing per node: the arrays are the whole tree, and a node's children
are decoded from them on every call.  The compiled kernel does not even ask:
it decodes each expanded node from :attr:`GeneralizedSuffixTree.node_records`
itself, in C, and builds a handle only for a child it keeps.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_right
from functools import cached_property
from typing import Iterator, List, Tuple, Union

from repro.sequences.database import SequenceDatabase
from repro.suffixtree.cursor import (
    LAST_SIBLING_BIT,
    NO_POINTER,
    VALUE_MASK,
    NodeHandle,
    Sibling,
    SuffixTreeCursor,
)

PathLike = Union[str, os.PathLike]

class GeneralizedSuffixTree(SuffixTreeCursor):
    """A generalized suffix tree over all sequences of a database.

    Use :meth:`build` to construct one:

    >>> from repro.sequences import SequenceDatabase, DNA_ALPHABET
    >>> db = SequenceDatabase.from_texts(["AGTACGCCTAG"], alphabet=DNA_ALPHABET)
    >>> tree = GeneralizedSuffixTree.build(db)
    >>> tree.leaf_count
    11

    ``children()`` decodes an internal node's run of internal children, then
    its run of leaves, from the record arrays on every call, built tree and
    read tree alike, and ``siblings()`` slices their arcs from the symbol
    array: what a tree holds is set when it is built or read, not by the
    queries that ran.  The compiled kernel reads the same arrays through
    :attr:`node_records` instead.
    """

    def __init__(self, database: SequenceDatabase, internal_records: array, leaf_records: array):
        self._attach(database)
        self.internal_records = internal_records
        self.leaf_records = leaf_records

    def _attach(self, database: SequenceDatabase) -> None:
        database.freeze()
        self._database = database
        # Arc labels are slices of the concatenated codes: bytes, one code
        # per byte (the form the disk image stores).
        self._codes = database.concatenated_codes
        # One past each terminal, ascending: suffix p ends at the first entry > p.
        self._sequence_ends = database.sequence_starts[1:] + [len(self._codes)]

    @classmethod
    def build(cls, database: SequenceDatabase) -> "GeneralizedSuffixTree":
        """Build the tree for every suffix of every sequence in ``database``."""
        from repro.suffixtree.build import tree_records

        return cls(database, *tree_records(database))

    @classmethod
    def from_image(cls, path: PathLike, database: SequenceDatabase) -> "GeneralizedSuffixTree":
        """The tree stored in the disk image at ``path``, read whole on first use.

        The image is refused here as the disk cursor refuses it
        (:func:`repro.storage.layout.check_image`: another format, a cut
        file, another database's symbol count).  Its internal and leaf
        regions are read into ``array('I')``, one read each, when a search
        first needs them, after the same checks again.  So an engine whose
        shards search in worker processes holds no records of its own: only
        the workers read them.  Its memory is the record arrays, which the
        pool budget of :func:`repro.storage.open_image` bounds.
        """
        from repro.storage.layout import check_image

        check_image(path, database)
        tree = cls.__new__(cls)
        tree._attach(database)
        tree._image = os.fspath(path)
        return tree

    @cached_property
    def internal_records(self) -> array:
        """The internal records, four words each, in level order.

        Depth | last-sibling bit, arc start, first internal child, first
        leaf.  A built tree sets them; a tree from an image reads them here.
        """
        from repro.storage.layout import Region

        return self._read_region(Region.INTERNAL_NODES)

    @cached_property
    def leaf_records(self) -> array:
        """The leaf records in parent order: suffix start | last-sibling bit."""
        from repro.storage.layout import Region

        return self._read_region(Region.LEAF_NODES)

    @cached_property
    def node_records(self) -> Tuple[array, array, bytes, array]:
        """The arrays the compiled kernel decodes an expanded node from.

        The internal and leaf records, the symbol array the arcs are slices
        of, and the sequence ends a leaf's arc runs to (as ``array('I')``).
        Asking for them reads a tree from an image, as a first search does.
        """
        ends = array("I", self._sequence_ends)
        return (self.internal_records, self.leaf_records, self._codes, ends)

    def _read_region(self, region) -> array:
        from repro.storage.layout import check_image

        layout = check_image(self._image, self._database)
        with open(self._image, "rb") as handle:
            return layout.read_records(handle, region)

    # ------------------------------------------------------------------ #
    # Cursor interface
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> SequenceDatabase:
        return self._database

    @property
    def root(self) -> NodeHandle:
        return ("I", 0, 0, 0, 0)

    def is_leaf(self, node: NodeHandle) -> bool:
        return node[0] == "L"

    def children(self, node: NodeHandle) -> List[NodeHandle]:
        """The child handles of ``node``: its internal run, then its leaf run."""
        if node[0] != "I":
            return []
        records, leaves, ends = self.internal_records, self.leaf_records, self._sequence_ends
        depth = node[4]
        child, leaf = records[4 * node[1] + 2], records[4 * node[1] + 3]
        handles: List[NodeHandle] = []
        while child != NO_POINTER:
            word = records[4 * child]
            child_depth = word & VALUE_MASK
            handles.append(("I", child, records[4 * child + 1], child_depth - depth, child_depth))
            child = NO_POINTER if word & LAST_SIBLING_BIT else child + 1
        while leaf != NO_POINTER:
            word = leaves[leaf]
            start = word & VALUE_MASK
            length = ends[bisect_right(ends, start)] - start
            handles.append(("L", start, start + depth, length - depth, length))
            leaf = NO_POINTER if word & LAST_SIBLING_BIT else leaf + 1
        return handles

    def siblings(self, node: NodeHandle) -> List[Sibling]:
        codes = self._codes
        return [
            (child, codes[child[2] : child[2] + child[3]], child[0] == "L")
            for child in self.children(node)
        ]

    def arc(self, node: NodeHandle) -> Tuple[int, int]:
        return node[2], node[3]

    def arc_symbols(self, node: NodeHandle) -> bytes:
        return self._codes[node[2] : node[2] + node[3]]

    def string_depth(self, node: NodeHandle) -> int:
        return node[4]

    def suffix_start(self, node: NodeHandle) -> int:
        if node[0] != "L":
            raise TypeError("suffix_start is only defined for leaves")
        return node[1]

    def leaf_positions(self, node: NodeHandle) -> Iterator[int]:
        # Straight from the records, no handles: a hit below a shallow node
        # must not decode its whole subtree.
        if node[0] == "L":
            yield node[1]
            return
        records, leaves = self.internal_records, self.leaf_records
        stack = [node[1]]
        while stack:
            index = 4 * stack.pop()
            child, leaf = records[index + 2], records[index + 3]
            while leaf != NO_POINTER:
                word = leaves[leaf]
                yield word & VALUE_MASK
                leaf = NO_POINTER if word & LAST_SIBLING_BIT else leaf + 1
            while child != NO_POINTER:
                stack.append(child)
                child = NO_POINTER if records[4 * child] & LAST_SIBLING_BIT else child + 1

    def sequences_below(self, node: NodeHandle) -> List[int]:
        # Sequence i ends at the i-th entry: no locate() per leaf.
        ends = self._sequence_ends
        return list(dict.fromkeys(bisect_right(ends, start) for start in self.leaf_positions(node)))

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    @property
    def internal_node_count(self) -> int:
        return len(self.internal_records) // 4

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_records)

    @property
    def node_count(self) -> int:
        return self.internal_node_count + self.leaf_count

    def __repr__(self) -> str:
        return (
            f"GeneralizedSuffixTree(database={self._database.name!r}, "
            f"internal={self.internal_node_count}, leaves={self.leaf_count})"
        )

