"""The cursor interface that decouples OASIS from the tree representation.

The OASIS search only ever needs a handful of operations on the suffix tree:
get the root, read a node's children with the symbols on their incoming arcs,
and enumerate the suffix positions below a node.  Expressing those operations
as an abstract *cursor* lets the same search code run against

* the in-memory tree (:class:`repro.suffixtree.GeneralizedSuffixTree`), which
  holds the image's record arrays in memory -- built from a database, or read
  from a disk image whose pool budget it fits -- and
* the disk-resident tree read through a buffer pool
  (:class:`repro.storage.DiskSuffixTree`), which serves only a pool smaller
  than its image,

which is the paper's Section 3.4 split: the record arrays are the index, and
the pool is for when they do not fit.  :func:`repro.storage.open_image` picks
between the two for every engine that opens an image; the buffer-pool
experiments (Figures 7-8) construct the disk cursor themselves to sweep the
pool.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterator, List, Optional, Tuple

from repro.sequences.database import SequenceDatabase

#: Opaque node handle.  Both trees use the same small immutable tuples,
#: ``("I", internal_index, arc_start, arc_length, depth)`` and
#: ``("L", suffix_start, arc_start, arc_length, depth)``; proxies and test
#: cursors may use anything.
NodeHandle = Any

#: The words of the Section 3.4 record arrays, which both trees decode (the
#: layout is :mod:`repro.storage.layout`'s): bit 31 of an internal record's
#: depth word and of a leaf record flags the last record of its parent's run,
#: the low 31 bits are the value, and ``NO_POINTER`` is "no such run".
LAST_SIBLING_BIT = 0x80000000
VALUE_MASK = 0x7FFFFFFF
NO_POINTER = 0xFFFFFFFF

#: One child as :meth:`SuffixTreeCursor.siblings` returns it:
#: ``(handle, arc symbols, is_leaf)``, the arc as ``arc_symbols`` returns it.
Sibling = Tuple[NodeHandle, bytes, bool]


class SuffixTreeCursor(ABC):
    """Read-only traversal interface over a generalized suffix tree.

    :meth:`siblings` is the search path's one call: the OASIS driver makes it
    once per expanded node.  The base class composes it from
    :meth:`children`, :meth:`arc_symbols` and :meth:`is_leaf`, so a cursor
    (or a proxy around one) that implements only those three works
    unchanged; both trees override it with one pass.  The three stay for
    tree walks and proxies outside the search.

    The one exception is :attr:`node_records`: both trees name there what
    the Section 3.4 records are read from, and the compiled kernel then
    decodes each expanded node's children itself, with no cursor call.
    Every other cursor (a proxy, a test cursor) leaves it ``None`` and is
    searched through :meth:`siblings`.
    """

    @property
    def node_records(self) -> Optional[Tuple[Any, ...]]:
        """What a node's children and arcs are decoded from, or ``None``.

        The in-memory tree holds the records: ``(internal_records,
        leaf_records, concatenated codes, sequence ends)``, the codes as
        ``bytes`` and the other three as ``array('I')``.  The disk cursor
        holds a page source instead (:attr:`repro.storage.DiskSuffixTree.
        node_records`): the buffer pool and where each region's pages lie,
        so the records are read page by page through the pool, as
        :meth:`siblings` reads them.
        """
        return None

    @property
    @abstractmethod
    def database(self) -> SequenceDatabase:
        """The sequence database the tree indexes."""

    @property
    @abstractmethod
    def root(self) -> NodeHandle:
        """Handle of the root node."""

    @abstractmethod
    def is_leaf(self, node: NodeHandle) -> bool:
        """Whether ``node`` is a leaf."""

    @abstractmethod
    def children(self, node: NodeHandle) -> List[NodeHandle]:
        """Child handles of an internal node, in symbol order."""

    def siblings(self, node: NodeHandle) -> List[Sibling]:
        """``(handle, arc symbols, is_leaf)`` of each child of ``node``, in order.

        Equal to composing :meth:`children`, :meth:`arc_symbols` and
        :meth:`is_leaf`; on the disk cursor it also makes the same page
        requests in the same order, in one call of its decoder.
        """
        arc_symbols, is_leaf = self.arc_symbols, self.is_leaf
        return [(child, arc_symbols(child), is_leaf(child)) for child in self.children(node)]

    @abstractmethod
    def arc(self, node: NodeHandle) -> Tuple[int, int]:
        """``(start, length)`` of the incoming arc label in the symbol array."""

    @abstractmethod
    def arc_symbols(self, node: NodeHandle) -> bytes:
        """The codes labelling the incoming arc, as ``bytes``: one code per byte.

        This is the one arc contract of every cursor and kernel: iterating
        the result yields plain Python ints, slices compare with ``==``, and
        the value is complete when the call returns (an arc that crosses a
        disk page is joined eagerly), so the expansion kernels never call
        back into the cursor.  On the disk cursor the call is one buffer-pool
        request per symbol page the arc touches.
        """

    @abstractmethod
    def string_depth(self, node: NodeHandle) -> int:
        """Total label length from the root down to ``node``."""

    @abstractmethod
    def suffix_start(self, node: NodeHandle) -> int:
        """For a leaf: the global start position of its suffix."""

    @abstractmethod
    def leaf_positions(self, node: NodeHandle) -> Iterator[int]:
        """Suffix start positions of every leaf in the subtree under ``node``."""

    # ------------------------------------------------------------------ #
    # Derived from leaf_positions (the in-memory tree overrides it)
    # ------------------------------------------------------------------ #
    def sequences_below(self, node: NodeHandle) -> List[int]:
        """Distinct database sequence indices among the leaves under ``node``."""
        seen: List[int] = []
        seen_set = set()
        for position in self.leaf_positions(node):
            sequence_index, _ = self.database.locate(position)
            if sequence_index not in seen_set:
                seen_set.add(sequence_index)
                seen.append(sequence_index)
        return seen
