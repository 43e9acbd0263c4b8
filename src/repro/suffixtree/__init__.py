"""Generalized suffix tree substrate.

The OASIS search is driven by a suffix tree built over the whole sequence
database (Section 2.3 of the paper).  This package provides:

* :mod:`repro.suffixtree.suffix_array` -- the one suffix sorter (prefix
  doubling over the still-tied groups, O(n log n) on any input) and the LCP
  array (vectorised rounds, then Kasai);
* :mod:`repro.suffixtree.nodes` -- the in-memory node types;
* :mod:`repro.suffixtree.construction` -- suffix-array -> suffix-tree builder;
* :mod:`repro.suffixtree.ukkonen` -- classic online Ukkonen construction for a
  single string (used to cross-validate the suffix-array construction);
* :mod:`repro.suffixtree.generalized` -- ``sorted_suffixes`` (what both the
  in-memory tree and the disk-image builder are built from) and the
  :class:`GeneralizedSuffixTree` facade over a
  :class:`~repro.sequences.SequenceDatabase`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.suffixtree.nodes import InternalNode, LeafNode, SuffixTreeNode
    from repro.suffixtree.suffix_array import build_suffix_array, build_lcp_array
    from repro.suffixtree.generalized import GeneralizedSuffixTree
    from repro.suffixtree.ukkonen import UkkonenSuffixTree
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.suffixtree.nodes": ("InternalNode", "LeafNode", "SuffixTreeNode"),
            "repro.suffixtree.suffix_array": ("build_suffix_array", "build_lcp_array"),
            "repro.suffixtree.generalized": ("GeneralizedSuffixTree",),
            "repro.suffixtree.ukkonen": ("UkkonenSuffixTree",),
        },
    )

__all__ = [
    "SuffixTreeNode",
    "InternalNode",
    "LeafNode",
    "build_suffix_array",
    "build_lcp_array",
    "GeneralizedSuffixTree",
    "UkkonenSuffixTree",
]
