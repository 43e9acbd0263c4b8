"""Generalized suffix tree substrate.

The OASIS search is driven by a suffix tree built over the whole sequence
database (Section 2.3 of the paper).  This package provides:

* :mod:`repro.suffixtree.suffix_array` -- prefix-doubling suffix array and
  Kasai LCP construction (the workhorse used to build trees in O(n log^2 n));
* :mod:`repro.suffixtree.nodes` -- the in-memory node types;
* :mod:`repro.suffixtree.construction` -- suffix-array -> suffix-tree builder;
* :mod:`repro.suffixtree.ukkonen` -- classic online Ukkonen construction for a
  single string (used to cross-validate the suffix-array construction);
* :mod:`repro.suffixtree.generalized` -- the :class:`GeneralizedSuffixTree`
  facade over a :class:`~repro.sequences.SequenceDatabase`;
* :mod:`repro.suffixtree.partitioned` -- the Hunt-et-al.-style lexical
  partitions (sorted suffixes + LCPs, one partition at a time) the disk-image
  builder reads for bigger-than-memory databases.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.suffixtree.nodes import InternalNode, LeafNode, SuffixTreeNode
    from repro.suffixtree.suffix_array import build_suffix_array, build_lcp_array
    from repro.suffixtree.generalized import GeneralizedSuffixTree
    from repro.suffixtree.ukkonen import UkkonenSuffixTree
    from repro.suffixtree.partitioned import PartitionedTreeBuilder
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.suffixtree.nodes": ("InternalNode", "LeafNode", "SuffixTreeNode"),
            "repro.suffixtree.suffix_array": ("build_suffix_array", "build_lcp_array"),
            "repro.suffixtree.generalized": ("GeneralizedSuffixTree",),
            "repro.suffixtree.ukkonen": ("UkkonenSuffixTree",),
            "repro.suffixtree.partitioned": ("PartitionedTreeBuilder",),
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
    "PartitionedTreeBuilder",
]
