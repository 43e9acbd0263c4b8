"""Generalized suffix tree substrate.

The OASIS search is driven by a suffix tree built over the whole sequence
database (Section 2.3 of the paper).  This package provides:

* :mod:`repro.suffixtree.suffix_array` -- the one suffix sorter (prefix
  doubling over the still-tied groups, O(n log n) on any input) and the LCP
  array (vectorised rounds, then Kasai);
* :mod:`repro.suffixtree.build` -- ``sorted_suffixes`` and the record arrays
  built from them, on NumPy (imported only to build a tree);
* :mod:`repro.suffixtree.generalized` -- :class:`GeneralizedSuffixTree`, the
  tree of a :class:`~repro.sequences.SequenceDatabase` as the Section 3.4
  record arrays (built, or read back from a disk image), which the in-memory
  engine searches and the disk image stores;
* :mod:`repro.suffixtree.cursor` -- the cursor interface both trees implement.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.suffixtree.suffix_array import build_suffix_array, build_lcp_array
    from repro.suffixtree.generalized import GeneralizedSuffixTree
else:
    __getattr__, __dir__ = lazy_exports(
        __name__,
        {
            "repro.suffixtree.suffix_array": ("build_suffix_array", "build_lcp_array"),
            "repro.suffixtree.generalized": ("GeneralizedSuffixTree",),
        },
    )

__all__ = [
    "build_suffix_array",
    "build_lcp_array",
    "GeneralizedSuffixTree",
]
