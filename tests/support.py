"""Constants, oracles and helpers the tier-1 tests share.

Test modules import these by name (``from support import ...``), as they do
the oracles next to them (``image_oracle``, ``ukkonen_oracle``,
``cursor_lookups``); fixtures stay in ``conftest.py``.  The benchmarks' own
helpers live in ``benchmarks/bench_support.py`` under another name, so a run
that collects both directories cannot shadow one with the other.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.kernels import available_kernels
from repro.datagen.motifs import MotifQuery, MotifWorkload
from repro.scoring.matrix import SubstitutionMatrix
from repro.suffixtree.cursor import SuffixTreeCursor

#: The sequence used throughout Section 2/3 of the paper.
PAPER_TARGET = "AGTACGCCTAG"
#: The query of the paper's worked example (Table 2, Section 3.3).
PAPER_QUERY = "TACG"

#: The production kernels that run here, each held to the ``reference``
#: oracle: ``live``, and ``compiled`` where its C step builds.
PRODUCTION_KERNELS = tuple(name for name in available_kernels() if name != "reference")

AMINO_ACIDS = "ARNDCQEGHILKMFPSTWYV"
BASES = "ACGT"


def random_protein(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(AMINO_ACIDS) for _ in range(length))


def random_dna(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(BASES) for _ in range(length))


def brute_force_local_score(
    query: str, target: str, matrix: SubstitutionMatrix, gap_penalty: int
) -> int:
    """Reference Smith-Waterman score, written as differently as possible from
    the library implementations (plain Python lists, no NumPy)."""
    m, n = len(query), len(target)
    previous = [0] * (n + 1)
    best = 0
    for i in range(1, m + 1):
        current = [0] * (n + 1)
        for j in range(1, n + 1):
            score = max(
                0,
                previous[j - 1] + matrix.score(query[i - 1], target[j - 1]),
                previous[j] + gap_penalty,
                current[j - 1] + gap_penalty,
            )
            current[j] = score
            if score > best:
                best = score
        previous = current
    return best


def dense(column, length: int):
    """A frontier column as the dense array the reference kernel would hold.

    The live-cell kernel keeps a column as its ascending ``(row, score)``
    survivors; tests compare the two kernels (and index worked examples by
    row) through this one form.  Dense columns pass through unchanged.
    """
    import numpy as np

    from repro.core.search_node import PRUNED

    if not isinstance(column, list):
        return column
    filled = np.full(length, PRUNED, dtype=np.int64)
    for row, score in column:
        filled[row] = score
    return filled


def node_signature(node, length: int):
    """Every field of a ``SearchNode`` but its tree handle, the column dense.

    What the kernel-parity tests compare between the production kernel and
    the reference, child by child.
    """
    return (
        node.state,
        node.f,
        node.b,
        node.max_score,
        node.depth,
        None if node.column is None else dense(node.column, length).tolist(),
    )


def workload_from_texts(texts: Sequence[str], name: str = "adhoc") -> MotifWorkload:
    """Wrap plain query strings into a workload object."""
    return MotifWorkload(queries=[MotifQuery(text=t) for t in texts], name=name)


class Delegating(SuffixTreeCursor):
    """A cursor that only forwards, the shape of a timing proxy."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def database(self):
        return self.inner.database

    @property
    def root(self):
        return self.inner.root

    @property
    def pool(self):
        return getattr(self.inner, "pool", None)

    def is_leaf(self, node):
        return self.inner.is_leaf(node)

    def children(self, node):
        return self.inner.children(node)

    def arc_symbols(self, node):
        return self.inner.arc_symbols(node)

    def sequences_below(self, node):
        return self.inner.sequences_below(node)

    def arc(self, node):
        return self.inner.arc(node)

    def string_depth(self, node):
        return self.inner.string_depth(node)

    def suffix_start(self, node):
        return self.inner.suffix_start(node)

    def leaf_positions(self, node):
        return self.inner.leaf_positions(node)
