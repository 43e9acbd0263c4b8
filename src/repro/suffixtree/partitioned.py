"""Partitioned (memory-bounded) suffix tree construction, after Hunt et al.

Section 3.4.1 of the paper: traditional in-memory constructions (Ukkonen,
McCreight) need the whole tree in RAM, which is impossible for large
databases.  Hunt et al. instead build the tree one *lexical partition* at a
time: every pass over the sequence data collects only the suffixes whose
prefix falls in the current partition, builds that sub-tree in memory, and
appends it to the on-disk image.  The paper adopts the same scheme but picks
the lexical ranges adaptively from the database contents so that every
partition fits in the memory budget.

:class:`PartitionedTreeBuilder` reproduces that construction:

* partitions are prefixes of adaptive length -- a prefix is extended by one
  symbol only *while* its suffix count exceeds ``max_partition_size``, so a
  database within the budget is a single partition, the whole text;
* :meth:`PartitionedTreeBuilder.sorted_partitions` sorts one partition's
  suffixes at a time and yields them -- positions and LCPs as flat arrays, in
  lexical order -- and then lets them go: what is live at any time is the
  text, the start positions of the partitions still to come (they shrink as
  the build goes) and one partition's sort transients.  One sorter,
  :func:`~repro.suffixtree.suffix_array.sort_suffixes`, serves every
  partition size (at 10 k residues in one partition it is ahead of ranking
  every suffix by prefix doubling, 2.9 ms against 6.6); its cost, like that
  of the LCPs, is the sum of the LCPs, so long identical sequences are the
  slow case (two copies of 10 k bases: 1.7 s);
* the disk-image builder (:func:`repro.storage.build_disk_image`) reads that
  iterator, appends each partition to flat arrays and never builds a node;
* the builder records per-partition statistics so the memory-boundedness can
  be asserted in tests.

The image is the same bytes at every budget (the test-suite checks it), which
is the point: partitioning changes the construction footprint, not the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.sequences.database import SequenceDatabase
from repro.suffixtree.generalized import construction_codes
from repro.suffixtree.suffix_array import adjacent_lcps, sort_suffixes

# The memory budget, in suffixes per lexical partition, that every builder's
# ``max_partition_size=None`` stands for.
DEFAULT_MAX_PARTITION_SIZE = 50_000


@dataclass
class PartitionStatistics:
    """Per-partition construction statistics."""

    prefix: str
    suffix_count: int


@dataclass
class ConstructionReport:
    """Summary of a partitioned construction run."""

    partitions: List[PartitionStatistics] = field(default_factory=list)
    max_partition_size: int = 0
    total_suffixes: int = 0

    @property
    def partition_count(self) -> int:
        return len(self.partitions)

    @property
    def largest_partition(self) -> int:
        return max((p.suffix_count for p in self.partitions), default=0)


class PartitionedTreeBuilder:
    """Sort a database's suffixes one lexical partition at a time.

    Parameters
    ----------
    max_partition_size:
        The memory budget, expressed as the maximum number of suffixes a
        single partition may contain (``None``:
        :data:`DEFAULT_MAX_PARTITION_SIZE`).  Prefixes are extended until every
        partition respects the budget (or the prefix length reaches
        ``max_prefix_length``, which only matters for pathologically
        repetitive inputs).
    max_prefix_length:
        Safety bound on the adaptive prefix extension.
    """

    def __init__(self, max_partition_size: Optional[int] = None, max_prefix_length: int = 8):
        if max_partition_size is None:
            max_partition_size = DEFAULT_MAX_PARTITION_SIZE
        if max_partition_size < 1:
            raise ValueError("max_partition_size must be at least 1")
        if max_prefix_length < 1:
            raise ValueError("max_prefix_length must be at least 1")
        self.max_partition_size = max_partition_size
        self.max_prefix_length = max_prefix_length
        self.report = ConstructionReport(max_partition_size=max_partition_size)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def sorted_partitions(
        self, database: SequenceDatabase
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(positions, lcps)`` for each lexical partition, in lexical order.

        ``positions`` are the start positions of the partition's suffixes,
        sorted; ``lcps[k]`` is the longest common prefix of ``positions[k]``
        and its predecessor, ``lcps[0]`` being taken against the last suffix
        of the previous partition (0 for the first).  Concatenated, the
        partitions are the suffix array and LCP array of the database without
        the suffixes that begin at a terminal.
        """
        database.freeze()
        text = construction_codes(database)
        alphabet = database.alphabet
        self.report = ConstructionReport(
            max_partition_size=self.max_partition_size,
            total_suffixes=database.total_symbols,
        )
        symbol_count = alphabet.size_with_terminal + len(database)  # distinct terminals
        previous_last_suffix = None
        for prefix, members in self._lexical_partitions(text, alphabet.terminal_code):
            ordered = sort_suffixes(text, members, symbol_count)
            lcps = adjacent_lcps(text, ordered, previous_last_suffix)
            previous_last_suffix = int(ordered[-1])
            self.report.partitions.append(
                PartitionStatistics(prefix=alphabet.decode(prefix), suffix_count=len(ordered))
            )
            yield ordered, lcps

    # ------------------------------------------------------------------ #
    # Partition selection
    # ------------------------------------------------------------------ #
    def _lexical_partitions(
        self, text: np.ndarray, terminal: int
    ) -> Iterator[Tuple[Tuple[int, ...], np.ndarray]]:
        """Yield ``(prefix, member positions)`` of each partition, in lexical order.

        Starts from the empty prefix (the whole text) and extends a prefix by
        one symbol only while its suffix count exceeds the memory budget,
        exactly in the spirit of the paper's "select lexical ranges for each
        pass based on the contents of the underlying database sequences".  For
        choosing ranges every terminal is the one symbol ``terminal`` (which
        sorts after the residues, as the distinct terminals of ``text`` do).
        Nothing follows a terminal, so a prefix that ends in one is not
        extended: its suffixes are in order as they stand -- by sequence --
        and are cut to the budget.
        """
        budget = self.max_partition_size
        pending: List[Tuple[Tuple[int, ...], np.ndarray]] = [
            ((), np.flatnonzero(text < terminal))
        ]
        while pending:
            prefix, members = pending.pop()
            if len(members) <= budget:
                yield prefix, members
            elif prefix[-1:] == (terminal,):
                for start in range(0, len(members), budget):
                    yield prefix, members[start : start + budget]
            elif len(prefix) >= self.max_prefix_length:
                yield prefix, members
            else:
                next_symbol = np.minimum(text[members + len(prefix)], terminal)
                # Pushed in descending order, so popped in ascending order.
                for symbol in np.unique(next_symbol)[::-1].tolist():
                    pending.append((prefix + (symbol,), members[next_symbol == symbol]))

    def partition_summary(self) -> Dict[str, int]:
        """Headline statistics of the most recent construction."""
        return {
            "partitions": self.report.partition_count,
            "largest_partition": self.report.largest_partition,
            "total_suffixes": self.report.total_suffixes,
        }
