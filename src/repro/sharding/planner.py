"""ShardPlanner: splitting one SequenceDatabase into balanced sub-databases.

The paper's partitioned construction (Section 3.4.1) bounds the *build*
memory but still yields one monolithic disk image.  A sharded deployment goes
one step further and splits the database itself into N contiguous slices,
each indexed independently, so that shards can be built, cached and searched
in parallel and the database size is no longer capped by what one image can
hold.

Shards are *contiguous* runs of the global sequence order.  Contiguity keeps
the catalog tiny (two integers per shard instead of an id list) and makes the
shard-local to global sequence-index mapping a single addition, which is what
lets merged shard results carry correct global indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.sequences.database import SequenceDatabase
from repro.sharding.catalog import shard_identifier, slice_shard

#: The two supported balancing criteria.
BALANCE_BY = ("residues", "sequences")


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a contiguous slice ``[start_sequence, stop_sequence)``."""

    index: int
    start_sequence: int
    stop_sequence: int
    residues: int

    @property
    def sequence_count(self) -> int:
        return self.stop_sequence - self.start_sequence

    def identifier(self) -> str:
        """Stable shard name used for file naming (``shard-0003``)."""
        return shard_identifier(self.index)


@dataclass
class ShardPlan:
    """The full partition of one database into shards."""

    database_name: str
    sequence_count: int
    total_residues: int
    by: str
    specs: List[ShardSpec] = field(default_factory=list)

    @property
    def shard_count(self) -> int:
        return len(self.specs)

    def slice_database(self, database: SequenceDatabase, spec: ShardSpec) -> SequenceDatabase:
        """Materialise one shard's sub-database (records are shared, not copied)."""
        return slice_shard(database, spec)


class ShardPlanner:
    """Split a database into ``shard_count`` contiguous, balanced shards.

    Parameters
    ----------
    shard_count:
        Number of shards; must be between 1 and the number of sequences.
    by:
        Balancing criterion: ``"residues"`` (default; equalises total symbols
        per shard, the quantity that drives index size and search cost) or
        ``"sequences"`` (equalises sequence counts).
    """

    def __init__(self, shard_count: int, by: str = "residues"):
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        if by not in BALANCE_BY:
            raise ValueError(f"by must be one of {BALANCE_BY}, got {by!r}")
        self.shard_count = int(shard_count)
        self.by = by

    def plan(self, database: SequenceDatabase) -> ShardPlan:
        """Compute the shard boundaries for one database."""
        if len(database) == 0:
            raise ValueError("cannot shard an empty SequenceDatabase")
        if self.shard_count > len(database):
            raise ValueError(
                f"cannot split {len(database)} sequences into "
                f"{self.shard_count} non-empty shards"
            )
        weights = [
            len(record) if self.by == "residues" else 1 for record in database
        ]
        boundaries = _balanced_boundaries(weights, self.shard_count)
        specs = [
            ShardSpec(
                index=i,
                start_sequence=start,
                stop_sequence=stop,
                residues=sum(len(database[j]) for j in range(start, stop)),
            )
            for i, (start, stop) in enumerate(boundaries)
        ]
        return ShardPlan(
            database_name=database.name,
            sequence_count=len(database),
            total_residues=database.total_symbols,
            by=self.by,
            specs=specs,
        )


def _balanced_boundaries(weights: List[int], parts: int) -> List[Tuple[int, int]]:
    """Contiguous split of ``weights`` into ``parts`` non-empty slices.

    Greedy with a look-ahead on the remainder: a slice closes once taking the
    next item would overshoot its fair share of what is still unassigned,
    while always leaving at least one item per remaining slice.  Deterministic
    and O(n).
    """
    boundaries: List[Tuple[int, int]] = []
    start = 0
    remaining_weight = sum(weights)
    for part in range(parts):
        slices_left = parts - part
        if slices_left == 1:
            boundaries.append((start, len(weights)))
            break
        target = remaining_weight / slices_left
        stop = start + 1  # every slice takes at least one item
        accumulated = weights[start]
        # The slice may grow while it stays under target, but must leave one
        # item for each of the remaining slices.
        while (
            stop < len(weights) - (slices_left - 1)
            and accumulated + weights[stop] / 2 < target
        ):
            accumulated += weights[stop]
            stop += 1
        boundaries.append((start, stop))
        remaining_weight -= accumulated
        start = stop
    return boundaries
