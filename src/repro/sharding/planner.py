"""Sequence ranges of a catalog entry, kept for ``bench_e2e``'s timing proxies.

An index holds one tree of the whole database (the partitions a process
scatter searches are sets of the root's children, computed at open by
:func:`repro.sharding.engine.root_partitions`), so nothing here plans
anything any more.  :class:`ShardSpec` and :func:`slice_shard` stay until
ROADMAP item 1 moves ``bench_e2e``'s ``traced_engine`` onto the engine's own
cursors.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sharding.catalog import slice_shard

__all__ = ["ShardSpec", "slice_shard"]


@dataclass(frozen=True)
class ShardSpec:
    """A contiguous slice ``[start_sequence, stop_sequence)`` of a database.

    Stays until ROADMAP item 1 moves ``bench_e2e``'s ``traced_engine`` onto
    the engine's own cursors.
    """

    index: int
    start_sequence: int
    stop_sequence: int
    residues: int

    @property
    def sequence_count(self) -> int:
        return self.stop_sequence - self.start_sequence
