"""ShardedIndexBuilder: one persistent disk image of the whole database, plus a catalog.

The image is written by :func:`repro.storage.build_disk_image` straight from
the database's sorted suffixes and their LCPs, and no tree of node objects is
ever built.  What the build holds is flat arrays that grow with the database,
at most while the record arrays are sorted into level order.  At 960 108
residues, a 2-core x86 host measured 0.8 us and 67 bytes of peak RSS growth
per residue (sorting one lexical partition at a time: 1.2 us and 74 bytes;
the object-tree build: 57 us and 392 bytes).

The sequences themselves are written alongside the image
(``database.fasta``): the disk image stores tree structure and symbols only,
and an index that has to be reunited with exactly the right FASTA file by hand
is an index waiting to be corrupted.
"""

from __future__ import annotations

import os
from typing import Union

from repro.obs.logsetup import get_logger
from repro.scoring.gaps import DEFAULT_GAP_MODEL, GapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.sequences.fasta import write_fasta
from repro.sharding.catalog import (
    DATABASE_FILENAME,
    IMAGE_FILENAME,
    ShardCatalog,
    ShardEntry,
    check_partitions,
    config_fingerprint,
    database_digest,
)
from repro.storage.blocks import BLOCK_SIZE_DEFAULT
from repro.storage.builder import build_disk_image
from repro.storage.layout import check_block_size

PathLike = Union[str, os.PathLike]

logger = get_logger(__name__)


class ShardedIndexBuilder:
    """Build a persistent index directory: one tree's image and its catalog.

    Parameters
    ----------
    matrix / gap_model:
        The scoring configuration the index will be served with; recorded in
        the catalog fingerprint so a mismatched open fails fast.
    shard_count:
        Number of *partitions* the catalog records: a process scatter splits
        the tree's root children into this many sets, balanced by the
        database's symbol counts (1 to
        :data:`~repro.sharding.catalog.MAX_PARTITIONS`).  The image is the
        same whatever the count.
    block_size:
        Disk-image block size; at least
        :data:`~repro.storage.layout.MIN_BLOCK_SIZE`, checked here, before
        anything is written.
    """

    def __init__(
        self,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        shard_count: int = 1,
        block_size: int = BLOCK_SIZE_DEFAULT,
    ):
        self.matrix = matrix
        self.gap_model = gap_model
        self.partitions = check_partitions(shard_count)
        self.block_size = int(block_size)
        check_block_size(self.block_size)

    def build(
        self,
        database: SequenceDatabase,
        directory: PathLike,
        write_database: bool = True,
        tracer=None,
    ) -> ShardCatalog:
        """Build the image under ``directory`` and write the catalog.

        The directory is created if needed.  Returns the written catalog,
        which is written only after the image exists.  Set
        ``write_database=False`` to skip the FASTA copy (the caller then has
        to supply the identical database when reopening).  Pass a
        :class:`~repro.obs.Tracer` to wrap the build in an ``index_build``
        span.
        """
        if tracer is None:
            return self._build(database, directory, write_database)
        with tracer.span(
            "index_build", partitions=self.partitions, database=database.name
        ) as span:
            catalog = self._build(database, directory, write_database)
            span.set_attribute("total_residues", database.total_symbols)
            return catalog

    def _build(
        self, database: SequenceDatabase, directory: PathLike, write_database: bool
    ) -> ShardCatalog:
        if len(database) == 0:
            raise ValueError("cannot index an empty SequenceDatabase")
        directory = str(directory)
        os.makedirs(directory, exist_ok=True)
        logger.info(
            "building index at %s (%d partitions, block_size=%d)",
            directory,
            self.partitions,
            self.block_size,
        )
        build_disk_image(
            database, os.path.join(directory, IMAGE_FILENAME), block_size=self.block_size
        )
        catalog = ShardCatalog(
            database_name=database.name,
            sequence_count=len(database),
            total_residues=database.total_symbols,
            fingerprint=config_fingerprint(
                self.matrix.name, self.gap_model.per_symbol, self.block_size
            ),
            database_digest=database_digest(database),
            partitions=self.partitions,
            shards=[
                ShardEntry(
                    index=0,
                    path=IMAGE_FILENAME,
                    start_sequence=0,
                    sequence_count=len(database),
                    residues=database.total_symbols,
                )
            ],
        )
        if write_database:
            write_fasta(database, os.path.join(directory, DATABASE_FILENAME))
        catalog.save(directory)
        return catalog
