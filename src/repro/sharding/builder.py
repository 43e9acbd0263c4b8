"""ShardedIndexBuilder: one persistent disk image per shard, plus a catalog.

Each shard's image is written by :func:`repro.storage.build_disk_image`
straight from the shard's sorted suffixes and their LCPs, and no tree of node
objects is ever built.  What a shard's build holds is flat arrays that grow
with the shard, at most while the record arrays are sorted into level order.
At 960 108 residues in one shard, a 2-core x86 host measured 0.8 us and 67
bytes of peak RSS growth per residue (sorting one lexical partition at a
time: 1.2 us and 74 bytes; the object-tree build: 57 us and 392 bytes).

The sequences themselves are written alongside the images
(``database.fasta``): the disk images store tree structure and symbols only,
and an index that has to be reunited with exactly the right FASTA file by hand
is an index waiting to be corrupted.
"""

from __future__ import annotations

import os
from typing import Union

from repro.exec import BackendSpec, ExecutionBackend, resolve_backend
from repro.obs.logsetup import get_logger
from repro.scoring.gaps import DEFAULT_GAP_MODEL, GapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.sequences.fasta import write_fasta
from repro.sharding.catalog import (
    DATABASE_FILENAME,
    ShardCatalog,
    ShardEntry,
    config_fingerprint,
    database_digest,
)
from repro.sharding.planner import ShardPlanner
from repro.sharding.remote import ShardBuildTask, run_shard_build
from repro.storage.blocks import BLOCK_SIZE_DEFAULT
from repro.storage.layout import check_block_size

PathLike = Union[str, os.PathLike]

logger = get_logger(__name__)


class ShardedIndexBuilder:
    """Build a persistent multi-shard index directory for one database.

    Parameters
    ----------
    matrix / gap_model:
        The scoring configuration the index will be served with; recorded in
        the catalog fingerprint so a mismatched open fails fast.
    shard_count:
        Number of shards to split the database into.
    by:
        Shard balancing criterion (see :class:`~repro.sharding.ShardPlanner`).
    block_size:
        Disk-image block size (every shard uses the same one); at least
        :data:`~repro.storage.layout.MIN_BLOCK_SIZE`, checked here, before
        anything is written.
    backend:
        Execution backend for the per-shard builds -- a spec string
        (``"serial"``, ``"threads:N"``, ``"processes:N"``), a
        :class:`~repro.exec.BackendSpec`, or a live
        :class:`~repro.exec.ExecutionBackend` (then caller-owned).  Shard
        images are independent, so construction fans out cleanly: threads
        overlap the image writing, processes escape the GIL for the
        CPU-bound tree building.  Defaults to serial.  The images are
        byte-identical whichever backend built them (every backend runs the
        same per-shard task), so the choice never affects the index.
    """

    def __init__(
        self,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        shard_count: int = 1,
        by: str = "residues",
        block_size: int = BLOCK_SIZE_DEFAULT,
        backend: Union[str, BackendSpec, ExecutionBackend, None] = None,
    ):
        self.matrix = matrix
        self.gap_model = gap_model
        self.planner = ShardPlanner(shard_count, by=by)
        self.block_size = int(block_size)
        check_block_size(self.block_size)
        self.backend = backend

    def build(
        self,
        database: SequenceDatabase,
        directory: PathLike,
        write_database: bool = True,
        tracer=None,
    ) -> ShardCatalog:
        """Build every shard image under ``directory`` and write the catalog.

        The directory is created if needed.  Returns the written catalog.
        Set ``write_database=False`` to skip the FASTA copy (the caller then
        has to supply the identical database when reopening).

        Shard builds run through the configured backend; the catalog is
        written only after every image exists, and its entries are in shard
        order regardless of the order the builds finished in.  Pass a
        :class:`~repro.obs.Tracer` to wrap the build in an ``index_build``
        span (with per-shard child spans on in-process backends; process
        builds ship bare picklable tasks and stay span-free).
        """
        if tracer is None:
            return self._build(database, directory, write_database, None)
        with tracer.span(
            "index_build", shards=self.planner.shard_count, database=database.name
        ) as span:
            catalog = self._build(database, directory, write_database, tracer)
            span.set_attribute("total_residues", database.total_symbols)
            return catalog

    def _build(
        self,
        database: SequenceDatabase,
        directory: PathLike,
        write_database: bool,
        tracer,
    ) -> ShardCatalog:
        directory = str(directory)
        os.makedirs(directory, exist_ok=True)
        plan = self.planner.plan(database)
        logger.info(
            "building sharded index at %s (%d shards, block_size=%d)",
            directory,
            len(plan.specs),
            self.block_size,
        )

        tasks = []
        entries = []
        for spec in plan.specs:
            image_name = f"{spec.identifier()}.oasis"
            tasks.append(
                ShardBuildTask(
                    directory=directory,
                    image_name=image_name,
                    sub_database=plan.slice_database(database, spec),
                    block_size=self.block_size,
                )
            )
            entries.append(
                ShardEntry(
                    index=spec.index,
                    path=image_name,
                    start_sequence=spec.start_sequence,
                    sequence_count=spec.sequence_count,
                    residues=spec.residues,
                )
            )

        backend, owned = resolve_backend(
            self.backend, default="serial", default_workers=len(tasks)
        )
        run_task = run_shard_build
        if tracer is not None and backend.kind != "processes":
            # In-process backends get per-shard child spans (parented by
            # explicit id: thread-pool workers do not inherit the caller's
            # stack).  Process backends ship bare picklable tasks -- a span
            # closure would not pickle -- so they stay at the build span.
            parent_id = tracer.current_span_id

            def run_task(task):  # noqa: ANN001 - mirrors run_shard_build
                with tracer.span(
                    "shard_build", parent_id=parent_id, image=task.image_name
                ):
                    return run_shard_build(task)

        futures = []
        try:
            # Submit everything up front, then gather in shard order: the
            # backend decides the concurrency, the catalog order stays
            # deterministic either way.
            # The traced closure is only ever installed for in-process
            # backends (the `backend.kind != "processes"` guard above);
            # process backends always get module-level run_shard_build.
            futures = [backend.submit(run_task, task) for task in tasks]  # repro: allow[spawn-submit]
            for future in futures:
                future.result()
        finally:
            # On failure, stop sibling builds that have not started instead
            # of paying for shard images the raised error already orphaned
            # (in-flight builds still finish; no-op on success).
            for future in futures:
                if not future.done():
                    future.cancel()
            if owned:
                backend.close()

        catalog = ShardCatalog(
            database_name=database.name,
            sequence_count=len(database),
            total_residues=database.total_symbols,
            balanced_by=plan.by,
            fingerprint=config_fingerprint(
                self.matrix.name, self.gap_model.per_symbol, self.block_size
            ),
            database_digest=database_digest(database),
            shards=entries,
        )
        if write_database:
            write_fasta(database, os.path.join(directory, DATABASE_FILENAME))
        catalog.save(directory)
        return catalog
