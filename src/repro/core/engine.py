"""OasisEngine: the one OASIS search over one suffix tree.

Typical use::

    from repro import OasisEngine
    from repro.scoring import pam30, FixedGapModel

    engine = OasisEngine.build(database, matrix=pam30(), gap_model=FixedGapModel(-8))
    result = engine.search("DKDGDGCITTKEL", evalue=20_000)
    for hit in result:
        print(hit.sequence_identifier, hit.score, hit.evalue)

The engine owns the suffix-tree cursor, the scoring configuration, the
expansion kernel, the pruning switches and the E-value conversion.  It is
built in memory (:meth:`OasisEngine.build`), written to an image and
searched there (:meth:`OasisEngine.build_on_disk`), or opened from an index
directory (:meth:`OasisEngine.open`, the one opener of one).  It defines
``execute_request``; ``execute`` / ``search`` / ``search_online`` /
``search_many`` are the shared :class:`~repro.core.surface.SearchSurface`
over it, and ``close()`` / ``with`` release a disk-resident index.
"""

from __future__ import annotations

import logging
import os
from typing import TYPE_CHECKING, Optional, Union

from repro.core.evalue import SelectivityConverter
from repro.core.kernels import ExpansionKernel, get_kernel
from repro.core.oasis import QueryExecution
from repro.core.request import SearchRequest
from repro.core.results import Alignment
from repro.core.surface import SearchSurface
from repro.scoring.gaps import DEFAULT_GAP_MODEL, FixedGapModel, GapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.cursor import SuffixTreeCursor

if TYPE_CHECKING:  # pragma: no cover - annotation only (sharding and storage are layers up)
    from repro.sharding.catalog import ShardCatalog
    from repro.storage.buffer_pool import BufferPool

PathLike = Union[str, os.PathLike]

# Plain stdlib logging, not repro.obs.logsetup: core sits *below* obs in the
# layering DAG, and __name__ already lives in the "repro." hierarchy that
# obs.logsetup.configure_logging manages -- the handler wiring still applies.
logger = logging.getLogger(__name__)


class OasisEngine(SearchSurface):
    """Best-first local-alignment search over one suffix tree (Algorithms 1-2).

    Creates one :class:`~repro.core.oasis.QueryExecution` per query and is
    immutable while they run, so it serves any number of them at once.
    ``cursor`` is any :class:`~repro.suffixtree.cursor.SuffixTreeCursor`;
    the gap model must be the paper's fixed (linear) one; ``converter`` (the
    E-value conversion, Equations 2-3) defaults to one over the cursor's
    database.

    Parameters
    ----------
    kernel:
        Expansion-kernel selection: a name (``compiled`` / ``live`` /
        ``reference``), an :class:`ExpansionKernel` instance, or ``None`` to
        fall back to the ``OASIS_KERNEL`` environment variable and then the
        default (``compiled`` where it builds, ``live`` elsewhere).  All are
        parity-gated -- the choice changes speed, never results.
    prune_non_positive, prune_dominated, prune_threshold, track_pruning:
        The pruning-rule switches of Section 3.2: disabling a rule never
        changes the result set, only the amount of work (the ablation
        experiment relies on this); ``track_pruning`` counts the cells each
        rule cuts.
    """

    #: The catalog of the index directory :meth:`open` read (``None`` for an
    #: engine built here).
    catalog: Optional["ShardCatalog"] = None

    def __init__(
        self,
        cursor: SuffixTreeCursor,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        converter: Optional[SelectivityConverter] = None,
        kernel: Union[str, ExpansionKernel, None] = None,
        *,
        prune_non_positive: bool = True,
        prune_dominated: bool = True,
        prune_threshold: bool = True,
        track_pruning: bool = False,
    ):
        gap_model.validate()
        if gap_model.is_affine:
            raise NotImplementedError(
                "OASIS currently implements the paper's fixed gap model; "
                "affine gaps are listed as future work (Section 6)"
            )
        self.cursor = cursor
        self.matrix = matrix
        self.gap_model = gap_model
        self.converter = converter or SelectivityConverter(matrix, cursor.database)
        self.expansion_kernel: ExpansionKernel = get_kernel(kernel)
        self.prune_non_positive = prune_non_positive
        self.prune_dominated = prune_dominated
        self.prune_threshold = prune_threshold
        self.track_pruning = track_pruning

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        kernel=None,
    ) -> "OasisEngine":
        """Build an in-memory suffix-tree index and wrap it in an engine.

        The tree builder is imported here, so opening a disk index never
        loads it.
        """
        from repro.suffixtree.generalized import GeneralizedSuffixTree

        logger.info(
            "building in-memory index for %s (%d sequences)", database.name, len(database)
        )
        return cls(GeneralizedSuffixTree.build(database), matrix, gap_model, kernel=kernel)

    @classmethod
    def build_on_disk(
        cls,
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        image_path: PathLike,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        block_size: int = 2048,
        buffer_pool_bytes: Optional[int] = None,
        kernel=None,
    ) -> "OasisEngine":
        """Write the Section-3.4 disk image of the database, search through it.

        The image is opened by the fit rule of
        :func:`repro.storage.open_image` (``buffer_pool_bytes=None`` takes
        :data:`repro.storage.image.DEFAULT_BUFFER_POOL_BYTES`): an image no
        larger than the pool is read back into the in-memory tree, and only a
        smaller pool puts every node and symbol access through the buffer
        pool of a :class:`~repro.storage.DiskSuffixTree` -- the configuration
        of the paper's buffer-pool experiments (Figures 7-8).  The storage
        layer is imported here, so an in-memory engine never loads it.
        """
        from repro.storage.builder import build_disk_image
        from repro.storage.image import DEFAULT_BUFFER_POOL_BYTES, open_image

        if buffer_pool_bytes is None:
            buffer_pool_bytes = DEFAULT_BUFFER_POOL_BYTES
        logger.info(
            "building disk image at %s (block_size=%d, pool=%d bytes)",
            image_path,
            block_size,
            buffer_pool_bytes,
        )
        build_disk_image(database, image_path, block_size=block_size)
        cursor = open_image(image_path, database, buffer_pool_bytes)
        return cls(cursor, matrix, gap_model, kernel=kernel)

    @classmethod
    def open(
        cls,
        directory: PathLike,
        database: Optional[SequenceDatabase] = None,
        matrix: Optional[SubstitutionMatrix] = None,
        gap_model: Optional[GapModel] = None,
        buffer_pool_bytes: Optional[int] = None,
        kernel=None,
    ) -> "OasisEngine":
        """Open an index directory from its catalog: the one opener of one.

        ``matrix`` / ``gap_model`` / ``database`` default to the recorded
        configuration and the bundled FASTA; given or restored, they must
        match what the index was built with
        (:class:`~repro.sharding.catalog.CatalogMismatchError` otherwise).
        The image is opened by the fit rule of :func:`repro.storage.open_image`
        with ``buffer_pool_bytes`` (``None`` for the 256 MB default; at least
        one block).  The sharding and storage layers are imported here, so a
        built engine never loads them.
        """
        from repro.scoring.data import load_matrix
        from repro.sequences.fasta import read_fasta
        from repro.sharding.catalog import CatalogError, ShardCatalog, config_fingerprint
        from repro.storage.image import DEFAULT_BUFFER_POOL_BYTES, open_image

        kernel = get_kernel(kernel)  # an unknown kernel fails before any file opens
        if buffer_pool_bytes is None:
            buffer_pool_bytes = DEFAULT_BUFFER_POOL_BYTES
        directory = str(directory)
        catalog = ShardCatalog.load(directory)
        pool_bytes = max(catalog.block_size, buffer_pool_bytes)
        logger.info("opening index at %s (pool budget %d bytes)", directory, pool_bytes)
        if matrix is None:
            try:
                matrix = load_matrix(catalog.matrix_name)
            except KeyError as error:
                raise CatalogError(f"catalog field 'fingerprint.matrix': {error.args[0]}") from None
        if gap_model is None:
            gap_model = FixedGapModel(catalog.gap_penalty)
        catalog.check_fingerprint(
            config_fingerprint(matrix.name, gap_model.per_symbol, catalog.block_size)
        )
        if database is None:
            database = read_fasta(
                catalog.database_path(directory),
                alphabet=matrix.alphabet,
                name=catalog.database_name,
            )
        catalog.check_database(database)

        cursor = open_image(catalog.image_path(directory), database, pool_bytes)
        engine = cls(cursor, matrix, gap_model, kernel=kernel)
        engine.catalog = catalog
        return engine

    # ------------------------------------------------------------------ #
    # Searching
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> SequenceDatabase:
        return self.cursor.database

    @property
    def kernel(self) -> str:
        """The expansion kernel name this engine's searches run under."""
        return self.expansion_kernel.name

    @property
    def buffer_pool(self) -> Optional["BufferPool"]:
        """The pool a disk cursor reads its pages through (``None`` in memory)."""
        return getattr(self.cursor, "pool", None)

    def min_score_for(self, query: str, evalue: float) -> int:
        """The ``min_score`` equivalent to an E-value cutoff for this query."""
        return self.converter.min_score_for_evalue(evalue, len(query))

    def execute_request(self, request: SearchRequest, tracer=None) -> QueryExecution:
        """Resolve the request against this engine's database and create its execution.

        The paper's experiments specify E-values; Equation 3 converts one to
        the ``min_score`` the search prunes against, here and only here (a
        request a coordinator already resolved passes through).
        """
        return QueryExecution(self, request.resolved(self.converter), tracer=tracer)

    def _trace_alignment(self, query_text: str, target_text: str) -> Alignment:
        """Recover the concrete best alignment for a reported sequence.

        The search itself only tracks scores (storing full tracebacks for
        every frontier column would defeat the memory frugality of keeping a
        single column per node), so the operations are recovered with a
        pairwise Smith-Waterman pass against the reported sequence -- the same
        convention the paper uses when it "duplicates the behaviour of S-W".
        """
        from repro.baselines.smith_waterman import SmithWatermanAligner

        aligner = SmithWatermanAligner(self.matrix, self.gap_model)
        return aligner.align_pair(query_text, target_text)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Close a disk-resident cursor's image file (a no-op in memory)."""
        close = getattr(self.cursor, "close", None)
        if close is not None:
            close()

    def __repr__(self) -> str:
        return (
            f"OasisEngine(database={self.database.name!r}, matrix={self.matrix.name!r}, "
            f"index={type(self.cursor).__name__})"
        )
