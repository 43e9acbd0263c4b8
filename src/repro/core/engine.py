"""OasisEngine: the one OASIS search over one suffix tree.

Typical use::

    from repro import OasisEngine
    from repro.scoring import pam30, FixedGapModel

    engine = OasisEngine.build(database, matrix=pam30(), gap_model=FixedGapModel(-8))
    result = engine.search("DKDGDGCITTKEL", evalue=20_000)
    for hit in result:
        print(hit.sequence_identifier, hit.score, hit.evalue)

The engine owns the suffix-tree cursor, the scoring configuration, the
expansion kernel and the E-value conversion.  It is built in memory
(:meth:`OasisEngine.build`), opened from an index directory
(:meth:`OasisEngine.open`, the one opener of one) or made around a cursor
(a bare image's: :func:`repro.storage.open_image`).  It is the one searching
surface: ``execute`` / ``search`` / ``search_online`` / ``search_many`` run
its ``execute_request``, and ``close()`` / ``with`` release a disk-resident
index; :class:`~repro.sharding.ShardedEngine` redefines only those two.
"""

from __future__ import annotations

import logging
import os
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, TypeVar, Union

from repro.core.evalue import SelectivityConverter
from repro.core.kernels import ExpansionKernel, get_kernel
from repro.core.oasis import QueryExecution
from repro.core.request import SearchRequest
from repro.core.results import Alignment, SearchHit, SearchResult
from repro.scoring.gaps import DEFAULT_GAP_MODEL, FixedGapModel, GapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.cursor import SuffixTreeCursor

if TYPE_CHECKING:  # pragma: no cover - annotation only (the layers above core)
    from repro.parallel.executor import BatchSearchReport
    from repro.sharding.catalog import ShardCatalog
    from repro.storage.buffer_pool import BufferPool

PathLike = Union[str, os.PathLike]
Query = Union[str, SearchRequest]
_Engine = TypeVar("_Engine", bound="OasisEngine")

# Plain stdlib logging, not repro.obs.logsetup: core sits *below* obs in the
# layering DAG, and __name__ already lives in the "repro." hierarchy that
# obs.logsetup.configure_logging manages -- the handler wiring still applies.
logger = logging.getLogger(__name__)


class OasisEngine:
    """Best-first local-alignment search over one suffix tree (Algorithms 1-2).

    Creates one :class:`~repro.core.oasis.QueryExecution` per query and is
    immutable while they run, so it serves any number of them at once.
    ``cursor`` is any :class:`~repro.suffixtree.cursor.SuffixTreeCursor`;
    the gap model must be the paper's fixed (linear) one; ``converter`` (the
    E-value conversion, Equations 2-3) defaults to one over the cursor's
    database.  The ``query`` of ``execute`` / ``search`` / ``search_online``
    is the query text, with the :class:`SearchRequest` fields as keyword
    ``options`` (``min_score`` / ``evalue``, ``max_results``,
    ``compute_alignments``, ``time_budget``), or a ready request.

    Parameters
    ----------
    kernel:
        Expansion-kernel selection: a name (``compiled`` / ``live`` /
        ``reference``), an :class:`ExpansionKernel` instance, or ``None`` to
        fall back to the ``OASIS_KERNEL`` environment variable and then the
        default (``compiled`` where it builds, ``live`` elsewhere).  All are
        parity-gated -- the choice changes speed, never results.  The
        pruning-rule switches of Section 3.2 belong to the dense oracle:
        ``kernel=ReferenceKernel(prune_dominated=False)``.
    """

    #: The catalog of the index directory :meth:`open` read (``None`` for an
    #: engine built here).
    catalog: Optional["ShardCatalog"] = None
    #: The pool budget :meth:`open` resolved for the image (``None`` if built here).
    buffer_pool_bytes: Optional[int] = None

    def __init__(
        self,
        cursor: SuffixTreeCursor,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        converter: Optional[SelectivityConverter] = None,
        kernel: Union[str, ExpansionKernel, None] = None,
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
        engine.buffer_pool_bytes = pool_bytes
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

    def execute(self, query: Query, tracer=None, **options):
        """Create the self-contained, reentrant execution of one query.

        Iterate it for the online stream or call ``.result()`` for the batch
        result; any number can run concurrently against the engine's shared
        read-only index.  ``.abort()`` stops it within one frontier advance;
        ``tracer`` (a :class:`~repro.obs.Tracer`) wraps the run in a span.
        """
        if not isinstance(query, SearchRequest):
            query = SearchRequest(query, **options)
        elif options:
            raise TypeError("options belong inside the SearchRequest, not beside it")
        return self.execute_request(query, tracer=tracer)

    def search(self, query: Query, **options) -> SearchResult:
        """Find the strongest alignment per sequence scoring above a threshold.

        Results are ordered by decreasing score and, when the engine has a
        statistics model, annotated with E-values.
        """
        return self.execute(query, **options).result()

    def search_online(self, query: Query, **options) -> Iterator[SearchHit]:
        """Stream hits in decreasing score order (abort whenever satisfied)."""
        return iter(self.execute(query, **options))

    def search_many(
        self,
        queries: Iterable[str],
        workers: int = 1,
        timeout: Optional[float] = None,
        tracer=None,
        **options,
    ) -> "BatchSearchReport":
        """Run a batch of queries over the shared index, results in input order.

        A batch is a loop of :meth:`execute` ``.result()`` calls
        (:func:`repro.parallel.executor.search_many`): on the calling thread
        for one worker, on a pool of ``workers`` threads otherwise.  Where
        the search runs in this process the column step holds the
        interpreter lock, so the threads overlap nothing; on a process
        scatter they overlap the workers' partition tasks.
        ``timeout`` is a per-query wall-clock budget in seconds; a query
        exceeding it stops early with the hits found so far and is flagged
        ``timed_out``.  ``options`` are the request fields every query of the
        batch shares (or ``template=`` a ready request, whose ``time_budget``
        is then the timeout).  On a sharded engine each query in turn
        scatters on the engine's own backend and the report carries
        per-shard aggregates.
        """
        from repro.parallel.executor import search_many

        return search_many(
            self, queries, workers=workers, timeout=timeout, tracer=tracer, **options
        )

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

    def __enter__(self: _Engine) -> _Engine:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"OasisEngine(database={self.database.name!r}, matrix={self.matrix.name!r}, "
            f"index={type(self.cursor).__name__})"
        )
