"""OasisEngine: the user-facing facade over index construction and search.

Typical use::

    from repro import OasisEngine
    from repro.scoring import pam30, FixedGapModel

    engine = OasisEngine.build(database, matrix=pam30(), gap_model=FixedGapModel(-8))
    result = engine.search("DKDGDGCITTKEL", evalue=20_000)
    for hit in result:
        print(hit.sequence_identifier, hit.score, hit.evalue)

The engine owns the suffix-tree index (in-memory by default; a disk-resident
index built through :mod:`repro.storage` can be attached instead), the scoring
configuration and the E-value conversion.  It defines ``execute_request``
(resolve the request's E-value once, then run it); the keyword ``execute``,
batch (``search``), online (``search_online``) and concurrent
(``search_many``) interfaces are the shared
:class:`~repro.core.surface.SearchSurface` over it, and ``close()`` / ``with``
release a disk-resident index.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Optional, Union

from repro.core.evalue import SelectivityConverter
from repro.core.oasis import OasisSearch, QueryExecution
from repro.core.request import SearchRequest
from repro.core.surface import SearchSurface
from repro.scoring.gaps import DEFAULT_GAP_MODEL, GapModel
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.suffixtree.cursor import SuffixTreeCursor

PathLike = Union[str, os.PathLike]

# Plain stdlib logging, not repro.obs.logsetup: core sits *below* obs in the
# layering DAG, and __name__ already lives in the "repro." hierarchy that
# obs.logsetup.configure_logging manages -- the handler wiring still applies.
logger = logging.getLogger(__name__)


class OasisEngine(SearchSurface):
    """An OASIS local-alignment search engine over one sequence database."""

    def __init__(
        self,
        cursor: SuffixTreeCursor,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        converter: Optional[SelectivityConverter] = None,
        kernel=None,
    ):
        self.cursor = cursor
        self.matrix = matrix
        self.gap_model = gap_model
        self.converter = converter or SelectivityConverter(matrix, cursor.database)
        self._search = OasisSearch(cursor, matrix, gap_model, kernel=kernel)

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

    # ------------------------------------------------------------------ #
    # Searching
    # ------------------------------------------------------------------ #
    @property
    def database(self) -> SequenceDatabase:
        return self.cursor.database

    @property
    def kernel(self) -> str:
        """The expansion kernel name this engine's searches run under."""
        return self._search.kernel.name

    def min_score_for(self, query: str, evalue: float) -> int:
        """The ``min_score`` equivalent to an E-value cutoff for this query."""
        return self.converter.min_score_for_evalue(evalue, len(query))

    def execute_request(
        self,
        request: SearchRequest,
        cancel_event: Optional[threading.Event] = None,
        tracer=None,
    ) -> QueryExecution:
        """Resolve the request against this engine's database and create its execution.

        The paper's experiments specify E-values; Equation 3 converts one to
        the ``min_score`` the search prunes against, here and only here (a
        request a sharded engine already resolved globally passes through).
        """
        return self._search.execute_request(
            request.resolved(self.converter), cancel_event=cancel_event, tracer=tracer
        )

    def __repr__(self) -> str:
        return (
            f"OasisEngine(database={self.database.name!r}, matrix={self.matrix.name!r}, "
            f"index={type(self.cursor).__name__})"
        )
