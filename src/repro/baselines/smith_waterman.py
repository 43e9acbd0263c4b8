"""The Smith-Waterman algorithm: the accuracy reference for OASIS.

Section 2.2 of the paper.  The aligner fills the ``m x n`` matrix ``H`` with

    H[i][j] = max(0,
                  H[i-1][j-1] + S(q_i, t_j),   # replacement
                  F[i][j],                     # insertion (skip a query symbol)
                  E[i][j])                     # deletion  (skip a target symbol)

where ``F`` and ``E`` are Gotoh's gap states for a gap of ``k`` symbols
costing ``o + k*e``.  The paper's fixed gap model is the case ``o = 0``, where
``F[i][j] = H[i-1][j] + e`` and ``E[i][j] = H[i][j-1] + e``.  The strongest
local alignment score is the matrix maximum.

There is one scan and one per-cell DP:

* :func:`best_local_scores` fills the matrix one *query row* at a time over
  the whole database concatenation with NumPy primitives, and returns each
  sequence's best score.  The horizontal dependency along the target is one
  running maximum per row, which restarts at every terminal.  It serves
  :meth:`SmithWatermanAligner.search` and the BLAST baseline's gapped
  extension.
* a **per-cell DP** in plain Python, with traceback, serves pairwise
  alignment and is the test-suite's independent check of the scan.

The aligner counts every matrix column it fills; this is the
"columns expanded" metric that Figure 4 compares against OASIS.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.core.results import Alignment, SearchHit, SearchResult, hit_order_key
from repro.scoring.gaps import DEFAULT_GAP_MODEL, GapModel
from repro.scoring.karlin_altschul import KarlinAltschulParameters
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence

#: Score of impossible gap states at the matrix border.
_NEGATIVE_INFINITY = -(10**9)

#: Added per sequence to the scan's running-maximum keys: every key of a later
#: sequence exceeds every key of an earlier one, so the maximum restarts at
#: each terminal.
_SEQUENCE_STRIDE = 1 << 40


def best_local_scores(
    query_codes: bytes,
    target_codes: bytes,
    matrix: SubstitutionMatrix,
    gap_model: GapModel,
) -> np.ndarray:
    """Best local alignment score of the query against each target sequence.

    ``target_codes`` holds one or more sequences, each followed by the
    terminal code (``SequenceDatabase.concatenated_codes`` is one).  Row ``i``
    of the matrix is filled from row ``i - 1`` in a few whole-target passes:

    * ``F = max(H_above + o + e, F_above + e)`` and
      ``h = max(0, diagonal, F)``;
    * ``E[j] = max_{k<j} (h[k] + o + e*(j-k))`` is one running maximum over
      ``h - ramp``, with ``ramp = e*j - sequence*2**40``.  Taking ``h``
      rather than ``H`` loses nothing: a gap opened after a gap is never
      better than extending the first one, because ``o <= 0``;
    * ``H = max(h, E)``, with the terminal columns forced to 0 so no
      alignment crosses a sequence boundary.

    The ``int64`` keys stay exact while the target holds fewer than 2**22
    sequences and ``|e|*n`` plus the best score stays below 2**40.
    """
    opening, extension = gap_model.opening, gap_model.per_symbol
    # Gathering with native-size indices is about twice as fast as with bytes.
    target = np.frombuffer(target_codes, dtype=np.uint8).astype(np.intp)
    n = len(target)
    is_terminal = target == matrix.alphabet.terminal_code
    terminals = np.flatnonzero(is_terminal)
    starts = np.concatenate(([0], terminals[:-1] + 1))
    sequence = np.cumsum(is_terminal) - is_terminal
    ramp = extension * np.arange(n, dtype=np.int64) - sequence * _SEQUENCE_STRIDE
    horizontal_ramp = ramp[1:] + opening
    scores = matrix.lookup.astype(np.int64)

    above = np.zeros(n, dtype=np.int64)
    row = np.zeros(n, dtype=np.int64)
    vertical = np.full(n, _NEGATIVE_INFINITY, dtype=np.int64)
    running = np.empty(n, dtype=np.int64)
    best = np.zeros(n, dtype=np.int64)
    for code in query_codes:
        substitution = scores[code][target]
        vertical += extension
        np.add(above, opening + extension, out=running)
        np.maximum(vertical, running, out=vertical)
        row[0] = substitution[0]
        np.add(above[:-1], substitution[1:], out=row[1:])
        np.maximum(row, vertical, out=row)
        np.maximum(row, 0, out=row)
        np.subtract(row, ramp, out=running)
        np.maximum.accumulate(running, out=running)
        running[:-1] += horizontal_ramp
        np.maximum(row[1:], running[:-1], out=row[1:])
        row[terminals] = 0
        np.maximum(best, row, out=best)
        above, row = row, above
    return np.maximum.reduceat(best, starts)


class SmithWatermanAligner:
    """Exact local alignment by full dynamic programming.

    Parameters
    ----------
    matrix:
        Substitution matrix.
    gap_model:
        Fixed or affine gap model; every method accepts either.
    """

    def __init__(self, matrix: SubstitutionMatrix, gap_model: GapModel = DEFAULT_GAP_MODEL):
        gap_model.validate()
        self.matrix = matrix
        self.gap_model = gap_model
        #: Cumulative number of DP columns filled by this aligner instance.
        self.columns_expanded = 0

    # ------------------------------------------------------------------ #
    # Whole-database search
    # ------------------------------------------------------------------ #
    def search(
        self,
        database: SequenceDatabase,
        query: str,
        min_score: int = 1,
        statistics: Optional[KarlinAltschulParameters] = None,
        compute_alignments: bool = False,
    ) -> SearchResult:
        """Best local alignment of ``query`` against every database sequence.

        Returns one hit per sequence whose best score is ``>= min_score``, in
        the canonical order of every engine (``hit_order_key``).
        """
        if min_score < 1:
            raise ValueError("min_score must be at least 1 for a local alignment search")
        query_sequence = Sequence(query, database.alphabet)
        start_time = time.perf_counter()

        scores = best_local_scores(
            query_sequence.codes, database.concatenated_codes, self.matrix, self.gap_model
        )
        self.columns_expanded += database.total_symbols

        hits: List[SearchHit] = []
        for index, record in enumerate(database):
            score = int(scores[index])
            if score < min_score:
                continue
            alignment: Optional[Alignment] = None
            if compute_alignments:
                alignment = self.align_pair(query, record.text)
            evalue = None
            if statistics is not None:
                evalue = statistics.evalue(score, len(query_sequence), database.total_symbols)
            hits.append(
                SearchHit(
                    sequence_index=index,
                    sequence_identifier=record.identifier,
                    score=score,
                    evalue=evalue,
                    alignment=alignment,
                )
            )
        hits.sort(key=hit_order_key)

        elapsed = time.perf_counter() - start_time
        return SearchResult(
            query=query_sequence.text,
            engine="smith-waterman",
            hits=hits,
            elapsed_seconds=elapsed,
            columns_expanded=database.total_symbols,
            parameters={
                "min_score": min_score,
                "matrix": self.matrix.name,
                "gap": self.gap_model.per_symbol,
            },
        )

    # ------------------------------------------------------------------ #
    # Pairwise alignment (the per-cell DP)
    # ------------------------------------------------------------------ #
    def best_score_pair(self, query: str, target: str) -> int:
        """The maximum local alignment score between two sequences."""
        h, _, _ = self._fill_matrices(
            Sequence(query, self.matrix.alphabet).codes,
            Sequence(target, self.matrix.alphabet).codes,
        )
        return max(max(row) for row in h)

    def align_pair(self, query: str, target: str) -> Alignment:
        """Best local alignment with a full traceback (Figure 1 style output).

        The alignment ends at the first cell of the matrix maximum in row
        order; the traceback prefers a replacement, then an insertion, then a
        deletion.
        """
        query_sequence = Sequence(query, self.matrix.alphabet)
        target_sequence = Sequence(target, self.matrix.alphabet)
        query_codes, query_text = query_sequence.codes, query_sequence.text
        target_codes, target_text = target_sequence.codes, target_sequence.text
        h, insert, delete = self._fill_matrices(query_codes, target_codes)
        score, i, j = 0, 0, 0
        for row_index, row in enumerate(h):
            row_best = max(row)
            if row_best > score:
                score, i, j = row_best, row_index, row.index(row_best)
        query_end, target_end = i, j
        rows = self.matrix.rows
        open_and_extend = self.gap_model.opening + self.gap_model.per_symbol
        aligned_query: List[str] = []
        aligned_target: List[str] = []
        state = "H"
        while i > 0 and j > 0 and not (state == "H" and h[i][j] == 0):
            if state == "H":
                substitution = rows[query_codes[i - 1]][target_codes[j - 1]]
                if h[i][j] == h[i - 1][j - 1] + substitution:
                    aligned_query.append(query_text[i - 1])
                    aligned_target.append(target_text[j - 1])
                    i -= 1
                    j -= 1
                elif h[i][j] == insert[i][j]:
                    state = "I"
                else:
                    state = "D"
            elif state == "I":
                aligned_query.append(query_text[i - 1])
                aligned_target.append("-")
                if insert[i][j] == h[i - 1][j] + open_and_extend:
                    state = "H"
                i -= 1
            else:  # state == "D"
                aligned_query.append("-")
                aligned_target.append(target_text[j - 1])
                if delete[i][j] == h[i][j - 1] + open_and_extend:
                    state = "H"
                j -= 1
        return Alignment(
            score=score,
            query_start=i,
            query_end=query_end,
            target_start=j,
            target_end=target_end,
            aligned_query="".join(reversed(aligned_query)),
            aligned_target="".join(reversed(aligned_target)),
        )

    def _fill_matrices(
        self, query_codes: bytes, target_codes: bytes
    ) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
        """Gotoh's ``H``, insertion and deletion matrices, one cell at a time."""
        extension = self.gap_model.per_symbol
        open_and_extend = self.gap_model.opening + extension
        n = len(target_codes)
        h = [[0] * (n + 1)]
        insert = [[_NEGATIVE_INFINITY] * (n + 1)]
        delete = [[_NEGATIVE_INFINITY] * (n + 1)]
        for query_code in query_codes:
            scores = self.matrix.rows[query_code]
            above, insert_above = h[-1], insert[-1]
            row = [0] * (n + 1)
            row_insert = [_NEGATIVE_INFINITY] * (n + 1)
            row_delete = [_NEGATIVE_INFINITY] * (n + 1)
            for j in range(1, n + 1):
                vertical = max(above[j] + open_and_extend, insert_above[j] + extension)
                horizontal = max(row[j - 1] + open_and_extend, row_delete[j - 1] + extension)
                row_insert[j] = vertical
                row_delete[j] = horizontal
                row[j] = max(
                    0, above[j - 1] + scores[target_codes[j - 1]], vertical, horizontal
                )
            h.append(row)
            insert.append(row_insert)
            delete.append(row_delete)
        self.columns_expanded += n
        return h, insert, delete

    def reset_counters(self) -> None:
        """Zero the cumulative column counter."""
        self.columns_expanded = 0

    def __repr__(self) -> str:
        return (
            f"SmithWatermanAligner(matrix={self.matrix.name!r}, "
            f"gap={self.gap_model!r})"
        )
