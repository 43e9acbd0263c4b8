"""The Smith-Waterman algorithm: the accuracy reference for OASIS.

Section 2.2 of the paper.  The aligner fills the ``m x n`` matrix ``H`` with

    H[i][j] = max(0,
                  H[i-1][j-1] + S(q_i, t_j),   # replacement
                  H[i-1][j]   + S(q_i, -),     # insertion (skip a query symbol)
                  H[i][j-1]   + S(-, t_j))     # deletion  (skip a target symbol)

and the strongest local alignment score is the matrix maximum.

Two implementations are provided:

* a **vectorised scan** for the fixed (linear) gap model used by the paper's
  experiments -- it processes the whole database concatenation column by
  column, with each column computed by NumPy primitives (the vertical
  insertion dependency is resolved with a running-maximum transform), which is
  what makes whole-database S-W searches feasible in pure Python;
* a **reference per-cell implementation** supporting both fixed and affine
  gaps, used for pairwise alignment with traceback and as an independent
  check in the test-suite.

The aligner counts every matrix column it fills; this is the
"columns expanded" metric that Figure 4 compares against OASIS.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.results import Alignment, SearchHit, SearchResult
from repro.scoring.gaps import DEFAULT_GAP_MODEL, GapModel
from repro.scoring.karlin_altschul import KarlinAltschulParameters
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence

#: Score assigned to pruned / impossible cells in the reference DP.
_NEGATIVE_INFINITY = -(10**9)


class SmithWatermanAligner:
    """Exact local alignment by full dynamic programming.

    Parameters
    ----------
    matrix:
        Substitution matrix.
    gap_model:
        Fixed or affine gap model; the vectorised database scan requires a
        fixed model (the paper's configuration), the pairwise methods accept
        either.
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

        Returns one hit per sequence whose best score is ``>= min_score``,
        ordered by decreasing score -- the same reporting convention as OASIS.
        """
        if min_score < 1:
            raise ValueError("min_score must be at least 1 for a local alignment search")
        query_sequence = Sequence(query, database.alphabet)
        start_time = time.perf_counter()

        if self.gap_model.is_affine:
            scores, end_positions = self._scan_affine(database, query_sequence)
        else:
            scores, end_positions = self._scan_fixed(database, query_sequence)

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
        hits.sort(key=lambda hit: (-hit.score, hit.sequence_index))

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

    def _scan_fixed(
        self, database: SequenceDatabase, query: Sequence
    ) -> Tuple[np.ndarray, Dict[int, int]]:
        """Column-by-column scan of the concatenated database (fixed gaps).

        Returns per-sequence best scores and the target end position of each
        sequence's best-scoring column.
        """
        gap = self.gap_model.per_symbol
        query_codes = query.codes
        m = len(query_codes)
        # Per-symbol substitution profile: profile[t][i-1] = S(q_i, t).
        query_array = np.frombuffer(query_codes, dtype=np.uint8)
        profile = np.ascontiguousarray(self.matrix.lookup[query_array, :].T.astype(np.int64))
        codes = database.concatenated_codes
        terminal = database.alphabet.terminal_code

        best_scores = np.zeros(len(database), dtype=np.int64)
        best_ends: Dict[int, int] = {}

        offsets = gap * np.arange(1, m + 1, dtype=np.int64)
        previous = np.zeros(m, dtype=np.int64)

        sequence_index = 0
        for position, symbol in enumerate(codes):
            symbol = int(symbol)
            if symbol == terminal:
                # Sequence boundary: alignments never cross it; reset the column.
                previous = np.zeros(m, dtype=np.int64)
                sequence_index += 1
                continue

            substitution = profile[symbol]
            candidate = np.maximum(previous + gap, 0)
            candidate[1:] = np.maximum(candidate[1:], previous[:-1] + substitution[1:])
            candidate[0] = max(candidate[0], substitution[0])
            # Resolve the vertical (insertion) dependency:
            #   column[i] = max(candidate[i], column[i-1] + gap)
            # which equals max_k<=i (candidate[k] + gap * (i - k)).
            column = np.maximum.accumulate(candidate - offsets) + offsets
            previous = column
            self.columns_expanded += 1

            column_best = int(column.max())
            if column_best > best_scores[sequence_index]:
                best_scores[sequence_index] = column_best
                best_ends[sequence_index] = position
        return best_scores, best_ends

    def _scan_affine(
        self, database: SequenceDatabase, query: Sequence
    ) -> Tuple[np.ndarray, Dict[int, int]]:
        """Reference affine-gap scan (per-sequence, per-cell)."""
        best_scores = np.zeros(len(database), dtype=np.int64)
        best_ends: Dict[int, int] = {}
        for index, record in enumerate(database):
            score, end = self._best_score_affine(query.codes, record.codes)
            best_scores[index] = score
            best_ends[index] = end
            self.columns_expanded += len(record)
        return best_scores, best_ends

    # ------------------------------------------------------------------ #
    # Pairwise alignment
    # ------------------------------------------------------------------ #
    def best_score_pair(self, query: str, target: str) -> int:
        """The maximum local alignment score between two sequences."""
        query_sequence = Sequence(query, self.matrix.alphabet)
        target_sequence = Sequence(target, self.matrix.alphabet)
        if self.gap_model.is_affine:
            score, _ = self._best_score_affine(query_sequence.codes, target_sequence.codes)
            return score
        matrix, _ = self._fill_matrix_fixed(query_sequence.codes, target_sequence.codes)
        self.columns_expanded += len(target_sequence)
        return int(matrix.max())

    def align_pair(self, query: str, target: str) -> Alignment:
        """Best local alignment with a full traceback (Figure 1 style output)."""
        query_sequence = Sequence(query, self.matrix.alphabet)
        target_sequence = Sequence(target, self.matrix.alphabet)
        if self.gap_model.is_affine:
            return self._align_pair_affine(query_sequence, target_sequence)
        matrix, moves = self._fill_matrix_fixed(
            query_sequence.codes, target_sequence.codes, keep_moves=True
        )
        self.columns_expanded += len(target_sequence)
        return self._traceback(matrix, moves, query_sequence.text, target_sequence.text)

    # ------------------------------------------------------------------ #
    # Fixed-gap internals
    # ------------------------------------------------------------------ #
    def _fill_matrix_fixed(
        self,
        query_codes: bytes,
        target_codes: bytes,
        keep_moves: bool = False,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        gap = self.gap_model.per_symbol
        m, n = len(query_codes), len(target_codes)
        lookup = self.matrix.lookup
        matrix = np.zeros((m + 1, n + 1), dtype=np.int64)
        moves = np.zeros((m + 1, n + 1), dtype=np.int8) if keep_moves else None

        for i in range(1, m + 1):
            row_scores = lookup[int(query_codes[i - 1])]
            for j in range(1, n + 1):
                diagonal = matrix[i - 1, j - 1] + row_scores[int(target_codes[j - 1])]
                insertion = matrix[i - 1, j] + gap
                deletion = matrix[i, j - 1] + gap
                best = max(0, diagonal, insertion, deletion)
                matrix[i, j] = best
                if moves is not None:
                    if best == 0:
                        moves[i, j] = 0
                    elif best == diagonal:
                        moves[i, j] = 1  # replacement
                    elif best == insertion:
                        moves[i, j] = 2  # skip a query symbol
                    else:
                        moves[i, j] = 3  # skip a target symbol
        return matrix, moves

    def _traceback(
        self,
        matrix: np.ndarray,
        moves: np.ndarray,
        query_text: str,
        target_text: str,
    ) -> Alignment:
        i, j = np.unravel_index(int(np.argmax(matrix)), matrix.shape)
        score = int(matrix[i, j])
        query_end, target_end = int(i), int(j)
        aligned_query: List[str] = []
        aligned_target: List[str] = []
        while i > 0 and j > 0 and matrix[i, j] > 0:
            move = moves[i, j]
            if move == 1:
                aligned_query.append(query_text[i - 1])
                aligned_target.append(target_text[j - 1])
                i -= 1
                j -= 1
            elif move == 2:
                aligned_query.append(query_text[i - 1])
                aligned_target.append("-")
                i -= 1
            elif move == 3:
                aligned_query.append("-")
                aligned_target.append(target_text[j - 1])
                j -= 1
            else:
                break
        return Alignment(
            score=score,
            query_start=int(i),
            query_end=query_end,
            target_start=int(j),
            target_end=target_end,
            aligned_query="".join(reversed(aligned_query)),
            aligned_target="".join(reversed(aligned_target)),
        )

    # ------------------------------------------------------------------ #
    # Affine-gap internals (reference implementation; extension to the paper)
    # ------------------------------------------------------------------ #
    def _best_score_affine(
        self, query_codes: bytes, target_codes: bytes
    ) -> Tuple[int, int]:
        h, _, _ = self._fill_matrices_affine(query_codes, target_codes)
        position = int(np.argmax(h))
        return int(h.flat[position]), position % (len(target_codes) + 1) - 1

    def _fill_matrices_affine(
        self, query_codes: bytes, target_codes: bytes
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        open_penalty = self.gap_model.opening
        extend = self.gap_model.per_symbol
        m, n = len(query_codes), len(target_codes)
        lookup = self.matrix.lookup
        h = np.zeros((m + 1, n + 1), dtype=np.int64)
        insert = np.full((m + 1, n + 1), _NEGATIVE_INFINITY, dtype=np.int64)
        delete = np.full((m + 1, n + 1), _NEGATIVE_INFINITY, dtype=np.int64)
        for i in range(1, m + 1):
            row_scores = lookup[int(query_codes[i - 1])]
            for j in range(1, n + 1):
                insert[i, j] = max(
                    h[i - 1, j] + open_penalty + extend, insert[i - 1, j] + extend
                )
                delete[i, j] = max(
                    h[i, j - 1] + open_penalty + extend, delete[i, j - 1] + extend
                )
                diagonal = h[i - 1, j - 1] + row_scores[int(target_codes[j - 1])]
                h[i, j] = max(0, diagonal, insert[i, j], delete[i, j])
        return h, insert, delete

    def _align_pair_affine(self, query: Sequence, target: Sequence) -> Alignment:
        h, insert, delete = self._fill_matrices_affine(query.codes, target.codes)
        self.columns_expanded += len(target)
        i, j = np.unravel_index(int(np.argmax(h)), h.shape)
        score = int(h[i, j])
        query_end, target_end = int(i), int(j)
        aligned_query: List[str] = []
        aligned_target: List[str] = []
        lookup = self.matrix.lookup
        state = "H"
        while i > 0 and j > 0 and not (state == "H" and h[i, j] == 0):
            if state == "H":
                diagonal = h[i - 1, j - 1] + lookup[int(query.codes[i - 1]), int(target.codes[j - 1])]
                if h[i, j] == diagonal:
                    aligned_query.append(query.text[i - 1])
                    aligned_target.append(target.text[j - 1])
                    i -= 1
                    j -= 1
                elif h[i, j] == insert[i, j]:
                    state = "I"
                else:
                    state = "D"
            elif state == "I":
                aligned_query.append(query.text[i - 1])
                aligned_target.append("-")
                came_from_open = insert[i, j] == h[i - 1, j] + self.gap_model.opening + self.gap_model.per_symbol
                i -= 1
                if came_from_open:
                    state = "H"
            else:  # state == "D"
                aligned_query.append("-")
                aligned_target.append(target.text[j - 1])
                came_from_open = delete[i, j] == h[i, j - 1] + self.gap_model.opening + self.gap_model.per_symbol
                j -= 1
                if came_from_open:
                    state = "H"
        return Alignment(
            score=score,
            query_start=int(i),
            query_end=query_end,
            target_start=int(j),
            target_end=target_end,
            aligned_query="".join(reversed(aligned_query)),
            aligned_target="".join(reversed(aligned_target)),
        )

    def reset_counters(self) -> None:
        """Zero the cumulative column counter."""
        self.columns_expanded = 0

    def __repr__(self) -> str:
        return (
            f"SmithWatermanAligner(matrix={self.matrix.name!r}, "
            f"gap={self.gap_model!r})"
        )
