"""A BLAST-style heuristic search engine.

The paper uses NCBI BLAST 2.2 purely as a performance/sensitivity baseline:
BLAST is much faster than Smith-Waterman because it only examines database
regions that contain a high-scoring *word hit* for the query, but it offers no
guarantee of finding every alignment above the threshold -- which is exactly
the gap OASIS closes (Figure 5 measures how many additional matches OASIS
returns).

This implementation follows the classic protein-BLAST pipeline:

1. **Neighbourhood words.**  Every length-``w`` window of the query is
   expanded into the set of words whose substitution score against it is at
   least ``neighborhood_threshold`` (for nucleotide alphabets only the exact
   word is used, as in BLASTN).
2. **Word index.**  The database is scanned once and every position of every
   neighbourhood word is collected from a precomputed word index
   (the analogue of ``formatdb``).
3. **Ungapped extension.**  Each hit is extended left and right without gaps
   until the running score drops ``x_drop_ungapped`` below the best seen.
4. **Gapped extension.**  Seeds whose ungapped score reaches
   ``gapped_trigger`` are re-scored with the Smith-Waterman scan
   (``smith_waterman.best_local_scores``) restricted to a window around the
   seed; the DP columns this fills are counted so the filtering behaviour can
   be compared with OASIS and S-W.
5. **E-value filtering.**  Per-sequence best scores are converted to E-values
   with the same Karlin-Altschul machinery used for OASIS (Equation 2) and
   reported when they pass the cutoff.

Because the word hit is a necessary condition, alignments whose conserved core
is shorter than ``w`` (or too weak to produce a neighbourhood word) are missed
-- reproducing the qualitative accuracy gap the paper reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.smith_waterman import SmithWatermanAligner, best_local_scores
from repro.core.results import Alignment, SearchHit, SearchResult
from repro.scoring.gaps import DEFAULT_GAP_MODEL, GapModel
from repro.scoring.karlin_altschul import KarlinAltschulParameters, estimate_karlin_altschul
from repro.scoring.matrix import SubstitutionMatrix
from repro.sequences.database import SequenceDatabase
from repro.sequences.sequence import Sequence


@dataclass(frozen=True)
class BlastParameters:
    """Tuning knobs of the heuristic pipeline.

    The defaults are chosen for short protein queries with PAM30, mirroring
    the "blastp-short" style configuration the paper's workload calls for.
    """

    word_size: int = 3
    neighborhood_threshold: int = 15
    x_drop_ungapped: int = 12
    gapped_trigger: int = 18
    window_margin: int = 24
    max_neighborhood_per_position: int = 2000

    def validate(self) -> None:
        if self.word_size < 1:
            raise ValueError("word_size must be at least 1")
        if self.window_margin < 0:
            raise ValueError("window_margin must be non-negative")


class BlastLikeSearch:
    """Word-seeded heuristic local alignment search over one database.

    The word index over the database is built once (in the constructor) and
    reused by every query, mirroring how BLAST separates ``formatdb`` from the
    search itself.
    """

    def __init__(
        self,
        database: SequenceDatabase,
        matrix: SubstitutionMatrix,
        gap_model: GapModel = DEFAULT_GAP_MODEL,
        parameters: BlastParameters = BlastParameters(),
        statistics: Optional[KarlinAltschulParameters] = None,
    ):
        gap_model.validate()
        if gap_model.is_affine:
            raise NotImplementedError("the BLAST baseline implements linear gaps only")
        parameters.validate()
        database.freeze()
        self.database = database
        self.matrix = matrix
        self.gap_model = gap_model
        self.parameters = parameters
        if statistics is None:
            try:
                statistics = estimate_karlin_altschul(
                    matrix, frequencies=database.residue_frequencies()
                )
            except ValueError:
                statistics = estimate_karlin_altschul(matrix)
        self.statistics = statistics
        #: Cumulative DP columns filled during gapped extensions.
        self.columns_expanded = 0
        self._word_index = self._build_word_index()
        #: Whether the protein-style neighbourhood expansion is in use.
        self.protein_mode = len(matrix.alphabet) > 6

    # ------------------------------------------------------------------ #
    # Index construction
    # ------------------------------------------------------------------ #
    def _build_word_index(self) -> Dict[Tuple[int, ...], np.ndarray]:
        """Map every length-w word of the database to its global positions."""
        w = self.parameters.word_size
        codes = self.database.concatenated_codes
        terminal = self.database.alphabet.terminal_code
        index: Dict[Tuple[int, ...], List[int]] = {}
        limit = len(codes) - w + 1
        for position in range(limit):
            window = codes[position : position + w]
            if terminal in window:
                continue
            key = tuple(int(c) for c in window)
            index.setdefault(key, []).append(position)
        return {word: np.asarray(positions, dtype=np.int64) for word, positions in index.items()}

    # ------------------------------------------------------------------ #
    # Neighbourhood generation
    # ------------------------------------------------------------------ #
    def _neighborhood(self, word: Tuple[int, ...]) -> List[Tuple[int, ...]]:
        """All words scoring >= the threshold against ``word``.

        The search is a depth-first enumeration with an admissible bound
        (remaining positions contribute at most their row maximum), so only a
        tiny fraction of the |alphabet|^w word space is ever visited.
        """
        if not self.protein_mode:
            return [word]
        lookup = self.matrix.lookup
        alphabet_size = len(self.matrix.alphabet)
        threshold = self.parameters.neighborhood_threshold
        row_maxima = [int(lookup[c, :alphabet_size].max()) for c in word]
        suffix_best = [0] * (len(word) + 1)
        for i in range(len(word) - 1, -1, -1):
            suffix_best[i] = suffix_best[i + 1] + row_maxima[i]

        results: List[Tuple[int, ...]] = []

        def recurse(position: int, score: int, prefix: Tuple[int, ...]) -> None:
            if len(results) >= self.parameters.max_neighborhood_per_position:
                return
            if position == len(word):
                if score >= threshold:
                    results.append(prefix)
                return
            if score + suffix_best[position] < threshold:
                return
            scores = lookup[word[position], :alphabet_size]
            for symbol in range(alphabet_size):
                recurse(position + 1, score + int(scores[symbol]), prefix + (symbol,))

        recurse(0, 0, ())
        return results

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(
        self,
        query: str,
        evalue: Optional[float] = None,
        min_score: Optional[int] = None,
        compute_alignments: bool = False,
    ) -> SearchResult:
        """Heuristic search; report the best hit per sequence passing the cutoff."""
        if (evalue is None) == (min_score is None):
            raise ValueError("specify exactly one of evalue or min_score")
        query_sequence = Sequence(query, self.database.alphabet)
        query_codes = query_sequence.codes
        start_time = time.perf_counter()
        start_columns = self.columns_expanded

        if min_score is None:
            assert evalue is not None
            threshold_score = self.statistics.min_score(
                evalue, len(query_codes), self.database.total_symbols
            )
            threshold_evalue = evalue
        else:
            threshold_score = min_score
            threshold_evalue = None

        seeds = self._find_seeds(query_codes)
        best_per_sequence = self._extend_seeds(query_codes, seeds)

        hits: List[SearchHit] = []
        for sequence_index, score in sorted(
            best_per_sequence.items(), key=lambda item: (-item[1], item[0])
        ):
            if score < threshold_score:
                continue
            hit_evalue = self.statistics.evalue(
                score, len(query_codes), self.database.total_symbols
            )
            if threshold_evalue is not None and hit_evalue > threshold_evalue:
                continue
            record = self.database[sequence_index]
            alignment: Optional[Alignment] = None
            if compute_alignments:
                alignment = self._trace_alignment(query_sequence.text, record.text)
            hits.append(
                SearchHit(
                    sequence_index=sequence_index,
                    sequence_identifier=record.identifier,
                    score=score,
                    evalue=hit_evalue,
                    alignment=alignment,
                )
            )

        elapsed = time.perf_counter() - start_time
        return SearchResult(
            query=query_sequence.text,
            engine="blast-like",
            hits=hits,
            elapsed_seconds=elapsed,
            columns_expanded=self.columns_expanded - start_columns,
            parameters={
                "evalue": evalue,
                "min_score": threshold_score,
                "word_size": self.parameters.word_size,
                "matrix": self.matrix.name,
            },
        )

    # ------------------------------------------------------------------ #
    # Seeding
    # ------------------------------------------------------------------ #
    def _find_seeds(self, query_codes: bytes) -> List[Tuple[int, int]]:
        """All (query offset, database position) word hits."""
        w = self.parameters.word_size
        seeds: List[Tuple[int, int]] = []
        if len(query_codes) < w:
            # Degenerate very-short query: fall back to single-symbol seeding.
            w = 1
        for query_offset in range(len(query_codes) - w + 1):
            word = tuple(int(c) for c in query_codes[query_offset : query_offset + w])
            for neighbor in self._neighborhood(word) if w == self.parameters.word_size else [word]:
                positions = self._word_index.get(neighbor)
                if positions is None and w != self.parameters.word_size:
                    # Single-symbol fallback: scan the concatenation directly.
                    codes = np.frombuffer(self.database.concatenated_codes, dtype=np.uint8)
                    positions = np.flatnonzero(codes == neighbor[0])
                if positions is None:
                    continue
                seeds.extend((query_offset, int(p)) for p in positions)
        return seeds

    # ------------------------------------------------------------------ #
    # Extension
    # ------------------------------------------------------------------ #
    def _extend_seeds(
        self, query_codes: bytes, seeds: List[Tuple[int, int]]
    ) -> Dict[int, int]:
        """Ungapped then gapped extension; returns best score per sequence."""
        best: Dict[int, int] = {}
        examined_windows: Dict[int, set] = {}
        for query_offset, database_position in seeds:
            sequence_index, local_offset = self.database.locate(database_position)
            record = self.database[sequence_index]
            if local_offset >= len(record):
                continue  # the seed starts on a terminal symbol

            ungapped, anchor = self._ungapped_extension(
                query_codes, record.codes, query_offset, local_offset
            )
            if ungapped < self.parameters.gapped_trigger:
                if ungapped > best.get(sequence_index, 0):
                    best[sequence_index] = ungapped
                continue

            # Avoid re-running the gapped extension for seeds that fall into a
            # window that was already examined for this sequence.
            window_key = anchor // max(1, self.parameters.window_margin)
            seen = examined_windows.setdefault(sequence_index, set())
            if window_key in seen:
                continue
            seen.add(window_key)

            gapped = self._gapped_extension(query_codes, record.codes, anchor)
            score = max(ungapped, gapped)
            if score > best.get(sequence_index, 0):
                best[sequence_index] = score
        return best

    def _ungapped_extension(
        self,
        query_codes: bytes,
        target_codes: bytes,
        query_offset: int,
        target_offset: int,
    ) -> Tuple[int, int]:
        """Extend a word hit without gaps; returns (score, target anchor)."""
        lookup = self.matrix.lookup
        w = min(self.parameters.word_size, len(query_codes))
        drop = self.parameters.x_drop_ungapped

        score = 0
        for k in range(w):
            if query_offset + k < len(query_codes) and target_offset + k < len(target_codes):
                score += int(lookup[int(query_codes[query_offset + k]), int(target_codes[target_offset + k])])
        best = score
        best_anchor = target_offset

        # Extend right.
        running = score
        qi, ti = query_offset + w, target_offset + w
        while qi < len(query_codes) and ti < len(target_codes):
            running += int(lookup[int(query_codes[qi]), int(target_codes[ti])])
            if running > best:
                best = running
                best_anchor = ti
            if running < best - drop:
                break
            qi += 1
            ti += 1

        # Extend left.
        running = best
        qi, ti = query_offset - 1, target_offset - 1
        left_best = running
        while qi >= 0 and ti >= 0:
            running += int(lookup[int(query_codes[qi]), int(target_codes[ti])])
            if running > left_best:
                left_best = running
            if running < left_best - drop:
                break
            qi -= 1
            ti -= 1
        return max(best, left_best), best_anchor

    def _gapped_extension(
        self, query_codes: bytes, target_codes: bytes, anchor: int
    ) -> int:
        """Smith-Waterman over a window around the seed anchor."""
        margin = self.parameters.window_margin
        window_start = max(0, anchor - len(query_codes) - margin)
        window_end = min(len(target_codes), anchor + len(query_codes) + margin)
        window = target_codes[window_start:window_end]
        self.columns_expanded += len(window)
        terminal = bytes((self.database.alphabet.terminal_code,))
        scores = best_local_scores(query_codes, window + terminal, self.matrix, self.gap_model)
        return int(scores[0])

    def _trace_alignment(self, query_text: str, target_text: str) -> Alignment:
        return SmithWatermanAligner(self.matrix, self.gap_model).align_pair(
            query_text, target_text
        )

    def __repr__(self) -> str:
        return (
            f"BlastLikeSearch(database={self.database.name!r}, matrix={self.matrix.name!r}, "
            f"word_size={self.parameters.word_size})"
        )
