"""The smallest cold search: FASTA or index in, ``identifier score`` lines out.

``dna_long`` takes its ``cold_total_p50_ms`` from this script (the CLI is
protein-only), and ``cli.overhead_ms`` is the CLI's cold time minus this
script's on the same input.  It imports ``repro`` like any user script.
"""

from __future__ import annotations

import argparse
import sys

from repro import OasisEngine, ShardedEngine
from repro.scoring.data import load_matrix, nucleotide_matrix
from repro.scoring.gaps import FixedGapModel
from repro.sequences.alphabet import DNA_ALPHABET, PROTEIN_ALPHABET
from repro.sequences.fasta import read_fasta


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--alphabet", choices=("protein", "dna"), required=True)
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--database")
    source.add_argument("--index")
    parser.add_argument("--query", required=True)
    parser.add_argument("--min-score", type=int, required=True)
    args = parser.parse_args()

    if args.index is not None:
        engine = ShardedEngine.open(args.index)
    elif args.alphabet == "protein":
        engine = OasisEngine.build(
            read_fasta(args.database, alphabet=PROTEIN_ALPHABET),
            load_matrix("PAM30"), FixedGapModel(-8),
        )
    else:
        engine = OasisEngine.build(
            read_fasta(args.database, alphabet=DNA_ALPHABET),
            nucleotide_matrix(1, -3), FixedGapModel(-4),
        )
    try:
        for hit in engine.execute(args.query, min_score=args.min_score):
            print(hit.sequence_identifier, hit.score)
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
