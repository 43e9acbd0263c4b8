"""Peptide screening: the paper's motivating workload, end to end.

A scientist has a handful of short peptides (6-25 residues) and wants every
database protein containing a region similar to any of them -- without the
risk that a heuristic search silently drops a hit.  This example:

* generates a SWISS-PROT-like database and a ProClass-like peptide panel,
* runs every peptide through OASIS and through the BLAST-like heuristic at
  the same E-value cutoff,
* reports, per peptide, the matches OASIS found that the heuristic missed
  (the Figure 5 phenomenon), and
* shows how the online interface delivers the first hits long before the
  search completes (the Figure 9 phenomenon).

Run with::

    python examples/peptide_screening.py
"""

import time

from repro import OasisEngine
from repro.baselines import BlastLikeSearch
from repro.datagen import MotifWorkloadGenerator, SwissProtLikeGenerator
from repro.scoring import FixedGapModel, pam30


def main() -> None:
    generator = SwissProtLikeGenerator(seed=11, family_count=25, singleton_count=40)
    database = generator.generate()
    peptides = MotifWorkloadGenerator(
        generator, seed=12, query_count=8, length_range=(6, 25), mean_length=14
    ).generate()

    matrix = pam30()
    gap_model = FixedGapModel(-8)
    engine = OasisEngine.build(database, matrix=matrix, gap_model=gap_model)
    heuristic = BlastLikeSearch(database, matrix, gap_model, statistics=engine.converter.parameters)

    # An E-value threshold appropriate for this database size (Equation 3
    # scales the expected count with the database size).
    evalue = 0.1

    print(f"screening {len(peptides)} peptides against {len(database)} proteins "
          f"({database.total_symbols} residues), E <= {evalue}\n")
    print(f"{'peptide':28s} {'len':>3s} {'OASIS':>6s} {'BLAST':>6s} {'missed by heuristic':>20s}")

    total_missed = 0
    for peptide in peptides:
        exact = engine.search(peptide.text, evalue=evalue)
        approximate = heuristic.search(peptide.text, evalue=evalue)
        exact_ids = set(exact.sequence_identifiers())
        approximate_ids = set(approximate.sequence_identifiers())
        missed = sorted(exact_ids - approximate_ids)
        total_missed += len(missed)
        shown = ", ".join(missed[:2]) + ("..." if len(missed) > 2 else "")
        print(f"{peptide.text:28s} {peptide.length:3d} {len(exact_ids):6d} "
              f"{len(approximate_ids):6d} {shown:>20s}")

    print(f"\nthe heuristic missed {total_missed} matches in total; OASIS, being exact, "
          "can never miss one (Figure 5 of the paper).")

    # ------------------------------------------------------------------ #
    # Online behaviour for the first peptide.
    # ------------------------------------------------------------------ #
    peptide = peptides[0].text
    print(f"\nonline emission timeline for {peptide!r}:")
    started = time.perf_counter()
    for rank, hit in enumerate(engine.search_online(peptide, evalue=evalue), start=1):
        if rank <= 5 or rank % 10 == 0:
            print(f"  result #{rank:3d}: {hit.sequence_identifier:14s} score={hit.score:4d} "
                  f"at {1000 * (time.perf_counter() - started):6.1f} ms")
    print("  (the scientist can abort at any point; scores only ever decrease)")


if __name__ == "__main__":
    main()
