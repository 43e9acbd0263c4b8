"""Disk-resident index: the Section 3.4 representation and the buffer pool.

For databases that dwarf main memory the suffix tree must live on disk.  This
example builds the three-region block image (symbols / internal nodes / leaf
nodes), searches through it with differently sized buffer pools, and prints
the per-component hit ratios -- the quantities behind Figures 7 and 8 of the
paper.  It also reports the index's space utilisation next to the paper's
12.5 bytes per symbol.

Run with::

    python examples/disk_resident_index.py
"""

import os
import tempfile

from repro import OasisEngine
from repro.datagen import GenomeGenerator, MotifWorkloadGenerator, SwissProtLikeGenerator
from repro.scoring import FixedGapModel, nucleotide_matrix, pam30
from repro.storage import DiskSuffixTree, Region, build_disk_image


def protein_index_demo(image_path: str) -> None:
    generator = SwissProtLikeGenerator(seed=3, family_count=20, singleton_count=25)
    database = generator.generate()
    queries = MotifWorkloadGenerator(generator, seed=4, query_count=5).generate().texts()

    layout = build_disk_image(database, image_path, block_size=2048)
    print(f"database: {database.total_symbols} residues in {len(database)} sequences")
    print(f"index   : {layout.index_size_bytes / 1024:.0f} KiB on disk "
          f"({layout.bytes_per_symbol:.1f} bytes/symbol; the paper reports 12.5)\n")

    matrix, gap_model = pam30(), FixedGapModel(-8)
    print(f"{'pool':>10s} {'hit ratio':>10s} {'symbols':>9s} {'internal':>9s} {'leaves':>8s}")
    for fraction in (0.05, 0.25, 1.0):
        pool_bytes = max(2048, int(layout.index_size_bytes * fraction))
        disk_tree = DiskSuffixTree(image_path, database, buffer_pool_bytes=pool_bytes)
        engine = OasisEngine(disk_tree, matrix, gap_model)
        for query in queries:
            engine.search(query, evalue=0.1)
        stats = disk_tree.statistics
        print(f"{pool_bytes // 1024:9d}K {stats.hit_ratio:10.3f} "
              f"{stats.region_hit_ratio(Region.SYMBOLS):9.3f} "
              f"{stats.region_hit_ratio(Region.INTERNAL_NODES):9.3f} "
              f"{stats.region_hit_ratio(Region.LEAF_NODES):8.3f}")
        disk_tree.close()
    print("\nnote how the leaves keep up with the internal nodes: image format v2 "
          "lays both out with siblings contiguous (the paper chains its leaves).")


def nucleotide_demo() -> None:
    """The paper also evaluates a genomic (Drosophila) workload; same API."""
    genome = GenomeGenerator(seed=5, contig_count=4, contig_length=(2_000, 4_000)).generate()
    engine = OasisEngine.build(genome, matrix=nucleotide_matrix(), gap_model=FixedGapModel(-2))
    probe = genome[0].text[100:124]
    result = engine.search(probe, min_score=18)
    print(f"\nnucleotide demo: probe of {len(probe)} nt found in "
          f"{len(result)} contigs (best score {result.best_score})")


def main() -> None:
    handle = tempfile.NamedTemporaryFile(suffix=".oasis", delete=False)
    handle.close()
    try:
        protein_index_demo(handle.name)
        nucleotide_demo()
    finally:
        os.unlink(handle.name)


if __name__ == "__main__":
    main()
