"""The on-disk catalog (manifest) describing a sharded index directory.

A sharded index lives in one directory::

    index-dir/
        catalog.json        <- this manifest
        database.fasta      <- the indexed sequences (the images only store
                               structure; sequence text travels with them)
        shard-0000.oasis    <- Section-3.4 disk image of shard 0
        shard-0001.oasis
        ...

``catalog.json`` is what makes the directory self-describing: it records the
shard layout (sequence-id ranges, residue counts), the block size and the
scoring configuration the images were built with, so that a later process can
reopen the index without rebuilding anything -- and refuses, loudly, to serve
it with a different configuration (a search pruned with the wrong matrix or
gap penalty would be silently wrong).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Union

from repro.sequences.database import SequenceDatabase

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sharding.planner import ShardSpec

PathLike = Union[str, os.PathLike]

#: Bumped whenever the catalog schema or the image layout changes shape
#: (2: the shard images are Section-3.4 format v2).  A catalog of any other
#: version is refused on load: its images would be misread, not rejected.
CATALOG_FORMAT_VERSION = 2

#: File names inside a sharded index directory.
CATALOG_FILENAME = "catalog.json"
DATABASE_FILENAME = "database.fasta"


class CatalogError(ValueError):
    """Raised when a catalog is missing, unreadable or malformed."""


class CatalogFormatError(CatalogError):
    """Raised when a catalog was written in a format this code does not read."""


class CatalogMismatchError(CatalogError):
    """Raised when a catalog's configuration does not match the caller's."""


def database_digest(database: SequenceDatabase) -> str:
    """Order-sensitive content digest of a database (identifiers + residues).

    The shard images encode sequence *content and order*; counts alone cannot
    tell two same-size databases apart, and serving an index against the
    wrong (or reordered) FASTA silently mislabels every hit.  The digest is
    recorded at build time and re-checked on open.
    """
    digest = hashlib.sha256()
    for record in database:
        digest.update(record.identifier.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(record.text.encode("utf-8"))
        digest.update(b"\x01")
    return digest.hexdigest()


def shard_identifier(index: int) -> str:
    """Stable shard name used for file naming (``shard-0003``)."""
    return f"shard-{index:04d}"


def slice_shard(
    database: SequenceDatabase, shard: Union["ShardEntry", "ShardSpec"]
) -> SequenceDatabase:
    """One shard's sub-database (records are shared, not copied): the single
    place that owns the slice + name convention, shared by the builder (fresh
    plans) and by :meth:`~repro.sharding.ShardedEngine.open` and the process
    workers (catalog entries)."""
    return SequenceDatabase(
        records=database.records[shard.start_sequence : shard.stop_sequence],
        alphabet=database.alphabet,
        name=f"{database.name}/{shard_identifier(shard.index)}",
    )


def config_fingerprint(matrix_name: str, gap_penalty: int, block_size: int) -> Dict[str, object]:
    """The scoring/layout configuration a set of shard images was built with.

    Everything that changes either the bytes of the images or the meaning of
    a score threshold belongs here; opening a catalog with a different
    fingerprint raises :class:`CatalogMismatchError`.
    """
    return {
        "format_version": CATALOG_FORMAT_VERSION,
        "matrix": matrix_name,
        "gap_penalty": int(gap_penalty),
        "block_size": int(block_size),
    }


@dataclass(frozen=True)
class ShardEntry:
    """Catalog row for one shard."""

    index: int
    #: Image file name, relative to the catalog's directory.
    path: str
    #: Global index of the shard's first sequence.
    start_sequence: int
    #: Number of sequences in the shard.
    sequence_count: int
    #: Total residues (no terminals) in the shard.
    residues: int

    @property
    def stop_sequence(self) -> int:
        return self.start_sequence + self.sequence_count


@dataclass
class ShardCatalog:
    """The parsed ``catalog.json`` of one sharded index directory."""

    database_name: str
    sequence_count: int
    total_residues: int
    balanced_by: str
    fingerprint: Dict[str, object]
    #: :func:`database_digest` of the indexed database at build time.
    database_digest: str = ""
    shards: List[ShardEntry] = field(default_factory=list)

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def block_size(self) -> int:
        return int(self.fingerprint["block_size"])

    @property
    def matrix_name(self) -> str:
        return str(self.fingerprint["matrix"])

    @property
    def gap_penalty(self) -> int:
        return int(self.fingerprint["gap_penalty"])

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check internal consistency (shard ranges tile the database)."""
        if not self.shards:
            raise CatalogError("catalog lists no shards")
        expected_start = 0
        for entry in sorted(self.shards, key=lambda e: e.index):
            if entry.start_sequence != expected_start:
                raise CatalogError(
                    f"shard {entry.index} starts at sequence {entry.start_sequence}, "
                    f"expected {expected_start}: shard ranges must tile the database"
                )
            if entry.sequence_count < 1:
                raise CatalogError(f"shard {entry.index} is empty")
            expected_start = entry.stop_sequence
        if expected_start != self.sequence_count:
            raise CatalogError(
                f"shard ranges cover {expected_start} sequences, "
                f"catalog declares {self.sequence_count}"
            )

    def check_fingerprint(self, expected: Dict[str, object]) -> None:
        """Raise :class:`CatalogMismatchError` unless configurations agree."""
        if self.fingerprint != expected:
            differences = sorted(
                key
                for key in set(self.fingerprint) | set(expected)
                if self.fingerprint.get(key) != expected.get(key)
            )
            detail = ", ".join(
                f"{key}: catalog={self.fingerprint.get(key)!r} vs "
                f"requested={expected.get(key)!r}"
                for key in differences
            )
            raise CatalogMismatchError(
                "sharded index was built with a different configuration "
                f"({detail}); rebuild the index or open it with the "
                "configuration recorded in its catalog"
            )

    def check_database(self, database: SequenceDatabase) -> None:
        """Raise unless the supplied database matches the indexed one.

        Counts give a readable error for gross mismatches; the content digest
        catches same-size substitutions and reorderings, either of which
        would silently mislabel every hit.
        """
        if (
            len(database) != self.sequence_count
            or database.total_symbols != self.total_residues
        ):
            raise CatalogMismatchError(
                "database does not match the sharded index: catalog records "
                f"{self.sequence_count} sequences / {self.total_residues} residues, "
                f"got {len(database)} sequences / {database.total_symbols} residues"
            )
        if self.database_digest and database_digest(database) != self.database_digest:
            raise CatalogMismatchError(
                "database content does not match the sharded index: the "
                "sequences (or their order) differ from what was indexed -- "
                "rebuild the index or supply the original FASTA"
            )

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_json(self) -> str:
        payload = {
            "database_name": self.database_name,
            "sequence_count": self.sequence_count,
            "total_residues": self.total_residues,
            "balanced_by": self.balanced_by,
            "fingerprint": self.fingerprint,
            "database_digest": self.database_digest,
            "shards": [asdict(entry) for entry in self.shards],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ShardCatalog":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise CatalogError(f"catalog is not valid JSON: {error}") from error
        try:
            catalog = cls(
                database_name=payload["database_name"],
                sequence_count=int(payload["sequence_count"]),
                total_residues=int(payload["total_residues"]),
                balanced_by=payload.get("balanced_by", "residues"),
                fingerprint=dict(payload["fingerprint"]),
                database_digest=str(payload.get("database_digest", "")),
                shards=[ShardEntry(**entry) for entry in payload["shards"]],
            )
        except (KeyError, TypeError) as error:
            raise CatalogError(f"catalog is missing required fields: {error}") from error
        version = catalog.fingerprint.get("format_version")
        if version != CATALOG_FORMAT_VERSION:
            raise CatalogFormatError(
                f"sharded index is format v{version}, this code reads only "
                f"v{CATALOG_FORMAT_VERSION}: rebuild the index"
            )
        catalog.validate()
        return catalog

    def save(self, directory: PathLike) -> str:
        """Write ``catalog.json`` into ``directory``; returns the path."""
        path = os.path.join(str(directory), CATALOG_FILENAME)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
        return path

    @classmethod
    def load(cls, directory: PathLike) -> "ShardCatalog":
        """Read and validate the catalog of a sharded index directory."""
        path = os.path.join(str(directory), CATALOG_FILENAME)
        if not os.path.exists(path):
            raise CatalogError(
                f"no {CATALOG_FILENAME} in {directory!s}: not a sharded index "
                "directory (build one with ShardedIndexBuilder or "
                "`repro-oasis index build`)"
            )
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def shard_image_path(self, directory: PathLike, entry: ShardEntry) -> str:
        return os.path.join(str(directory), entry.path)

    def database_path(self, directory: PathLike) -> str:
        return os.path.join(str(directory), DATABASE_FILENAME)
