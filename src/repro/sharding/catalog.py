"""The on-disk catalog (manifest) describing a sharded index directory.

A sharded index lives in one directory::

    index-dir/
        catalog.json        <- this manifest
        database.fasta      <- the indexed sequences (the image only stores
                               structure; sequence text travels with it)
        tree.oasis          <- Section-3.4 disk image of the one suffix tree

``catalog.json`` is what makes the directory self-describing: it records the
image, the number of partitions a process scatter splits the tree's root
into, the block size and the scoring configuration the image was built with,
so that a later process can reopen the index without rebuilding anything --
and refuses, loudly, to serve it with a different configuration (a search
pruned with the wrong matrix or gap penalty would be silently wrong).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Union

from repro.sequences.database import SequenceDatabase

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.sharding.planner import ShardSpec

PathLike = Union[str, os.PathLike]

#: Bumped whenever the catalog schema or the image layout changes shape
#: (2: the images are Section-3.4 format v2; 3: one image of the whole
#: database, split into root partitions at search time).  A catalog of any
#: other version is refused on load: its images would be misread, not rejected.
CATALOG_FORMAT_VERSION = 3

#: A tree's root has at most one child per alphabet code (255 symbols plus
#: the terminal), so more partitions than this could only be empty.
MAX_PARTITIONS = 256

#: File names inside a sharded index directory.
CATALOG_FILENAME = "catalog.json"
DATABASE_FILENAME = "database.fasta"
IMAGE_FILENAME = "tree.oasis"


class CatalogError(ValueError):
    """Raised when a catalog is missing, unreadable or malformed."""


class CatalogFormatError(CatalogError):
    """Raised when a catalog was written in a format this code does not read."""


class CatalogMismatchError(CatalogError):
    """Raised when a catalog's configuration does not match the caller's."""


def check_partitions(partitions: int) -> int:
    """``partitions`` as an int, or a :class:`ValueError` outside 1..256."""
    if not 1 <= partitions <= MAX_PARTITIONS:
        raise ValueError(
            f"the partition count must be between 1 and {MAX_PARTITIONS} (one "
            f"per child of the tree's root at most), got {partitions}"
        )
    return int(partitions)


def _integer(value: Any, name: str) -> int:
    """``value`` if it is a JSON integer, or a :class:`CatalogError` naming its
    catalog field: ``2.5``, ``"2"`` and ``true`` are refused, not converted."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise CatalogError(f"catalog field {name!r} is not an integer: {value!r}")


def database_digest(database: SequenceDatabase) -> str:
    """Order-sensitive content digest of a database (identifiers + residues).

    The image encodes sequence *content and order*; counts alone cannot
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


def slice_shard(
    database: SequenceDatabase, shard: Union["ShardEntry", "ShardSpec"]
) -> SequenceDatabase:
    """A catalog entry's sequences (records are shared, not copied).

    Stays until ROADMAP item 1 moves ``bench_e2e``'s ``traced_engine`` onto
    the engine's own cursors: the index's one entry spans the database.
    """
    return SequenceDatabase(
        records=database.records[shard.start_sequence : shard.stop_sequence],
        alphabet=database.alphabet,
        name=f"{database.name}/shard-{shard.index:04d}",
    )


def config_fingerprint(matrix_name: str, gap_penalty: int, block_size: int) -> Dict[str, object]:
    """The scoring/layout configuration an image was built with.

    Everything that changes either the bytes of the image or the meaning of
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
    """Catalog row for the index's one image.

    A list of rows (:attr:`ShardCatalog.shards`) with sequence ranges stays
    until ROADMAP item 1 moves ``bench_e2e``'s ``traced_engine`` onto the
    engine's own cursors; the one row spans the whole database.
    """

    index: int
    #: Image file name, relative to the catalog's directory.
    path: str
    #: Global index of the image's first sequence (0).
    start_sequence: int
    #: Number of sequences in the image (all of them).
    sequence_count: int
    #: Total residues (no terminals) in the image.
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
    fingerprint: Dict[str, object]
    #: :func:`database_digest` of the indexed database at build time.
    database_digest: str = ""
    #: How many sets of root children a process scatter searches side by side.
    partitions: int = 1
    #: The one image (a list until ROADMAP item 1; see :class:`ShardEntry`).
    shards: List[ShardEntry] = field(default_factory=list)

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
        """Check internal consistency: one image, a partition count in range,
        an integer gap penalty and block size, and an image row of integers
        spanning the whole database whose file lies in the index directory."""
        if len(self.shards) != 1:
            raise CatalogError(f"catalog lists {len(self.shards)} images, not one")
        for name in ("gap_penalty", "block_size"):
            _integer(self.fingerprint.get(name), f"fingerprint.{name}")
        try:
            check_partitions(self.partitions)
        except ValueError as error:
            raise CatalogError(str(error)) from None
        (entry,) = self.shards
        for name in ("index", "start_sequence", "sequence_count", "residues"):
            _integer(getattr(entry, name), f"shards[0].{name}")
        for name, expected in (
            ("start_sequence", 0),
            ("sequence_count", self.sequence_count),
            ("residues", self.total_residues),
        ):
            if getattr(entry, name) != expected:
                raise CatalogError(
                    f"catalog field 'shards[0].{name}' is {getattr(entry, name)}, not "
                    f"{expected}: the one image spans the whole database"
                )
        path = entry.path
        # A plain name, with no directory part: the image lies beside the catalog.
        plain = isinstance(path, str) and path not in ("", os.curdir, os.pardir)
        if not plain or os.path.basename(path) != path:
            raise CatalogError(
                f"catalog field 'shards[0].path' is not a file name in the index "
                f"directory: {path!r}"
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
            "fingerprint": self.fingerprint,
            "database_digest": self.database_digest,
            "partitions": self.partitions,
            "shards": [asdict(entry) for entry in self.shards],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ShardCatalog":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise CatalogError(f"catalog is not valid JSON: {error}") from error
        # The version first: an older layout lacks fields this one requires.
        try:
            version = dict(payload["fingerprint"]).get("format_version")
        except (KeyError, TypeError, ValueError) as error:
            raise CatalogError(f"catalog is missing required fields: {error}") from error
        if version != CATALOG_FORMAT_VERSION:
            raise CatalogFormatError(
                f"sharded index is format v{version}, this code reads only "
                f"v{CATALOG_FORMAT_VERSION}: rebuild the index with "
                "`repro-oasis index build`"
            )
        try:
            catalog = cls(
                database_name=payload["database_name"],
                sequence_count=_integer(payload["sequence_count"], "sequence_count"),
                total_residues=_integer(payload["total_residues"], "total_residues"),
                fingerprint=dict(payload["fingerprint"]),
                database_digest=str(payload.get("database_digest", "")),
                partitions=_integer(payload["partitions"], "partitions"),
                shards=[ShardEntry(**entry) for entry in payload["shards"]],
            )
        except (KeyError, TypeError) as error:
            raise CatalogError(f"catalog is missing required fields: {error}") from error
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

    def image_path(self, directory: PathLike) -> str:
        """Path of the index's one image."""
        return self.shard_image_path(directory, self.shards[0])

    def shard_image_path(self, directory: PathLike, entry: ShardEntry) -> str:
        """Stays until ROADMAP item 1 moves ``bench_e2e``'s ``traced_engine``
        onto the engine's own cursors; :meth:`image_path` is the one image."""
        return os.path.join(str(directory), entry.path)

    def database_path(self, directory: PathLike) -> str:
        return os.path.join(str(directory), DATABASE_FILENAME)
