"""Tests for the repro-oasis command-line interface."""

import importlib
import json
import re
import shutil
import sys

import pytest

from repro.cli import EXPERIMENTS, main
from repro.core.kernels import available_kernels
from repro.scoring.gaps import MIN_GAP_PENALTY


def one_error_line(capsys, command):
    """The one ``repro-oasis COMMAND: error:`` line of a usage error, no traceback."""
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith(f"repro-oasis {command}: error: ")
    return line


@pytest.fixture
def generated_files(tmp_path):
    fasta = tmp_path / "proteins.fasta"
    queries = tmp_path / "queries.txt"
    code = main(
        [
            "generate",
            "--output",
            str(fasta),
            "--queries",
            str(queries),
            "--families",
            "4",
            "--singletons",
            "3",
            "--query-count",
            "5",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return fasta, queries


class TestGenerate:
    def test_writes_fasta_and_queries(self, generated_files, capsys):
        fasta, queries = generated_files
        assert fasta.exists() and queries.exists()
        assert fasta.read_text().startswith(">")
        assert len(queries.read_text().splitlines()) == 5

    def test_generate_is_deterministic(self, tmp_path):
        paths = []
        for name in ("a.fasta", "b.fasta"):
            path = tmp_path / name
            main(["generate", "--output", str(path), "--families", "2", "--singletons", "1", "--seed", "9"])
            paths.append(path.read_text())
        assert paths[0] == paths[1]


class TestSearch:
    def test_search_reports_hits(self, generated_files, capsys):
        fasta, queries = generated_files
        query = queries.read_text().splitlines()[0]
        code = main(
            ["search", "--database", str(fasta), "--query", query, "--min-score", "20"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "DP columns expanded" in output or "no alignments" in output

    def test_search_with_evalue(self, generated_files, capsys):
        fasta, _ = generated_files
        code = main(
            ["search", "--database", str(fasta), "--query", "WWWWWWWWWW", "--evalue", "0.0001"]
        )
        assert code == 0

    def test_unknown_matrix_rejected(self, generated_files):
        fasta, _ = generated_files
        with pytest.raises(SystemExit):
            main(["search", "--database", str(fasta), "--query", "MKV", "--matrix", "PAM999"])

    def test_requires_query_or_queries(self, generated_files):
        fasta, _ = generated_files
        with pytest.raises(SystemExit):
            main(["search", "--database", str(fasta), "--min-score", "20"])

    def test_kernel_flag_changes_no_output(self, generated_files, capsys):
        fasta, queries = generated_files
        query = queries.read_text().splitlines()[0]
        outputs = []
        for kernel in [[]] + [["--kernel", name] for name in available_kernels()]:
            arguments = ["search", "--database", str(fasta), "--query", query, "--min-score", "20"]
            assert main(arguments + kernel) == 0
            # The footer carries the wall time; everything else is exact.
            outputs.append(re.sub(r"in [0-9.]+s", "in Xs", capsys.readouterr().out))
        assert len(outputs) >= 3 and all(output == outputs[0] for output in outputs)
        assert "DP columns expanded" in outputs[0]

    def test_unknown_kernel_lists_those_that_run_here(self, generated_files, capsys):
        fasta, _ = generated_files
        search = ["search", "--database", str(fasta), "--query", "MKV", "--kernel", "batched"]
        assert main(search) == 2
        line = one_error_line(capsys, "search")
        assert line.endswith(f"available: {', '.join(available_kernels())}")
        assert "available: reference, live" in line

    def test_workers_below_one_is_one_line(self, generated_files, capsys):
        fasta, _ = generated_files
        assert main(["search", "--database", str(fasta), "--query", "MKV", "--workers", "0"]) == 2
        assert "--workers must be at least 1" in one_error_line(capsys, "search")


class TestOptionValuesAreUsageErrors:
    """A value the request rejects exits 2 in one line, before any index work."""

    @pytest.mark.parametrize("source", ["--database", "--index"], ids=["monolithic", "index"])
    @pytest.mark.parametrize(
        "option",
        [
            ["--timeout", "0"],
            ["--timeout", "-2"],
            ["--evalue", "-1"],
            ["--evalue", "inf"],
            ["--min-score", "0"],
            ["--max-results", "0"],
            ["--max-results", "-3"],
        ],
        ids=" ".join,
    )
    def test_bad_value_exits_2_without_a_traceback(self, tmp_path, capsys, option, source):
        # The input does not exist: reaching it would fail differently.
        arguments = ["search", source, str(tmp_path / "never-read")]
        code = main(arguments + ["--query", "MKVLAADTGLAV"] + option)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-oasis search: error: ")
        assert "Traceback" not in captured.err


class TestAnEvalueWithoutAScoreIsAUsageError:
    """An E-value Equation 3 cannot turn into a finite score exits 2 in one line."""

    @pytest.mark.parametrize(
        "evalue, message",
        [
            ("1e-320", "E-value 1e-320 is too small: Equation 3 gives no finite score"),
            ("inf", "evalue must be positive and finite, not inf"),
        ],
        ids=["vanishing", "infinite"],
    )
    @pytest.mark.parametrize("source", ["--database", "--index"])
    def test_exits_2_without_a_traceback(
        self, tmp_path, generated_files, capsys, source, evalue, message
    ):
        fasta, _ = generated_files
        target = fasta
        if source == "--index":
            target = tmp_path / "index"
            assert main(["index", "build", "--database", str(fasta), "--output", str(target)]) == 0
        capsys.readouterr()
        arguments = ["search", source, str(target), "--query", "MKVLAADTGLAV"]
        assert main(arguments + ["--evalue", evalue]) == 2
        assert message in one_error_line(capsys, "search")

    @pytest.mark.parametrize("source", ["--database", "--index"])
    def test_a_batch_is_refused_once_before_it_runs(
        self, tmp_path, generated_files, capsys, monkeypatch, source
    ):
        # No score for the shortest query means none for any: one error
        # line and exit 2, not one failed row per query and exit 1.
        fasta, queries = generated_files
        assert len(set(map(len, queries.read_text().split()))) > 1
        target = fasta
        if source == "--index":
            target = tmp_path / "index"
            assert main(["index", "build", "--database", str(fasta), "--output", str(target)]) == 0
        capsys.readouterr()
        from repro.parallel import executor

        monkeypatch.setattr(
            executor, "search_many", lambda *a, **k: pytest.fail("the batch started")
        )
        arguments = ["search", source, str(target), "--queries", str(queries)]
        assert main(arguments + ["--evalue", "1e-320"]) == 2
        line = one_error_line(capsys, "search")
        assert "E-value 1e-320 is too small: Equation 3 gives no finite score" in line


class TestForeignSymbolsAreUsageErrors:
    """A query symbol outside the database's alphabet exits 2 in one line."""

    @pytest.mark.parametrize("given_as", ["--query", "--queries"])
    @pytest.mark.parametrize("source", ["--database", "--index"])
    def test_foreign_symbol_exits_2_without_a_traceback(
        self, tmp_path, generated_files, capsys, source, given_as
    ):
        fasta, _ = generated_files
        target = fasta
        if source == "--index":
            target = tmp_path / "index"
            assert main(["index", "build", "--database", str(fasta), "--output", str(target)]) == 0
        query = "MK1Z"
        if given_as == "--queries":
            query = tmp_path / "one.txt"
            query.write_text("MK1Z\n")
        capsys.readouterr()
        code = main(["search", source, str(target), given_as, str(query), "--min-score", "15"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == (
            "repro-oasis search: error: symbol '1' at position 2 is not part of the protein alphabet"
        )


class TestBatchSearch:
    def test_batch_search_through_executor(self, generated_files, capsys):
        fasta, queries = generated_files
        code = main(
            [
                "search",
                "--database",
                str(fasta),
                "--queries",
                str(queries),
                "--workers",
                "2",
                "--min-score",
                "15",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "5 queries" in output
        assert "2 workers" in output

    def test_batch_and_serial_agree(self, generated_files, capsys):
        fasta, queries = generated_files
        main(["search", "--database", str(fasta), "--queries", str(queries), "--min-score", "15"])
        serial = capsys.readouterr().out.splitlines()
        main(
            [
                "search",
                "--database",
                str(fasta),
                "--queries",
                str(queries),
                "--workers",
                "4",
                "--min-score",
                "15",
            ]
        )
        parallel = capsys.readouterr().out.splitlines()
        # Per-query rows: query, hit count and best score must be identical;
        # only the timing columns and the summary line may differ.
        assert [line.split()[:3] for line in serial[1:6]] == [
            line.split()[:3] for line in parallel[1:6]
        ]

    def test_empty_query_file_rejected(self, tmp_path, generated_files, capsys):
        fasta, _ = generated_files
        empty = tmp_path / "empty.txt"
        empty.write_text("\n\n")
        assert main(["search", "--database", str(fasta), "--queries", str(empty)]) == 2
        assert f"no queries found in {empty}" in one_error_line(capsys, "search")

    def test_bad_query_reported_per_row_not_fatal(self, tmp_path, generated_files, capsys):
        fasta, queries = generated_files
        mixed = tmp_path / "mixed.txt"
        good = queries.read_text().splitlines()[0]
        mixed.write_text(f"{good}\nBAD1QUERY\n")
        code = main(
            ["search", "--database", str(fasta), "--queries", str(mixed), "--min-score", "15"]
        )
        assert code == 1
        output = capsys.readouterr().out
        assert "error: AlphabetError" in output
        assert "1 failed" in output

    def test_single_query_timeout_is_surfaced(self, generated_files, capsys):
        fasta, queries = generated_files
        query = queries.read_text().splitlines()[0]
        code = main(
            [
                "search",
                "--database",
                str(fasta),
                "--query",
                query,
                "--min-score",
                "15",
                "--timeout",
                "0.0000001",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "time budget" in output


class TestShardedSearch:
    def test_requires_database_or_index(self, capsys):
        assert main(["search", "--query", "MKV", "--min-score", "15"]) == 2
        assert "--database or --index" in one_error_line(capsys, "search")

    def test_an_index_that_does_not_exist_is_one_line(self, tmp_path, capsys):
        missing = tmp_path / "no-such.index"
        assert main(["search", "--index", str(missing), "--query", "MKV"]) == 2
        assert "no catalog.json" in one_error_line(capsys, "search")

    @pytest.mark.parametrize("source", ["--database", "--index"])
    def test_search_takes_no_shards_flag(self, tmp_path, generated_files, capsys, source):
        """Shards are laid out once, by ``index build``; a search only reads them."""
        fasta, _ = generated_files
        target = fasta
        if source == "--index":
            target = tmp_path / "index"
            assert main(["index", "build", "--database", str(fasta), "--output", str(target)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as raised:
            main(["search", source, str(target), "--shards", "2", "--query", "MKVLAADTGLAV"])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --shards 2" in captured.err
        assert "Traceback" not in captured.err

    def test_too_many_shards_is_a_clean_error(self, tmp_path, generated_files, capsys):
        fasta, _ = generated_files
        build = ["index", "build", "--database", str(fasta), "--output", str(tmp_path / "i")]
        assert main(build + ["--shards", "5000"]) == 2
        assert "between 1 and 256" in one_error_line(capsys, "index build")
        assert not (tmp_path / "i").exists()

    def test_no_shards_is_a_clean_error(self, tmp_path, generated_files, capsys):
        fasta, _ = generated_files
        build = ["index", "build", "--database", str(fasta), "--output", str(tmp_path / "i")]
        assert main(build + ["--shards", "0"]) == 2
        assert "--shards must be at least 1" in one_error_line(capsys, "index build")
        assert not (tmp_path / "i").exists()


class TestBackendFlag:
    @pytest.mark.parametrize(
        "backend",
        ["threads:2", "thread", "THREADS:4"],
        ids=["index", "index-thread", "index-upper"],
    )
    def test_a_thread_scatter_exits_2_naming_the_two_forms(
        self, tmp_path, generated_files, capsys, backend
    ):
        fasta, _ = generated_files
        target = tmp_path / "index"
        build = ["index", "build", "--database", str(fasta), "--output", str(target)]
        assert main(build + ["--shards", "2"]) == 0
        capsys.readouterr()
        search = ["search", "--index", str(target), "--query", "MKVLAADTGLAV", "--evalue", "20"]
        code = main(search + ["--backend", backend])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-oasis search: error: ")
        assert "'serial'" in line and "'processes[:N]'" in line
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("backend", ["serial", "processes:2", "threads"])
    def test_backend_without_index_exits_2_naming_index(self, generated_files, capsys, backend):
        fasta, _ = generated_files
        search = ["search", "--database", str(fasta), "--query", "MKV", "--min-score", "15"]
        code = main(search + ["--backend", backend])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-oasis search: error: ") and "--index" in line

    @pytest.mark.parametrize("backend", ["fibers:9", "procs:2", "sync", "process:2"])
    def test_unknown_backend_is_a_clean_error(self, tmp_path, generated_files, capsys, backend):
        """Also the retired aliases of the two scatter forms."""
        fasta, _ = generated_files
        target = tmp_path / "index"
        build = ["index", "build", "--database", str(fasta), "--output", str(target)]
        assert main(build + ["--shards", "2"]) == 0
        capsys.readouterr()
        search = ["search", "--index", str(target), "--query", "MKV", "--min-score", "15"]
        assert main(search + ["--backend", backend]) == 2
        line = one_error_line(capsys, "search")
        # The engine's scatter check refuses it, naming only the two scatter forms.
        assert f"unknown backend {backend!r}" in line
        assert "a shard scatter runs 'serial' or 'processes[:N]'" in line
        assert "threads" not in line

    @pytest.mark.parametrize("flag", [["--backend", "threads:2"], ["--by", "sequences"]])
    def test_index_build_takes_no_backend_or_by(self, tmp_path, generated_files, capsys, flag):
        """One image: nothing to fan out, nothing to balance."""
        fasta, _ = generated_files
        build = ["index", "build", "--database", str(fasta), "--output", str(tmp_path / "i")]
        with pytest.raises(SystemExit) as raised:
            main(build + flag)
        assert raised.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestIndexCommands:
    @pytest.fixture
    def index_dir(self, tmp_path, generated_files):
        fasta, _ = generated_files
        directory = tmp_path / "index"
        code = main(
            [
                "index",
                "build",
                "--database",
                str(fasta),
                "--output",
                str(directory),
                "--shards",
                "3",
            ]
        )
        assert code == 0
        return directory

    def test_build_writes_catalog_and_images(self, index_dir):
        assert (index_dir / "catalog.json").exists()
        assert (index_dir / "database.fasta").exists()
        assert sorted(p.name for p in index_dir.glob("*.oasis")) == ["tree.oasis"]

    def test_info_prints_layout(self, index_dir, capsys):
        code = main(["index", "info", str(index_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "image: tree.oasis\n" in output and output.count(".oasis") == 1
        assert "partitions: 3" in output
        assert "matrix=PAM30" in output

    def test_info_rejects_non_index_directory(self, tmp_path, capsys):
        assert main(["index", "info", str(tmp_path)]) == 2
        assert "catalog.json" in one_error_line(capsys, "index info")

    def test_non_ascii_identifier_survives_build_catalog_and_search(self, tmp_path, capsys):
        from repro.sharding import ShardCatalog

        fasta = tmp_path / "hostile.fasta"
        fasta.write_bytes(
            ">Müller-Lüdenscheidt Straße 7\nMKVLAADTGLAVWHHECRRQ\n>plain\nGGSSPPAANNDD\n".encode()
        )
        directory = tmp_path / "index"
        assert main(["index", "build", "--database", str(fasta), "--output", str(directory)]) == 0
        catalog = ShardCatalog.load(directory)
        assert catalog.sequence_count == 2
        capsys.readouterr()
        arguments = ["--index", str(directory), "--query", "MKVLAADTGLAV", "--min-score", "15"]
        assert main(["search", *arguments]) == 0
        assert "Müller-Lüdenscheidt" in capsys.readouterr().out

    @staticmethod
    def make_stale(index_dir, what):
        """Turn the index into one written in an older format: a catalog
        before one image per index, or an image before format v2."""
        if what == "catalog":
            path = index_dir / "catalog.json"
            path.write_text(
                path.read_text().replace('"format_version": 3', '"format_version": 2')
            )
        else:  # the header's version field follows the 8-byte magic
            with open(index_dir / "tree.oasis", "r+b") as handle:
                handle.seek(8)
                handle.write((1).to_bytes(2, "little"))

    @pytest.mark.parametrize("pool_bytes", [None, 2048], ids=["fits", "tight"])
    @pytest.mark.parametrize("what", ["catalog", "image"])
    def test_stale_index_is_a_typed_error_through_the_api(self, index_dir, what, pool_bytes):
        from repro.sharding import CatalogError, ShardCatalog, ShardedEngine
        from repro.storage import ImageFormatError

        self.make_stale(index_dir, what)
        expected = CatalogError if what == "catalog" else ImageFormatError
        # The default pool fits every image (read into memory); 2048 bytes
        # is one block, below each (searched through the clock pool).
        pool = {} if pool_bytes is None else {"buffer_pool_bytes": pool_bytes}
        versions = "v2.*v3" if what == "catalog" else "v1.*v2"
        with pytest.raises(expected, match=f"{versions}.*rebuild the index"):
            ShardedEngine.open(index_dir, **pool)
        if what == "catalog":
            with pytest.raises(CatalogError, match="rebuild the index"):
                ShardCatalog.load(index_dir)

    @pytest.mark.parametrize("what", ["catalog", "image"])
    @pytest.mark.parametrize(
        "name, arguments",
        [
            ("search", ["search", "--query", "MKVLAADTGLAV", "--min-score", "15", "--index"]),
            ("index info", ["index", "info"]),
        ],
        ids=["search", "info"],
    )
    def test_stale_index_exits_2_in_one_line(self, index_dir, capsys, name, arguments, what):
        self.make_stale(index_dir, what)
        capsys.readouterr()
        code = main(arguments + [str(index_dir)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro-oasis {name}: error: ") and "rebuild the index" in line
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("fingerprint.matrix", "NO-SUCH-MATRIX", "unknown matrix 'NO-SUCH-MATRIX'"),
            ("partitions", "abc", "is not an integer: 'abc'"),
            ("fingerprint.gap_penalty", "abc", "is not an integer: 'abc'"),
        ],
        ids=["unknown-matrix", "partitions", "gap-penalty"],
    )
    def test_hostile_catalog_field_exits_2_naming_it(
        self, index_dir, capsys, field, value, message
    ):
        from repro.sharding import CatalogError, ShardedEngine

        path = index_dir / "catalog.json"
        catalog = json.loads(path.read_text())
        *parents, name = field.split(".")
        target = catalog
        for parent in parents:
            target = target[parent]
        target[name] = value
        path.write_text(json.dumps(catalog))
        with pytest.raises(CatalogError, match=re.escape(f"catalog field '{field}'")):
            ShardedEngine.open(index_dir)
        capsys.readouterr()
        arguments = ["--query", "MKVLAADTGLAV", "--min-score", "15", "--index", str(index_dir)]
        assert main(["search", *arguments]) == 2
        line = one_error_line(capsys, "search")
        assert f"'{field}'" in line and message in line

    @pytest.mark.parametrize(
        "field, spoil",
        [
            ("partitions", lambda count: count - 0.5),
            ("sequence_count", lambda count: count + 0.5),
            ("partitions", lambda count: True),
            ("partitions", str),
            ("partitions", lambda count: count - 1),
        ],
        ids=["float", "float-sequence-count", "bool", "string", "integer"],
    )
    def test_a_catalog_integer_is_a_json_integer(self, index_dir, capsys, field, spoil):
        """``2.5``, ``true`` and ``"2"`` are refused, not truncated or converted."""
        from repro.sharding import CatalogError, ShardCatalog

        path = index_dir / "catalog.json"
        catalog = json.loads(path.read_text())
        value = catalog[field] = spoil(catalog[field])
        path.write_text(json.dumps(catalog))
        capsys.readouterr()
        arguments = ["--query", "MKVLAADTGLAV", "--min-score", "15", "--index", str(index_dir)]
        code = main(["search", *arguments])
        if type(value) is int:
            assert code == 0 and ShardCatalog.load(index_dir).partitions == value
            return
        assert code == 2
        line = one_error_line(capsys, "search")
        assert f"catalog field '{field}' is not an integer: {value!r}" in line
        with pytest.raises(CatalogError, match=f"catalog field '{field}'"):
            ShardCatalog.load(index_dir)

    @pytest.mark.parametrize(
        "field, spoil, message",
        [
            ("residues", lambda value: "abc", "is not an integer: 'abc'"),
            ("residues", lambda value: value + 1, "not {value}: the one image spans"),
            ("sequence_count", lambda value: 2.5, "is not an integer: 2.5"),
            ("start_sequence", lambda value: 7, "is 7, not 0: the one image spans"),
            ("path", lambda value: f"../outside/{value}", "is not a file name in the index"),
        ],
        ids=["residues-string", "residues-count", "sequence-count-float", "start", "path"],
    )
    @pytest.mark.parametrize(
        "name, arguments",
        [
            ("search", ["search", "--query", "MKVLAADTGLAV", "--min-score", "15", "--index"]),
            ("index info", ["index", "info"]),
        ],
        ids=["search", "info"],
    )
    def test_a_spoiled_image_row_exits_2_naming_its_field(
        self, index_dir, capsys, field, spoil, message, name, arguments
    ):
        """The catalog's one image row is integers spanning the whole
        database, and its path a file name beside the catalog: a copy of the
        index next to it, which a path may point into, is not read."""
        shutil.copytree(index_dir, index_dir.parent / "outside")
        path = index_dir / "catalog.json"
        catalog = json.loads(path.read_text())
        value = catalog["shards"][0][field]
        catalog["shards"][0][field] = spoil(value)
        path.write_text(json.dumps(catalog))
        capsys.readouterr()
        assert main(arguments + [str(index_dir)]) == 2
        line = one_error_line(capsys, name)
        assert f"catalog field 'shards[0].{field}'" in line
        assert message.format(value=value) in line

    @pytest.mark.parametrize(
        "name, arguments",
        [
            ("search", ["search", "--query", "MKVLAADTGLAV", "--min-score", "15", "--index"]),
            ("index info", ["index", "info"]),
        ],
        ids=["search", "info"],
    )
    def test_an_index_of_sequence_range_images_exits_2_naming_the_rebuild(
        self, tmp_path, capsys, name, arguments
    ):
        """A catalog as the sequence-range layout wrote it: format v2, two images."""
        directory = tmp_path / "old.index"
        directory.mkdir()
        shard = {"residues": 50, "sequence_count": 2}
        (directory / "catalog.json").write_text(
            json.dumps(
                {
                    "balanced_by": "residues",
                    "database_digest": "",
                    "database_name": "old.fasta",
                    "fingerprint": {
                        "block_size": 2048,
                        "format_version": 2,
                        "gap_penalty": -8,
                        "matrix": "PAM30",
                    },
                    "sequence_count": 4,
                    "shards": [
                        dict(shard, index=0, path="shard-0000.oasis", start_sequence=0),
                        dict(shard, index=1, path="shard-0001.oasis", start_sequence=2),
                    ],
                    "total_residues": 100,
                }
            )
        )
        code = main(arguments + [str(directory)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro-oasis {name}: error: ")
        assert "v2" in line and "`repro-oasis index build`" in line
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("pool_bytes", [None, 2048], ids=["fits", "tight"])
    def test_truncated_image_is_a_typed_error_through_the_api(self, index_dir, pool_bytes):
        from repro.sharding import ShardedEngine
        from repro.storage import ImageFormatError

        image = index_dir / "tree.oasis"
        size = image.stat().st_size
        with open(image, "r+b") as handle:
            handle.truncate(size - 2048)
        pool = {} if pool_bytes is None else {"buffer_pool_bytes": pool_bytes}
        with pytest.raises(ImageFormatError, match=f"{size - 2048} bytes.*describes {size}"):
            ShardedEngine.open(index_dir, **pool)

    def test_truncated_image_exits_2_in_one_line(self, index_dir, capsys):
        image = index_dir / "tree.oasis"
        size = image.stat().st_size
        with open(image, "r+b") as handle:
            handle.truncate(size - 2048)  # one default block
        capsys.readouterr()
        code = main(
            ["search", "--query", "MKVLAADTGLAV", "--min-score", "15", "--index", str(index_dir)]
        )
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro-oasis search: error: ")
        assert f"{size - 2048} bytes" in line and f"describes {size}" in line
        assert "truncated" in line and "Traceback" not in captured.err

    def test_search_reuses_persisted_index(self, index_dir, generated_files, capsys):
        fasta, queries = generated_files
        main(["search", "--database", str(fasta), "--queries", str(queries), "--min-score", "15"])
        monolithic = capsys.readouterr().out.splitlines()
        # No --database: sequences come from the FASTA bundled in the index.
        code = main(
            ["search", "--index", str(index_dir), "--queries", str(queries), "--min-score", "15"]
        )
        assert code == 0
        sharded = capsys.readouterr().out.splitlines()
        assert [line.split()[:3] for line in monolithic[1:6]] == [
            line.split()[:3] for line in sharded[1:6]
        ]

    def test_search_index_with_process_backend(self, index_dir, generated_files, capsys):
        fasta, queries = generated_files
        main(["search", "--database", str(fasta), "--queries", str(queries), "--min-score", "15"])
        monolithic = capsys.readouterr().out.splitlines()
        code = main(
            [
                "search",
                "--index",
                str(index_dir),
                "--queries",
                str(queries),
                "--backend",
                "processes:2",
                "--min-score",
                "15",
            ]
        )
        assert code == 0
        sharded = capsys.readouterr().out.splitlines()
        assert [line.split()[:3] for line in monolithic[1:6]] == [
            line.split()[:3] for line in sharded[1:6]
        ]

    @pytest.mark.parametrize("option", [["--gap", "-4"], ["--matrix", "BLOSUM62"]])
    def test_search_index_rejects_mismatched_config(
        self, index_dir, generated_files, capsys, option
    ):
        _, queries = generated_files
        capsys.readouterr()
        search = ["search", "--index", str(index_dir), "--queries", str(queries)]
        assert main(search + ["--min-score", "15", *option]) == 2
        assert "different configuration" in one_error_line(capsys, "search")


class TestTelemetryFlags:
    @pytest.fixture
    def index_dir(self, tmp_path, generated_files):
        fasta, _ = generated_files
        directory = tmp_path / "trace-index"
        code = main(
            [
                "index",
                "build",
                "--database",
                str(fasta),
                "--output",
                str(directory),
                "--shards",
                "4",
            ]
        )
        assert code == 0
        return directory

    def test_trace_writes_a_valid_jsonl_file(self, index_dir, generated_files, tmp_path, capsys):
        from repro.obs.recording import load, validate

        _, queries = generated_files
        trace = tmp_path / "trace.jsonl"
        code = main(
            [
                "search",
                "--index",
                str(index_dir),
                "--queries",
                str(queries),
                "--backend",
                "processes:2",
                "--min-score",
                "15",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        assert "spans to" in capsys.readouterr().err
        recording = load(trace)
        assert validate(recording) == []
        assert {record.name for record in recording.spans} >= {"batch", "query", "shard", "merge"}

    def test_output_into_a_missing_directory_exits_2_in_one_line(
        self, index_dir, tmp_path, capsys
    ):
        missing = tmp_path / "no-such-directory" / "out"
        code = main(
            [
                "search",
                "--index",
                str(index_dir),
                "--query",
                "MKVLAADTGLAV",
                "--min-score",
                "15",
                "--trace",
                str(missing),
            ]
        )
        assert code == 2
        line = one_error_line(capsys, "search")
        assert "cannot write the --trace file" in line and str(missing) in line
        assert not missing.parent.exists()

    def test_trace_file_is_overwritten_not_appended(self, generated_files, tmp_path):
        from repro.obs.recording import load, validate

        fasta, queries = generated_files
        trace = tmp_path / "trace.jsonl"
        args = [
            "search",
            "--database",
            str(fasta),
            "--queries",
            str(queries),
            "--min-score",
            "15",
            "--trace",
            str(trace),
        ]
        assert main(args) == 0
        first = load(trace)
        assert main(args) == 0
        second = load(trace)
        # A rerun replaces the file: one run, one coherent trace.
        assert len(second.spans) == len(first.spans)
        assert validate(second) == []

    def test_metrics_flag_prints_the_search_statistics(self, generated_files, capsys):
        fasta, queries = generated_files
        code = main(
            [
                "search",
                "--database",
                str(fasta),
                "--queries",
                str(queries),
                "--min-score",
                "15",
                "--metrics",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert "--- metrics ---" in lines
        values = dict(line.split(" = ") for line in lines if " = " in line)
        assert int(values["queries"]) == len(queries.read_text().split())
        assert int(values["nodes_expanded"]) > 0
        # The columns line is the number the summary prints.
        assert f"{values['columns_expanded']} DP columns expanded" in captured.out
        assert not [name for name in values if name.startswith(("search.", "pool."))]

    def test_verbose_flag_logs_to_stderr(self, generated_files, capsys):
        fasta, queries = generated_files
        code = main(
            [
                "-v",
                "search",
                "--database",
                str(fasta),
                "--queries",
                str(queries),
                "--min-score",
                "15",
            ]
        )
        assert code == 0
        # restore the quiet default before asserting, so a failure here
        # cannot leak INFO logging into other tests
        from repro.obs import configure_logging

        configure_logging(0)
        err = capsys.readouterr().err
        assert "repro." in err

    def test_quiet_by_default(self, generated_files, capsys):
        fasta, queries = generated_files
        code = main(
            [
                "search",
                "--database",
                str(fasta),
                "--queries",
                str(queries),
                "--min-score",
                "15",
            ]
        )
        assert code == 0
        assert "repro." not in capsys.readouterr().err

    def test_index_info_reports_image_sizes(self, index_dir, capsys):
        code = main(["index", "info", str(index_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "bytes/residue" in output
        assert "on disk:" in output


class TestInputsAreUsageErrors:
    """An input the command cannot use exits 2 in one line, creating nothing."""

    @pytest.mark.parametrize("block_size", ["0", "10", "64"])
    def test_a_block_below_the_header_is_refused_before_any_directory(
        self, tmp_path, generated_files, capsys, block_size
    ):
        fasta, _ = generated_files
        output = tmp_path / "tiny-block.index"
        build = ["index", "build", "--database", str(fasta), "--output", str(output)]
        assert main(build + ["--block-size", block_size]) == 2
        line = one_error_line(capsys, "index build")
        assert f"block size {block_size} " in line and "minimum of 70 bytes" in line
        assert not output.exists()

    def test_a_block_above_the_header_field_is_refused_before_any_directory(
        self, tmp_path, generated_files, capsys
    ):
        fasta, _ = generated_files
        output = tmp_path / "huge-block.index"
        build = ["index", "build", "--database", str(fasta), "--output", str(output)]
        assert main(build + ["--block-size", "99999999999"]) == 2
        line = one_error_line(capsys, "index build")
        assert "block size 99999999999 " in line and "maximum of 4294967295 bytes" in line
        assert not output.exists()

    @pytest.mark.parametrize(
        "command, arguments",
        [
            ("search", ["search", "--database", "{fasta}", "--query", "MKV"]),
            ("index build", ["index", "build", "--database", "{fasta}", "--output", "{tmp}/index"]),
        ],
        ids=["search", "index-build"],
    )
    def test_a_gap_past_the_bound_is_one_line_before_any_directory(
        self, tmp_path, generated_files, capsys, command, arguments
    ):
        """A penalty the compiled step cannot hold is refused up front, not
        written into an index whose every search then overflows."""
        fasta, _ = generated_files
        arguments = [arg.format(tmp=tmp_path, fasta=fasta) for arg in arguments]
        assert main(arguments + ["--gap", "-1000000000000000000000"]) == 2
        line = one_error_line(capsys, command)
        assert f"must be at least {MIN_GAP_PENALTY}" in line
        assert not (tmp_path / "index").exists()

    @pytest.mark.parametrize("source", ["database", "index"])
    def test_the_most_negative_accepted_gap_searches_alike_on_every_kernel(
        self, tmp_path, generated_files, capsys, source
    ):
        """At the bound itself the compiled step holds every score, so no
        kernel overflows and all print the same hits."""
        fasta, queries = generated_files
        gap = ["--gap", str(MIN_GAP_PENALTY)]
        target = ["--database", str(fasta), *gap]
        if source == "index":
            index = tmp_path / "index"
            build = ["index", "build", "--database", str(fasta), "--output", str(index)]
            assert main(build + gap) == 0
            assert main(["index", "info", str(index)]) == 0
            assert f"gap={MIN_GAP_PENALTY}," in capsys.readouterr().out
            target = ["--index", str(index)]
        query = queries.read_text().splitlines()[0]
        kernels = available_kernels()
        outputs = []
        for kernel in kernels:
            arguments = ["search", *target, "--query", query, "--min-score", "20"]
            assert main(arguments + ["--kernel", kernel]) == 0
            outputs.append(re.sub(r"in [0-9.]+s", "in Xs", capsys.readouterr().out))
        assert len(kernels) >= 2 and all(output == outputs[0] for output in outputs)
        assert "DP columns expanded" in outputs[0]

    def test_an_index_with_a_gap_past_the_bound_is_refused_on_open(
        self, tmp_path, generated_files, capsys
    ):
        """A catalog written before the bound existed cannot reach the
        compiled step: opening it is the same one-line error."""
        from repro.sharding import ShardedEngine

        fasta, _ = generated_files
        index = tmp_path / "index"
        assert main(["index", "build", "--database", str(fasta), "--output", str(index)]) == 0
        path = index / "catalog.json"
        catalog = json.loads(path.read_text())
        catalog["fingerprint"]["gap_penalty"] = -(10**21)
        path.write_text(json.dumps(catalog))
        with pytest.raises(ValueError, match=f"at least {MIN_GAP_PENALTY}, not {-(10**21)}"):
            ShardedEngine.open(index)
        capsys.readouterr()
        search = ["search", "--index", str(index), "--query", "MKVLAADTGLAV", "--min-score", "15"]
        assert main(search) == 2
        assert f"must be at least {MIN_GAP_PENALTY}" in one_error_line(capsys, "search")

    @pytest.mark.parametrize(
        "command, arguments",
        [
            ("search", ["search", "--query", "MKV", "--database"]),
            ("index build", ["index", "build", "--output", "{tmp}/index", "--database"]),
            ("search", ["search", "--database", "{fasta}", "--queries"]),
        ],
        ids=["search-database", "index-build-database", "search-queries"],
    )
    def test_a_missing_input_file_is_named(
        self, tmp_path, generated_files, capsys, command, arguments
    ):
        fasta, _ = generated_files
        missing = tmp_path / "missing.txt"
        arguments = [arg.format(tmp=tmp_path, fasta=fasta) for arg in arguments]
        assert main(arguments + [str(missing)]) == 2
        assert str(missing) in one_error_line(capsys, command)
        assert not (tmp_path / "index").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--families", "-1", "non-negative"),
            ("--singletons", "-2", "non-negative"),
            ("--query-count", "0", "--query-count must be at least 1"),
        ],
    )
    def test_a_bad_generate_count_is_one_line(self, tmp_path, capsys, flag, value, message):
        output = tmp_path / "db.fasta"
        queries = ["--queries", str(tmp_path / "q.txt")]
        assert main(["generate", "--output", str(output), *queries, flag, value]) == 2
        assert message in one_error_line(capsys, "generate")
        assert not output.exists()

    @pytest.mark.parametrize("flag", ["--output", "--queries"])
    def test_generate_into_a_missing_directory_is_one_line(self, tmp_path, capsys, flag):
        paths = {"--output": tmp_path / "db.fasta", "--queries": tmp_path / "q.txt"}
        paths[flag] = tmp_path / "no-such-directory" / paths[flag].name
        arguments = [part for pair in paths.items() for part in (pair[0], str(pair[1]))]
        assert main(["generate", *arguments]) == 2
        line = one_error_line(capsys, "generate")
        assert str(paths[flag]) in line and "no directory" in line
        assert not any(path.exists() for path in paths.values())

    def test_an_unknown_scale_in_the_environment_is_one_line(self, monkeypatch, capsys):
        monkeypatch.setenv("OASIS_BENCH_SCALE", "huge")
        assert main(["experiment", "space"]) == 2
        line = one_error_line(capsys, "experiment")
        assert "unknown scale 'huge'" in line and "medium, small, tiny" in line

    def test_an_unknown_scale_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["experiment", "space", "--scale", "gigantic"])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'gigantic'" in err and "'tiny'" in err
        assert "Traceback" not in err


class TestExperimentCommand:
    def test_runs_space_experiment(self, capsys):
        code = main(["experiment", "space", "--scale", "tiny"])
        assert code == 0
        assert "bytes/symbol" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_every_experiment_name_has_a_driver(self):
        assert len(EXPERIMENTS) == 8
        for module in EXPERIMENTS.values():
            assert callable(importlib.import_module(f"repro.experiments.{module}").run)

    def test_an_unknown_experiment_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["experiment", "figure10", "--scale", "tiny"])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'figure10'" in err and "'space'" in err


class TestSlowLogAndMetrics:
    @pytest.fixture
    def sharded_files(self, tmp_path, generated_files):
        """A 2-shard index and the queries: sharded runs have every phase."""
        fasta, queries = generated_files
        index = tmp_path / "index"
        build = ["index", "build", "--database", str(fasta), "--output", str(index)]
        assert main(build + ["--shards", "2"]) == 0
        return index, queries

    def _search(self, index, queries, *extra):
        return [
            "search",
            "--index",
            str(index),
            "--queries",
            str(queries),
            "--min-score",
            "15",
            *extra,
        ]

    @pytest.mark.parametrize("backend", ["serial", "processes:2"])
    def test_slow_log_prints_phase_breakdown(self, sharded_files, capsys, backend):
        index, queries = sharded_files
        code = main(self._search(index, queries, "--slow-log", "0", "--backend", backend))
        assert code == 0
        err = capsys.readouterr().err
        assert "--- slow queries (>= 0s) ---" in err
        assert "query span" in err
        if backend == "serial":
            # The index's one search is one query span, all DP expansion.
            assert "phase=expand" in err
            assert "shard" not in err and "scatter" not in err
        else:
            # A process scatter decomposes into scatter/shard/merge phases.
            assert "shard" in err
            assert "scatter" in err

    def test_unreachable_threshold_logs_nothing(self, sharded_files, capsys):
        index, queries = sharded_files
        code = main(self._search(index, queries, "--slow-log", "999"))
        assert code == 0
        assert "slow queries" not in capsys.readouterr().err

    def test_negative_slow_log_rejected(self, sharded_files, capsys):
        index, queries = sharded_files
        capsys.readouterr()
        assert main(self._search(index, queries, "--slow-log", "-1")) == 2
        assert "--slow-log must be non-negative" in one_error_line(capsys, "search")

    def test_nan_slow_log_rejected(self, sharded_files, capsys):
        index, queries = sharded_files
        capsys.readouterr()
        assert main(self._search(index, queries, "--slow-log", "nan")) == 2
        assert "--slow-log must be non-negative, not nan" in one_error_line(capsys, "search")

    def test_metrics_dump_includes_latency_percentiles(self, sharded_files, capsys):
        index, queries = sharded_files
        code = main(self._search(index, queries, "--workers", "2", "--metrics"))
        assert code == 0
        values = dict(
            line.split(" = ") for line in capsys.readouterr().err.splitlines() if " = " in line
        )
        p50, p90, p99 = (float(values[f"elapsed_seconds_p{p}"]) for p in (50, 90, 99))
        assert 0 < p50 <= p90 <= p99

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is Linux procfs")
    def test_metrics_dump_includes_the_peak_rss(self, sharded_files, capsys):
        index, queries = sharded_files
        assert main(self._search(index, queries, "--metrics")) == 0
        (line,) = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("peak_rss_mb = ")
        ]
        assert float(line.split()[2]) > 1

    def test_an_interrupted_batch_still_writes_its_trace(
        self, generated_files, tmp_path, monkeypatch, capsys
    ):
        """Ctrl-C mid-batch: the trace, the metrics and the slow log are
        written on the way out, and the trace is one valid tree."""
        from repro.core.engine import OasisEngine
        from repro.obs.__main__ import main as obs_main

        original = OasisEngine.execute
        calls = []

        def interrupted_on_the_second_query(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return original(self, *args, **kwargs)

        monkeypatch.setattr(OasisEngine, "execute", interrupted_on_the_second_query)
        fasta, queries = generated_files
        trace = tmp_path / "trace.jsonl"
        search = [
            "search",
            "--database",
            str(fasta),
            "--queries",
            str(queries),
            "--min-score",
            "15",
            "--trace",
            str(trace),
            "--metrics",
            "--slow-log",
            "0",
        ]
        with pytest.raises(KeyboardInterrupt):
            main(search)
        err = capsys.readouterr().err
        assert "spans to" in err and "--- metrics ---" in err and "slow queries" in err
        # The one query that finished before Ctrl-C.
        assert "queries = 1" in err.splitlines()
        assert obs_main(["validate", str(trace)]) == 0
        assert "ok: " in capsys.readouterr().out
