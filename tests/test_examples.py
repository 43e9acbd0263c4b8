"""The README's examples run: each ``examples/*.py`` exits 0 and prints its last line.

Each runs in a fresh interpreter with ``PYTHONPATH=src``, as the README tells
a reader to run it (about 1.5 s for the three).  The closing line is the one
each script prints last, up to what varies from run to run (timings).
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Each example and the start of the last line it prints.
CLOSING_LINES = {
    "quickstart.py": "accuracy check: OASIS scores identical to Smith-Waterman for every sequence",
    "peptide_screening.py": "  (the scientist can abort at any point; scores only ever decrease)",
    "disk_resident_index.py": "nucleotide demo: probe of 24 nt found in ",
}


def test_every_example_is_run():
    assert sorted(CLOSING_LINES) == sorted(
        name for name in os.listdir(os.path.join(REPO_ROOT, "examples")) if name.endswith(".py")
    )


@pytest.mark.parametrize("script", sorted(CLOSING_LINES))
def test_the_example_runs_to_its_closing_line(script, tmp_path):
    finished = subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "examples", script)],
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src")),
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert finished.returncode == 0, finished.stderr
    assert finished.stdout.splitlines()[-1].startswith(CLOSING_LINES[script]), finished.stdout
