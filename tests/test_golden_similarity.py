"""Byte-for-byte pins of the ``similarity`` command.

The golden files under ``tests/data`` hold what ``similarity`` writes for the
bundled ``interest_switch_corpus.json`` and for ``interleaved_corpus.json``.
The latter's corpus CSV lists its columns out of order beside an extra one,
interleaves the rows of its ten devices, has blank lines and quoted commas,
quotes and newlines, and repeats texts within and across devices; its
embeddings mix integers and floats.  Every score is pinned to the bit, so a
change in the order of a device's sum, in the matmul layout or in the CSV
writer shows here.  The files change only with a documented change of
behaviour.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

import semalloc as sm
from semalloc.cli import main

DATA = Path(__file__).parent / "data"
PROBLEMS = {
    "interest_switch_corpus": sm.data_file("interest_switch_corpus.json"),
    "interleaved_corpus": DATA / "interleaved_corpus.json",
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_similarity_matches_golden_bytes(name, tmp_path):
    golden = (DATA / f"golden_similarity_{name}.csv").read_bytes()
    args = ["similarity", "--problem", str(PROBLEMS[name])]
    to_stdout = CliRunner().invoke(main, args)
    assert to_stdout.exit_code == 0, to_stdout.output
    assert to_stdout.stdout_bytes == golden
    out = tmp_path / "similarity.csv"
    to_file = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert to_file.exit_code == 0, to_file.output
    assert out.read_bytes() == golden
