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

The command joins its lines itself rather than through ``csv.writer``; the
former rows and ``csv.writer`` call stay here as the oracle for its bytes,
over generated tensors as well as the two golden files.
"""

import contextlib
import csv
import io
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import semalloc as sm
from semalloc.cli import _write_similarity, main

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


def former_similarity_rows(tensor: np.ndarray) -> list[list]:
    """The rows the command used to build: ``[w, e, i, similarity]`` in (w, e, i) order."""
    indices = np.indices(tensor.shape).reshape(3, -1).tolist()
    return list(map(list, zip(*indices, tensor.ravel().tolist())))


def former_similarity_csv(tensor: np.ndarray) -> str:
    """What the command used to write: one ``csv.writer`` call over the former rows."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["vsp", "device", "scenario", "similarity"])
    writer.writerows(former_similarity_rows(tensor))
    return buffer.getvalue()


# the ends of [0, 1], the least subnormal, a sum that is not its decimal, the float below 1
SCORES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 0.1 + 0.2, 1 - 2**-53]),
    st.floats(min_value=0.0, max_value=1.0),
)
TENSORS = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda shape: st.lists(SCORES, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
        lambda values: np.array(values, dtype=np.float64).reshape(shape)
    )
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("similarity")


@settings(max_examples=200, deadline=None)
@given(tensor=TENSORS)
def test_similarity_csv_matches_the_former_writer(workdir, tensor):
    expected = former_similarity_csv(tensor)
    out = workdir / "similarity.csv"
    _write_similarity(out, tensor)
    assert out.read_bytes() == expected.encode("utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        _write_similarity(None, tensor)
    assert stdout.getvalue() == expected
