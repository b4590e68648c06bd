"""Differential tests of the bulk corpus and embeddings readers.

``dictreader_load_corpora_csv`` is the loader ``similarity`` used before it
read flat columns: one ``csv.DictReader`` row at a time.  It stays here as
the oracle, with one change: an error names the file line on which the bad
record ends (``line_num``), not the record's number.  Every mutated CSV must
give the same corpora from ``load_corpora_csv``, or the same exception type
and message.

``FileEmbeddings`` builds its matrix in one call when every vector is a
non-empty list of ints and floats of one length, and checks the vectors one
by one otherwise.  Both paths must give the same matrix bits, or the same
error.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semalloc import CategoryCorpus, ConfigurationError, FileEmbeddings
from semalloc import similarity
from semalloc.similarity import _read_corpus_columns, load_corpora_csv


def dictreader_load_corpora_csv(path):
    """The former loader; only its line number is the reader's ``line_num``."""
    rows = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        required = {"device_id", "category", "count"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigurationError(
                f"{path}: corpus CSV must have header device_id,category,count"
            )
        for row in reader:
            line = reader.reader.line_num
            try:
                device_id = int(row["device_id"])
                count = int(row["count"])
            except (TypeError, ValueError):
                raise ConfigurationError(f"{path}:{line}: malformed corpus row {row}") from None
            if count < 1:
                raise ConfigurationError(
                    f"{path}:{line}: corpus counts must be positive integers, got {count}"
                    f" for {row['category']!r}"
                )
            rows.setdefault(device_id, []).append((row["category"], count))
    return {
        device_id: CategoryCorpus(device_id, tuple(entries))
        for device_id, entries in rows.items()
    }


def outcome(load, path):
    try:
        return "ok", list(load(path).items())
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc).__name__, str(exc)


TEXTS = ["bus lane", "wet road", "a, b", 'say "hi"', "two\nlines", "", " padded ", "None", "tree"]
NAMES = ["device_id", "category", "count"]
BAD_INTEGERS = ["x", "1.5", "", " 2 ", "+3", "1_0", "٣", "0x1", "None"]


@st.composite
def corpus_csvs(draw):
    """CSV text: reordered and extra columns, blank lines, short and long
    rows, quoted commas and newlines, bad ids and counts, counts <= 0 and
    devices interleaved across rows."""
    names = draw(st.permutations(NAMES + draw(st.lists(st.sampled_from(["note", "count", "", "x"]), max_size=2))))
    if draw(st.integers(0, 9)) == 0:
        names = [name for name in names if name != draw(st.sampled_from(NAMES))]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(names)
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 15))
        if kind == 0:
            out.write("\n")
            continue
        fields = {
            "device_id": str(draw(st.integers(0, 4))),
            "category": draw(st.sampled_from(TEXTS)),
            "count": str(draw(st.integers(1, 20))),
        }
        if kind == 1:
            fields[draw(st.sampled_from(["device_id", "count"]))] = draw(st.sampled_from(BAD_INTEGERS))
        elif kind == 2:
            fields["count"] = str(draw(st.integers(-3, 0)))
        row = [fields.get(name, "extra") for name in names]
        if kind == 3:
            row = row[: draw(st.integers(0, len(row)))]
        elif kind == 4:
            row += ["surplus"] * draw(st.integers(1, 2))
        writer.writerow(row)
    return out.getvalue()


@settings(max_examples=200, deadline=None)
@given(text=corpus_csvs())
def test_loader_matches_the_dictreader_loader(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "corpus.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = outcome(dictreader_load_corpora_csv, path)
    assert outcome(load_corpora_csv, path) == expected
    if expected[0] == "ok":
        # the columns group entries by ascending device id, each device in file order
        corpora = dict(expected[1])
        columns = _read_corpus_columns(path)
        entries = [entry for device_id in sorted(corpora) for entry in corpora[device_id].entries]
        assert columns.texts == [text for text, _ in entries]
        assert columns.counts == [count for _, count in entries]
        sizes = [len(corpora[device_id].entries) for device_id in sorted(corpora)]
        assert columns.starts == np.cumsum([0, *sizes])[:-1].tolist()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\ndevice_id,category,count\n0,a,1\n",
        "device_id,category,count\n",
        "count,device_id,category,count\n1,0,a\n",
        "count,device_id,category,count\n0,0,a,2\n",
        "device_id,count,category\n0,2\n",
        "device_id,category,count\n0,a,1\n,\n",
        "device_id,category,count\n3,a,1\n1,b,2\n3,c,3\n-1,d,4\n",
    ],
)
def test_loader_matches_on_edge_files(tmp_path, text):
    path = tmp_path / "corpus.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert outcome(load_corpora_csv, path) == outcome(dictreader_load_corpora_csv, path)


NUMBERS = st.one_of(
    st.floats(-10, 10),
    st.integers(-5, 5),
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, float("nan"), float("inf"), 2**53 + 1, 2**63 + 1, 2**64 + 3, 10**300, 10**400]),
)


@st.composite
def embedding_maps(draw):
    """Text-to-vector maps, mostly well-formed, with booleans, numeric
    strings, ragged and nested lists, NaN, all-zero rows and ints mixed
    with floats among them."""
    dim = draw(st.integers(1, 4))
    vectors = {}
    for j in range(draw(st.integers(0, 5))):
        value = draw(st.lists(NUMBERS, min_size=dim, max_size=dim))
        kind = draw(st.integers(0, 14))
        if kind == 0:
            value = [0.0] * dim
        elif kind == 1:
            value = value[: draw(st.integers(0, dim - 1))] if draw(st.booleans()) else [*value, 1.0]
        elif kind == 2:
            value = [[x] for x in value]
        elif kind == 3:
            value = tuple(value)
        elif kind == 4:
            value[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([True, False, "1.5", "2", None]))
        vectors[f"text {j}"] = value
    return vectors


def embeddings_outcome(vectors):
    try:
        provider = FileEmbeddings(vectors)
    except Exception as exc:  # noqa: BLE001 - the type is compared
        return type(exc).__name__, str(exc)
    return "ok", [provider.embed(text).tobytes() for text in vectors]


@settings(max_examples=200, deadline=None)
@given(vectors=embedding_maps())
def test_bulk_and_per_text_embeddings_agree(vectors):
    bulk = embeddings_outcome(vectors)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(similarity, "_bulk_matrix", lambda values: None)
        assert embeddings_outcome(vectors) == bulk


@pytest.mark.parametrize(
    "vectors",
    [
        {"a": [1, 0.5], "b": [2**53 + 1, 3]},
        {"a": [2**63 + 1, 1.0], "b": [2**64 + 3, -1]},
        {"a": [10**300, 1], "b": [1, 10**300]},
    ],
)
def test_wide_integers_take_the_bulk_path_with_the_same_bits(monkeypatch, vectors):
    assert similarity._bulk_matrix(list(vectors.values())) is not None
    bulk = embeddings_outcome(vectors)
    monkeypatch.setattr(similarity, "_bulk_matrix", lambda values: None)
    assert embeddings_outcome(vectors) == bulk
