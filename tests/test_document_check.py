"""Differential test: the loader's document check against the former JSON Schema.

``PROBLEM_SCHEMA`` is the draft 2020-12 schema the loader used to validate
with ``jsonschema``.  It stays here as the oracle: every mutated document must
get the same accept/reject decision from ``load_problem`` as from
``Draft202012Validator``, and a rejection must name the pointer and message
``best_match`` picks.  A ragged tensor passes both checks and is then rejected
as a ``ValidationFailure``, never as a schema error.  The oracle's ``type``
keyword carries the loader's one documented exception: an integer beyond the
range of a float is an error at its pointer.

The loader clears a document with a column-wise check before it walks it, so
the seeds include documents of several records per kind: a mutated value then
lands first, in the middle or last in its column.  Whenever the column check
clears a document, the oracle must accept it.
"""

import copy
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semalloc as sm
from semalloc import SchemaError, SemallocError, load_problem
from semalloc.ingestion import _document_error, _document_passes

from test_ingestion import minimal_doc

jsonschema = pytest.importorskip("jsonschema")

_NUMBER = {"type": "number"}
_NONNEG_NUMBER = {"type": "number", "minimum": 0}
_NONNEG_INT = {"type": "integer", "minimum": 0}

PROBLEM_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["devices", "vsps", "scenarios", "similarity"],
    "additionalProperties": False,
    "properties": {
        "devices": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": [
                    "id",
                    "uplink_rate",
                    "transmit_power",
                    "avg_payload_semantic",
                    "membership_cost",
                    "bundle_size",
                    "alpha_reservation",
                    "alpha_on_demand",
                ],
                "additionalProperties": False,
                "properties": {
                    "id": _NONNEG_INT,
                    "uplink_rate": {"type": "number", "exclusiveMinimum": 0},
                    "transmit_power": {"type": "number", "exclusiveMinimum": 0},
                    "avg_payload_semantic": _NONNEG_NUMBER,
                    "avg_payload_raw": _NONNEG_NUMBER,
                    "membership_cost": _NONNEG_NUMBER,
                    "bundle_size": {"type": "integer", "minimum": 1},
                    "alpha_reservation": {"type": "number", "exclusiveMinimum": 0},
                    "alpha_on_demand": {"type": "number", "exclusiveMinimum": 0},
                },
            },
        },
        "vsps": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["id"],
                "additionalProperties": False,
                "properties": {
                    "id": _NONNEG_INT,
                    "interest_label": {"type": "string"},
                },
            },
        },
        "scenarios": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["probability", "per_vsp"],
                "additionalProperties": False,
                "properties": {
                    "probability": {"type": "number", "minimum": 0, "maximum": 1},
                    "per_vsp": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "object",
                            "required": ["interest_key", "quantity", "threshold"],
                            "additionalProperties": False,
                            "properties": {
                                "interest_key": {"type": "string"},
                                "quantity": _NONNEG_INT,
                                "threshold": {"type": "number", "minimum": 0, "maximum": 1},
                            },
                        },
                    },
                },
            },
        },
        "similarity": {
            "oneOf": [
                {
                    "type": "object",
                    "required": ["tensor"],
                    "additionalProperties": False,
                    "properties": {
                        "tensor": {
                            "type": "array",
                            "items": {
                                "type": "array",
                                "items": {"type": "array", "items": _NUMBER},
                            },
                        }
                    },
                },
                {
                    "type": "object",
                    "required": ["corpus_file", "embeddings_file"],
                    "additionalProperties": False,
                    "properties": {
                        "corpus_file": {"type": "string"},
                        "embeddings_file": {"type": "string"},
                    },
                },
            ]
        },
    },
}


def _type_within_float_range(validator, types, instance, schema):
    """Draft 2020-12 ``type``, and for a number an integer within the range of a float."""
    yield from jsonschema.Draft202012Validator.VALIDATORS["type"](validator, types, instance, schema)
    if types in ("number", "integer") and type(instance) is int and abs(instance) > sys.float_info.max:
        yield jsonschema.ValidationError(f"{instance!r} is beyond the range of a float")


OracleValidator = jsonschema.validators.extend(
    jsonschema.Draft202012Validator, {"type": _type_within_float_range}
)


def oracle_error(document) -> str | None:
    """``{pointer}: {message}`` as the former loader reported it, or None if valid."""
    validator = OracleValidator(PROBLEM_SCHEMA)
    errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    best = jsonschema.exceptions.best_match(errors)
    return "/" + "/".join(str(part) for part in best.absolute_path) + f": {best.message}"


SEED_NAMES = (
    "singapore_demo.json",
    "cost_structure_demo.json",
    "interest_switch_demo.json",
    "single_device_demo.json",
    "zero_demand_demo.json",
    "interest_switch_corpus.json",
)


def _seed_documents():
    docs = [minimal_doc()]
    for name in SEED_NAMES:
        path = sm.data_file(name)
        doc = json.loads(path.read_text())
        source = doc["similarity"]
        for key in ("corpus_file", "embeddings_file"):
            if key in source:
                source[key] = str(path.parent / source[key])  # resolvable from any directory
        docs.append(doc)
    return docs + _multi_record_documents()


def _multi_record_documents():
    """Five devices, three VSPs and three scenarios of three demands, with each similarity source.

    Number columns mix integers and floats, and the optional keys are present
    in some records only.
    """
    devices = [
        {
            "id": e,
            "uplink_rate": [1.5e6, 2500000, 3.5e6, 1e6, 2e6][e],
            "transmit_power": [0.1, 0.07, 1, 0.13, 0.2][e],
            "avg_payload_semantic": [5125, 4000.5, 0, 6000, 512.25][e],
            "membership_cost": [0.1, 0, 0.25, 1, 0.05][e],
            "bundle_size": [10, 5, 8, 1, 20][e],
            "alpha_reservation": [5, 4.5, 6, 3, 5][e],
            "alpha_on_demand": [15, 12.5, 18, 9, 20][e],
        }
        for e in range(5)
    ]
    for e in (0, 2, 4):
        devices[e]["avg_payload_raw"] = [1e5, 0, 250000.5][e // 2]
    vsps = [{"id": 0, "interest_label": "cars"}, {"id": 1}, {"id": 2, "interest_label": ""}]
    scenarios = [
        {
            "probability": probability,
            "per_vsp": [
                {"interest_key": key, "quantity": quantity, "threshold": threshold}
                for key, quantity, threshold in zip(("a", "b", "c"), quantities, thresholds)
            ],
        }
        for probability, quantities, thresholds in (
            (0.25, (5, 0, 120), (1, 0.5, 0)),
            (0.5, (40, 7, 1), (0.75, 1.0, 0.3)),
            (0.25, (0, 300, 12), (0.0, 0.9, 1)),
        )
    ]
    tensor = [[[round(0.05 * (w + e + i) + 0.1, 2) for i in range(3)] for e in range(5)] for w in range(3)]
    tensor[1][2][0] = 1
    files = {"corpus_file": "corpora.csv", "embeddings_file": "embeddings.json"}
    return [
        {"devices": devices, "vsps": vsps, "scenarios": scenarios, "similarity": {"tensor": tensor}},
        {"devices": devices, "vsps": vsps, "scenarios": scenarios, "similarity": files},
    ]


SEEDS = _seed_documents()

# wrong types, boundaries of every bound in the schema, and values just past them
VALUES = (
    True, False, None, 0, 1, -1, 2, 0.0, -0.0, 1.0, 0.5, -0.5, 1.5, 1e-300, 1.0000001, -1e-9,
    math.nan, math.inf, -math.inf, "0.5", "1", "", "x", [], [0.5], [[0.5]], {}, {"a": 1},
    10**400, -(10**400),
)
EXTRA_KEYS = (
    "color", "extra", "tensor", "corpus_file", "embeddings_file", "id", "avg_payload_raw",
    "interest_label", "probability", "per_vsp", "quantity",
)


def _locations(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _locations(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _locations(value, (*path, index))


def _set(document, path, value):
    if not path:
        return value
    parent = document
    for part in path[:-1]:
        parent = parent[part]
    parent[path[-1]] = value
    return document


def _mutate(draw, document):
    """Apply one random mutation; returns the (possibly replaced) document."""
    places = list(_locations(document))
    path, node = draw(st.sampled_from(places))
    kind = draw(st.sampled_from(("replace", "replace", "delete", "extra", "empty", "drop", "both")))
    if kind == "replace":
        return _set(document, path, copy.deepcopy(draw(st.sampled_from(VALUES))))
    if kind == "delete" and isinstance(node, dict) and node:
        del node[draw(st.sampled_from(sorted(node)))]
    elif kind == "extra" and isinstance(node, dict):
        node[draw(st.sampled_from(EXTRA_KEYS))] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    elif kind == "empty" and isinstance(node, (dict, list)):
        node.clear()
    elif kind == "drop" and isinstance(node, list) and node:
        del node[draw(st.integers(0, len(node) - 1))]
    elif kind == "both" and isinstance(document, dict) and isinstance(document.get("similarity"), dict):
        source = document["similarity"]
        source.setdefault("tensor", [[[0.5]]])
        source.setdefault("corpus_file", "corpora.csv")
        source.setdefault("embeddings_file", "embeddings.json")
    else:
        return _set(document, path, copy.deepcopy(draw(st.sampled_from(VALUES))))
    return document


@st.composite
def mutated_documents(draw):
    document = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        document = _mutate(draw, document)
    return document


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(document=mutated_documents())
def test_decision_pointer_and_message_match_the_former_schema(workdir, document):
    path = workdir / "problem.json"
    path.write_text(json.dumps(document))
    expected = oracle_error(document)
    if _document_passes(document):
        assert expected is None, f"the column check clears what the schema rejects with {expected!r}"
    try:
        load_problem(path)
    except SchemaError as exc:
        assert str(exc) == f"{path}: {expected}"
        return
    except SemallocError:
        pass  # accepted by the schema, rejected later: ids, sums, shapes, ragged tensors
    assert expected is None, f"the schema rejects it with {expected!r}"


MULTI_RECORD = {"tensor": SEEDS[-2], "files": SEEDS[-1]}
POSITION_VALUES = (math.nan, True, 1.0, 1.5, -1, 10**400, "0.5", [], {})


def _agrees(document) -> None:
    expected = oracle_error(document)
    assert _document_error(document) == expected
    if _document_passes(document):
        assert expected is None, f"the column check clears what the schema rejects with {expected!r}"


@pytest.mark.parametrize("source", sorted(MULTI_RECORD))
def test_every_position_of_a_multi_record_document(source):
    """Each unusual value, or an emptied container, at every node: first, middle and last in its column."""
    seed = MULTI_RECORD[source]
    for path, node in list(_locations(seed)):
        for value in (*POSITION_VALUES, *([type(node)()] if isinstance(node, (dict, list)) else ())):
            _agrees(_set(copy.deepcopy(seed), path, copy.deepcopy(value)))


@pytest.mark.parametrize("source", sorted(MULTI_RECORD))
def test_a_nan_first_in_a_column_hides_no_later_error(source):
    """A NaN first makes ``min`` and ``max`` NaN; the column must still go to the walk."""
    seed = MULTI_RECORD[source]
    columns: dict = {}
    for path, node in _locations(seed):
        if not isinstance(node, (dict, list)):
            columns.setdefault(tuple(part for part in path if isinstance(part, str)), []).append(path)
    for paths in columns.values():
        for value in (-1, 2, 1.5, 10**400, -(10**400), True, "x"):
            document = _set(copy.deepcopy(seed), paths[0], math.nan)
            _agrees(_set(document, paths[-1], value))


BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_documents(tmp_path, monkeypatch):
    """One generated document of each benchmark family, as the benchmark writes them."""
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    rng = np.random.default_rng(5)
    corpus, _ = workloads.corpus_files(rng, 0, tmp_path)
    return {
        "search_problem": workloads.search_problem(rng, 0),
        "fleet_problem": workloads.fleet_problem(rng, 0, 8),
        "corpus_files": json.loads(corpus.read_text()),
    }


@pytest.mark.parametrize("name", sorted(SEED_NAMES))
def test_column_check_clears_every_bundled_demo(name):
    """A demo the check does not clear would be walked on every load."""
    assert _document_passes(json.loads(sm.data_file(name).read_text()))


def test_column_check_clears_each_benchmark_family(tmp_path, monkeypatch):
    for name, document in _bench_documents(tmp_path, monkeypatch).items():
        assert _document_passes(document), name


@pytest.mark.parametrize("document", SEEDS[-2:], ids=["tensor", "files"])
def test_column_check_clears_the_multi_record_seeds(document):
    assert _document_passes(document)
