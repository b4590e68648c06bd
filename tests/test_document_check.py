"""Differential test: the loader's document check against the former JSON Schema.

``PROBLEM_SCHEMA`` is the draft 2020-12 schema the loader used to validate
with ``jsonschema``.  It stays here as the oracle: every mutated document must
get the same accept/reject decision from ``load_problem`` as from
``Draft202012Validator``, and a rejection must name the pointer and message
``best_match`` picks.  A ragged tensor passes both checks and is then rejected
as a ``ValidationFailure``, never as a schema error.
"""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import semalloc as sm
from semalloc import SchemaError, SemallocError, load_problem

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


def oracle_error(document) -> str | None:
    """``{pointer}: {message}`` as the former loader reported it, or None if valid."""
    validator = jsonschema.Draft202012Validator(PROBLEM_SCHEMA)
    errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    best = jsonschema.exceptions.best_match(errors)
    return "/" + "/".join(str(part) for part in best.absolute_path) + f": {best.message}"


def _seed_documents():
    docs = [minimal_doc()]
    for name in (
        "singapore_demo.json",
        "cost_structure_demo.json",
        "interest_switch_demo.json",
        "single_device_demo.json",
        "zero_demand_demo.json",
        "interest_switch_corpus.json",
    ):
        path = sm.data_file(name)
        doc = json.loads(path.read_text())
        source = doc["similarity"]
        for key in ("corpus_file", "embeddings_file"):
            if key in source:
                source[key] = str(path.parent / source[key])  # resolvable from any directory
        docs.append(doc)
    return docs


SEEDS = _seed_documents()

# wrong types, boundaries of every bound in the schema, and values just past them
VALUES = (
    True, False, None, 0, 1, -1, 2, 0.0, -0.0, 1.0, 0.5, -0.5, 1.5, 1e-300, 1.0000001, -1e-9,
    math.nan, math.inf, -math.inf, "0.5", "1", "", "x", [], [0.5], [[0.5]], {}, {"a": 1},
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
    try:
        load_problem(path)
    except SchemaError as exc:
        assert str(exc) == f"{path}: {expected}"
        return
    except SemallocError:
        pass  # accepted by the schema, rejected later: ids, sums, shapes, ragged tensors
    assert expected is None, f"the schema rejects it with {expected!r}"
