"""Problem-document loading, instance assembly, and solution serialization.

A problem is one JSON document (schema below).  Similarity comes either as an
explicit ``(vsp, device, scenario)`` tensor or from a category-corpus CSV plus
an embeddings JSON, in which case the tensor is built through the similarity
pipeline.  Paths inside a document resolve relative to the document itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import jsonschema
import numpy as np

from .core_model import (
    CostBreakdown,
    DemandScenario,
    EdgeDevice,
    ProblemInstance,
    Vsp,
    VspDemand,
    demand_count_violations,
    validate_instance,
)
from .errors import ConfigurationError, SchemaError, ValidationFailure
from .recourse import RecourseDecision, ReservationPlan, Solution
from .similarity import FileEmbeddings, build_similarity_tensor, load_corpora_csv

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


def _json_pointer(error: jsonschema.exceptions.ValidationError) -> str:
    return "/" + "/".join(str(part) for part in error.absolute_path)


def load_problem(path: str | Path) -> ProblemInstance:
    """Read, schema-check, assemble, and validate a problem document."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read problem file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc

    validator = jsonschema.Draft202012Validator(PROBLEM_SCHEMA)
    errors = sorted(validator.iter_errors(document), key=lambda e: list(e.absolute_path))
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        raise SchemaError(f"{path}: {_json_pointer(best)}: {best.message}")

    try:
        devices = tuple(
            EdgeDevice(
                id=rec["id"],
                uplink_rate=rec["uplink_rate"],
                transmit_power=rec["transmit_power"],
                avg_payload_semantic=rec["avg_payload_semantic"],
                avg_payload_raw=rec.get("avg_payload_raw"),
                membership_cost=rec["membership_cost"],
                bundle_size=rec["bundle_size"],
                alpha_reservation=rec["alpha_reservation"],
                alpha_on_demand=rec["alpha_on_demand"],
            )
            for rec in document["devices"]
        )
        vsps = tuple(Vsp(id=rec["id"], interest_label=rec.get("interest_label", "")) for rec in document["vsps"])
        scenarios = tuple(
            DemandScenario(
                probability=rec["probability"],
                per_vsp=tuple(
                    VspDemand(
                        interest_key=d["interest_key"],
                        quantity=d["quantity"],
                        threshold=d["threshold"],
                    )
                    for d in rec["per_vsp"]
                ),
            )
            for rec in document["scenarios"]
        )
    except ValueError as exc:
        raise ValidationFailure([str(exc)]) from exc

    source = document["similarity"]
    if "tensor" in source:
        tensor = np.array(source["tensor"], dtype=np.float64)
    else:
        # the tensor is sized and filled from the scenarios' demand lists
        mismatched = demand_count_violations(scenarios, len(vsps))
        if mismatched:
            raise ValidationFailure(mismatched)
        corpus_path = path.parent / source["corpus_file"]
        embeddings_path = path.parent / source["embeddings_file"]
        for ref in (corpus_path, embeddings_path):
            if not ref.exists():
                raise ConfigurationError(f"{path}: referenced file does not exist: {ref}")
        corpora = load_corpora_csv(corpus_path)
        ids, expected = set(corpora), set(range(len(devices)))
        if ids != expected:
            raise ConfigurationError(
                f"{corpus_path}: corpus device ids must be 0..{len(devices) - 1} for the problem's"
                f" {len(devices)} devices; missing {sorted(expected - ids)}, extra {sorted(ids - expected)}"
            )
        provider = FileEmbeddings.from_path(embeddings_path)
        tensor = build_similarity_tensor(scenarios, corpora, provider)

    instance = ProblemInstance(devices, vsps, scenarios, tensor)
    report = validate_instance(instance)
    if not report.ok:
        raise ValidationFailure(report.violations)
    return instance


# ---------------------------------------------------------------------------
# solution serialization
#
# Floats are emitted through Python's shortest round-trip repr, so reading the
# file back reproduces every value bit-exactly.


def solution_to_dict(solution: Solution) -> dict:
    return {
        "plan": {
            "membership": solution.plan.membership.tolist(),
            "bundles": solution.plan.bundles.tolist(),
        },
        "on_demand": solution.recourse.on_demand.tolist(),
        "cost": {
            "membership_total": solution.cost.membership_total,
            "reservation_total": solution.cost.reservation_total,
            "expected_on_demand": solution.cost.expected_on_demand,
            "total": solution.cost.total,
        },
    }


def solution_from_dict(data: dict) -> Solution:
    plan = ReservationPlan(
        membership=np.array(data["plan"]["membership"], dtype=np.int64),
        bundles=np.array(data["plan"]["bundles"], dtype=np.int64),
    )
    recourse = RecourseDecision(np.array(data["on_demand"], dtype=np.int64))
    cost = CostBreakdown(
        membership_total=float(data["cost"]["membership_total"]),
        reservation_total=float(data["cost"]["reservation_total"]),
        expected_on_demand=float(data["cost"]["expected_on_demand"]),
        total=float(data["cost"]["total"]),
    )
    return Solution(plan, recourse, cost)


def dump_json(data: dict, path: str | Path) -> None:
    """Write canonical JSON: sorted keys, two-space indent, trailing newline."""
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(data, handle, sort_keys=True, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def write_solution(solution: Solution, path: str | Path) -> None:
    """Serialize a solution; ``read_solution`` round-trips it losslessly."""
    dump_json(solution_to_dict(solution), path)


def read_solution(path: str | Path) -> Solution:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read solution file {path}: {exc}") from exc
    return solution_from_dict(data)
