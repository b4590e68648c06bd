"""Problem-document loading, instance assembly, and solution serialization.

A problem is one JSON object with exactly these keys, and no record takes
keys beyond those listed:

- ``devices``: a non-empty array of devices, each with ``id`` (integer
  >= 0), ``uplink_rate``, ``transmit_power``, ``alpha_reservation`` and
  ``alpha_on_demand`` (numbers > 0), ``avg_payload_semantic`` and
  ``membership_cost`` (numbers >= 0), ``bundle_size`` (integer >= 1), and
  optionally ``avg_payload_raw`` (number >= 0);
- ``vsps``: a non-empty array of ``{"id": integer >= 0}`` with an optional
  string ``interest_label``;
- ``scenarios``: a non-empty array of ``{"probability", "per_vsp"}``, the
  probability a number in [0, 1] and ``per_vsp`` a non-empty array of
  ``{"interest_key": string, "quantity": integer >= 0, "threshold": number
  in [0, 1]}``;
- ``similarity``: exactly one of ``{"tensor": [[[number]]]}``, indexed
  ``(vsp, device, scenario)``, or ``{"corpus_file": string,
  "embeddings_file": string}``, in which case the tensor is built through the
  similarity pipeline.

Types are those of JSON Schema draft 2020-12: ``true`` is no number, ``1.0``
is an integer, and NaN passes every bound (the entities reject it later).
The check accepts exactly what the package's former draft 2020-12 schema
accepted, except integers beyond the range of a float, and a
:class:`SchemaError` reads ``{file}: {json pointer}: {message}`` for the
error ``jsonschema.exceptions.best_match`` picked.  The check first takes each
field of a record kind as one column, with one type set and one ``min``/``max``
per column; only a document that this does not clear, for an error or for
anything unusual such as a NaN, is walked record by record, and the walk
picks the error.  A ragged tensor passes the check and is rejected as a
:class:`ValidationFailure`.
Paths inside a document resolve relative to the document itself.
"""

from __future__ import annotations

import functools
import heapq
import json
import sys
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core_model import (
    CostBreakdown,
    DemandScenario,
    EdgeDevice,
    ProblemInstance,
    Vsp,
    VspDemand,
    demand_count_violations,
)
from .errors import ConfigurationError, SchemaError, ValidationFailure
from .recourse import RecourseDecision, ReservationPlan, Solution
from .similarity import FileEmbeddings, _read_corpus_columns, build_similarity_tensor

# ---------------------------------------------------------------------------
# document check
#
# Each record kind maps its keys to a scalar rule, to the kind of the records
# in a non-empty array, or to None for a value its caller checks.  A record
# takes exactly the listed keys, and all but the optional ones are required.

_NUMBER_TYPES = frozenset({int, float})  # exactly; bool is no number
_FLOAT_MAX = sys.float_info.max  # a JSON integer beyond it has no float value


class _Rule(NamedTuple):
    kind: str  # "integer", "number" or "string"
    minimum: int | None = None
    exclusive_minimum: int | None = None
    maximum: int | None = None


class _Kind(NamedTuple):
    required: frozenset[str]
    fields: dict  # in the schema's order, which is also the order missing keys are reported in


def _kind(fields: dict, optional: tuple[str, ...] = ()) -> _Kind:
    return _Kind(frozenset(fields.keys() - set(optional)), fields)


_STRING = _Rule("string")
_COUNT = _Rule("integer", minimum=0)
_NONNEGATIVE = _Rule("number", minimum=0)
_POSITIVE = _Rule("number", exclusive_minimum=0)
_FRACTION = _Rule("number", minimum=0, maximum=1)

_DEMAND = _kind({"interest_key": _STRING, "quantity": _COUNT, "threshold": _FRACTION})
_SCENARIO = _kind({"probability": _FRACTION, "per_vsp": _DEMAND})
_VSP = _kind({"id": _COUNT, "interest_label": _STRING}, optional=("interest_label",))
_DEVICE = _kind(
    {
        "id": _COUNT,
        "uplink_rate": _POSITIVE,
        "transmit_power": _POSITIVE,
        "avg_payload_semantic": _NONNEGATIVE,
        "avg_payload_raw": _NONNEGATIVE,
        "membership_cost": _NONNEGATIVE,
        "bundle_size": _Rule("integer", minimum=1),
        "alpha_reservation": _POSITIVE,
        "alpha_on_demand": _POSITIVE,
    },
    optional=("avg_payload_raw",),
)
_PROBLEM = _kind({"devices": _DEVICE, "vsps": _VSP, "scenarios": _SCENARIO, "similarity": None})
# the two similarity sources, exactly one of which must match
_TENSOR_SOURCE = _kind({"tensor": None})
_FILE_SOURCE = _kind({"corpus_file": _STRING, "embeddings_file": _STRING})


def _scalar_error(value, rule: _Rule) -> str | None:
    kind, minimum, exclusive_minimum, maximum = rule
    if kind == "string":
        return None if isinstance(value, str) else f"{value!r} is not of type 'string'"
    if type(value) not in _NUMBER_TYPES or (
        kind == "integer" and type(value) is float and not value.is_integer()
    ):
        return f"{value!r} is not of type {kind!r}"
    if type(value) is int and abs(value) > _FLOAT_MAX:
        return _too_large(value)
    # NaN fails none of these comparisons, as in the schema; the entities reject it
    if minimum is not None and value < minimum:
        return f"{value!r} is less than the minimum of {minimum!r}"
    if exclusive_minimum is not None and value <= exclusive_minimum:
        return f"{value!r} is less than or equal to the minimum of {exclusive_minimum!r}"
    if maximum is not None and value > maximum:
        return f"{value!r} is greater than the maximum of {maximum!r}"
    return None


def _too_large(value: int) -> str:
    return f"{value!r} is beyond the range of a float"


def _check_array(items, kind: _Kind, path: tuple, errors: list) -> None:
    if not isinstance(items, list):
        errors.append((path, f"{items!r} is not of type 'array'"))
    elif not items:
        errors.append((path, f"{items!r} should be non-empty"))
    else:
        for index, record in enumerate(items):
            _check_record(record, kind, (*path, index), errors)


def _check_record(record, kind: _Kind, path: tuple, errors: list) -> bool:
    """Append the record's errors, in the schema's keyword order; False if it is no object."""
    if not isinstance(record, dict):
        errors.append((path, f"{record!r} is not of type 'object'"))
        return False
    keys = record.keys()
    if not keys >= kind.required:
        missing = [key for key in kind.fields if key in kind.required and key not in record]
        errors.extend((path, f"{key!r} is a required property") for key in missing)
    if not keys <= kind.fields.keys():
        extras = sorted(keys - kind.fields.keys())
        listed, verb = ", ".join(map(repr, extras)), "was" if len(extras) == 1 else "were"
        errors.append((path, f"Additional properties are not allowed ({listed} {verb} unexpected)"))
    for key, value in record.items():
        rule = kind.fields.get(key)
        if rule is None:
            continue
        if isinstance(rule, _Kind):
            _check_array(value, rule, (*path, key), errors)
        else:
            message = _scalar_error(value, rule)
            if message is not None:
                errors.append(((*path, key), message))
    return True


def _check_tensor(tensor, path: tuple, errors: list) -> None:
    """Arrays of arrays of arrays of numbers; their lengths are the loader's concern."""
    if not isinstance(tensor, list):
        errors.append((path, f"{tensor!r} is not of type 'array'"))
        return
    for w, rows in enumerate(tensor):
        if not isinstance(rows, list):
            errors.append(((*path, w), f"{rows!r} is not of type 'array'"))
            continue
        for e, row in enumerate(rows):
            if not isinstance(row, list):
                errors.append(((*path, w, e), f"{row!r} is not of type 'array'"))
            elif not _NUMBER_TYPES.issuperset(map(type, row)):
                errors.extend(
                    ((*path, w, e, s), f"{value!r} is not of type 'number'")
                    for s, value in enumerate(row)
                    if type(value) not in _NUMBER_TYPES
                )
            elif int in map(type, row):
                errors.extend(
                    ((*path, w, e, s), _too_large(value))
                    for s, value in enumerate(row)
                    if type(value) is int and abs(value) > _FLOAT_MAX
                )


def _check_similarity(source, errors: list) -> None:
    """Exactly one source must match; on failure, descend as ``best_match`` does.

    best_match looks through the failure's errors from both sources.  It takes
    the deepest, then the least path, unless two of them tie, in which case
    the failure at ``/similarity`` is itself the error.
    """
    from_tensor: list = []
    if _check_record(source, _TENSOR_SOURCE, (), from_tensor) and "tensor" in source:
        _check_tensor(source["tensor"], ("tensor",), from_tensor)
    if not from_tensor:
        return
    from_files: list = []
    _check_record(source, _FILE_SOURCE, (), from_files)
    if not from_files:
        return
    first, second = heapq.nsmallest(2, from_tensor + from_files, key=lambda err: (-len(err[0]), err[0]))
    if first[0] == second[0]:
        errors.append((("similarity",), f"{source!r} is not valid under any of the given schemas"))
    else:
        errors.append((("similarity", *first[0]), first[1]))


def _rank(error) -> tuple:
    """best_match's order: the shallower path, then the greater among siblings.

    An error below ``/similarity`` stands for the failed choice of source at
    ``/similarity`` and ranks at that depth.
    """
    path = error[0]
    if path[:1] == ("similarity",):
        path = path[:1]
    return -len(path), path


def _column_passes(column: list, rule: _Rule) -> bool:
    """True only if no value of ``column`` is unusual and each one passes ``rule``.

    A NaN first in a column makes ``min`` and ``max`` NaN, which fails every
    bound test below; a NaN further on passes the walk too.  ``True``, a
    float in an integer column and an integer beyond float range fail here.
    """
    kind, minimum, exclusive_minimum, maximum = rule
    types = set(map(type, column))
    if kind == "string":
        return types <= {str}
    if not types <= ({int} if kind == "integer" else _NUMBER_TYPES):
        return False
    if not column:
        return True
    low, high = min(column), max(column)
    return (
        low >= -_FLOAT_MAX
        and high <= _FLOAT_MAX
        and (minimum is None or low >= minimum)
        and (exclusive_minimum is None or low > exclusive_minimum)
        and (maximum is None or high <= maximum)
    )


def _arrays_pass(arrays: list, kind: _Kind) -> bool:
    """True only if each array is a non-empty list of records the walk passes.

    The records of all the arrays are checked together, one column per field.
    """
    if not all(type(items) is list and items for items in arrays):
        return False
    records = list(chain.from_iterable(arrays))
    if set(map(type, records)) != {dict}:
        return False
    if not all(kind.required <= keys <= kind.fields.keys() for keys in set(map(frozenset, records))):
        return False
    for key, rule in kind.fields.items():
        column = [record[key] for record in records if key in record]
        if not (_arrays_pass(column, rule) if isinstance(rule, _Kind) else _column_passes(column, rule)):
            return False
    return True


def _document_passes(document) -> bool:
    """True only for a document the walk passes; False sends it to the walk."""
    if type(document) is not dict or document.keys() != _PROBLEM.fields.keys():
        return False
    source = document["similarity"]
    if type(source) is not dict:
        return False
    if source.keys() == _TENSOR_SOURCE.fields.keys():
        errors: list = []
        _check_tensor(source["tensor"], (), errors)
        if errors:
            return False
    elif source.keys() != _FILE_SOURCE.fields.keys() or not _column_passes(list(source.values()), _STRING):
        return False
    return all(
        _arrays_pass([document[key]], kind) for key, kind in _PROBLEM.fields.items() if kind is not None
    )


def _document_error(document) -> str | None:
    """``{json pointer}: {message}`` of the error best_match picks, or None.

    The column check clears a valid document; only a document it does not
    clear is walked, and the walk picks the error.
    """
    if _document_passes(document):
        return None
    errors: list = []
    if _check_record(document, _PROBLEM, (), errors) and "similarity" in document:
        _check_similarity(document["similarity"], errors)
    if not errors:
        return None
    path, message = max(errors, key=_rank)  # the first of equals, as the schema yields them
    return "/" + "/".join(str(part) for part in path) + f": {message}"


def _tensor_array(tensor: list) -> np.ndarray:
    """The checked nested lists as one float64 array; a ragged tensor is a validation failure."""
    for axis, lengths in (
        ("device", {len(rows) for rows in tensor}),
        ("scenario", {len(row) for rows in tensor for row in rows}),
    ):
        if len(lengths) > 1:
            raise ValidationFailure(
                [f"similarity tensor is ragged along the {axis} axis: rows of {sorted(lengths)} entries"]
            )
    return np.asarray(tensor, dtype=np.float64)


def load_problem(path: str | Path) -> ProblemInstance:
    """Read, schema-check, assemble, and validate a problem document."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read problem file {path}: {exc}") from exc
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc

    error = _document_error(document)
    if error is not None:
        raise SchemaError(f"{path}: {error}")

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
        tensor = _tensor_array(source["tensor"])
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
        corpora = _read_corpus_columns(corpus_path)
        ids, expected = set(corpora), set(range(len(devices)))
        if ids != expected:
            raise ConfigurationError(
                f"{corpus_path}: corpus device ids must be 0..{len(devices) - 1} for the problem's"
                f" {len(devices)} devices; missing {sorted(expected - ids)}, extra {sorted(ids - expected)}"
            )
        provider = FileEmbeddings.from_path(embeddings_path)
        tensor = build_similarity_tensor(scenarios, corpora, provider)

    instance = ProblemInstance(devices, vsps, scenarios, tensor)
    report = instance.validation
    if not report.ok:
        raise ValidationFailure(report.violations)
    return instance


# ---------------------------------------------------------------------------
# solution serialization
#
# A solution file is canonical JSON (sorted keys, two-space indent, trailing
# newline), the bytes ``json.dumps(..., sort_keys=True, indent=2) + "\n"``
# gives its document.  The layout depends only on the array shapes, so it is
# built once per shape, by json itself, as a ``%``-format template with one
# slot per value; filling it skips json's pure-Python indent encoder.  Costs
# are written as json writes them (the shortest round-trip repr, ``NaN`` and
# ``Infinity``), so reading the file back reproduces every value bit-exactly.

_COST_FIELDS = ("expected_on_demand", "membership_total", "reservation_total", "total")  # sorted
_SLOT = "\x00"  # a leaf that json writes as "\u0000", and no key contains


@functools.lru_cache(maxsize=64)
def _solution_template(on_demand_shape: tuple[int, ...], plan_shape: tuple[int, ...]) -> str:
    """The solution file of these shapes, with a ``%s`` slot per cost and count.

    The slots run through the four costs in :data:`_COST_FIELDS` order, then
    ``on_demand``, ``plan.bundles`` and ``plan.membership``, each in
    row-major order.
    """

    def slots(shape):
        return [slots(shape[1:]) for _ in range(shape[0])] if shape else _SLOT

    layout = {
        "cost": dict.fromkeys(_COST_FIELDS, _SLOT),
        "on_demand": slots(on_demand_shape),
        "plan": {"bundles": slots(plan_shape), "membership": slots(plan_shape)},
    }
    return json.dumps(layout, sort_keys=True, indent=2).replace(json.dumps(_SLOT), "%s") + "\n"


def _field(data, name: str):
    """The value at dotted ``name`` of a decoded document; ``ValueError`` if it is missing."""
    for key in name.split("."):
        if type(data) is not dict or key not in data:
            raise ValueError(f"missing field {name!r}")
        data = data[key]
    return data


def _count_array(data, name: str) -> np.ndarray:
    counts = np.asarray(_field(data, name))
    if counts.dtype.kind != "i" and counts.size:
        raise ValueError(f"field {name!r} must hold integers")
    return counts.astype(np.int64)


def _cost_value(data, name: str) -> float:
    value = _field(data, name)
    if type(value) not in _NUMBER_TYPES:
        raise ValueError(f"field {name!r} must be a number, got {value!r}")
    return float(value)


def solution_from_dict(data: dict) -> Solution:
    """The :class:`Solution` of a decoded solution file.

    A missing field, a mistyped one or a plan the entities reject is a
    ``ValueError`` (an ``OverflowError`` for a cost beyond float range).
    """
    plan = ReservationPlan(
        membership=_count_array(data, "plan.membership"),
        bundles=_count_array(data, "plan.bundles"),
    )
    recourse = RecourseDecision(_count_array(data, "on_demand"))
    cost = CostBreakdown(
        membership_total=_cost_value(data, "cost.membership_total"),
        reservation_total=_cost_value(data, "cost.reservation_total"),
        expected_on_demand=_cost_value(data, "cost.expected_on_demand"),
        total=_cost_value(data, "cost.total"),
    )
    return Solution(plan, recourse, cost)


def write_text(text: str, path: str | Path) -> None:
    """Write ``text`` to ``path`` in one write, newlines untranslated.

    A path that cannot be written is a :class:`ConfigurationError`.
    """
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def dump_json(data: dict, path: str | Path) -> None:
    """Write canonical JSON: sorted keys, two-space indent, trailing newline."""
    write_text(json.dumps(data, sort_keys=True, indent=2) + "\n", path)


def write_solution(solution: Solution, path: str | Path) -> None:
    """Serialize a solution as canonical JSON; ``read_solution`` round-trips it losslessly."""
    plan, cost, on_demand = solution.plan, solution.cost, solution.recourse.on_demand
    values = [json.dumps(getattr(cost, name)) for name in _COST_FIELDS]
    for counts in (on_demand, plan.bundles, plan.membership):
        values += counts.ravel().tolist()
    write_text(_solution_template(on_demand.shape, plan.bundles.shape) % tuple(values), path)


def read_solution(path: str | Path) -> Solution:
    """Read a solution file; a file that is no solution is a :class:`SchemaError` naming ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read solution file {path}: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return solution_from_dict(data)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc
