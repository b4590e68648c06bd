import dataclasses
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import semalloc as sm
from semalloc import (
    ConfigurationError,
    SchemaError,
    ValidationFailure,
    load_problem,
    read_solution,
    write_solution,
)
from semalloc.core_model import CostBreakdown
from semalloc.core_model import EdgeDevice, Vsp, VspDemand
from semalloc.ingestion import _DEMAND, _DEVICE, _VSP, _solution_template, dump_json, solution_from_dict
from semalloc.recourse import RecourseDecision, ReservationPlan, Solution
from _support import solution_to_dict


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def minimal_doc(**overrides):
    doc = {
        "devices": [
            {
                "id": 0,
                "uplink_rate": 1.5e6,
                "transmit_power": 0.1,
                "avg_payload_semantic": 5125,
                "membership_cost": 0.1,
                "bundle_size": 10,
                "alpha_reservation": 5,
                "alpha_on_demand": 15,
            }
        ],
        "vsps": [{"id": 0, "interest_label": "demo"}],
        "scenarios": [
            {
                "probability": 1.0,
                "per_vsp": [{"interest_key": "k", "quantity": 5, "threshold": 1.0}],
            }
        ],
        "similarity": {"tensor": [[[0.5]]]},
    }
    doc.update(overrides)
    return doc


class TestLoadProblem:
    def test_bundled_singapore_fixture(self, singapore):
        assert singapore.num_devices == 3
        assert singapore.num_vsps == 2
        assert singapore.num_scenarios == 2
        assert singapore.similarity[0, :, 0].tolist() == [0.72, 0.697, 0.83]
        assert singapore.similarity[1, :, 0].tolist() == [0.793, 0.661, 0.57]
        assert singapore.scenarios[1].per_vsp[0].quantity == 200
        assert singapore.scenarios[1].per_vsp[1].quantity == 300

    def test_corpus_based_similarity(self):
        inst = load_problem(sm.data_file("interest_switch_corpus.json"))
        assert inst.similarity[0, :, 0] == pytest.approx([0.72, 0.697, 0.83], abs=1e-9)
        assert inst.similarity[0, :, 1] == pytest.approx([0.793, 0.661, 0.57], abs=1e-9)

    def test_corpus_and_tensor_agree(self, interest_switch):
        from_corpus = load_problem(sm.data_file("interest_switch_corpus.json"))
        assert from_corpus.similarity == pytest.approx(interest_switch.similarity, abs=1e-9)

    def test_empty_scenarios_rejected(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc(scenarios=[]))
        with pytest.raises(SchemaError, match="/scenarios"):
            load_problem(path)

    def test_similarity_out_of_range_rejected(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc(similarity={"tensor": [[[1.5]]]}))
        with pytest.raises(ValidationFailure, match=r"similarity out of \[0, 1\]"):
            load_problem(path)

    def test_probability_sum_violation_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["scenarios"] = [doc["scenarios"][0], dict(doc["scenarios"][0])]
        doc["similarity"] = {"tensor": [[[0.5, 0.5]]]}
        path = write_doc(tmp_path, doc)
        with pytest.raises(ValidationFailure, match="probabilities sum to 2"):
            load_problem(path)

    def test_schema_error_carries_json_pointer(self, tmp_path):
        doc = minimal_doc()
        doc["devices"][0]["uplink_rate"] = -1
        path = write_doc(tmp_path, doc)
        with pytest.raises(SchemaError, match="/devices/0/uplink_rate"):
            load_problem(path)

    def test_unknown_field_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["devices"][0]["color"] = "red"
        path = write_doc(tmp_path, doc)
        with pytest.raises(SchemaError):
            load_problem(path)

    def test_both_similarity_sources_rejected(self, tmp_path):
        doc = minimal_doc(
            similarity={"tensor": [[[0.5]]], "corpus_file": "c.csv", "embeddings_file": "e.json"}
        )
        path = write_doc(tmp_path, doc)
        with pytest.raises(SchemaError, match="/similarity"):
            load_problem(path)

    def test_missing_referenced_file(self, tmp_path):
        doc = minimal_doc(similarity={"corpus_file": "nope.csv", "embeddings_file": "nope.json"})
        path = write_doc(tmp_path, doc)
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_problem(path)

    def test_inverted_pricing_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["devices"][0]["alpha_on_demand"] = 1
        path = write_doc(tmp_path, doc)
        with pytest.raises(ValidationFailure, match="alpha_on_demand"):
            load_problem(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_problem(path)

    def test_integer_beyond_float_range_in_a_device_field(self, tmp_path):
        doc = minimal_doc()
        doc["devices"][0]["uplink_rate"] = 10**400
        path = write_doc(tmp_path, doc)
        with pytest.raises(SchemaError, match="/devices/0/uplink_rate: 1000.* is beyond the range of a float"):
            load_problem(path)

    def test_integer_beyond_float_range_in_a_tensor_leaf(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc(similarity={"tensor": [[[0, -(10**400)]]]}))
        with pytest.raises(SchemaError, match="/similarity/tensor/0/0/1: -1000.* is beyond the range of a float"):
            load_problem(path)

    def test_integer_past_the_digit_limit_is_not_json(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(minimal_doc()).replace('"quantity": 5', '"quantity": ' + "9" * 5000))
        with pytest.raises(SchemaError, match="not valid JSON"):
            load_problem(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_problem(tmp_path / "absent.json")

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = write_doc(tmp_path, minimal_doc(similarity={"tensor": [[[0.5], [0.5]]]}))
        with pytest.raises(ValidationFailure, match="shape"):
            load_problem(path)


class TestReferencedFiles:
    """A referenced file that cannot be read fails as a package error naming the file."""

    @staticmethod
    def corpus_problem(tmp_path, **source):
        doc = json.loads(sm.data_file("interest_switch_corpus.json").read_text())
        files = doc["similarity"]
        for key in files:
            files[key] = str(sm.data_file(files[key]))
        files.update(source)
        return write_doc(tmp_path, doc)

    @pytest.mark.parametrize("key, kind", [("corpus_file", "corpus"), ("embeddings_file", "embeddings")])
    def test_a_directory(self, tmp_path, key, kind):
        (tmp_path / "folder").mkdir()
        path = self.corpus_problem(tmp_path, **{key: "folder"})
        with pytest.raises(ConfigurationError, match=f"^cannot read {kind} file {re.escape(str(tmp_path))}/folder: "):
            load_problem(path)


@pytest.mark.parametrize("kind, entity", [(_DEVICE, EdgeDevice), (_VSP, Vsp), (_DEMAND, VspDemand)])
def test_record_tables_match_the_entities(kind, entity):
    """The loader builds each entity from its checked record, one keyword per key."""
    fields = dataclasses.fields(entity)
    assert kind.fields.keys() == {field.name for field in fields}
    assert kind.required == {
        field.name
        for field in fields
        if field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING
    }


class TestRaggedTensor:
    """The schema accepts ragged arrays; the loader rejects them by axis."""

    @staticmethod
    def singapore_with(tmp_path, change):
        doc = json.loads(sm.data_file("singapore_demo.json").read_text())
        change(doc["similarity"]["tensor"])
        return write_doc(tmp_path, doc)

    def test_ragged_device_axis(self, tmp_path):
        path = self.singapore_with(tmp_path, lambda tensor: tensor[1].pop())
        with pytest.raises(ValidationFailure, match="similarity tensor is ragged along the device axis"):
            load_problem(path)

    def test_ragged_scenario_axis(self, tmp_path):
        path = self.singapore_with(tmp_path, lambda tensor: tensor[0][2].pop())
        with pytest.raises(ValidationFailure, match="similarity tensor is ragged along the scenario axis"):
            load_problem(path)

    def test_empty_vsp_row(self, tmp_path):
        path = self.singapore_with(tmp_path, lambda tensor: tensor[1].clear())
        with pytest.raises(ValidationFailure, match="similarity tensor is ragged along the device axis"):
            load_problem(path)


def test_import_leaves_jsonschema_unloaded():
    src = str(Path(sm.__file__).resolve().parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import semalloc, semalloc.cli; "
        "print(sorted({'jsonschema', 'referencing'} & {name.split('.')[0] for name in sys.modules}))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


class TestSolutionRoundTrip:
    def test_write_read_identity(self, tmp_path, singapore):
        solution = sm.solve_sip(sm.with_probabilities(singapore, [0.0, 1.0]))
        path = tmp_path / "solution.json"
        write_solution(solution, path)
        loaded = read_solution(path)
        assert np.array_equal(loaded.plan.bundles, solution.plan.bundles)
        assert np.array_equal(loaded.plan.membership, solution.plan.membership)
        assert np.array_equal(loaded.recourse.on_demand, solution.recourse.on_demand)
        assert loaded.cost == solution.cost

    def test_zero_plan_round_trip(self, tmp_path, zero_demand):
        solution = sm.solve_sip(zero_demand)
        path = tmp_path / "zero.json"
        write_solution(solution, path)
        assert read_solution(path).cost.total == 0.0

    def test_dict_round_trip_preserves_floats(self, singapore):
        solution = sm.solve_sip(singapore)
        data = solution_to_dict(solution)
        rebuilt = solution_from_dict(json.loads(json.dumps(data)))
        assert rebuilt.cost == solution.cost

    def test_write_is_deterministic(self, tmp_path, singapore):
        solution = sm.solve_sip(singapore)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_solution(solution, a)
        write_solution(solution, b)
        assert a.read_bytes() == b.read_bytes()

    def test_matches_golden_file(self, tmp_path, cost_structure):
        solution = sm.solve_sip(cost_structure)
        path = tmp_path / "current.json"
        write_solution(solution, path)
        golden = Path(__file__).parent / "data" / "golden_solution.json"
        assert path.read_bytes() == golden.read_bytes()


def canonical_bytes(solution) -> bytes:
    return (json.dumps(solution_to_dict(solution), sort_keys=True, indent=2) + "\n").encode("utf-8")


_FINITE = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300), st.floats(min_value=-1e300, max_value=-1e-300)
)
_FLOATS = st.one_of(_FINITE, st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]))
COSTS = st.one_of(_FLOATS, _FLOATS.map(np.float64), st.integers(-(2**70), 2**70))
COUNTS = st.integers(0, 2**63 - 1)
DEMO_PROBLEMS = sorted(path.name for path in sm.data_file("").glob("*.json") if path.name != "embeddings_demo.json")


@st.composite
def solutions(draw) -> Solution:
    num_vsps, num_devices, num_scenarios = draw(st.tuples(*[st.integers(0, 3)] * 3))
    plan_shape = (num_vsps, num_devices)
    bundles = draw(arrays(np.int64, plan_shape, elements=COUNTS))
    unused = draw(arrays(np.int64, plan_shape, elements=st.integers(0, 1)))
    plan = ReservationPlan(np.maximum(bundles >= 1, unused), bundles)
    recourse = RecourseDecision(draw(arrays(np.int64, (*plan_shape, num_scenarios), elements=COUNTS)))
    return Solution(plan, recourse, CostBreakdown(*(draw(COSTS) for _ in range(4))))


class TestSolutionWriter:
    """``write_solution`` writes the canonical JSON of the solution's document, byte for byte."""

    @settings(max_examples=300, deadline=None)
    @given(solution=solutions())
    def test_bytes_equal_canonical_json(self, solution):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "solution.json"
            write_solution(solution, path)
            assert path.read_bytes() == canonical_bytes(solution)

    @pytest.mark.parametrize("name", DEMO_PROBLEMS)
    def test_bundled_demo_solutions_equal_canonical_json(self, name, tmp_path):
        solution = sm.solve_sip(load_problem(sm.data_file(name)))
        path = tmp_path / "solution.json"
        write_solution(solution, path)
        assert path.read_bytes() == canonical_bytes(solution)

    def test_one_template_per_shape(self, tmp_path, singapore, single_device):
        _solution_template.cache_clear()
        for instance in (singapore, single_device, singapore):
            write_solution(sm.solve_sip(instance), tmp_path / "solution.json")
        assert _solution_template.cache_info().misses == 2


class TestReadSolution:
    """A file that is no solution is a :class:`SchemaError` naming the file."""

    def solution_file(self, tmp_path, cost_structure) -> Path:
        path = tmp_path / "solution.json"
        write_solution(sm.solve_sip(cost_structure), path)
        return path

    def test_truncated_file(self, tmp_path, cost_structure):
        path = self.solution_file(tmp_path, cost_structure)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(SchemaError, match=r"^" + re.escape(f"{path}: not valid JSON: ")):
            read_solution(path)

    def test_empty_object(self, tmp_path):
        path = write_doc(tmp_path, {}, "solution.json")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: missing field 'plan.membership'")):
            read_solution(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("plan", None, "missing field 'plan.membership'"),
            ("on_demand", "many", "field 'on_demand' must hold integers"),
            ("on_demand", [[[1.5]]], "field 'on_demand' must hold integers"),
            ("on_demand", [[1]], "on_demand must be 3-dimensional"),
            ("cost", {"total": 1.0}, "missing field 'cost.membership_total'"),
        ],
    )
    def test_missing_or_mistyped_field(self, tmp_path, cost_structure, field, value, message):
        data = json.loads(self.solution_file(tmp_path, cost_structure).read_text())
        data[field] = value
        path = write_doc(tmp_path, data, "broken.json")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
            read_solution(path)

    @pytest.mark.parametrize("value", ["1.5", True, None, 10**400], ids=["string", "bool", "null", "beyond-float"])
    def test_a_cost_that_is_no_float(self, tmp_path, cost_structure, value):
        data = json.loads(self.solution_file(tmp_path, cost_structure).read_text())
        data["cost"]["total"] = value
        path = write_doc(tmp_path, data, "broken.json")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: ")):
            read_solution(path)

    def test_a_plan_the_entities_reject(self, tmp_path, cost_structure):
        data = json.loads(self.solution_file(tmp_path, cost_structure).read_text())
        data["plan"]["membership"] = [[0]]
        data["plan"]["bundles"] = [[2]]
        path = write_doc(tmp_path, data, "broken.json")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: bundles require membership")):
            read_solution(path)


class TestDumpJson:
    def test_unwritable_path_reports_context(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot write"):
            dump_json({}, tmp_path / "missing-dir" / "x.json")
