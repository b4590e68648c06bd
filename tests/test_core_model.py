import numpy as np
import pytest
from hypothesis import given, strategies as st

import semalloc as sm
import semalloc.core_model as core_model
from semalloc import (
    CostBreakdown,
    DemandScenario,
    EdgeDevice,
    ProblemInstance,
    Vsp,
    VspDemand,
    energy_ratio,
    on_demand_unit_cost,
    reservation_bundle_cost,
    scale_on_demand_cost,
    transmission_energy,
    transmission_time,
    validate_instance,
    with_probabilities,
)
from semalloc.solvers import solve_sip_grid


def make_device(**overrides) -> EdgeDevice:
    params = dict(
        id=0,
        uplink_rate=1.5e6,
        transmit_power=0.1,
        avg_payload_semantic=5125.0,
        avg_payload_raw=650000.0,
        membership_cost=1.89,
        bundle_size=120,
        alpha_reservation=5.0,
        alpha_on_demand=15.0,
    )
    params.update(overrides)
    return EdgeDevice(**params)


def tiny_instance(similarity=((0.5,),), probabilities=(1.0,), quantities=((10,),)) -> ProblemInstance:
    """One device, VSP count/scenario count from the argument shapes."""
    num_scenarios = len(probabilities)
    num_vsps = len(quantities[0])
    scenarios = tuple(
        DemandScenario(
            probability=probabilities[i],
            per_vsp=tuple(
                VspDemand("k", quantities[i][w], 1.0) for w in range(num_vsps)
            ),
        )
        for i in range(num_scenarios)
    )
    tensor = np.full((num_vsps, 1, num_scenarios), 0.5)
    return ProblemInstance(
        (make_device(),), tuple(Vsp(w) for w in range(num_vsps)), scenarios, tensor
    )


class TestTransmission:
    def test_time_direct_evaluation(self):
        dev = make_device()
        assert transmission_time(3_000_000, dev) == 2.0
        assert transmission_time(0, dev) == 0.0
        # 41 Kb payload at 1.5 MB/s
        assert transmission_time(5125, dev) == 5125 / 1.5e6
        assert transmission_time(5125, dev) == pytest.approx(3.4167e-3, rel=1e-4)

    @pytest.mark.parametrize("payload", [-1.0, float("nan"), float("inf")])
    def test_time_rejects_bad_payload(self, payload):
        with pytest.raises(ValueError):
            transmission_time(payload, make_device())

    def test_energy_direct_evaluation(self):
        dev = make_device()
        assert transmission_energy(3_000_000, dev) == pytest.approx(0.2, rel=1e-12)
        assert transmission_energy(0, dev) == 0.0

    def test_energy_ratio_is_payload_ratio(self):
        # 5.2 Mb raw vs 41 Kb semantic; rate and power cancel
        dev = make_device()
        assert energy_ratio(dev) == 650000 / 5125
        assert energy_ratio(dev) == pytest.approx(126.83, rel=1e-4)
        via_energy = transmission_energy(650000, dev) / transmission_energy(5125, dev)
        assert via_energy == pytest.approx(energy_ratio(dev), rel=1e-12)

    @given(payload=st.floats(min_value=0, max_value=1e12))
    def test_energy_linear_in_payload(self, payload):
        dev = make_device()
        assert transmission_energy(2 * payload, dev) == pytest.approx(
            2 * transmission_energy(payload, dev), rel=1e-12
        )

    def test_energy_ratio_requires_raw_payload(self):
        with pytest.raises(ValueError):
            energy_ratio(make_device(avg_payload_raw=None))


class TestPricing:
    def test_bundle_cost_table_values(self):
        dev = make_device()
        assert reservation_bundle_cost(dev) == pytest.approx(0.2050, rel=1e-12)

    def test_unit_cost_table_values(self):
        dev = make_device()
        assert on_demand_unit_cost(dev) == pytest.approx(5.125e-3, rel=1e-12)

    def test_zero_payload_costs_nothing(self):
        dev = make_device(avg_payload_semantic=0.0)
        assert reservation_bundle_cost(dev) == 0.0
        assert on_demand_unit_cost(dev) == 0.0

    def test_single_transmission_bundle_reduces_to_scaled_unit_cost(self):
        dev = make_device(bundle_size=1)
        expected = on_demand_unit_cost(dev) * dev.alpha_reservation / dev.alpha_on_demand
        assert reservation_bundle_cost(dev) == pytest.approx(expected, rel=1e-12)

    def test_coefficient_ratio(self):
        dev = make_device()
        per_reserved = reservation_bundle_cost(dev) / dev.bundle_size
        assert on_demand_unit_cost(dev) / per_reserved == pytest.approx(3.0, rel=1e-12)

    @given(
        rate=st.floats(min_value=1e3, max_value=1e9),
        power=st.floats(min_value=1e-3, max_value=10),
        payload=st.floats(min_value=1e-6, max_value=1e9),
        n=st.integers(min_value=1, max_value=1000),
        a1=st.floats(min_value=1e-6, max_value=1e3),
        scale=st.floats(min_value=1.001, max_value=1e3),
    )
    def test_reserved_transmission_strictly_cheaper(self, rate, power, payload, n, a1, scale):
        dev = make_device(
            uplink_rate=rate,
            transmit_power=power,
            avg_payload_semantic=payload,
            bundle_size=n,
            alpha_reservation=a1,
            alpha_on_demand=a1 * scale,
        )
        assert reservation_bundle_cost(dev) / n < on_demand_unit_cost(dev)


class TestDeviceInvariants:
    def test_on_demand_must_exceed_reservation(self):
        with pytest.raises(ValueError, match="alpha_on_demand"):
            make_device(alpha_reservation=15.0, alpha_on_demand=5.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("uplink_rate", 0.0),
            ("uplink_rate", float("nan")),
            ("transmit_power", -1.0),
            ("avg_payload_semantic", -5.0),
            ("bundle_size", 0),
            ("membership_cost", -0.1),
        ],
    )
    def test_field_validation(self, field, value):
        with pytest.raises(ValueError):
            make_device(**{field: value})


class TestCostBreakdown:
    @given(
        m=st.floats(min_value=0, max_value=1e9),
        r=st.floats(min_value=0, max_value=1e9),
        o=st.floats(min_value=0, max_value=1e9),
    )
    def test_total_is_sum_of_parts(self, m, r, o):
        cost = CostBreakdown.from_parts(m, r, o)
        assert cost.total == cost.membership_total + cost.reservation_total + cost.expected_on_demand


class TestValidation:
    def test_valid_instance_passes(self):
        inst = tiny_instance(probabilities=(0.5, 0.5), quantities=((10,), (5,)))
        assert validate_instance(inst).ok

    def test_probability_sum_violation(self):
        inst = tiny_instance(probabilities=(0.7, 0.7), quantities=((10,), (5,)))
        report = validate_instance(inst)
        assert not report.ok
        assert any("probabilities sum to 1.4" in v for v in report.violations)

    def test_similarity_range_violation(self):
        inst = tiny_instance()
        bad = ProblemInstance(inst.devices, inst.vsps, inst.scenarios, [[[1.2]]])
        report = validate_instance(bad)
        assert any("similarity out of [0, 1]" in v for v in report.violations)

    def test_dimension_mismatch_reported(self):
        inst = tiny_instance()
        bad = ProblemInstance(inst.devices, inst.vsps, inst.scenarios, [[[0.5, 0.5]]])
        assert any("shape" in v for v in validate_instance(bad).violations)

    def test_scenario_probability_range_checked_at_construction(self):
        with pytest.raises(ValueError):
            DemandScenario(probability=1.5, per_vsp=(VspDemand("k", 1, 1.0),))
        with pytest.raises(ValueError):
            VspDemand("k", -1, 1.0)
        with pytest.raises(ValueError):
            VspDemand("k", 1, 1.5)


class TestValidateOnce:
    """Each instance is validated once, by its cached :attr:`ProblemInstance.validation`."""

    @pytest.fixture
    def validations(self, monkeypatch):
        seen = []
        original = core_model.validate_instance

        def counted(instance):
            seen.append(instance)
            return original(instance)

        monkeypatch.setattr(core_model, "validate_instance", counted)
        return seen

    def test_load_and_solve_validate_once(self, validations):
        instance = sm.load_problem(sm.data_file("singapore_demo.json"))
        sm.solve_sip(instance)
        sm.solve_sip(instance)
        assert validations == [instance]

    @pytest.mark.parametrize("solve", [sm.solve_sip, lambda inst: solve_sip_grid([inst])], ids=["sip", "grid"])
    def test_a_built_instance_with_a_violation_still_fails(self, solve):
        inst = tiny_instance()
        bad = ProblemInstance(inst.devices, inst.vsps, inst.scenarios, [[[1.2]]])
        expected = str(sm.ValidationFailure(validate_instance(bad).violations))
        for _ in range(2):
            with pytest.raises(sm.ValidationFailure) as caught:
                solve(bad)
            assert str(caught.value) == expected

    def test_a_derived_instance_is_validated_afresh(self, validations):
        inst = tiny_instance(probabilities=(0.5, 0.5), quantities=((10,), (5,)))
        assert inst.validation.ok
        derived = with_probabilities(inst, [0.7, 0.7])
        with pytest.raises(sm.ValidationFailure, match="probabilities sum to 1.4"):
            sm.solve_sip(derived)
        assert validations == [inst, derived]


class TestRequirementMatrix:
    def test_matches_requirement_and_is_read_only(self):
        inst = tiny_instance(probabilities=(0.5, 0.5), quantities=((10, 3), (5, 0)))
        assert inst.requirements.tolist() == [
            [inst.requirement(w, i) for i in range(inst.num_scenarios)] for w in range(inst.num_vsps)
        ]
        with pytest.raises(ValueError):
            inst.requirements[0, 0] = 1.0

    def test_ragged_demand_lists_still_reach_validation(self):
        inst = tiny_instance(probabilities=(0.5, 0.5), quantities=((10, 3), (5, 0)))
        ragged = ProblemInstance(
            inst.devices,
            inst.vsps,
            (inst.scenarios[0], DemandScenario(0.5, inst.scenarios[1].per_vsp[:1])),
            inst.similarity,
        )
        assert "scenario 1 lists 1 vsp demands, expected 2" in validate_instance(ragged).violations


class TestInstanceUpdates:
    def test_similarity_tensor_is_immutable(self):
        inst = tiny_instance()
        with pytest.raises(ValueError):
            inst.similarity[0, 0, 0] = 0.9

    def test_with_probabilities(self):
        inst = tiny_instance(probabilities=(0.5, 0.5), quantities=((10,), (5,)))
        shifted = with_probabilities(inst, [0.25, 0.75])
        assert shifted.probabilities.tolist() == [0.25, 0.75]
        assert inst.probabilities.tolist() == [0.5, 0.5]
        with pytest.raises(ValueError):
            with_probabilities(inst, [1.0])

    def test_scale_on_demand(self):
        inst = tiny_instance()
        scaled = scale_on_demand_cost(inst, 2.0)
        assert scaled.devices[0].alpha_on_demand == 30.0
        assert inst.devices[0].alpha_on_demand == 15.0

    def test_scale_cannot_invert_pricing(self):
        inst = tiny_instance()
        with pytest.raises(ValueError):
            scale_on_demand_cost(inst, 1e-3)  # 15 * 1e-3 < alpha_reservation = 5
        with pytest.raises(ValueError):
            scale_on_demand_cost(inst, -1.0)
