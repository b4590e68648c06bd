import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from semalloc.cli import compare_rows
from semalloc.core_model import Pricing
from semalloc.solvers import solve_sip_grid
from _support import make_random_instance


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


DEMOS = ("singapore_demo", "cost_structure_demo", "interest_switch_demo", "single_device_demo", "zero_demand_demo")
TABLES = ("requirements", "pricing", "bundle_upper_bounds")


def derivations(instance: ProblemInstance, factor: float, probabilities) -> dict[str, ProblemInstance]:
    return {
        "scaled": scale_on_demand_cost(instance, factor),
        "shifted": with_probabilities(instance, probabilities),
    }


def assert_tables_equal_fresh_ones(derived: ProblemInstance) -> None:
    """Every table of ``derived`` equals that of a new instance of its fields: values, dtype, read-only."""
    fresh = ProblemInstance(derived.devices, derived.vsps, derived.scenarios, derived.similarity)
    pairs = [(derived.requirements, fresh.requirements), (derived.bundle_upper_bounds, fresh.bundle_upper_bounds)]
    for name in Pricing._fields:
        ours, theirs = getattr(derived.pricing, name), getattr(fresh.pricing, name)
        if isinstance(theirs, np.ndarray):
            pairs.append((ours, theirs))
        else:
            assert type(ours) is type(theirs) and ours == theirs, name
    for ours, theirs in pairs:
        assert ours.dtype == theirs.dtype
        assert np.array_equal(ours, theirs)
        assert not ours.flags.writeable


def identical_on_demand_pair(**overrides) -> tuple[EdgeDevice, EdgeDevice]:
    """Two devices whose on-demand unit price is their coefficient; device 0's is one ulp above 15."""
    params = dict(uplink_rate=1.0, transmit_power=1.0, avg_payload_semantic=1.0, **overrides)
    return (
        make_device(id=0, alpha_on_demand=math.nextafter(15.0, math.inf), **params),
        make_device(id=1, alpha_on_demand=15.0, **params),
    )


class TestDerivedTables:
    """Derived instances read their base's tables, which equal the tables they would build themselves."""

    @pytest.mark.parametrize("demo", DEMOS)
    def test_on_the_demos(self, demo):
        base = sm.load_problem(sm.data_file(f"{demo}.json"))
        uniform = [1.0 / base.num_scenarios] * base.num_scenarios
        for derived in derivations(base, 2.5, uniform).values():
            assert_tables_equal_fresh_ones(derived)
        assert_tables_equal_fresh_ones(scale_on_demand_cost(with_probabilities(base, uniform), 0.5))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), factor=st.floats(0.34, 100.0))
    def test_on_drawn_instances(self, seed, factor):
        rng = np.random.default_rng(seed)
        base = make_random_instance(rng, 4, 5, 4)  # devices share rates and powers, so prices often tie
        weights = rng.integers(1, 4, size=base.num_scenarios)
        for derived in derivations(base, factor, (weights / weights.sum()).tolist()).values():
            assert_tables_equal_fresh_ones(derived)

    def test_a_tie_made_by_scaling_moves_the_cheapest_device(self):
        inst = tiny_instance()
        base = ProblemInstance(identical_on_demand_pair(), inst.vsps, inst.scenarios, np.full((1, 2, 1), 0.5))
        assert base.pricing.cheapest == 1
        scaled = scale_on_demand_cost(base, 0.7)  # both coefficients round to one value
        assert scaled.devices[0].alpha_on_demand == scaled.devices[1].alpha_on_demand
        assert scaled.pricing.cheapest == 0
        assert_tables_equal_fresh_ones(scaled)

    def test_derived_instances_share_the_base_arrays(self, singapore):
        for kind, derived in derivations(singapore, 2.0, [0.25, 0.75]).items():
            assert derived.requirements is singapore.requirements
            assert derived.bundle_upper_bounds is singapore.bundle_upper_bounds
            for name in ("sizes", "memberships", "bundle_prices", "coverage", "snapped"):
                assert getattr(derived.pricing, name) is getattr(singapore.pricing, name), (kind, name)
        assert with_probabilities(singapore, [0.25, 0.75]).pricing is singapore.pricing

    def test_deriving_builds_no_table(self):
        base = sm.load_problem(sm.data_file("singapore_demo.json"))
        derived = derivations(base, 2.0, [0.25, 0.75])
        chained = with_probabilities(derived["scaled"], [0.5, 0.5])
        for instance in (base, chained, *derived.values()):
            assert not set(TABLES) & set(vars(instance))
        chained.pricing  # the first use builds the base's table, which the scaled instance reads too
        assert {"requirements", "pricing"} <= set(vars(base))
        assert chained.pricing.coverage is base.pricing.coverage


def ragged_instance() -> ProblemInstance:
    inst = tiny_instance(probabilities=(0.5, 0.5), quantities=((10, 3), (5, 0)))
    scenarios = (inst.scenarios[0], DemandScenario(0.5, inst.scenarios[1].per_vsp[:1]))
    return ProblemInstance(inst.devices, inst.vsps, scenarios, inst.similarity)


def subnormal_instance() -> ProblemInstance:
    inst = tiny_instance(probabilities=(0.5, 0.5), quantities=((10,), (5,)))
    return ProblemInstance(inst.devices, inst.vsps, inst.scenarios, [[[1e-320, 0.5]]])


SOLVES = {"sip": sm.solve_sip, "grid": lambda inst: solve_sip_grid([inst, inst])}


class TestABadBaseFailsOnceDerived:
    """A derivation raises nothing a table would raise: the derived instance fails where its base does, at the solve."""

    @pytest.mark.parametrize("solve", sorted(SOLVES))
    @pytest.mark.parametrize("kind", ["scaled", "shifted"])
    def test_ragged_demand_lists_fail_validation(self, kind, solve):
        derived = derivations(ragged_instance(), 2.0, [0.25, 0.75])[kind]
        with pytest.raises(sm.ValidationFailure) as caught:
            SOLVES[solve](derived)
        assert str(caught.value) == "scenario 1 lists 1 vsp demands, expected 2"

    @pytest.mark.parametrize("solve", sorted(SOLVES))
    @pytest.mark.parametrize("kind", ["scaled", "shifted"])
    def test_a_subnormal_similarity_bounds_no_bundle_count(self, kind, solve):
        derived = derivations(subnormal_instance(), 2.0, [0.25, 0.75])[kind]
        with pytest.raises(sm.ConfigurationError) as caught:
            SOLVES[solve](derived)
        assert str(caught.value) == "VSP 0, device 0: similarity 1e-320 is too small to bound its bundle count"

    @pytest.mark.parametrize("make", [ragged_instance, subnormal_instance])
    def test_compare_reports_an_inverted_factor_first(self, make):
        with pytest.raises(sm.ConfigurationError, match=r"must exceed .*; got 0\.001$"):
            compare_rows(make(), (0.001, 2.0), 0, 5)
