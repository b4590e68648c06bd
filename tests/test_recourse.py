import math
import re
import warnings

import numpy as np
import pytest

from semalloc import (
    DemandScenario,
    EdgeDevice,
    ProblemInstance,
    RecourseDecision,
    ReservationPlan,
    Vsp,
    VspDemand,
    evaluate_many,
    evaluate_total,
    on_demand_unit_cost,
    optimal_recourse,
    shortfalls,
)
import semalloc.recourse as recourse
from _support import brute_force_recourse_cost, make_random_instance, random_plan


def device_with_unit_cost(e: int, cost: float, bundle_size: int = 100) -> EdgeDevice:
    """Unit-rate, unit-power device whose on-demand transmission costs exactly ``cost``."""
    return EdgeDevice(
        id=e,
        uplink_rate=1.0,
        transmit_power=1.0,
        avg_payload_semantic=cost,
        membership_cost=0.0,
        bundle_size=bundle_size,
        alpha_reservation=0.5,
        alpha_on_demand=1.0,
    )


def build_instance(unit_costs, similarity, quantities, probabilities=(1.0,), bundle_size=100):
    """Instance with exact on-demand unit costs; similarity is (vsp, device, scenario)."""
    similarity = np.asarray(similarity, dtype=float)
    num_vsps, num_devices, num_scenarios = similarity.shape
    devices = tuple(
        device_with_unit_cost(e, unit_costs[e], bundle_size) for e in range(num_devices)
    )
    scenarios = tuple(
        DemandScenario(
            probability=probabilities[i],
            per_vsp=tuple(VspDemand("k", quantities[i][w], 1.0) for w in range(num_vsps)),
        )
        for i in range(num_scenarios)
    )
    return ProblemInstance(devices, tuple(Vsp(w) for w in range(num_vsps)), scenarios, similarity)


def repro_instance() -> ProblemInstance:
    """One device whose 3 bundles cover the requirement 0.81 exactly, 3 * 3 * 0.09.

    In binary floating point the coverage lands a rounding error away from the
    requirement, which must not count as a shortfall.
    """
    device = EdgeDevice(
        id=0,
        uplink_rate=2.5e6,
        transmit_power=0.1,
        avg_payload_semantic=5125.0,
        membership_cost=0.0,
        bundle_size=3,
        alpha_reservation=5.0,
        alpha_on_demand=1000.0,
    )
    scenario = DemandScenario(1.0, (VspDemand("x", 1, 0.81),))
    return ProblemInstance((device,), (Vsp(0),), (scenario,), [[[0.09]]])


class TestPlanTypes:
    def test_bundles_without_membership_rejected(self):
        with pytest.raises(ValueError, match="membership"):
            ReservationPlan(membership=np.zeros((1, 1), int), bundles=np.ones((1, 1), int))

    def test_from_bundles_normalizes_membership(self):
        plan = ReservationPlan.from_bundles([[0, 3], [2, 0]])
        assert plan.membership.tolist() == [[0, 1], [1, 0]]

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            ReservationPlan.from_bundles([[-1]])
        with pytest.raises(ValueError):
            RecourseDecision(np.full((1, 1, 1), -2))

    def test_arrays_frozen(self):
        plan = ReservationPlan.zeros(1, 2)
        with pytest.raises(ValueError):
            plan.bundles[0, 0] = 5


class TestShortfall:
    def test_partial_coverage(self):
        inst = build_instance([1.0], [[[0.8]]], [[100]])
        plan = ReservationPlan.from_bundles([[1]])
        assert shortfalls(plan.bundles, inst)[0, 0] == 20

    def test_full_coverage(self):
        inst = build_instance([1.0], [[[1.0]]], [[100]])
        plan = ReservationPlan.from_bundles([[2]])
        assert shortfalls(plan.bundles, inst)[0, 0] == 0

    def test_twenty_percent_gap(self):
        inst = build_instance([1.0], [[[0.8]]], [[200]], bundle_size=200)
        plan = ReservationPlan.from_bundles([[1]])
        assert shortfalls(plan.bundles, inst)[0, 0] == 40

    def test_fractional_requirement_rounds_up(self):
        inst = build_instance([1.0], [[[0.75]]], [[2]], bundle_size=1)
        plan = ReservationPlan.from_bundles([[1]])
        # requirement 2, coverage 0.75 -> gap 1.25 -> 2 whole transmissions
        assert shortfalls(plan.bundles, inst)[0, 0] == 2


class TestPhantomUnits:
    """Coverage that meets a requirement up to float rounding buys no extra unit."""

    def test_exact_cover_has_no_shortfall(self):
        assert shortfalls([[3]], repro_instance())[0, 0] == 0

    def test_exact_integer_gap_buys_exactly_that(self, singapore):
        # 300 required, 3 bundles of 100 at similarity 0.57 cover 171: the gap is 129
        assert shortfalls([[1, 1, 1], [0, 0, 3]], singapore)[1, 1] == 129

    @pytest.mark.parametrize("quantity", [1, 100])
    def test_small_real_gap_still_buys_a_unit(self, quantity):
        # coverage falls short of the requirement by about 1e-6
        similarity = 1.0 - 1e-6 / quantity
        inst = build_instance([1.0], [[[similarity]]], [[quantity]], bundle_size=quantity)
        assert shortfalls([[1]], inst)[0, 0] == 1
        assert evaluate_total(ReservationPlan.from_bundles([[1]]), inst).cost.expected_on_demand == 1.0


class TestPlanChecks:
    """A plan that does not fit the instance is a ``ValueError``, checked once per public call."""

    @pytest.mark.parametrize("shape", [(2, 4), (3, 3), (3,), (5, 2, 4), (1, 1, 2, 3)])
    def test_shortfalls_rejects_a_plan_of_the_wrong_shape(self, singapore, shape):
        message = f"bundles must have shape (2, 3) or (n, 2, 3), got {shape}"
        with pytest.raises(ValueError, match=re.escape(message)):
            shortfalls(np.zeros(shape), singapore)

    @pytest.mark.parametrize("bundles", [[[0, 0, -1], [0, 0, 0]], [[[0, 0, 0], [2, -1, 0]]]])
    def test_shortfalls_rejects_negative_counts(self, singapore, bundles):
        with pytest.raises(ValueError, match="bundle counts must be non-negative"):
            shortfalls(bundles, singapore)

    @pytest.mark.parametrize("count", [1.5, 0.5, math.nan, math.inf, -math.inf])
    def test_counts_that_are_not_whole_numbers_are_rejected(self, single_device, count):
        """Checked before any cast to int64, which would truncate 1.5 to 1 or warn on a NaN."""
        single = single_device
        calls = {
            "bundle counts": (lambda: shortfalls([[count]], single), lambda: evaluate_many([[[count]]], single)),
            "bundles": (
                lambda: ReservationPlan.from_bundles([[count]]),
                lambda: ReservationPlan(membership=[[1]], bundles=[[count]]),
            ),
            "on_demand": (lambda: RecourseDecision([[[count]]]),),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for subject, attempts in calls.items():
                for attempt in attempts:
                    with pytest.raises(ValueError, match=f"^{subject} must be whole numbers$"):
                        attempt()

    @pytest.mark.parametrize(
        "subject, attempt",
        [
            ("bundles", lambda single: ReservationPlan.from_bundles([[1e300]])),
            ("bundle counts", lambda single: evaluate_many([[[1e19]]], single)),
            ("bundle counts", lambda single: shortfalls([[1e300]], single)),
            ("bundles", lambda single: ReservationPlan.from_bundles([[2.0**63]])),
            ("bundle counts", lambda single: shortfalls([[-1e19]], single)),
        ],
        ids=["from_bundles-1e300", "evaluate_many-1e19", "shortfalls-1e300", "from_bundles-2**63", "shortfalls--1e19"],
    )
    def test_whole_counts_beyond_the_int64_range_are_rejected(self, single_device, subject, attempt):
        """Checked before the cast to int64, which would warn and wrap, or before a float shortfall of 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{subject} must lie in the int64 range$"):
                attempt(single_device)

    def test_the_largest_whole_float_in_the_int64_range_is_a_count(self):
        assert ReservationPlan.from_bundles([[2.0**63 - 1024]]).bundles.tolist() == [[2**63 - 1024]]

    def test_whole_number_floats_are_counts(self, single_device):
        single = single_device  # one bundle leaves 40 units short
        assert shortfalls([[1.0]], single).tolist() == shortfalls([[1]], single).tolist() == [[40]]
        assert evaluate_many([[[1.0]]], single).total.tolist() == evaluate_many([[[1]]], single).total.tolist()
        plan = ReservationPlan.from_bundles([[2.0]])
        assert plan.bundles.dtype == np.int64 and plan.bundles.tolist() == [[2]]

    def test_integer_counts_skip_the_whole_number_check(self, singapore, monkeypatch):
        """An int64 stack, as ``solve_random`` draws it, pays nothing for the check."""
        stack = np.ones((4, 2, 3), dtype=np.int64)
        expected = evaluate_many(stack, singapore).total.tolist()

        def unexpected(*args, **kwargs):
            raise AssertionError("an integer stack was checked for whole numbers")

        monkeypatch.setattr(np, "trunc", unexpected)
        assert evaluate_many(stack, singapore).total.tolist() == expected
        assert shortfalls(stack, singapore).shape == (4, 2, 2)

    def test_optimal_recourse_rejects_a_plan_of_the_wrong_shape(self, singapore):
        with pytest.raises(ValueError, match=re.escape("bundles must have shape (2, 3), got (2, 4)")):
            optimal_recourse(ReservationPlan.zeros(2, 4), singapore)

    def test_evaluate_total_keeps_the_stack_message(self, singapore):
        with pytest.raises(ValueError, match=re.escape("bundles must have shape (n, 2, 3), got (1, 2, 4)")):
            evaluate_total(ReservationPlan.zeros(2, 4), singapore)

    def test_each_public_call_checks_once(self, monkeypatch, singapore):
        calls = []
        check = recourse._check_counts

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(recourse, "_check_counts", counted)
        plan = ReservationPlan.from_bundles([[1, 0, 2], [0, 1, 0]])
        for call in (
            lambda: shortfalls(plan.bundles, singapore),
            lambda: optimal_recourse(plan, singapore),
            lambda: evaluate_many(plan.bundles[None], singapore),
            lambda: evaluate_total(plan, singapore),
        ):
            calls.clear()
            call()
            assert len(calls) == 1


class TestOptimalRecourse:
    def test_no_shortfall_means_zero_tensor(self):
        inst = build_instance([1.0, 2.0], [[[1.0], [1.0]]], [[100]])
        plan = ReservationPlan.from_bundles([[1, 0]])
        assert not optimal_recourse(plan, inst).on_demand.any()

    def test_entire_shortfall_on_cheapest_device(self):
        inst = build_instance([5.0, 3.0, 4.0], [[[0.8], [0.0], [0.0]]], [[100]])
        plan = ReservationPlan.from_bundles([[1, 0, 0]])
        decision = optimal_recourse(plan, inst)
        assert decision.on_demand[0, :, 0].tolist() == [0, 20, 0]
        solution = evaluate_total(plan, inst)
        assert solution.cost.expected_on_demand == pytest.approx(60.0, abs=1e-12)

    def test_cost_tie_prefers_lowest_device_index(self):
        inst = build_instance([3.0, 5.0, 3.0], [[[0.0], [0.0], [0.0]]], [[7]])
        decision = optimal_recourse(ReservationPlan.zeros(1, 3), inst)
        assert decision.on_demand[0, :, 0].tolist() == [7, 0, 0]


class TestEvaluateTotal:
    def test_zero_demand_zero_plan(self):
        inst = build_instance([1.0], [[[0.5]]], [[0]])
        solution = evaluate_total(ReservationPlan.zeros(1, 1), inst)
        assert solution.cost.total == 0.0

    def test_pure_on_demand_cost(self):
        inst = build_instance([4.0, 2.0], [[[0.5], [0.5]]], [[9]])
        solution = evaluate_total(ReservationPlan.zeros(1, 2), inst)
        assert solution.cost.expected_on_demand == pytest.approx(9 * 2.0, abs=1e-12)
        assert solution.cost.total == solution.cost.expected_on_demand

    def test_membership_normalized_in_result(self):
        inst = build_instance([1.0], [[[0.5]]], [[10]])
        sloppy = ReservationPlan(membership=np.ones((1, 1), int), bundles=np.zeros((1, 1), int))
        solution = evaluate_total(sloppy, inst)
        assert solution.plan.membership.tolist() == [[0]]
        assert solution.cost.membership_total == 0.0

    def test_cost_recomputable_bit_exactly(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            inst = make_random_instance(rng)
            plan = random_plan(rng, inst)
            first = evaluate_total(plan, inst)
            again = evaluate_total(first.plan, inst)
            assert again.cost == first.cost
            assert np.array_equal(again.recourse.on_demand, first.recourse.on_demand)


class TestRecourseProperties:
    def test_matches_brute_force_on_small_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            inst = make_random_instance(rng)
            plan = random_plan(rng, inst)
            solution = evaluate_total(plan, inst)
            oracle = brute_force_recourse_cost(plan, inst)
            assert solution.cost.expected_on_demand == pytest.approx(oracle, abs=1e-9)

    def test_more_bundles_never_raise_expected_on_demand(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            inst = make_random_instance(rng)
            plan = random_plan(rng, inst)
            base = evaluate_total(plan, inst).cost.expected_on_demand
            w = int(rng.integers(inst.num_vsps))
            e = int(rng.integers(inst.num_devices))
            bumped = np.array(plan.bundles)
            bumped[w, e] += 1
            more = evaluate_total(ReservationPlan.from_bundles(bumped), inst)
            assert more.cost.expected_on_demand <= base + 1e-12

    def test_recourse_always_feasible_and_finite(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            inst = make_random_instance(rng)
            plan = random_plan(rng, inst)
            solution = evaluate_total(plan, inst)
            assert math.isfinite(solution.cost.total)
            for i in range(inst.num_scenarios):
                for w in range(inst.num_vsps):
                    assert shortfalls(solution.plan.bundles, inst)[w, i] <= solution.recourse.on_demand[w, :, i].sum()

    def test_scenario_additivity(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            inst = make_random_instance(rng, max_scenarios=3)
            plan = random_plan(rng, inst)
            whole = evaluate_total(plan, inst).cost.expected_on_demand
            parts = 0.0
            for i in range(inst.num_scenarios):
                single = ProblemInstance(
                    inst.devices,
                    inst.vsps,
                    (DemandScenario(1.0, inst.scenarios[i].per_vsp),),
                    inst.similarity[:, :, [i]],
                )
                parts += inst.scenarios[i].probability * evaluate_total(plan, single).cost.expected_on_demand
            assert parts == pytest.approx(whole, abs=1e-12)
