"""The cached pricing table prices every plan with the bits of the former per-call formulas.

``ProblemInstance.pricing`` holds an instance's per-device prices, cheapest
on-demand device, one bundle's coverage and snapped requirements.  The
oracle below keeps the formulas that rebuilt those from ``instance.devices``
on every call, with each ordered sum written as a left-to-right loop, and
the table-backed functions must equal them with ``==``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semalloc.recourse as recourse
from semalloc import (
    CostBreakdown,
    ReservationPlan,
    evaluate_many,
    evaluate_total,
    on_demand_unit_cost,
    optimal_recourse,
    reservation_bundle_cost,
    scale_on_demand_cost,
    shortfalls,
    with_probabilities,
)
from semalloc.recourse import _stage1_costs
from semalloc.solvers import _priced_search_setup
from _support import make_random_instance, random_plan
from test_solvers import bare_search_setup, make_decimal_instance


def left_to_right(terms: np.ndarray) -> np.ndarray:
    """``total = 0.0; for t in row: total += t`` over the last axis, for every row."""
    totals = np.zeros(terms.shape[:-1])
    for i in range(terms.shape[-1]):
        totals = totals + terms[..., i]
    return totals


def former_shortfalls(bundles, instance) -> np.ndarray:
    counts = np.asarray(bundles, dtype=np.float64)
    sizes = np.array([dev.bundle_size for dev in instance.devices], dtype=np.float64)
    per_bundle = sizes[:, None] * instance.similarity
    coverage = np.zeros(counts.shape[:-1] + (instance.num_scenarios,))
    for e in range(instance.num_devices):
        coverage += counts[..., e, None] * per_bundle[:, e, :]
    snapped = instance.requirements - 1e-9 * np.maximum(1.0, instance.requirements)
    return np.ceil(np.maximum(0.0, snapped - coverage)).astype(np.int64)


def former_stage1_costs(bundles, devices) -> tuple[np.ndarray, np.ndarray]:
    fees = np.array([dev.membership_cost for dev in devices], dtype=np.float64)
    prices = np.array([reservation_bundle_cost(dev) for dev in devices], dtype=np.float64)
    flat = (bundles.shape[0], bundles.shape[1] * bundles.shape[2])
    return left_to_right(((bundles >= 1) * fees).reshape(flat)), left_to_right((bundles * prices).reshape(flat))


def former_cheapest_device(instance) -> int:
    costs = [on_demand_unit_cost(dev) for dev in instance.devices]
    return min(range(len(costs)), key=lambda e: (costs[e], e))


def former_evaluate_many(bundles, instance) -> tuple[np.ndarray, ...]:
    counts = np.asarray(bundles, dtype=np.int64)
    membership, reservation = former_stage1_costs(counts, instance.devices)
    unit_cost = on_demand_unit_cost(instance.devices[former_cheapest_device(instance)])
    units = former_shortfalls(counts, instance) * unit_cost
    expected = left_to_right(instance.probabilities * left_to_right(units.transpose(0, 2, 1)))
    return membership, reservation, expected, membership + reservation + expected


def former_evaluate_total(plan, instance) -> tuple[CostBreakdown, np.ndarray]:
    """The cost breakdown and recourse tensor of the normalized plan."""
    bundles = ReservationPlan.from_bundles(plan.bundles).bundles
    cost = CostBreakdown(*(float(column[0]) for column in former_evaluate_many(bundles[None], instance)))
    tensor = np.zeros((instance.num_vsps, instance.num_devices, instance.num_scenarios), dtype=np.int64)
    tensor[:, former_cheapest_device(instance), :] = former_shortfalls(bundles, instance)
    return cost, tensor


class TestPricingTable:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), decimal=st.booleans())
    def test_equals_the_former_formulas(self, seed, decimal):
        # dyadic instances with up to four VSPs, or hundredths-grid ones whose coverage sums round
        rng = np.random.default_rng(seed)
        inst = make_decimal_instance(rng) if decimal else make_random_instance(rng, 4, 5, 4)
        stack = np.stack([random_plan(rng, inst).bundles for _ in range(4)])
        assert inst.pricing.cheapest == former_cheapest_device(inst)
        assert np.array_equal(shortfalls(stack, inst), former_shortfalls(stack, inst))
        assert [column.tolist() for column in _stage1_costs(stack, inst.pricing)] == [
            column.tolist() for column in former_stage1_costs(stack, inst.devices)
        ]
        assert [column.tolist() for column in evaluate_many(stack, inst)] == [
            column.tolist() for column in former_evaluate_many(stack, inst)
        ]
        # SIP's search set-up, read from the table, equals the one built from the bare devices
        pricing, weights, upper = inst.pricing, list(inst.probabilities), inst.bundle_upper_bounds
        assert _priced_search_setup(pricing, inst.similarity, weights, pricing.unit_price, upper) == bare_search_setup(
            inst.devices, inst.similarity, weights, pricing.unit_price, upper
        )
        for bundles in stack:
            plan = ReservationPlan.from_bundles(bundles)
            cost, tensor = former_evaluate_total(plan, inst)
            solution = evaluate_total(plan, inst)
            assert solution.cost == cost
            assert np.array_equal(solution.recourse.on_demand, tensor)
            assert np.array_equal(optimal_recourse(plan, inst).on_demand, tensor)
            assert np.array_equal(shortfalls(bundles, inst), former_shortfalls(bundles, inst))

    def test_arrays_are_read_only_and_built_once(self, singapore):
        pricing = singapore.pricing
        assert singapore.pricing is pricing
        assert pricing.coverage.shape == (singapore.num_vsps, singapore.num_devices, singapore.num_scenarios)
        assert pricing.snapped.shape == (singapore.num_vsps, singapore.num_scenarios)
        arrays = [pricing.sizes, pricing.memberships, pricing.bundle_prices, pricing.coverage, pricing.snapped]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1.0

    def test_derived_instances_use_their_own_unit_cost_and_probabilities(self, singapore):
        plan = ReservationPlan.from_bundles([[1, 0, 0], [0, 0, 1]])
        base = evaluate_total(plan, singapore)  # the base table exists before anything is derived
        scaled = scale_on_demand_cost(singapore, 2.5)
        shifted = with_probabilities(singapore, [0.25, 0.75])
        for derived in (scaled, shifted):
            cost, tensor = former_evaluate_total(plan, derived)
            solution = evaluate_total(plan, derived)
            assert solution.cost == cost
            assert np.array_equal(solution.recourse.on_demand, tensor)
            assert solution.cost.expected_on_demand != base.cost.expected_on_demand
        assert scaled.pricing.unit_price == on_demand_unit_cost(scaled.devices[scaled.pricing.cheapest])
        assert math.isclose(scaled.pricing.unit_price, 2.5 * singapore.pricing.unit_price)

    def test_evaluate_total_computes_shortfalls_once(self, monkeypatch, singapore):
        calls = []
        computed = recourse._shortfalls

        def counted(*args):
            calls.append(args)
            return computed(*args)

        monkeypatch.setattr(recourse, "_shortfalls", counted)
        evaluate_total(ReservationPlan.from_bundles([[1, 1, 0], [0, 2, 1]]), singapore)
        assert len(calls) == 1
