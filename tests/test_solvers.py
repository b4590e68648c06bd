import dataclasses
import importlib
import itertools
import math
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semalloc as sm
from semalloc import (
    DipInstance,
    InfeasibleError,
    NodeLimitError,
    ReservationPlan,
    SolverConfig,
    bundle_upper_bound,
    dip_from_instance,
    evaluate_total,
    on_demand_unit_cost,
    solve_dip,
    solve_sip,
    sweep_first_stage,
)
from _support import (
    enumerate_sip_minimum,
    make_random_instance,
    oracle_bundle_bounds,
    random_plan,
)
from semalloc.core_model import pricing_table, reservation_bundle_cost
from semalloc.errors import ConfigurationError
from semalloc.recourse import shortfalls
from semalloc.solvers import (
    TIE_REL,
    _child_bounds,
    _counts_by_bound,
    _objective_caps,
    _priced_search_setup,
    _SearchSetup,
    _suffix_scales,
    _weighted_gap,
)
from test_recourse import build_instance, device_with_unit_cost, repro_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"


def make_dip(similarity, quantities, thresholds=None, bundle_size=200, membership=1.89):
    similarity = np.asarray(similarity, dtype=float)
    num_vsps, num_devices = similarity.shape
    devices = tuple(
        sm.EdgeDevice(
            id=e,
            uplink_rate=1.5e6,
            transmit_power=0.1,
            avg_payload_semantic=5125.0,
            membership_cost=membership,
            bundle_size=bundle_size,
            alpha_reservation=5.0,
            alpha_on_demand=15.0,
        )
        for e in range(num_devices)
    )
    thresholds = thresholds if thresholds is not None else [1.0] * num_vsps
    return DipInstance(devices, similarity, np.array(quantities, float), np.array(thresholds, float))


class TestBundleUpperBound:
    def test_zero_similarity_column(self):
        inst = build_instance([1.0], [[[0.0, 0.0]]], [[5], [5]], probabilities=(0.5, 0.5))
        assert bundle_upper_bound(0, 0, inst) == 0

    def test_worst_case_requirement_at_least_productive_similarity(self):
        inst = build_instance([1.0], [[[0.8]]], [[200]], bundle_size=120)
        assert bundle_upper_bound(0, 0, inst) == 3  # ceil(200 / 96)

    def test_zero_demand(self):
        inst = build_instance([1.0], [[[0.9]]], [[0]])
        assert bundle_upper_bound(0, 0, inst) == 0

    def test_optimal_plans_respect_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            inst = make_random_instance(rng)
            solution = solve_sip(inst)
            for w in range(inst.num_vsps):
                for e in range(inst.num_devices):
                    assert solution.plan.bundles[w, e] <= bundle_upper_bound(w, e, inst)


def former_bundle_upper_bound(w: int, e: int, instance: sm.ProblemInstance) -> int:
    """The per-(vsp, device) search bound as each call computed it before the cached matrix."""
    positive = [s for s in instance.similarity[w, e].tolist() if s > 0.0]
    if not positive:
        return 0
    least = min(positive)
    max_requirement = float(instance.requirements[w].max())
    if max_requirement <= 0.0:
        return 0
    count = max_requirement / (instance.devices[e].bundle_size * least)
    if count == math.inf:
        raise ConfigurationError(
            f"VSP {w}, device {e}: similarity {least!r} is too small to bound its bundle count"
        )
    return int(math.ceil(count))


def bound_instance(sizes, quantities, thresholds, similarity) -> sm.ProblemInstance:
    """An instance with the given bundle sizes, ``(scenario, vsp)`` demands and ``(vsp, device, scenario)`` tensor."""
    num_scenarios = len(quantities)
    devices = tuple(
        sm.EdgeDevice(e, 1.5e6, 0.1, 5125.0, 1.0, size, 5.0, 15.0) for e, size in enumerate(sizes)
    )
    scenarios = tuple(
        sm.DemandScenario(1.0 / num_scenarios, tuple(sm.VspDemand("k", q, t) for q, t in zip(qs, ts)))
        for qs, ts in zip(quantities, thresholds)
    )
    return sm.ProblemInstance(devices, tuple(sm.Vsp(w) for w in range(len(similarity))), scenarios, similarity)


@st.composite
def bound_instances(draw):
    num_vsps, num_devices, num_scenarios = (draw(st.integers(1, n)) for n in (3, 4, 3))
    # a subnormal similarity overflows the count; the others keep it below 2**63
    similarity = st.one_of(st.just(0.0), st.floats(1e-9, 1.0), st.floats(5e-324, 1e-320))
    demand = st.one_of(st.just(0), st.integers(1, 10**6))
    threshold = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    return bound_instance(
        draw(st.lists(st.integers(1, 500), min_size=num_devices, max_size=num_devices)),
        [[draw(demand) for _ in range(num_vsps)] for _ in range(num_scenarios)],
        [[draw(threshold) for _ in range(num_vsps)] for _ in range(num_scenarios)],
        [[[draw(similarity) for _ in range(num_scenarios)] for _ in range(num_devices)] for _ in range(num_vsps)],
    )


class TestBundleUpperBoundsMatrix:
    @settings(max_examples=300, deadline=None)
    @given(inst=bound_instances())
    @example(inst=bound_instance([3], [[0]], [[1.0]], [[[0.5]]]))  # zero demand
    @example(inst=bound_instance([3, 4], [[7]], [[0.5]], [[[0.0], [0.25]]]))  # no positive similarity
    @example(inst=bound_instance([2, 2], [[0, 5]], [[1.0, 1.0]], [[[1e-320], [0.5]], [[0.5], [1e-320]]]))
    def test_matrix_equals_the_former_per_call_bound(self, inst):
        cells = [(w, e) for w in range(inst.num_vsps) for e in range(inst.num_devices)]
        try:
            expected = [former_bundle_upper_bound(w, e, inst) for w, e in cells]  # row-major
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError) as raised:
                inst.bundle_upper_bounds
            assert str(raised.value) == str(exc)
            return
        matrix = inst.bundle_upper_bounds
        assert matrix.dtype == np.int64 and not matrix.flags.writeable
        assert matrix.reshape(-1).tolist() == expected
        assert [bundle_upper_bound(w, e, inst) for w, e in cells] == expected

    def test_a_bound_of_two_to_the_sixty_three_is_a_configuration_error(self):
        inst = bound_instance([1], [[10**12]], [[1.0]], [[[1e-9]]])
        assert former_bundle_upper_bound(0, 0, inst) >= 2**63
        message = "VSP 0, device 0: similarity 1e-09 is too small to bound its bundle count"
        with pytest.raises(ConfigurationError, match=message):
            inst.bundle_upper_bounds


class TestSolveDip:
    def test_worked_example_two_bundles(self):
        dip = make_dip([[0.8]], [200])
        solution = solve_dip(dip)
        assert solution.plan.bundles.tolist() == [[2]]
        assert solution.cost.expected_on_demand == 0.0

    @pytest.mark.parametrize(
        "similarity, quantity",
        [([[0.8]], 0), ([[0.5, 0.0]], 1e-10), (np.zeros((1, 0)), 0)],
        ids=["zero", "under-the-snap-tolerance", "no-devices"],
    )
    def test_zero_demand_zero_plan(self, similarity, quantity):
        dip = make_dip(similarity, [quantity])
        solution = solve_dip(dip)
        assert not solution.plan.bundles.any()
        assert solution.cost.total == 0.0

    def test_equal_cost_devices_pick_higher_yield(self):
        # equal per-bundle prices; device 1 covers the demand with one bundle
        dip = make_dip([[0.5, 1.0]], [100], bundle_size=100)
        solution = solve_dip(dip)
        assert solution.plan.bundles.tolist() == [[0, 1]]

    @pytest.mark.parametrize(
        "similarity, quantities, node_limit, vsp, requirement",
        [
            ([[0.5, 0.5], [0.0, 0.0]], [10, 10], None, 1, "10.0"),
            ([[0.5, 0.5], [0.0, 0.0]], [10, 3.5], None, 1, "3.5"),
            ([[0.5, 0.5], [0.0, 0.0]], [10, 3.5], 1, 1, "3.5"),  # VSP 0's search is cut first
            ([[0.0, 0.0]], [1e-10], None, 0, "1e-10"),  # under the snap tolerance, yet positive
        ],
        ids=["unmatched", "unmatched-fraction", "unmatched-after-a-cut", "unmatched-tiny"],
    )
    def test_infeasible_names_vsp(self, similarity, quantities, node_limit, vsp, requirement):
        dip = make_dip(similarity, quantities)
        message = f"VSP {vsp}: requirement {requirement} but no device has positive similarity"
        with pytest.raises(InfeasibleError, match=message) as err:
            solve_dip(dip, SolverConfig(node_limit=node_limit) if node_limit else None)
        assert err.value.vsp == vsp

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -0.5, 1.5])
    def test_rejects_a_threshold_outside_the_unit_interval(self, threshold):
        with pytest.raises(ValueError, match=r"actual_threshold entries must lie in \[0, 1\]"):
            make_dip([[0.72]], [200], thresholds=[threshold])

    def test_fractional_quantity_accepted(self):
        dip = make_dip([[1.0]], [50.5], bundle_size=100)
        assert solve_dip(dip).plan.bundles.tolist() == [[1]]

    def test_membership_counts_once_per_device(self):
        dip = make_dip([[1.0]], [300], bundle_size=100, membership=2.0)
        solution = solve_dip(dip)
        assert solution.plan.bundles.tolist() == [[3]]
        assert solution.cost.membership_total == 2.0

    def test_exhaustive_agreement_on_random_deterministic_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            inst = make_random_instance(rng, max_scenarios=1)
            if any(
                inst.requirement(w, 0) > 0 and not inst.similarity[w, :, 0].any()
                for w in range(inst.num_vsps)
            ):
                continue
            dip = dip_from_instance(inst)
            solution = solve_dip(dip)
            oracle = _enumerate_dip_minimum(dip)
            assert solution.cost.total == pytest.approx(oracle, abs=1e-9)


def _enumerate_dip_minimum(dip: DipInstance) -> float:
    import itertools

    from semalloc import reservation_bundle_cost

    total = 0.0
    for w in range(dip.num_vsps):
        req = float(dip.actual_quantity[w] * dip.actual_threshold[w])
        if req <= 0:
            continue
        bounds = [
            math.ceil(req / (dev.bundle_size * dip.actual_similarity[w, e])) + 1
            if dip.actual_similarity[w, e] > 0
            else 0
            for e, dev in enumerate(dip.devices)
        ]
        best = None
        for combo in itertools.product(*[range(b + 1) for b in bounds]):
            covered = sum(
                k * dev.bundle_size * dip.actual_similarity[w, e]
                for e, (k, dev) in enumerate(zip(combo, dip.devices))
            )
            if covered < req:
                continue
            cost = sum(
                (dev.membership_cost + k * reservation_bundle_cost(dev)) if k else 0.0
                for k, dev in zip(combo, dip.devices)
            )
            if best is None or cost < best:
                best = cost
        total += best
    return total


class TestSolveSip:
    def test_zero_demand_certain(self, zero_demand):
        solution = solve_sip(zero_demand)
        assert solution.cost.total == 0.0
        assert not solution.plan.bundles.any()

    def test_single_scenario_equals_best_of_dip_and_pure_on_demand(self):
        # exact-multiple coverage: the optimum is either full reservation or pure on-demand
        inst = build_instance([2.0], [[[1.0]]], [[100]], bundle_size=10)
        dip_plan = solve_dip(dip_from_instance(inst)).plan
        dip_total = evaluate_total(dip_plan, inst).cost.total
        pure_od_total = evaluate_total(ReservationPlan.zeros(1, 1), inst).cost.total
        assert solve_sip(inst).cost.total == pytest.approx(min(dip_total, pure_od_total), abs=1e-12)

    def test_certain_demand_reserves_everything(self, singapore):
        certain = sm.with_probabilities(singapore, [0.0, 1.0])
        solution = solve_sip(certain)
        assert solution.plan.bundles[0].any() and solution.plan.bundles[1].any()
        assert solution.cost.expected_on_demand == 0.0

    def test_no_demand_scenario_certain_costs_nothing(self, singapore):
        solution = solve_sip(sm.with_probabilities(singapore, [1.0, 0.0]))
        assert solution.cost.total == 0.0

    def test_a_requirement_under_the_snap_tolerance_needs_no_search_bound(self):
        # 1e-10 snaps to no gap, while 1e-10 / (5 * 1e-31) bundles bound nothing
        inst = bound_instance([5], [[1]], [[1e-10]], [[[1e-31]]])
        with pytest.raises(ConfigurationError, match="too small to bound its bundle count"):
            inst.bundle_upper_bounds
        assert solve_sip(inst).plan.bundles.tolist() == [[0]]

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            inst = make_random_instance(rng)
            assert solve_sip(inst).cost.total == pytest.approx(
                enumerate_sip_minimum(inst), abs=1e-9
            )

    def test_dominates_random_plans(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            inst = make_random_instance(rng)
            optimum = solve_sip(inst).cost.total
            for _ in range(100):
                plan = random_plan(rng, inst)
                assert optimum <= evaluate_total(plan, inst).cost.total + 1e-9

    def test_dip_sip_consistency_with_prohibitive_on_demand(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            inst = make_random_instance(rng, max_scenarios=1)
            if any(
                inst.requirement(w, 0) > 0 and not inst.similarity[w, :, 0].any()
                for w in range(inst.num_vsps)
            ):
                continue
            expensive = sm.scale_on_demand_cost(inst, 1e6)
            dip_solution = solve_dip(dip_from_instance(expensive))
            sip_solution = solve_sip(expensive)
            assert np.array_equal(sip_solution.plan.bundles, dip_solution.plan.bundles)
            assert sip_solution.cost.total == pytest.approx(dip_solution.cost.total, abs=1e-9)
            assert sip_solution.cost.expected_on_demand == 0.0

    def test_membership_normalization(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            inst = make_random_instance(rng)
            plan = solve_sip(inst).plan
            assert np.array_equal(plan.membership, (plan.bundles >= 1).astype(int))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_lexicographic_tie_break(self, scale):
        # two identical devices: (0, 1) and (1, 0) cost the same; (0, 1) is smaller
        inst = build_instance([2.0, 2.0], [[[1.0], [1.0]]], [[10]], bundle_size=10)
        devices = tuple(
            dataclasses.replace(
                dev,
                membership_cost=0.5 * scale,
                alpha_reservation=dev.alpha_reservation * scale,
                alpha_on_demand=dev.alpha_on_demand * scale,
            )
            for dev in inst.devices
        )
        scaled = sm.ProblemInstance(devices, inst.vsps, inst.scenarios, inst.similarity)
        assert solve_sip(scaled).plan.bundles.tolist() == [[0, 1]]

    def test_invalid_instance_rejected(self):
        inst = build_instance([1.0], [[[0.5]]], [[5], [5]], probabilities=(0.7, 0.7))
        with pytest.raises(sm.ValidationFailure):
            solve_sip(inst)

    def test_node_limit_carries_partial_result(self, singapore):
        with pytest.raises(NodeLimitError) as err:
            solve_sip(singapore, SolverConfig(node_limit=2))
        assert err.value.partial is not None
        assert err.value.incomplete_vsps
        assert math.isfinite(err.value.partial.cost.total)

    def test_node_limit_reports_lower_bound_and_gap(self):
        rng = np.random.default_rng(31)
        cut_short = 0
        for _ in range(30):
            inst = make_random_instance(rng)
            try:
                solve_sip(inst, SolverConfig(node_limit=2))
            except NodeLimitError as err:
                cut_short += 1
                total = err.partial.cost.total
                optimum = enumerate_sip_minimum(inst)
                assert err.lower_bound <= optimum + 1e-12 and optimum <= total + 1e-12
                assert err.gap == ((total - err.lower_bound) / total if total > 0 else 0.0)
                assert f"lower bound {err.lower_bound:.10g}" in str(err)
                assert f"gap {err.gap:.2%}" in str(err)
        assert cut_short >= 10

    def test_node_limit_lower_bound_for_dip(self):
        dip = make_dip([[0.5, 0.75, 1.0]], [1000], bundle_size=10)
        optimum = solve_dip(dip).cost.total
        with pytest.raises(NodeLimitError) as err:
            solve_dip(dip, SolverConfig(node_limit=2))
        assert 0.0 < err.value.lower_bound <= optimum

    def test_small_prices_do_not_widen_the_tie_window(self):
        # [[1, 0]] costs 0.03025 * scale and [[0, 2]] 0.0305 * scale; both cover every
        # scenario.  At scale 1e-6 the gap, 2.5e-10, is under an absolute 1e-9 window
        # but is 0.8% of the cost: the lexicographically smaller [[0, 2]] must not win.
        def device(e, membership, alpha_on_demand):
            return sm.EdgeDevice(
                id=e,
                uplink_rate=2.5e6,
                transmit_power=0.1,
                avg_payload_semantic=5125.0,
                membership_cost=membership * 1e-6,
                bundle_size=10,
                alpha_reservation=5.0e-6,
                alpha_on_demand=alpha_on_demand * 1e-6,
            )

        scenarios = (
            sm.DemandScenario(0.38, (sm.VspDemand("k", 5, 0.76),)),
            sm.DemandScenario(0.62, (sm.VspDemand("k", 9, 0.37),)),
        )
        inst = sm.ProblemInstance(
            (device(0, 0.02, 728.0), device(1, 0.01, 311.0)),
            (sm.Vsp(0),),
            scenarios,
            [[[0.38, 0.45], [0.86, 0.21]]],
        )
        solution = solve_sip(inst)
        assert solution.plan.bundles.tolist() == [[1, 0]]
        assert solution.cost.total == min(
            evaluate_total(ReservationPlan.from_bundles(plan), inst).cost.total for plan in _lattice(inst)
        )

    def test_vanishing_on_demand_cost_stops_all_reservation(self):
        # positive membership plus near-free on-demand: reserving buys nothing;
        # a tiny reservation coefficient keeps small factors price-consistent
        devices = (
            sm.EdgeDevice(
                id=0,
                uplink_rate=1.0,
                transmit_power=1.0,
                avg_payload_semantic=1.0,
                membership_cost=0.5,
                bundle_size=10,
                alpha_reservation=1e-9,
                alpha_on_demand=15.0,
            ),
        )
        scenarios = (
            sm.DemandScenario(1.0, (sm.VspDemand("k", 100, 1.0),)),
        )
        inst = sm.ProblemInstance(devices, (sm.Vsp(0),), scenarios, [[[1.0]]])
        for factor in (1e-4, 1e-6):
            scaled = sm.scale_on_demand_cost(inst, factor)
            solution = solve_sip(scaled)
            assert not solution.plan.bundles.any()
            assert solution.cost.total == pytest.approx(
                enumerate_sip_minimum(scaled), abs=1e-12
            )


class TestSweepFirstStage:
    def test_stage_curves_and_argmin(self, cost_structure):
        points = sweep_first_stage(cost_structure, 0, 0, range(0, 21))
        stage1 = [p.stage1_cost for p in points]
        stage2 = [p.stage2_cost for p in points]
        totals = [p.total_cost for p in points]
        assert stage1 == sorted(stage1)
        assert stage2 == sorted(stage2, reverse=True)
        # past full coverage the second stage stays at zero
        assert stage2[13:] == [0.0] * 8
        argmin = min(range(len(totals)), key=totals.__getitem__)
        assert 0 < argmin < 20
        solution = solve_sip(cost_structure)
        assert solution.plan.bundles[0, 0] == points[argmin].bundles
        assert solution.cost.total == pytest.approx(totals[argmin], abs=1e-12)

    def test_stage1_strictly_increasing_once_reserved(self, cost_structure):
        points = sweep_first_stage(cost_structure, 0, 0, range(1, 6))
        stage1 = [p.stage1_cost for p in points]
        assert all(b > a for a, b in zip(stage1, stage1[1:]))

    def test_index_validation(self, cost_structure):
        with pytest.raises(ValueError):
            sweep_first_stage(cost_structure, 2, 0, range(3))
        with pytest.raises(ValueError):
            sweep_first_stage(cost_structure, 0, 5, range(3))


class TestDipFromInstance:
    def test_extracts_scenario_actuals(self, singapore):
        dip = dip_from_instance(singapore, scenario_index=1)
        assert dip.actual_quantity.tolist() == [200.0, 300.0]
        assert dip.actual_similarity[0].tolist() == [0.72, 0.697, 0.83]

    def test_index_out_of_range(self, singapore):
        with pytest.raises(ValueError):
            dip_from_instance(singapore, scenario_index=2)


def make_decimal_instance(rng: np.random.Generator, max_scenarios: int = 3) -> sm.ProblemInstance:
    """One-VSP instance whose similarity, threshold and probabilities lie on hundredths.

    Unlike the dyadic grids of ``_support``, these values are inexact in
    binary, so coverage sums carry rounding errors.  About half the demands
    are covered exactly by a few bundles of one device, where a rounding error
    decides whether a unit is bought.  Draws repeat until the bundle lattice
    (search bounds + 1) has at most 1500 plans, which keeps enumeration cheap.
    """
    while True:
        num_devices = int(rng.integers(1, 4))
        num_scenarios = int(rng.integers(1, max_scenarios + 1))
        sizes = rng.integers(1, 11, size=num_devices)
        devices = tuple(
            sm.EdgeDevice(
                id=e,
                uplink_rate=2.5e6,
                transmit_power=0.1,
                avg_payload_semantic=5125.0,
                membership_cost=int(rng.integers(0, 6)) / 100,
                bundle_size=int(sizes[e]),
                alpha_reservation=5.0,
                alpha_on_demand=float(rng.integers(6, 1001)),
            )
            for e in range(num_devices)
        )
        cuts = np.sort(rng.choice(np.arange(1, 100), size=num_scenarios - 1, replace=False))
        probabilities = np.diff(cuts, prepend=0, append=100) / 100
        hundredths = rng.integers(0, 101, size=(num_devices, num_scenarios))
        scenarios = tuple(
            sm.DemandScenario(float(p), (_decimal_demand(rng, sizes, hundredths[:, i]),))
            for i, p in enumerate(probabilities)
        )
        inst = sm.ProblemInstance(devices, (sm.Vsp(0),), scenarios, hundredths[None] / 100)
        if math.prod(_lattice_axes(inst)) <= 1500:
            return inst


def _decimal_demand(rng: np.random.Generator, sizes, hundredths) -> sm.VspDemand:
    """A random demand, or, half the time, one that k bundles of some device cover exactly."""
    e = int(rng.integers(len(sizes)))
    covered = int(rng.integers(1, 4)) * int(sizes[e]) * int(hundredths[e])  # in hundredths
    quantities = [q for q in range(1, 31) if covered % q == 0 and covered // q <= 100]
    if covered and rng.random() < 0.5:
        q = int(rng.choice(quantities))
        return sm.VspDemand("k", q, covered // q / 100)
    return sm.VspDemand("k", int(rng.integers(0, 13)), int(rng.integers(1, 101)) / 100)


def _exact_shortfalls(bundles: np.ndarray, instance: sm.ProblemInstance) -> np.ndarray:
    """Shortfalls in rational arithmetic, exact because every input lies on hundredths."""
    out = np.zeros((instance.num_vsps, instance.num_scenarios), dtype=np.int64)
    for i, scen in enumerate(instance.scenarios):
        for w, demand in enumerate(scen.per_vsp):
            gap = Fraction(demand.quantity * round(demand.threshold * 100), 100) - sum(
                Fraction(int(k) * dev.bundle_size * round(instance.similarity[w, e, i] * 100), 100)
                for e, (k, dev) in enumerate(zip(bundles[w], instance.devices))
            )
            out[w, i] = max(0, math.ceil(gap))
    return out


def _lattice_axes(instance: sm.ProblemInstance) -> list[int]:
    return [bundle_upper_bound(0, e, instance) + 2 for e in range(instance.num_devices)]


def _lattice(instance: sm.ProblemInstance):
    for combo in itertools.product(*(range(n) for n in _lattice_axes(instance))):
        yield np.array([combo], dtype=np.int64)


class TestDecimalGrids:
    """Solvers agree with ``evaluate_total`` and ``shortfalls`` off the dyadic grids."""

    def test_sip_repro_is_the_evaluate_total_minimum(self):
        inst = repro_instance()
        totals = [
            evaluate_total(ReservationPlan.from_bundles([[k]]), inst).cost.total for k in range(6)
        ]
        solution = solve_sip(inst)
        assert solution.plan.bundles.tolist() == [[3]]
        assert solution.cost.total == min(totals)

    def test_shortfalls_are_exact(self):
        rng = np.random.default_rng(2023)
        for _ in range(20):
            inst = make_decimal_instance(rng)
            for plan in _lattice(inst):
                assert np.array_equal(shortfalls(plan, inst), _exact_shortfalls(plan, inst))

    def test_sip_matches_evaluate_total_minimum(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            inst = make_decimal_instance(rng)
            best = min(
                evaluate_total(ReservationPlan.from_bundles(plan), inst).cost.total
                for plan in _lattice(inst)
            )
            assert solve_sip(inst).cost.total == pytest.approx(best, rel=1e-12, abs=1e-15)

    def test_dip_returns_cheapest_plan_without_shortfall(self):
        rng = np.random.default_rng(2025)
        for _ in range(40):
            inst = make_decimal_instance(rng, max_scenarios=1)
            covering = [
                evaluate_total(ReservationPlan.from_bundles(plan), inst).cost.total
                for plan in _lattice(inst)
                if not shortfalls(plan, inst).any()
            ]
            dip = dip_from_instance(inst)
            if not covering:
                with pytest.raises(InfeasibleError):
                    solve_dip(dip)
                continue
            solution = solve_dip(dip)
            assert not shortfalls(solution.plan.bundles, inst).any()
            assert solution.cost.total == pytest.approx(min(covering), rel=1e-12, abs=1e-15)


def _loop_costs(bundles: np.ndarray, instance: sm.ProblemInstance) -> tuple[float, float, float, float]:
    """Reference costs of one plan: plain loops in the documented order over exact shortfalls.

    Stage 1 vsp-major, paying membership where bundles are; recourse
    scenario-major, then vsp, with every unit bought from the cheapest device.
    """
    membership = reservation = 0.0
    for row in bundles.tolist():
        for count, dev in zip(row, instance.devices):
            if count >= 1:
                membership += dev.membership_cost
                reservation += float(count) * reservation_bundle_cost(dev)
    unit_cost = min(on_demand_unit_cost(dev) for dev in instance.devices)
    short = _exact_shortfalls(bundles, instance)
    expected = 0.0
    for i, scen in enumerate(instance.scenarios):
        expected += scen.probability * sum(units * unit_cost for units in short[:, i].tolist())
    return membership, reservation, expected, membership + reservation + expected


class TestEvaluateMany:
    """A plan's costs from ``evaluate_many`` are bit-identical whatever else its stack holds."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 64), decimal=st.booleans())
    def test_batch_equals_plan_by_plan(self, seed, size, decimal):
        # hundredths-grid one-VSP problems, or dyadic problems with up to four VSPs
        rng = np.random.default_rng(seed)
        inst = make_decimal_instance(rng) if decimal else make_random_instance(rng, max_vsps=4)
        bounds = oracle_bundle_bounds(inst) + 1
        plans = rng.integers(0, bounds + 1, size=(size, *bounds.shape))
        # an all-zero plan, then 1-3 bundles of one device (the planted exact covers)
        special = [np.zeros_like(bounds)]
        for w, e, k in itertools.product(range(inst.num_vsps), range(inst.num_devices), (1, 2, 3)):
            special.append(np.zeros_like(bounds))
            special[-1][w, e] = k
        count = min(size, len(special))
        plans[rng.choice(size, count, replace=False)] = special[:count]
        costs = sm.evaluate_many(plans, inst)
        for j, plan in enumerate(plans):
            cost = evaluate_total(ReservationPlan.from_bundles(plan), inst).cost
            batch = tuple(float(column[j]) for column in costs)
            assert batch == (cost.membership_total, cost.reservation_total, cost.expected_on_demand, cost.total)
            assert batch == _loop_costs(plan, inst)

    def test_rejects_wrong_shape_and_negative_counts(self, singapore):
        with pytest.raises(ValueError, match="shape"):
            sm.evaluate_many(np.zeros((2, 3), dtype=np.int64), singapore)
        with pytest.raises(ValueError, match="shape"):
            sm.evaluate_many(np.zeros((1, 3, 2), dtype=np.int64), singapore)
        with pytest.raises(ValueError, match="non-negative"):
            sm.evaluate_many(-np.ones((1, 2, 3), dtype=np.int64), singapore)

    def test_empty_stack(self, singapore):
        costs = sm.evaluate_many(np.zeros((0, 2, 3), dtype=np.int64), singapore)
        assert all(column.shape == (0,) for column in costs)


def _lattice_plans(instance: sm.ProblemInstance) -> np.ndarray:
    """Every one-VSP bundle vector up to the search bounds + 1, as rows of an (n, E) array."""
    axes = [np.arange(n) for n in _lattice_axes(instance)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, instance.num_devices)


def _lattice_costs(plans: np.ndarray, instance: sm.ProblemInstance) -> np.ndarray:
    """Two-stage cost of each one-VSP plan row, in one vectorized pass.

    Same rule as ``evaluate_total`` (snapped requirement, whole on-demand units
    from the cheapest device), computed independently of the search.
    """
    devices = instance.devices
    per_bundle = np.array([dev.bundle_size for dev in devices])[:, None] * instance.similarity[0]
    gap = instance.pricing.snapped[0] - plans @ per_bundle
    expected_units = np.ceil(np.maximum(0.0, gap)) @ instance.probabilities
    stage1 = plans @ [reservation_bundle_cost(dev) for dev in devices]
    stage1 = stage1 + (plans >= 1) @ [dev.membership_cost for dev in devices]
    return stage1 + expected_units * min(on_demand_unit_cost(dev) for dev in devices)


def _with_twin(instance: sm.ProblemInstance, scale: float) -> sm.ProblemInstance:
    """``instance`` plus an exact copy of device 0 (a planted tie), every price times ``scale``."""
    devices = tuple(
        dataclasses.replace(
            dev,
            id=e,
            membership_cost=dev.membership_cost * scale,
            alpha_reservation=dev.alpha_reservation * scale,
            alpha_on_demand=dev.alpha_on_demand * scale,
        )
        for e, dev in enumerate(instance.devices + instance.devices[:1])
    )
    similarity = np.concatenate([instance.similarity, instance.similarity[:, :1]], axis=1)
    return sm.ProblemInstance(devices, instance.vsps, instance.scenarios, similarity)


def _tie_rule_plan(plans: np.ndarray, instance: sm.ProblemInstance, covering_only: bool = False):
    """The ``evaluate_total`` lattice minimum and the plan the documented tie rule picks.

    Plans within ``TIE_REL * minimum`` of the minimum tie, and the
    lexicographically smallest of them wins.  The vectorized costs only narrow
    the candidates; ``evaluate_total`` decides.
    """
    costs = _lattice_costs(plans, instance)
    if covering_only:
        feasible = [not shortfalls(plan[None], instance).any() for plan in plans]
        costs = np.where(feasible, costs, np.inf)
    floor = costs.min()
    if floor == np.inf:
        return None, None
    candidates = plans[costs <= floor * (1 + 3 * TIE_REL)]
    totals = [evaluate_total(ReservationPlan.from_bundles(plan[None]), instance).cost.total for plan in candidates]
    best = min(totals)
    tied = [tuple(plan.tolist()) for plan, total in zip(candidates, totals) if total <= best * (1 + TIE_REL)]
    return best, min(tied)


def _nudged(x: float, ulps: int) -> float:
    """``x`` moved ``ulps`` units in the last place up (positive) or down (negative)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


def bare_search_setup(devices, similarity, weights, cap, upper):
    """The search set-up of a device set, from its pricing table for ``similarity`` and no requirements."""
    pricing = pricing_table(devices, similarity, np.zeros((similarity.shape[0], similarity.shape[2])))
    return _priced_search_setup(pricing, similarity, weights, cap, upper)


def _former_rules(devices, expected_similarity, similarity, weights, cap, upper):
    """``(order, scales, rows)`` of every VSP by the per-VSP Python rules the set-up replaced.

    Order: ascending ``b_e / (size_e * expected_similarity[w, e])``, devices with
    no relevant unit last, ties by index.  Price: ``b_e + m_e / U_e``, or
    ``b_e`` where ``U_e = 0``.  Scales: a running minimum, from the deepest
    depth up, of ``price_e / sum_i weights_i * a_ei`` over the devices whose
    sum is positive, starting at ``cap``; each sum is Python's ``sum`` of a list.
    """
    bundle_costs = [reservation_bundle_cost(dev) for dev in devices]
    memberships = [dev.membership_cost for dev in devices]
    sizes = [dev.bundle_size for dev in devices]
    result = []
    for w in range(len(similarity)):
        relevance = expected_similarity[w].tolist()

        def key(e):
            relevant = sizes[e] * relevance[e]
            return (1, 0.0, e) if relevant <= 0.0 else (0, bundle_costs[e] / relevant, e)

        order = sorted(range(len(devices)), key=key)
        rows = (np.array(sizes, dtype=np.float64)[:, None] * similarity[w]).tolist()
        prices = [b + m / u if u else b for m, b, u in zip(memberships, bundle_costs, upper[w].tolist())]
        scales = [cap]
        for device in reversed(order):
            weighted = sum([p * a for p, a in zip(weights, rows[device])])
            scales.append(min(scales[-1], prices[device] / weighted) if weighted > 0.0 else scales[-1])
        result.append((order, scales[::-1], rows))
    return result


def _assert_setup_is_the_former_rules(devices, similarity, weights, cap, upper, expected_similarity=None):
    """:func:`bare_search_setup` gives the former orders, scales at every depth and rows, ``==`` equal."""
    if expected_similarity is None:  # SIP's expected similarity, accumulated scenario by scenario
        expected_similarity = np.zeros(similarity.shape[:2])
        for i, p in enumerate(weights):
            expected_similarity = expected_similarity + p * similarity[:, :, i]
    setup = bare_search_setup(devices, similarity, weights, cap, upper)
    former = _former_rules(devices, expected_similarity, similarity, weights, cap, upper)
    for w, (order, scales, rows) in enumerate(former):
        assert setup.orders[w] == order
        assert _suffix_scales(setup.orders[w], setup.ratios[w], cap) == scales
        assert setup.rows[w] == rows


class TestSearchSetup:
    """The numpy set-up keeps every bit of the per-VSP orders, prices and dual scales it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        decimal=st.booleans(),
        uncapped=st.booleans(),
        drawn_bounds=st.booleans(),
    )
    def test_equals_the_former_per_vsp_rules(self, seed, decimal, uncapped, drawn_bounds):
        # dyadic instances with up to four VSPs, or hundredths-grid ones whose sums round
        rng = np.random.default_rng(seed)
        inst = make_decimal_instance(rng) if decimal else make_random_instance(rng, 4, 5, 4)
        cap = math.inf if uncapped else min(on_demand_unit_cost(dev) for dev in inst.devices)
        upper = rng.integers(0, 3, size=inst.bundle_upper_bounds.shape) if drawn_bounds else inst.bundle_upper_bounds
        _assert_setup_is_the_former_rules(inst.devices, inst.similarity, list(inst.probabilities), cap, upper)

    @pytest.mark.parametrize("cap", [0.25, math.inf], ids=["capped", "uncapped"])
    def test_edge_cases_equal_the_former_rules(self, cap):
        # device 1 has no relevant unit for VSP 1; devices 2 and 3 have U_e = 0, without and with membership
        base = make_dip([[0.5]], [1]).devices[0]
        devices = tuple(
            dataclasses.replace(base, id=e, uplink_rate=rate, membership_cost=membership, bundle_size=size)
            for e, (rate, membership, size) in enumerate(
                [(1.5e6, 0.05, 7), (2.5e6, 0.0, 5), (3.5e6, 0.0, 9), (1.5e6, 0.13, 6)]
            )
        )
        similarity = np.array(
            [
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],  # VSP 0: no positive similarity
                [[0.31, 0.07], [0.0, 0.0], [0.93, 0.41], [0.17, 0.6]],
            ]
        )
        upper = np.array([[0, 0, 0, 0], [4, 0, 0, 0]])
        _assert_setup_is_the_former_rules(devices, similarity, [0.37, 0.63], cap, upper)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), decimal=st.booleans())
    def test_dip_form_equals_the_former_rules(self, seed, decimal):
        # DIP ordered on the raw similarity row, with one weight of 1 and no recourse price
        rng = np.random.default_rng(seed)
        inst = make_decimal_instance(rng, max_scenarios=1) if decimal else make_random_instance(rng, 4, 5, 1)
        dip = dip_from_instance(inst)
        caps = rng.integers(0, 3, size=dip.actual_similarity.shape)
        similarity = dip.actual_similarity[:, :, None]
        _assert_setup_is_the_former_rules(dip.devices, similarity, [1.0], math.inf, caps, dip.actual_similarity)


class TestRecourseBound:
    """The LP-dual bound of the search never prunes a count that could still win."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_excluded_counts_cannot_beat_the_incumbent(self, seed, data):
        inst = make_decimal_instance(np.random.default_rng(seed))
        devices = inst.devices
        order = data.draw(st.permutations(range(inst.num_devices)), label="order")
        memberships = [dev.membership_cost for dev in devices]
        bundle_costs = [reservation_bundle_cost(dev) for dev in devices]
        rows = (np.array([dev.bundle_size for dev in devices])[:, None] * inst.similarity[0]).tolist()
        unit = min(on_demand_unit_cost(dev) for dev in devices)
        probabilities = list(inst.probabilities)
        ubs = [bundle_upper_bound(0, e, inst) for e in range(inst.num_devices)]
        ratios = bare_search_setup(devices, inst.similarity, probabilities, unit, inst.bundle_upper_bounds).ratios[0]
        scales = _suffix_scales(order, ratios, unit)
        needs = inst.pricing.snapped[0].tolist()

        plans = _lattice_plans(inst)
        costs = _lattice_costs(plans, inst)
        depth = data.draw(st.integers(0, inst.num_devices - 1), label="depth")
        stage1, covered = 0.0, [0.0] * inst.num_scenarios
        subtree = np.ones(len(plans), dtype=bool)
        for e in order[:depth]:
            count = data.draw(st.integers(0, ubs[e] + 1), label=f"count of device {e}")
            if count:
                stage1 = stage1 + (memberships[e] + count * bundle_costs[e])
                covered = [c + count * r for c, r in zip(covered, rows[e])]
            subtree &= plans[:, e] == count
        incumbent = data.draw(
            st.sampled_from([costs.min(), costs[subtree].min(), costs.max()])
            | st.integers(0, len(plans) - 1).map(lambda k: costs[k]),
            label="incumbent",
        )
        ceiling = incumbent + TIE_REL * incumbent

        e, scale = order[depth], scales[depth + 1]
        zero = stage1 + scale * _weighted_gap(needs, covered, probabilities)
        bounds = _child_bounds(stage1 + memberships[e], bundle_costs[e], needs, covered, rows[e], probabilities, scale)
        children = _counts_by_bound(zero, bounds, ubs[e])  # the DFS stops at the first bound past the ceiling
        visited = {count for _, count in itertools.takewhile(lambda child: child[0] <= ceiling, children)}
        excluded = [k for k in range(ubs[e] + 1) if k not in visited]
        for count in excluded:
            completions = costs[subtree & (plans[:, e] == count)]
            assert completions.min() > ceiling, (count, completions.min(), ceiling)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), recourse=st.booleans(), data=st.data())
    def test_children_come_least_bound_first(self, seed, recourse, data):
        # with recourse priced (SIP) or a gap that must close (DIP); no incumbent stops the walk
        inst = make_decimal_instance(np.random.default_rng(seed))
        devices = inst.devices
        order = data.draw(st.permutations(range(inst.num_devices)), label="order")
        bundle_costs = [reservation_bundle_cost(dev) for dev in devices]
        rows = (np.array([dev.bundle_size for dev in devices])[:, None] * inst.similarity[0]).tolist()
        probabilities = list(inst.probabilities)
        cap = min(on_demand_unit_cost(dev) for dev in devices) if recourse else math.inf
        ratios = bare_search_setup(devices, inst.similarity, probabilities, cap, inst.bundle_upper_bounds).ratios[0]
        scales = _suffix_scales(order, ratios, cap)
        needs = inst.pricing.snapped[0].tolist()
        depth = data.draw(st.integers(0, inst.num_devices - 1), label="depth")
        stage1, covered = 0.0, [0.0] * inst.num_scenarios
        for e in order[:depth]:
            count = data.draw(st.integers(0, 3 * bundle_upper_bound(0, e, inst) + 1), label=f"count of device {e}")
            if count:
                stage1 = stage1 + (devices[e].membership_cost + count * bundle_costs[e])
                covered = [c + count * r for c, r in zip(covered, rows[e])]
        e, scale = order[depth], scales[depth + 1]
        upper = data.draw(st.integers(0, 3 * bundle_upper_bound(0, e, inst) + 3), label="upper")
        gap = _weighted_gap(needs, covered, probabilities)
        zero = stage1 + scale * gap if gap > 0.0 else stage1
        base = stage1 + devices[e].membership_cost
        bounds = _child_bounds(base, bundle_costs[e], needs, covered, rows[e], probabilities, scale)

        def child_bound(k):
            if k == 0:
                return zero
            if scale == math.inf:  # k must close every gap, up to a relative 1e-9 of the count
                closes = [
                    r > 0.0 and k >= (x := (need - cov) / r) - 1e-9 * max(1.0, x)
                    for need, cov, r in zip(needs, covered, rows[e])
                    if need > cov
                ]
                return base + k * bundle_costs[e] if all(closes) else math.inf
            left = [need - cov - k * r for need, cov, r in zip(needs, covered, rows[e])]
            return base + k * bundle_costs[e] + scale * sum(w * g for w, g in zip(probabilities, left) if g > 0.0)

        children = list(_counts_by_bound(zero, bounds, upper))
        counts = [count for _, count in children]
        assert sorted(counts) == [k for k in range(upper + 1) if child_bound(k) < math.inf]
        for bound, count in children:
            assert bound == (zero if count == 0 else pytest.approx(child_bound(count), rel=1e-12, abs=1e-12))
        for (before, _), (after, _) in zip(children, children[1:]):
            assert after >= before - 1e-12 * max(1.0, abs(before))

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), membership_scale=st.sampled_from([0.0, 1.0, 10.0, 1000.0]), data=st.data())
    def test_node_bound_never_exceeds_its_subtree_minimum(self, seed, membership_scale, data):
        # larger memberships make ``m_e / U_e`` a larger share of each bundle's price; 0 drops it
        inst = make_decimal_instance(np.random.default_rng(seed))
        devices = tuple(
            dataclasses.replace(dev, membership_cost=dev.membership_cost * membership_scale) for dev in inst.devices
        )
        inst = sm.ProblemInstance(devices, inst.vsps, inst.scenarios, inst.similarity)
        order = data.draw(st.permutations(range(inst.num_devices)), label="order")
        memberships = [dev.membership_cost for dev in devices]
        bundle_costs = [reservation_bundle_cost(dev) for dev in devices]
        rows = (np.array([dev.bundle_size for dev in devices])[:, None] * inst.similarity[0]).tolist()
        unit = min(on_demand_unit_cost(dev) for dev in devices)
        probabilities = list(inst.probabilities)
        ubs = [bundle_upper_bound(0, e, inst) for e in range(inst.num_devices)]
        ratios = bare_search_setup(devices, inst.similarity, probabilities, unit, inst.bundle_upper_bounds).ratios[0]
        scales = _suffix_scales(order, ratios, unit)
        needs = inst.pricing.snapped[0].tolist()

        # the lattice reaches U_e + 1, but those counts are dominated, so the minimum lies in k <= U
        plans = _lattice_plans(inst)
        costs = _lattice_costs(plans, inst)
        depth = data.draw(st.integers(0, inst.num_devices), label="depth")
        stage1, covered = 0.0, [0.0] * inst.num_scenarios
        subtree = np.ones(len(plans), dtype=bool)
        for e in order[:depth]:
            count = data.draw(st.integers(0, ubs[e]), label=f"count of device {e}")
            if count:
                stage1 = stage1 + (memberships[e] + count * bundle_costs[e])
                covered = [c + count * r for c, r in zip(covered, rows[e])]
            subtree &= plans[:, e] == count
        gap = _weighted_gap(needs, covered, probabilities)
        bound = stage1 + scales[depth] * gap if gap > 0.0 else stage1
        minimum = costs[subtree].min()
        assert bound <= minimum + 1e-12 * max(1.0, minimum), (bound, minimum)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), membership_scale=st.sampled_from([0.0, 1.0, 10.0, 1000.0]), data=st.data())
    def test_capped_node_bound_never_exceeds_its_subtree_minimum_under_the_ceiling(
        self, seed, membership_scale, data
    ):
        # caps and ratios from a ceiling at or above the optimum; the subtree counts stay within the uncapped bounds
        inst = make_decimal_instance(np.random.default_rng(seed))
        devices = tuple(
            dataclasses.replace(dev, membership_cost=dev.membership_cost * membership_scale) for dev in inst.devices
        )
        inst = sm.ProblemInstance(devices, inst.vsps, inst.scenarios, inst.similarity)
        order = data.draw(st.permutations(range(inst.num_devices)), label="order")
        memberships = [dev.membership_cost for dev in devices]
        bundle_costs = [reservation_bundle_cost(dev) for dev in devices]
        rows = (np.array([dev.bundle_size for dev in devices])[:, None] * inst.similarity[0]).tolist()
        unit = min(on_demand_unit_cost(dev) for dev in devices)
        probabilities = list(inst.probabilities)
        ubs = [bundle_upper_bound(0, e, inst) for e in range(inst.num_devices)]
        needs = inst.pricing.snapped[0].tolist()

        plans = _lattice_plans(inst)
        costs = np.where((plans <= ubs).all(axis=1), _lattice_costs(plans, inst), np.inf)
        optimum = costs.min()
        ceiling = data.draw(
            st.sampled_from([optimum, optimum + TIE_REL * optimum, costs[costs < np.inf].max()])
            | st.sampled_from(sorted(set(costs[costs >= optimum].tolist()) - {np.inf})),
            label="ceiling",
        )
        setup = bare_search_setup(devices, inst.similarity, probabilities, unit, inst.bundle_upper_bounds)
        _, ratios = _objective_caps(setup, 0, ceiling)
        scales = _suffix_scales(order, ratios, unit)

        depth = data.draw(st.integers(0, inst.num_devices), label="depth")
        stage1, covered = 0.0, [0.0] * inst.num_scenarios
        subtree = costs <= ceiling
        for e in order[:depth]:
            count = data.draw(st.integers(0, ubs[e]), label=f"count of device {e}")
            if count:
                stage1 = stage1 + (memberships[e] + count * bundle_costs[e])
                covered = [c + count * r for c, r in zip(covered, rows[e])]
            subtree &= plans[:, e] == count
        if not subtree.any():
            return  # no plan under the ceiling: the search prunes this node whatever its bound
        gap = _weighted_gap(needs, covered, probabilities)
        bound = stage1 + scales[depth] * gap if gap > 0.0 else stage1
        minimum = costs[subtree].min()
        assert bound <= minimum + 1e-12 * max(1.0, minimum), (bound, minimum)

    def test_capped_root_bound_at_the_optimum_never_exceeds_it(self):
        # the tightest caps: the ceiling is the optimum itself, which an exact cover by one device can meet
        for seed in [1435, *range(200)]:
            inst = make_decimal_instance(np.random.default_rng(seed))
            probabilities, unit = list(inst.probabilities), inst.pricing.unit_price
            plans = _lattice_plans(inst)
            optimum = _lattice_costs(plans, inst)[(plans <= inst.bundle_upper_bounds[0]).all(axis=1)].min()
            setup = bare_search_setup(inst.devices, inst.similarity, probabilities, unit, inst.bundle_upper_bounds)
            _, ratios = _objective_caps(setup, 0, optimum)
            root = _suffix_scales(setup.orders[0], ratios, unit)[0] * _weighted_gap(
                inst.pricing.snapped[0].tolist(), [0.0] * inst.num_scenarios, probabilities
            )
            assert root <= optimum + 1e-12 * max(1.0, optimum), (seed, root, optimum)

    @settings(max_examples=300, deadline=None)
    @given(
        membership=st.just(0.0) | st.floats(1e-6, 1e6),
        step=st.floats(1e-12, 1e6),
        upper=st.integers(1, 2_000),
        weighted=st.just(0.0) | st.floats(1e-3, 1e3),
        data=st.data(),
    )
    @example(membership=1e6, step=1e-11, upper=100, weighted=1.0, data=None)  # 5 bundles round away in 1e6
    def test_cap_is_the_largest_count_whose_stage1_floor_fits_the_ceiling(
        self, membership, step, upper, weighted, data
    ):
        if data is None:
            ceiling = membership
        else:
            # a free ceiling, or one within two ulps of some count's stage-1 floor
            near = st.tuples(st.integers(0, upper + 1), st.integers(-2, 2)).map(
                lambda pair: _nudged(membership + pair[0] * step, pair[1])
            )
            ceiling = data.draw(st.floats(1e-6, 1e6) | near, label="ceiling")
        ratio = (step + membership / upper) / weighted if weighted else math.inf
        setup = _SearchSetup([[0]], [[ratio]], [[[1.0]]], [[weighted]], [[upper]], [membership], [step], [1.0], 1.0)
        (cap,), (capped_ratio,) = _objective_caps(setup, 0, ceiling)
        fits = [k for k in range(1, upper + 1) if membership + k * step <= ceiling]
        largest = max(fits, default=0)
        assert largest <= cap <= min(largest + 1, upper)
        if cap == upper:
            assert capped_ratio == ratio
        elif weighted:
            assert capped_ratio == ((step + membership / cap) if cap else step) / weighted
        else:
            assert capped_ratio == math.inf

    def test_a_device_that_pays_nothing_per_bundle_keeps_its_bound(self):
        setup = _SearchSetup([[0]], [[0.5]], [[[1.0]]], [[0.2]], [[7]], [0.1], [0.0], [1.0], 1.0)
        assert _objective_caps(setup, 0, 0.05) == ([7], [0.5])

    def test_a_subnormal_bundle_price_under_a_larger_membership_caps_at_zero(self):
        # (ceiling - m) / b overflows to -inf: the estimate is skipped and bisection settles the cap
        setup = _SearchSetup([[0]], [[1.0]], [[[1.0]]], [[1.0]], [[7]], [1e6], [5e-324], [1.0], 1.0)
        assert _objective_caps(setup, 0, 1.0) == ([0], [5e-324])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-6, 1.0, 1e6]))
    @example(seed=60, scale=1.0)  # 59 bundles split over the twins; rounding once picked (1, 58)
    def test_sip_picks_the_tie_rule_plan_among_planted_ties(self, seed, scale):
        inst = _with_twin(make_decimal_instance(np.random.default_rng(seed)), scale)
        best, expected = _tie_rule_plan(_lattice_plans(inst), inst)
        solution = solve_sip(inst)
        assert solution.cost.total <= best * (1 + TIE_REL)
        assert tuple(solution.plan.bundles[0].tolist()) == expected

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-6, 1.0, 1e6]))
    def test_dip_picks_the_tie_rule_plan_among_planted_ties(self, seed, scale):
        inst = _with_twin(make_decimal_instance(np.random.default_rng(seed), max_scenarios=1), scale)
        best, expected = _tie_rule_plan(_lattice_plans(inst), inst, covering_only=True)
        if best is None:
            with pytest.raises(InfeasibleError):
                solve_dip(dip_from_instance(inst))
            return
        solution = solve_dip(dip_from_instance(inst))
        assert solution.cost.total <= best * (1 + TIE_REL)
        assert tuple(solution.plan.bundles[0].tolist()) == expected


def hard_instance(
    seed: int, num_devices: int = 9, num_scenarios: int = 3, memberships: Sequence[float] | None = None
) -> sm.ProblemInstance:
    """One VSP, nine devices, three scenarios: the family that hit the node budget.

    Quantity 400-599, thresholds 0.5-1.0 and similarity 0.05-0.99 on the
    hundredths grid, bundle size 5-10: hundreds of counts per device, so a
    search pruned on stage-1 cost alone runs out of 10 000 nodes.  Wider
    members of the family take more devices and scenarios.  ``memberships``,
    one per device, replace the drawn ones after the draw, so every other
    value is the same as without them.
    """
    rng = np.random.default_rng(seed)

    def hundredths(low, high, size=None):
        return np.round(rng.uniform(low, high, size=size), 2)

    devices = tuple(
        sm.EdgeDevice(
            id=e,
            uplink_rate=float(rng.choice((1.5e6, 2.5e6, 3.5e6))),
            transmit_power=float(rng.choice((0.07, 0.1, 0.13))),
            avg_payload_semantic=5125.0,
            membership_cost=float(hundredths(0.01, 0.15)),
            bundle_size=int(rng.integers(5, 11)),
            alpha_reservation=5.0,
            alpha_on_demand=15.0,
        )
        for e in range(num_devices)
    )
    cuts = np.sort(rng.choice(np.arange(1, 100), size=num_scenarios - 1, replace=False))
    scenarios = tuple(
        sm.DemandScenario(
            float(p), (sm.VspDemand("k", int(rng.integers(400, 600)), float(hundredths(0.5, 1.0))),)
        )
        for p in np.diff(cuts, prepend=0, append=100) / 100
    )
    similarity = hundredths(0.05, 0.99, size=(1, num_devices, num_scenarios))
    if memberships is not None:
        devices = tuple(dataclasses.replace(dev, membership_cost=m) for dev, m in zip(devices, memberships, strict=True))
    return sm.ProblemInstance(devices, (sm.Vsp(0),), scenarios, similarity)


def low_membership_instance(seed: int, num_devices: int, num_scenarios: int, memberships: str) -> sm.ProblemInstance:
    """:func:`hard_instance` with every membership 0 (``"zero"``) or drawn in 0.001-0.01 (``"low"``).

    The low memberships are ``round(u, 3)`` of one uniform draw per device
    from ``default_rng(30_000 + seed)``.  Optima there mix devices, where the
    drawn memberships make almost every optimum a one-device plan.
    """
    if memberships == "zero":
        drawn = [0.0] * num_devices
    else:
        drawn = [round(u, 3) for u in np.random.default_rng(30_000 + seed).uniform(0.001, 0.01, num_devices).tolist()]
    return hard_instance(seed, num_devices, num_scenarios, drawn)


# (seed, devices, scenarios, memberships): the low-membership wall at sizes tier 1 completes
LOW_MEMBERSHIP_CASES = [(seed, 9, 3, "zero") for seed in range(10)] + [(seed, 20, 4, "low") for seed in range(10)]


def _assert_beats_neighbours_and_baselines(inst: sm.ProblemInstance, solution: sm.Solution) -> None:
    """No +-1 neighbour is cheaper beyond ``TIE_REL`` (one ``evaluate_many`` call), RP <= EEV and RP <= random-min."""
    total, bundles = solution.cost.total, solution.plan.bundles
    neighbours = []
    for e in range(inst.num_devices):
        for delta in (-1, 1):
            if bundles[0, e] + delta >= 0:
                neighbours.append(bundles.copy())
                neighbours[-1][0, e] += delta
    assert (sm.evaluate_many(np.stack(neighbours), inst).total >= total * (1 - TIE_REL)).all()
    assert total <= sm.solve_evf(inst).cost.total * (1 + TIE_REL)
    assert total <= sm.solve_random(inst, sm.RandomSchemeConfig(seed=0, samples=100)).min_total * (1 + TIE_REL)


class TestScalingWall:
    def test_hard_instance_solves_within_the_node_budget(self):
        inst = hard_instance(5)
        solution = solve_sip(inst, SolverConfig(node_limit=10_000))
        bundles = solution.plan.bundles
        assert np.count_nonzero(bundles) == 2
        for e in range(inst.num_devices):
            for delta in (-1, 1):
                neighbour = bundles.copy()
                neighbour[0, e] += delta
                if neighbour[0, e] < 0:
                    continue
                total = evaluate_total(ReservationPlan.from_bundles(neighbour), inst).cost.total
                assert total >= solution.cost.total * (1 - 1e-12), (e, delta)

    def test_every_hard_instance_solves_within_two_thousand_nodes(self):
        for seed in range(40):
            solve_sip(hard_instance(seed), SolverConfig(node_limit=2_000))

    def test_every_hard_instance_solves_within_one_thousand_nodes(self):
        for seed in range(40):
            solve_sip(hard_instance(seed), SolverConfig(node_limit=1_000))

    @pytest.mark.parametrize("num_devices, node_limit", [(40, 2_000), (80, 20_000)])
    def test_wide_hard_instances_solve_within_the_budget_the_one_device_incumbent_leaves(self, num_devices, node_limit):
        # without the one-device pass and its caps these took up to 28,788 (40, 8) and 60,328 (80, 8) nodes
        for seed in range(10):
            solve_sip(hard_instance(seed, num_devices, 8), SolverConfig(node_limit=node_limit))

    @pytest.mark.parametrize("seed, op", [(1408, "search-205"), (52, "search-039"), (52, "search-214")])
    def test_formerly_cut_benchmark_searches_finish_and_match_highs(self, monkeypatch, tmp_path, seed, op):
        pytest.importorskip("scipy")
        monkeypatch.syspath_prepend(str(BENCH))
        oracle = importlib.import_module("oracle")
        workloads = importlib.import_module("workloads")
        problem = next(each.problem for each in workloads.build("search", seed, tmp_path).ops if each.id == op)
        inst = sm.load_problem(problem)
        total = solve_sip(inst, SolverConfig(node_limit=workloads.SEARCH_NODE_LIMIT)).cost.total
        assert total == pytest.approx(oracle.highs_total(inst), rel=TIE_REL)

    @pytest.mark.parametrize(
        "seed, num_devices, num_scenarios",
        [(0, 40, 8), (2, 34, 8), (3, 28, 6), (4, 20, 4), (1, 80, 8), (1, 40, 16), (0, 80, 16), (3, 80, 16)],
    )
    def test_wide_hard_instances_match_highs_and_beat_the_expected_value_plan(
        self, monkeypatch, seed, num_devices, num_scenarios
    ):
        # an independent MILP optimum well beyond the lattices the enumeration tests reach
        pytest.importorskip("scipy")
        monkeypatch.syspath_prepend(str(BENCH))
        oracle = importlib.import_module("oracle")
        inst = hard_instance(seed, num_devices, num_scenarios)
        total = solve_sip(inst).cost.total
        assert total == pytest.approx(oracle.highs_total(inst), rel=TIE_REL)
        assert total <= sm.solve_evf(inst).cost.total * (1 + TIE_REL)  # RP <= EEV

    @pytest.mark.parametrize("seed, num_devices, num_scenarios", [(1, 80, 8), (1, 40, 16), (0, 80, 16), (3, 80, 16)])
    def test_wide_hard_optima_beat_their_neighbours_and_both_baselines(self, seed, num_devices, num_scenarios):
        # the HiGHS cases' scale without scipy: no +-1 neighbour is cheaper, RP <= EEV and RP <= random-min
        inst = hard_instance(seed, num_devices, num_scenarios)
        _assert_beats_neighbours_and_baselines(inst, solve_sip(inst))

    @pytest.mark.parametrize("seed, num_devices, num_scenarios, memberships", LOW_MEMBERSHIP_CASES)
    def test_low_membership_optima_beat_their_neighbours_and_both_baselines(
        self, seed, num_devices, num_scenarios, memberships
    ):
        inst = low_membership_instance(seed, num_devices, num_scenarios, memberships)
        _assert_beats_neighbours_and_baselines(inst, solve_sip(inst))

    @pytest.mark.parametrize("seed, num_devices, num_scenarios, memberships", LOW_MEMBERSHIP_CASES)
    def test_low_membership_optima_match_highs(self, monkeypatch, seed, num_devices, num_scenarios, memberships):
        pytest.importorskip("scipy")
        monkeypatch.syspath_prepend(str(BENCH))
        oracle = importlib.import_module("oracle")
        inst = low_membership_instance(seed, num_devices, num_scenarios, memberships)
        assert solve_sip(inst).cost.total == pytest.approx(oracle.highs_total(inst), rel=TIE_REL)

    def test_a_cut_search_at_the_wall_never_bounds_above_the_optimum(self):
        inst = hard_instance(1, 80, 8)
        optimum = solve_sip(inst).cost.total
        for node_limit in (1, 10, 100, 1_000):
            with pytest.raises(NodeLimitError) as cut:
                solve_sip(inst, SolverConfig(node_limit=node_limit))
            _assert_admissible(cut.value, optimum)


def _every_cut(solve):
    """``solve(SolverConfig(node_limit=n))`` for n = 1, 2, ... until it completes.

    Returns the completed solution and the :class:`NodeLimitError` of every
    smaller budget.
    """
    cuts = []
    for limit in itertools.count(1):
        try:
            return solve(SolverConfig(node_limit=limit)), cuts
        except NodeLimitError as err:
            cuts.append(err)


def _assert_admissible(err: NodeLimitError, optimum: float) -> None:
    total = err.partial.cost.total
    if err.gap == math.inf:  # a DIP search cut before any plan covered its VSP
        assert err.lower_bound <= optimum + 1e-12
        return
    assert err.lower_bound <= optimum + 1e-12 and optimum <= total + 1e-12
    assert err.gap == ((total - err.lower_bound) / total if total > 0 else 0.0)


def _best_one_device_total(inst: sm.ProblemInstance) -> float:
    """Least ``evaluate_total`` of the zero plan and the one-device plans the search prices at node ``E*N + 1``."""
    pricing, upper = inst.pricing, inst.bundle_upper_bounds
    plans = [np.zeros((1, inst.num_devices), dtype=np.int64)]
    for e in range(inst.num_devices):
        for need, a in zip(pricing.snapped[0].tolist(), pricing.coverage[0, e].tolist()):
            if upper[0, e] and need > 0.0 and a > 0.0:
                plans.append(np.zeros((1, inst.num_devices), dtype=np.int64))
                plans[-1][0, e] = min(int(upper[0, e]), max(1, math.ceil(need / a)))
    return float(sm.evaluate_many(np.stack(plans), inst).total.min())


class TestFrontierBound:
    """A search cut at any node budget reports a lower bound under the optimum."""

    @pytest.mark.parametrize(
        "seed, memberships", [(4, None), (5, None), (6, None), (8, None), (1, "zero"), (2, "zero")]
    )
    def test_sip_cuts_past_the_one_device_pass_stay_admissible(self, seed, memberships):
        # (9, 3) searches of 31-149 nodes: every budget from 1 up crosses node E*N + 1 = 28
        inst = hard_instance(seed) if memberships is None else low_membership_instance(seed, 9, 3, memberships)
        optimum = solve_sip(inst).cost.total
        solution, cuts = _every_cut(lambda config: solve_sip(inst, config))
        assert solution.cost.total == optimum
        assert len(cuts) > 9 * 3  # some cut budget is at least E*N + 1
        one_device = _best_one_device_total(inst)
        for err in cuts:
            _assert_admissible(err, optimum)
            if err.node_limit > 9 * 3:  # the pass ran: the partial plan is no worse than its best plan
                assert err.partial.cost.total <= one_device * (1 + TIE_REL)

    @pytest.mark.parametrize("decimal", [False, True], ids=["dyadic", "decimal"])
    def test_sip_bound_is_admissible_at_every_cut(self, decimal):
        rng = np.random.default_rng(41)
        cut = 0
        for _ in range(30):
            if decimal:
                inst = make_decimal_instance(rng)
                optimum = min(
                    evaluate_total(ReservationPlan.from_bundles(plan), inst).cost.total for plan in _lattice(inst)
                )
            else:
                inst = make_random_instance(rng)
                optimum = enumerate_sip_minimum(inst)
            solution, cuts = _every_cut(lambda config: solve_sip(inst, config))
            assert solution.cost.total == pytest.approx(optimum, rel=1e-12, abs=1e-15)
            for err in cuts:
                _assert_admissible(err, optimum)
            cut += len(cuts)
        assert cut >= 50

    @pytest.mark.parametrize("decimal", [False, True], ids=["dyadic", "decimal"])
    def test_dip_bound_is_admissible_at_every_cut(self, decimal):
        rng = np.random.default_rng(43)
        cut = 0
        for _ in range(30):
            if decimal:
                inst = make_decimal_instance(rng, max_scenarios=1)
                covering = [
                    evaluate_total(ReservationPlan.from_bundles(plan), inst).cost.total
                    for plan in _lattice(inst)
                    if not shortfalls(plan, inst).any()
                ]
                if not covering:
                    continue
                optimum = min(covering)
            else:
                inst = make_random_instance(rng, max_scenarios=1)
                if any(inst.requirement(w, 0) > 0 and not inst.similarity[w, :, 0].any() for w in range(inst.num_vsps)):
                    continue
                optimum = _enumerate_dip_minimum(dip_from_instance(inst))
            dip = dip_from_instance(inst)
            solution, cuts = _every_cut(lambda config: solve_dip(dip, config))
            assert solution.cost.total == pytest.approx(optimum, rel=1e-12, abs=1e-15)
            for err in cuts:
                _assert_admissible(err, optimum)
            cut += len(cuts)
        assert cut >= 50
