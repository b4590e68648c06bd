import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semalloc as sm
from semalloc import (
    InfeasibleError,
    RandomSchemeConfig,
    ReservationPlan,
    evaluate_total,
    solve_evf,
    solve_random,
    solve_sip,
)
from semalloc.baselines import random_summary_dict
from _support import brute_force_recourse_cost, make_random_instance
from test_recourse import build_instance


class TestEvf:
    def test_single_scenario_is_identity_with_dip(self):
        inst = build_instance([2.0], [[[1.0]]], [[100]], bundle_size=10)
        evf = solve_evf(inst)
        dip_plan = sm.solve_dip(sm.dip_from_instance(inst)).plan
        assert np.array_equal(evf.plan.bundles, dip_plan.bundles)
        assert evf.cost == evaluate_total(dip_plan, inst).cost

    def test_averaged_demand_plan_and_recourse(self):
        # requirements 0 and 200, equal probability: averaged requirement 100
        inst = build_instance(
            [2.0], [[[1.0, 1.0]]], [[0], [200]], probabilities=(0.5, 0.5), bundle_size=10
        )
        evf = solve_evf(inst)
        assert evf.plan.bundles.tolist() == [[10]]  # covers exactly 100
        # the true scenario 2 shortfall of 100 is paid on demand
        assert evf.recourse.on_demand[0, 0, 1] == 100
        assert evf.cost.expected_on_demand == pytest.approx(0.5 * 100 * 2.0, abs=1e-12)
        assert evf.cost.expected_on_demand == pytest.approx(
            brute_force_recourse_cost(evf.plan, inst), abs=1e-9
        )

    def test_never_beats_sip(self):
        rng = np.random.default_rng(61)
        for _ in range(15):
            inst = make_random_instance(rng)
            assert solve_sip(inst).cost.total <= solve_evf(inst).cost.total + 1e-9

    def test_averaged_infeasibility_propagates(self):
        inst = build_instance([1.0], [[[0.0]]], [[10]])
        with pytest.raises(InfeasibleError):
            solve_evf(inst)


class TestRandomScheme:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RandomSchemeConfig(seed=1, samples=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            RandomSchemeConfig(seed=-3, samples=1)

    def test_zero_bounds_give_zero_plans(self):
        inst = build_instance([1.0], [[[0.5]]], [[0]])
        result = solve_random(inst, RandomSchemeConfig(seed=9, samples=10))
        assert result.plans.shape == (10, 1, 1) and not result.plans.any()
        assert result.mean_total == 0.0

    def test_plans_stack_and_best_solution(self, singapore):
        result = solve_random(singapore, RandomSchemeConfig(seed=5, samples=30))
        assert result.plans.shape == (30, 2, 3) and not result.plans.flags.writeable
        best = evaluate_total(ReservationPlan.from_bundles(result.plans[result.best_index]), singapore)
        assert result.best.cost == best.cost and result.best.cost.total == result.min_total
        assert np.array_equal(result.best.recourse.on_demand, best.recourse.on_demand)

    def test_plans_do_not_depend_on_the_sample_count(self, singapore):
        few = solve_random(singapore, RandomSchemeConfig(seed=5, samples=3))
        many = solve_random(singapore, RandomSchemeConfig(seed=5, samples=30))
        assert np.array_equal(few.plans, many.plans[:3]) and few.totals == many.totals[:3]

    @settings(max_examples=60, deadline=None)
    @given(
        instance_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**64),
        counts=st.lists(st.integers(1, 12), min_size=2, max_size=2).map(sorted),
    )
    def test_every_draw_is_a_prefix_within_the_bounds(self, instance_seed, seed, counts):
        k, n = counts
        inst = make_random_instance(np.random.default_rng(instance_seed), max_vsps=3, max_devices=4)
        few = solve_random(inst, RandomSchemeConfig(seed=seed, samples=k)).plans
        many = solve_random(inst, RandomSchemeConfig(seed=seed, samples=n)).plans
        upper = inst.bundle_upper_bounds
        assert np.array_equal(few, many[:k])
        assert (many >= 0).all() and (many <= upper).all()
        assert not many[:, upper == 0].any()

    def test_fixed_seed_reproduces_totals(self, singapore):
        config = RandomSchemeConfig(seed=7, samples=50)
        first = solve_random(singapore, config)
        second = solve_random(singapore, config)
        assert first.totals == second.totals
        assert json.dumps(random_summary_dict(first), sort_keys=True) == json.dumps(
            random_summary_dict(second), sort_keys=True
        )

    def test_different_seeds_differ(self, singapore):
        a = solve_random(singapore, RandomSchemeConfig(seed=1, samples=50))
        b = solve_random(singapore, RandomSchemeConfig(seed=2, samples=50))
        assert a.totals != b.totals

    def test_aggregates_consistent(self, singapore):
        result = solve_random(singapore, RandomSchemeConfig(seed=42, samples=40))
        assert result.min_total == min(result.totals)
        assert result.max_total == max(result.totals)
        assert result.mean_total == pytest.approx(sum(result.totals) / 40, abs=1e-12)
        assert result.totals[result.best_index] == result.min_total

    def test_mean_never_beats_sip(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            inst = make_random_instance(rng)
            optimum = solve_sip(inst).cost.total
            result = solve_random(inst, RandomSchemeConfig(seed=42, samples=100))
            assert optimum <= result.mean_total + 1e-9
            assert optimum <= result.min_total + 1e-9
