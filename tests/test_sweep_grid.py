"""The grid solver behind ``compare`` and ``sweep-probability`` against the per-point loops it replaced.

``compare_rows`` solves EVF once, draws the random scheme once and solves SIP
by :func:`~semalloc.solvers.solve_sip_grid`, which searches each VSP at the
grid's ends and bisects only where the plan can change; so does
``sweep_probability_rows``.  The two loops below are the former per-point
rows, kept as the oracle: every row must be equal, floats and plan-type
strings included, and so must every error.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semalloc as sm
import semalloc.solvers as solvers
from semalloc import NodeLimitError, RandomSchemeConfig, SolverConfig
from semalloc.cli import compare_rows, parse_grid, plan_type, sweep_probability_rows
from _support import make_random_instance, solution_to_dict
from test_recourse import build_instance
from test_solvers import make_decimal_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"

PROBABILITY_GRIDS = [(0.5,), (0.0, 1.0), (0.0, 0.5, 1.0), parse_grid("0:1:0.05")]
FACTOR_GRIDS = [(1.0,), (1.0, 3.0), (1.0, 2.0, 3.0), parse_grid("1:3:0.1")]


def loop_compare_rows(instance, factors, seed, samples, config=None):
    """The former ``compare_rows``: SIP, EVF and the random scheme solved afresh at each factor."""
    random_config = RandomSchemeConfig(seed=seed, samples=samples)
    rows = []
    for factor in factors:
        scaled = sm.scale_on_demand_cost(instance, factor)
        sip_total = sm.solve_sip(scaled, config).cost.total
        evf_total = sm.solve_evf(scaled, config).cost.total
        random_result = sm.solve_random(scaled, random_config)
        rows.append([factor, sip_total, evf_total, random_result.mean_total, random_result.min_total])
    return rows


def loop_sweep_probability_rows(instance, grid, config=None):
    """The former ``sweep_probability_rows``: SIP solved afresh at each probability."""
    rows = []
    for p in grid:
        shifted = sm.with_probabilities(instance, [p, 1.0 - p])
        solution = sm.solve_sip(shifted, config)
        stage1 = solution.cost.membership_total + solution.cost.reservation_total
        row = [p, stage1, solution.cost.expected_on_demand, solution.cost.total]
        row.extend(plan_type(solution, shifted, w) for w in range(instance.num_vsps))
        rows.append(row)
    return rows


def fleet_instance(seed: int, k: int, num_scenarios: int) -> sm.ProblemInstance:
    """The benchmark's ``sweep`` fleet problem ``k`` for ``seed``, loaded as the CLI loads it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        import workloads
    document = workloads.fleet_problem(np.random.default_rng(seed), k, num_scenarios)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "fleet.json"
        path.write_text(json.dumps(document))
        return sm.load_problem(path)


def two_scenario_instance(make, seed: int) -> sm.ProblemInstance:
    """The first instance ``make`` draws from ``seed`` with exactly two scenarios."""
    rng = np.random.default_rng(seed)
    while True:
        instance = make(rng)
        if instance.num_scenarios == 2:
            return instance


def outcome(rows_of, *args):
    """``rows_of(*args)``, or the type and message of the package error it raises."""
    try:
        return rows_of(*args)
    except sm.SemallocError as error:
        return type(error), str(error)


MAKERS = {
    "random": lambda rng: make_random_instance(rng, 3, 3, 3),
    "decimal": lambda rng: make_decimal_instance(rng),
}


@pytest.fixture
def searches(monkeypatch):
    """Counts the per-VSP branch-and-bound searches (SIP and DIP) run while the test runs."""
    calls = []
    search = solvers._dfs_bundle_search

    def counted(setup, w, needs, leaf_cost, node_limit):
        outcome = search(setup, w, needs, leaf_cost, node_limit)
        calls.append(outcome)
        return outcome

    monkeypatch.setattr(solvers, "_dfs_bundle_search", counted)
    return calls


class TestRowsMatchThePerPointLoop:
    @settings(max_examples=40, deadline=None)
    @given(maker=st.sampled_from(sorted(MAKERS)), seed=st.integers(0, 2**32 - 1),
           grid=st.sampled_from(PROBABILITY_GRIDS))
    @example(maker="random", seed=0, grid=())  # an empty grid solves nothing
    def test_probability_sweep(self, maker, seed, grid):
        instance = two_scenario_instance(MAKERS[maker], seed)
        assert outcome(sweep_probability_rows, instance, grid) == outcome(loop_sweep_probability_rows, instance, grid)

    @settings(max_examples=40, deadline=None)
    @given(maker=st.sampled_from(sorted(MAKERS)), seed=st.integers(0, 2**32 - 1),
           grid=st.sampled_from(FACTOR_GRIDS), draw_seed=st.integers(0, 1000))
    @example(maker="random", seed=0, grid=(), draw_seed=1)
    @example(maker="decimal", seed=828, grid=(1.0,), draw_seed=0)  # a VSP no device matches: both sides raise
    def test_compare(self, maker, seed, grid, draw_seed):
        instance = MAKERS[maker](np.random.default_rng(seed))
        args = (instance, grid, draw_seed, 20)
        assert outcome(compare_rows, *args) == outcome(loop_compare_rows, *args)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 20), grid=st.sampled_from(PROBABILITY_GRIDS))
    def test_fleet_probability_sweep(self, seed, k, grid):
        instance = fleet_instance(seed, k, 2)
        assert outcome(sweep_probability_rows, instance, grid) == outcome(loop_sweep_probability_rows, instance, grid)

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 20), grid=st.sampled_from(FACTOR_GRIDS))
    def test_fleet_compare(self, seed, k, grid):
        instance = fleet_instance(seed, k, 2 + k % 9)
        assert outcome(compare_rows, instance, grid, k, 50) == outcome(loop_compare_rows, instance, grid, k, 50)

    def test_bisection_skips_searches_on_fleet_problems(self, searches):
        grid = parse_grid("0:1:0.05")
        skipped = 0
        for k in range(3):
            instance = fleet_instance(4242, k, 2)
            expected = loop_sweep_probability_rows(instance, grid)
            searches.clear()
            assert sweep_probability_rows(instance, grid) == expected
            skipped += instance.num_vsps * len(grid) - len(searches)
        assert skipped > 0


def near_twin_instance(rate_scale: float) -> sm.ProblemInstance:
    """One VSP, two devices alike but for device 1's uplink rate, scaled by ``rate_scale``.

    Scaling the rate down by a few parts in 10**12 makes device 1's bundles
    dearer by as much: within the solver's tie window, but not equal.  Then
    the best leaf buys from device 0, while the lexicographically smallest
    vector within the window, the one returned, buys from device 1.
    """
    devices = tuple(
        sm.EdgeDevice(
            id=e, uplink_rate=2.5e6 * (rate_scale if e else 1.0), transmit_power=0.1,
            avg_payload_semantic=5125.0, membership_cost=0.05, bundle_size=10,
            alpha_reservation=5.0, alpha_on_demand=100.0,
        )
        for e in range(2)
    )
    scenarios = tuple(sm.DemandScenario(p, (sm.VspDemand("k", 40, 1.0),)) for p in (0.5, 0.5))
    return sm.ProblemInstance(devices, (sm.Vsp(0),), scenarios, np.ones((1, 2, 2)))


class TestTieGuard:
    """The ends prove the points between only where the returned vector is itself the best leaf."""

    @pytest.mark.parametrize(
        "rate_scale, grid_searches",
        [(1.0, 2), (1.0 - 4e-12, 3)],
        ids=["exact-tie-skips-the-midpoint", "window-tie-forces-the-midpoint"],
    )
    def test_midpoint(self, searches, rate_scale, grid_searches):
        instance = near_twin_instance(rate_scale)
        grid = (1.0, 2.0, 3.0)
        searches.clear()
        rows = compare_rows(instance, grid, 0, 10)
        sip_searches = len(searches) - 1  # one DIP search for the EVF plan
        assert rows == loop_compare_rows(instance, grid, 0, 10)
        ends = [sm.solve_sip(sm.scale_on_demand_cost(instance, f)).plan.bundles.tolist() for f in grid[::2]]
        assert ends[0] == ends[1] == [[0, 4]]
        assert sip_searches == grid_searches

    def test_exact_ties_at_a_zero_probability_end(self, searches):
        # two identical devices; at p = 0 only scenario 1 counts, where the zero plan and four
        # bundles of either device all cost exactly 20: the zero plan is returned there, four
        # bundles of device 1 at p = 1, so the midpoint is searched
        instance = build_instance([1.0, 1.0], [[[1.0, 0.5], [1.0, 0.5]]], [[40], [20]],
                                  probabilities=(0.5, 0.5), bundle_size=10)
        grid = (0.0, 0.5, 1.0)
        searches.clear()
        rows = sweep_probability_rows(instance, grid)
        assert [outcome.bundles for outcome in searches] == [(0, 0), (0, 4), (0, 4)]
        assert rows == loop_sweep_probability_rows(instance, grid)


def _error_fields(exc: NodeLimitError) -> tuple:
    partial = json.dumps(solution_to_dict(exc.partial), sort_keys=True)
    return str(exc), partial, exc.lower_bound, exc.gap, exc.incomplete_vsps, exc.node_limit


class TestErrorsAndBudgets:
    # searches of fleet problem 0 take 9-17 nodes per VSP along the probability grid and 9-52
    # along the factors: a budget of 9 or 16 cuts the last end, and the loop a point before it
    @pytest.mark.parametrize("node_limit", [1, 9, 16])
    def test_a_cut_end_point_raises_the_loops_node_limit_error(self, node_limit):
        instance = fleet_instance(4242, 0, 2)
        config = SolverConfig(node_limit=node_limit)
        grid = parse_grid("0:1:0.1")
        with pytest.raises(NodeLimitError) as expected:
            loop_sweep_probability_rows(instance, grid, config)
        with pytest.raises(NodeLimitError) as raised:
            sweep_probability_rows(instance, grid, config)
        assert _error_fields(raised.value) == _error_fields(expected.value)
        with pytest.raises(NodeLimitError) as expected:
            loop_compare_rows(instance, (1.0, 2.0, 3.0), 1, 10, config)
        with pytest.raises(NodeLimitError) as raised:
            compare_rows(instance, (1.0, 2.0, 3.0), 1, 10, config)
        assert _error_fields(raised.value) == _error_fields(expected.value)

    def test_a_cut_midpoint_raises_the_loops_node_limit_error(self):
        # both ends of fleet problem 0 complete within 17 nodes per VSP; bisection reaches the midpoint
        # p = 0.4, whose VSP 0 needs more, so the grid falls back to the loop, which is cut at 0.4 too
        instance = fleet_instance(5201, 0, 2)
        config = SolverConfig(node_limit=17)
        grid = parse_grid("0:1:0.1")
        shifted = [sm.with_probabilities(instance, [p, 1.0 - p]) for p in grid]
        for end in (shifted[0], shifted[-1]):
            sm.solve_sip(end, config)
        assert solvers._bisected_outcomes(shifted, config.node_limit) is None
        with pytest.raises(NodeLimitError) as expected:
            loop_sweep_probability_rows(instance, grid, config)
        with pytest.raises(NodeLimitError) as raised:
            sweep_probability_rows(instance, grid, config)
        assert _error_fields(raised.value) == _error_fields(expected.value)

    def test_a_budget_that_cuts_only_a_point_between_proven_ends_does_not_raise(self, searches):
        """Documented change: a point whose plan the ends prove is not searched, so it cannot be cut."""
        instance = two_scenario_instance(lambda rng: make_random_instance(rng, 1, 3, 2), 13)
        grid = parse_grid("0:1:0.1")
        unlimited = sweep_probability_rows(instance, grid)
        budget = max(outcome.nodes for outcome in searches)
        with pytest.raises(NodeLimitError):  # the per-point loop searches point 0.8, which needs more
            loop_sweep_probability_rows(instance, grid, SolverConfig(node_limit=budget))
        assert sweep_probability_rows(instance, grid, SolverConfig(node_limit=budget)) == unlimited

    def test_evf_infeasibility_is_the_loops_error(self):
        # VSP 0 matches no device: SIP buys it on demand, the averaged program cannot cover it
        instance = build_instance([1.0], [[[0.0]]], [[10]])
        with pytest.raises(sm.InfeasibleError) as expected:
            loop_compare_rows(instance, (1.0, 2.0), 0, 5)
        with pytest.raises(sm.InfeasibleError) as raised:
            compare_rows(instance, (1.0, 2.0), 0, 5)
        assert (str(raised.value), raised.value.vsp) == (str(expected.value), expected.value.vsp)

    def test_sip_cut_at_the_first_factor_comes_before_evf_infeasibility(self):
        instance = build_instance([1.0], [[[0.0]]], [[10]])
        config = SolverConfig(node_limit=1)
        with pytest.raises(NodeLimitError) as expected:
            loop_compare_rows(instance, (1.0, 2.0), 0, 5, config)
        with pytest.raises(NodeLimitError) as raised:
            compare_rows(instance, (1.0, 2.0), 0, 5, config)
        assert _error_fields(raised.value) == _error_fields(expected.value)

    def test_an_invalid_instance_fails_as_the_loop_fails(self):
        instance = build_instance([1.0], [[[0.5, 0.5]]], [[10], [20]], probabilities=(0.5, 0.6))
        with pytest.raises(sm.ValidationFailure) as expected:
            loop_compare_rows(instance, (1.0, 2.0), 0, 5)
        with pytest.raises(sm.ValidationFailure) as raised:
            compare_rows(instance, (1.0, 2.0), 0, 5)
        assert str(raised.value) == str(expected.value)
