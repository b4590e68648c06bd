"""Exact first-stage optimization via per-VSP depth-first branch-and-bound.

Both programs separate over VSPs: the objective is a sum of per-VSP terms and
every coverage constraint involves a single VSP.  Each subproblem searches the
bundle lattice bounded by :func:`bundle_upper_bound`; the node lower bound is
the stage-1 cost accumulated so far (recourse is non-negative), which is
admissible, so pruning never cuts the optimum.  Among equal-cost optima the
lexicographically smallest bundle vector by device index is returned, which
keeps results reproducible regardless of the exploration order heuristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from ._parallel import parallel_map
from .core_model import (
    CostBreakdown,
    EdgeDevice,
    ProblemInstance,
    on_demand_unit_cost,
    reservation_bundle_cost,
    validate_instance,
)
from .errors import InfeasibleError, NodeLimitError, ValidationFailure
from .recourse import (
    RecourseDecision,
    ReservationPlan,
    Solution,
    evaluate_total,
    recourse_cost_fn,
    snap,
    snapped_requirements,
    stage1_costs,
)

# Costs within TIE_REL * max(1, best cost) of the incumbent count as tied; ties
# are resolved by the lexicographic rule, and pruning keeps tied subtrees alive.
TIE_REL = 1e-9


@dataclass(frozen=True)
class DipInstance:
    """Deterministic allocation data: one known demand per VSP.

    ``actual_quantity`` accepts non-negative reals (not just integers) so the
    expected-value scheme can pose its averaged demand without rounding.
    """

    devices: tuple[EdgeDevice, ...]
    actual_similarity: np.ndarray  # (vsp, device), in [0, 1]
    actual_quantity: np.ndarray  # (vsp,), >= 0
    actual_threshold: np.ndarray  # (vsp,), in [0, 1]

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        sim = np.array(self.actual_similarity, dtype=np.float64, copy=True)
        qty = np.atleast_1d(np.array(self.actual_quantity, dtype=np.float64))
        thr = np.atleast_1d(np.array(self.actual_threshold, dtype=np.float64))
        if sim.ndim != 2 or sim.shape != (qty.size, len(self.devices)):
            raise ValueError(
                f"actual_similarity must have shape (vsps, devices); got {sim.shape}"
            )
        if qty.shape != thr.shape:
            raise ValueError("actual_quantity and actual_threshold must align")
        if (sim < 0).any() or (sim > 1).any() or not np.all(np.isfinite(sim)):
            raise ValueError("actual_similarity entries must lie in [0, 1]")
        if (qty < 0).any() or not np.all(np.isfinite(qty)):
            raise ValueError("actual_quantity entries must be non-negative")
        if (thr < 0).any() or (thr > 1).any():
            raise ValueError("actual_threshold entries must lie in [0, 1]")
        for arr in (sim, qty, thr):
            arr.setflags(write=False)
        object.__setattr__(self, "actual_similarity", sim)
        object.__setattr__(self, "actual_quantity", qty)
        object.__setattr__(self, "actual_threshold", thr)

    @property
    def num_vsps(self) -> int:
        return self.actual_quantity.size


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the branch-and-bound search.

    ``bundle_cap_override`` replaces the computed per-(vsp, device) search
    bounds when provided.
    """

    bundle_cap_override: np.ndarray | None = None
    node_limit: int = 10_000_000

    def __post_init__(self):
        if self.node_limit < 1:
            raise ValueError(f"node_limit must be >= 1, got {self.node_limit}")
        if self.bundle_cap_override is not None:
            caps = np.array(self.bundle_cap_override, dtype=np.int64, copy=True)
            if (caps < 0).any():
                raise ValueError("bundle_cap_override entries must be non-negative")
            caps.setflags(write=False)
            object.__setattr__(self, "bundle_cap_override", caps)


def bundle_upper_bound(w: int, e: int, instance: ProblemInstance) -> int:
    """Largest bundle count on (w, e) any optimal plan can use.

    Enough bundles to cover the worst-case requirement from device e alone at
    its least productive positive similarity; anything beyond that can be
    dropped without losing feasibility or raising cost.  Zero when the device
    never matches the interest or demand is zero everywhere.
    """
    column = instance.similarity[w, e, :]
    positive = column[column > 0.0]
    if positive.size == 0:
        return 0
    max_requirement = max(
        instance.requirement(w, i) for i in range(instance.num_scenarios)
    )
    if max_requirement <= 0.0:
        return 0
    per_bundle = instance.devices[e].bundle_size * float(positive.min())
    return int(math.ceil(max_requirement / per_bundle))


@dataclass
class _SearchOutcome:
    cost: float | None
    bundles: tuple[int, ...] | None
    nodes: int
    exceeded: bool


def _dfs_bundle_search(
    order: Sequence[int],
    upper_bounds: Sequence[int],
    membership_costs: Sequence[float],
    bundle_costs: Sequence[float],
    coverage_rows: Sequence[Sequence[float]],
    leaf_cost: Callable[[list[float]], float | None],
    node_limit: int,
) -> _SearchOutcome:
    """Depth-first search over bundle vectors with stage-1 lower-bound pruning.

    ``leaf_cost`` maps a complete vector's per-scenario coverage (carried down
    the recursion; ``coverage_rows[e]`` is one bundle of device ``e``) to the
    rest of the objective, or None when the leaf is infeasible.  Bundle counts
    ascend per device, so once the stage-1 prefix exceeds the incumbent the
    remaining counts can be skipped.
    """
    num_devices = len(order)
    best_cost: float | None = None
    best_vec: tuple[int, ...] | None = None
    vec = [0] * num_devices
    nodes = 0
    exceeded = False

    def recurse(depth: int, stage1: float, covered: list[float]) -> None:
        nonlocal best_cost, best_vec, nodes, exceeded
        if exceeded:
            return
        nodes += 1
        if nodes > node_limit:
            exceeded = True
            return
        if depth == num_devices:
            extra = leaf_cost(covered)
            if extra is None:
                return
            cost = stage1 + extra
            if best_cost is None or cost < best_cost:
                best_cost, best_vec = cost, tuple(vec)
            elif cost <= best_cost + TIE_REL * max(1.0, best_cost) and tuple(vec) < best_vec:
                best_cost, best_vec = min(cost, best_cost), tuple(vec)
            return
        device = order[depth]
        row = coverage_rows[device]
        for count in range(upper_bounds[device] + 1):
            added = membership_costs[device] + count * bundle_costs[device] if count else 0.0
            partial = stage1 + added
            if best_cost is not None and partial > best_cost + TIE_REL * max(1.0, best_cost):
                break  # counts only grow from here; the whole tail is pruned
            vec[device] = count
            grown = [c + count * r for c, r in zip(covered, row)] if count else covered
            recurse(depth + 1, partial, grown)
            vec[device] = 0
            if exceeded:
                return

    recurse(0, 0.0, [0.0] * len(coverage_rows[0]))
    return _SearchOutcome(best_cost, best_vec, nodes, exceeded)


def _exploration_order(
    bundle_costs: Sequence[float],
    bundle_sizes: Sequence[int],
    expected_similarity: Sequence[float],
) -> list[int]:
    """Devices ordered by ascending reservation cost per expected relevant unit.

    Cheap-and-relevant devices first tightens incumbents early; zero-relevance
    devices go last.  The order only affects search speed, never the returned
    optimum (the lexicographic tie-break is applied in device-index space).
    """

    def key(e: int):
        relevant = bundle_sizes[e] * expected_similarity[e]
        if relevant <= 0.0:
            return (1, 0.0, e)
        return (0, bundle_costs[e] / relevant, e)

    return sorted(range(len(bundle_costs)), key=key)


def solve_dip(dip: DipInstance, config: SolverConfig | None = None) -> Solution:
    """Cost-minimal reservation-only plan for exactly known demand.

    Raises :class:`InfeasibleError` when a VSP has positive requirement but no
    device with positive similarity (reservation alone cannot cover it).
    """
    config = config or SolverConfig()
    devices = dip.devices
    num_devices = len(devices)
    bundle_costs = [reservation_bundle_cost(dev) for dev in devices]
    membership_costs = [dev.membership_cost for dev in devices]
    bundle_sizes = [dev.bundle_size for dev in devices]

    bundles = np.zeros((dip.num_vsps, num_devices), dtype=np.int64)
    incomplete: list[int] = []
    for w in range(dip.num_vsps):
        requirement = float(dip.actual_quantity[w] * dip.actual_threshold[w])
        if requirement <= 0.0:
            continue
        similarity = dip.actual_similarity[w]
        if not (similarity > 0.0).any():
            raise InfeasibleError(
                w, f"VSP {w}: requirement {requirement} but no device has positive similarity"
            )
        if config.bundle_cap_override is not None:
            ubs = [int(config.bundle_cap_override[w, e]) for e in range(num_devices)]
        else:
            ubs = [
                int(math.ceil(requirement / (bundle_sizes[e] * similarity[e])))
                if similarity[e] > 0.0
                else 0
                for e in range(num_devices)
            ]
        need = float(snap(requirement))
        outcome = _dfs_bundle_search(
            _exploration_order(bundle_costs, bundle_sizes, similarity),
            ubs,
            membership_costs,
            bundle_costs,
            [[size * float(sim)] for size, sim in zip(bundle_sizes, similarity)],
            lambda covered: 0.0 if covered[0] >= need else None,
            config.node_limit,
        )
        if outcome.bundles is not None:
            bundles[w] = outcome.bundles
        if outcome.exceeded:
            incomplete.append(w)
        elif outcome.bundles is None:
            raise InfeasibleError(
                w, f"VSP {w}: no bundle vector within the search bounds covers {requirement}"
            )

    membership_total, reservation_total = stage1_costs(bundles, devices)
    solution = Solution(
        ReservationPlan.from_bundles(bundles),
        RecourseDecision(np.zeros((dip.num_vsps, num_devices, 1), dtype=np.int64)),
        CostBreakdown.from_parts(membership_total, reservation_total, 0.0),
    )
    if incomplete:
        raise NodeLimitError(solution, incomplete, config.node_limit)
    return solution


def solve_sip(instance: ProblemInstance, config: SolverConfig | None = None) -> Solution:
    """Exact two-stage optimum: reservation under uncertainty plus optimal recourse.

    Decomposes per VSP, searches each bundle lattice depth-first with stage-1
    lower bounds, and evaluates leaves with the closed-form recourse.  VSP
    subproblems are independent, so the merged result does not depend on the
    order they are solved in.  Exceeding the per-subproblem node budget raises
    :class:`NodeLimitError` carrying the best incumbent, never a silent
    suboptimal answer.
    """
    config = config or SolverConfig()
    report = validate_instance(instance)
    if not report.ok:
        raise ValidationFailure(report.violations)

    devices = instance.devices
    num_devices = len(devices)
    bundle_costs = [reservation_bundle_cost(dev) for dev in devices]
    membership_costs = [dev.membership_cost for dev in devices]
    bundle_sizes = [dev.bundle_size for dev in devices]
    cheapest_unit = min(on_demand_unit_cost(dev) for dev in devices)
    probabilities = [scen.probability for scen in instance.scenarios]
    snapped = snapped_requirements(instance)
    sizes = np.array(bundle_sizes, dtype=np.float64)

    def solve_vsp(w: int) -> _SearchOutcome:
        needs = snapped[w].tolist()
        if all(need <= 0.0 for need in needs):
            return _SearchOutcome(0.0, (0,) * num_devices, 0, False)
        if config.bundle_cap_override is not None:
            ubs = [int(config.bundle_cap_override[w, e]) for e in range(num_devices)]
        else:
            ubs = [bundle_upper_bound(w, e, instance) for e in range(num_devices)]
        expected_sim = [
            sum(p * float(instance.similarity[w, e, i]) for i, p in enumerate(probabilities))
            for e in range(num_devices)
        ]
        return _dfs_bundle_search(
            _exploration_order(bundle_costs, bundle_sizes, expected_sim),
            ubs,
            membership_costs,
            bundle_costs,
            (sizes[:, None] * instance.similarity[w]).tolist(),
            recourse_cost_fn(needs, probabilities, cheapest_unit),
            config.node_limit,
        )

    outcomes = parallel_map(solve_vsp, range(instance.num_vsps))

    bundles = np.zeros((instance.num_vsps, num_devices), dtype=np.int64)
    incomplete = []
    for w, outcome in enumerate(outcomes):
        if outcome.bundles is not None:
            bundles[w] = outcome.bundles
        if outcome.exceeded:
            incomplete.append(w)

    solution = evaluate_total(ReservationPlan.from_bundles(bundles), instance)
    if incomplete:
        raise NodeLimitError(solution, incomplete, config.node_limit)
    return solution


def dip_from_instance(instance: ProblemInstance, scenario_index: int = 0) -> DipInstance:
    """Deterministic view of one scenario: its demands and similarity as actuals."""
    if not 0 <= scenario_index < instance.num_scenarios:
        raise ValueError(f"scenario index {scenario_index} out of range")
    scen = instance.scenarios[scenario_index]
    return DipInstance(
        devices=instance.devices,
        actual_similarity=instance.similarity[:, :, scenario_index],
        actual_quantity=np.array([d.quantity for d in scen.per_vsp], dtype=np.float64),
        actual_threshold=np.array([d.threshold for d in scen.per_vsp], dtype=np.float64),
    )


@dataclass(frozen=True)
class SweepPoint:
    """One row of a first-stage bundle sweep."""

    bundles: int
    stage1_cost: float
    stage2_cost: float
    total_cost: float


def sweep_first_stage(
    instance: ProblemInstance,
    w: int,
    e: int,
    counts: Iterable[int],
) -> list[SweepPoint]:
    """Evaluate the full objective along one (vsp, device) bundle axis.

    All other plan entries stay at zero, exposing how the rising stage-1 cost
    trades against the shrinking expected on-demand cost.
    """
    if not 0 <= w < instance.num_vsps:
        raise ValueError(f"vsp index {w} out of range")
    if not 0 <= e < instance.num_devices:
        raise ValueError(f"device index {e} out of range")

    def evaluate(count: int) -> SweepPoint:
        if count < 0:
            raise ValueError(f"bundle counts must be non-negative, got {count}")
        bundles = np.zeros((instance.num_vsps, instance.num_devices), dtype=np.int64)
        bundles[w, e] = count
        solution = evaluate_total(ReservationPlan.from_bundles(bundles), instance)
        stage1 = solution.cost.membership_total + solution.cost.reservation_total
        return SweepPoint(count, stage1, solution.cost.expected_on_demand, solution.cost.total)

    return parallel_map(evaluate, list(counts))
