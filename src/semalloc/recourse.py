"""Second-stage evaluation: optimal on-demand top-ups for a fixed reservation plan.

The expected on-demand cost is linear with non-negative coefficients and the
coverage constraint counts on-demand units without similarity weighting, so
for each (vsp, scenario) the optimum buys the entire integer shortfall from
the single cheapest device.  That closed form makes the recourse function
exact and cheap to evaluate inside the first-stage search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core_model import (
    CostBreakdown,
    EdgeDevice,
    ProblemInstance,
    on_demand_unit_cost,
    reservation_bundle_cost,
)

SHORTFALL_TOL = 1e-9  # relative window within which a coverage gap counts as closed


def _frozen_int_array(values, shape_name: str, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=np.int64, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"{shape_name} must be {ndim}-dimensional, got shape {arr.shape}")
    if (arr < 0).any():
        raise ValueError(f"{shape_name} entries must be non-negative")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ReservationPlan:
    """First-stage decisions: membership flags and bundle counts, both (vsp, device)."""

    membership: np.ndarray
    bundles: np.ndarray

    def __post_init__(self):
        membership = _frozen_int_array(self.membership, "membership", 2)
        bundles = _frozen_int_array(self.bundles, "bundles", 2)
        if membership.shape != bundles.shape:
            raise ValueError(
                f"membership shape {membership.shape} != bundles shape {bundles.shape}"
            )
        if (membership > 1).any():
            raise ValueError("membership entries must be 0 or 1")
        if ((bundles >= 1) & (membership == 0)).any():
            raise ValueError("bundles require membership on the same (vsp, device)")
        object.__setattr__(self, "membership", membership)
        object.__setattr__(self, "bundles", bundles)

    @classmethod
    def zeros(cls, num_vsps: int, num_devices: int) -> "ReservationPlan":
        shape = (num_vsps, num_devices)
        return cls(np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64))

    @classmethod
    def from_bundles(cls, bundles) -> "ReservationPlan":
        """Plan with membership normalized: paid exactly where bundles are bought."""
        arr = np.array(bundles, dtype=np.int64)
        return cls((arr >= 1).astype(np.int64), arr)


@dataclass(frozen=True)
class RecourseDecision:
    """Second-stage purchases: on-demand transmissions per (vsp, device, scenario)."""

    on_demand: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "on_demand", _frozen_int_array(self.on_demand, "on_demand", 3))


@dataclass(frozen=True)
class Solution:
    """A reservation plan, its optimal recourse, and the resulting cost breakdown."""

    plan: ReservationPlan
    recourse: RecourseDecision
    cost: CostBreakdown


def cheapest_device(instance: ProblemInstance) -> int:
    """Device with the lowest on-demand unit cost; ties go to the lowest index."""
    costs = [on_demand_unit_cost(dev) for dev in instance.devices]
    return min(range(len(costs)), key=lambda e: (costs[e], e))


def snap(requirement):
    """Requirement (scalar or array) lowered by ``SHORTFALL_TOL * max(1, requirement)``.

    Coverage is a float sum, so an exact cover, or a whole-unit gap, can be off
    by a rounding error; measured against the snapped requirement, such a gap
    rounds to its integer instead of buying a phantom on-demand unit.
    """
    return requirement - SHORTFALL_TOL * np.maximum(1.0, requirement)


def snapped_requirements(instance: ProblemInstance) -> np.ndarray:
    """Snapped requirements of every VSP, indexed (vsp, scenario)."""
    rows = [[demand.requirement for demand in scen.per_vsp] for scen in instance.scenarios]
    return snap(np.array(rows, dtype=np.float64).reshape(instance.num_scenarios, instance.num_vsps).T)


def shortfalls(bundles, instance: ProblemInstance) -> np.ndarray:
    """Minimum integer on-demand volume per (vsp, scenario) for a (vsp, device) bundle matrix.

    Reserved coverage counts bundle transmissions scaled by the similarity
    score; the gap to the snapped requirement is rounded up because purchases
    are whole transmissions.
    """
    sizes = np.array([dev.bundle_size for dev in instance.devices], dtype=np.float64)
    per_bundle = sizes[:, None] * instance.similarity
    coverage = np.einsum("we,wen->wn", np.asarray(bundles, dtype=np.float64), per_bundle)
    gap = np.maximum(0.0, snapped_requirements(instance) - coverage)
    return np.ceil(gap).astype(np.int64)


def recourse_cost_fn(
    needs: Sequence[float], probabilities: Sequence[float], unit_cost: float
) -> Callable[[Sequence[float]], float]:
    """One VSP's expected on-demand cost as a function of its per-scenario coverage.

    The scalar form of :func:`shortfalls`, called once per search leaf;
    ``needs`` are the VSP's snapped requirements.
    """

    def cost(covered: Sequence[float]) -> float:
        expected = 0.0
        for p, need, cov in zip(probabilities, needs, covered):
            if need > cov:
                expected += p * math.ceil(need - cov) * unit_cost
        return expected

    return cost


def stage1_costs(bundles, devices: Sequence[EdgeDevice]) -> tuple[float, float]:
    """Membership and reservation totals, summed vsp-major; membership is paid where bundles are."""
    membership_total = 0.0
    reservation_total = 0.0
    for row in np.asarray(bundles).tolist():
        for count, dev in zip(row, devices):
            if count >= 1:
                membership_total += dev.membership_cost
                reservation_total += float(count) * reservation_bundle_cost(dev)
    return membership_total, reservation_total


def optimal_recourse(plan: ReservationPlan, instance: ProblemInstance) -> RecourseDecision:
    """Cost-minimal on-demand tensor for a fixed plan.

    Every (vsp, scenario) shortfall lands on the cheapest device.  Splits
    across equally cheap devices would cost the same; the canonical assignment
    keeps output deterministic.
    """
    num_vsps, num_devices = plan.bundles.shape
    tensor = np.zeros((num_vsps, num_devices, instance.num_scenarios), dtype=np.int64)
    tensor[:, cheapest_device(instance), :] = shortfalls(plan.bundles, instance)
    return RecourseDecision(tensor)


def evaluate_total(plan: ReservationPlan, instance: ProblemInstance) -> Solution:
    """Full objective value of a plan: stage-1 charges plus expected recourse.

    Membership is normalized to exactly the devices with bundles; paying a
    membership without bundles buys nothing.  Summation order is fixed
    (stage 1 vsp-major; recourse scenario-major, then vsp) so results never
    depend on evaluation order.
    """
    normalized = ReservationPlan.from_bundles(plan.bundles)
    membership_total, reservation_total = stage1_costs(normalized.bundles, instance.devices)

    recourse = optimal_recourse(normalized, instance)
    target = cheapest_device(instance)
    unit_cost = on_demand_unit_cost(instance.devices[target])
    expected = 0.0
    for scen, column in zip(instance.scenarios, recourse.on_demand[:, target, :].T.tolist()):
        expected += scen.probability * sum(units * unit_cost for units in column)

    cost = CostBreakdown.from_parts(membership_total, reservation_total, expected)
    return Solution(plan=normalized, recourse=recourse, cost=cost)
