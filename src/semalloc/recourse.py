"""Second-stage evaluation: optimal on-demand top-ups for a fixed reservation plan.

The expected on-demand cost is linear with non-negative coefficients and the
coverage constraint counts on-demand units without similarity weighting, so
for each (vsp, scenario) the optimum buys the entire integer shortfall from
the single cheapest device.  That closed form makes the recourse function
exact and cheap to evaluate inside the first-stage search.  Every function
here prices an instance from its one cached table,
:attr:`~semalloc.core_model.ProblemInstance.pricing`: the per-device prices,
the cheapest on-demand device, one bundle's coverage and the snapped
requirements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core_model import CostBreakdown, Pricing, ProblemInstance


def _whole(values, subject: str) -> np.ndarray:
    """``values`` as an array, checked before any cast to int64.

    A floating array must hold whole numbers in the int64 range: a NaN,
    infinite or fractional entry is a ``ValueError``, and so is a whole entry
    below ``-2**63`` or from ``2**63`` on, while ``2.0`` passes.  Other dtypes
    are not checked, so integer stacks pay nothing.
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "f":
        if not (np.isfinite(arr) & (arr == np.trunc(arr))).all():
            raise ValueError(f"{subject} must be whole numbers")
        if not ((arr >= -(2.0**63)) & (arr < 2.0**63)).all():
            raise ValueError(f"{subject} must lie in the int64 range")
    return arr


def _frozen_int_array(values, shape_name: str, ndim: int) -> np.ndarray:
    arr = np.array(_whole(values, shape_name), dtype=np.int64, copy=True)
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
        arr = _whole(bundles, "bundles").astype(np.int64)
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


def _check_counts(counts: np.ndarray, instance: ProblemInstance, ndims: tuple[int, ...]) -> None:
    """Raise ``ValueError`` unless ``counts`` is a non-negative plan, or stack of plans, of ``instance``.

    ``ndims`` lists the accepted ranks: 2 for one ``(vsp, device)`` plan, 3
    for an ``(n, vsp, device)`` stack.
    """
    plan_shape = (instance.num_vsps, instance.num_devices)
    if counts.ndim not in ndims or counts.shape[-2:] != plan_shape:
        shapes = {2: str(plan_shape), 3: "(n, {}, {})".format(*plan_shape)}
        expected = " or ".join(shapes[ndim] for ndim in ndims)
        raise ValueError(f"bundles must have shape {expected}, got {counts.shape}")
    if (counts < 0).any():
        raise ValueError("bundle counts must be non-negative")


def shortfalls(bundles, instance: ProblemInstance) -> np.ndarray:
    """Minimum integer on-demand volume per (vsp, scenario) for a (vsp, device) bundle matrix.

    Reserved coverage counts bundle transmissions scaled by the similarity
    score (the table's ``coverage``); the gap to the snapped requirement is
    rounded up because purchases are whole transmissions.  ``bundles`` may
    also be a stack ``(n, vsp, device)`` of plans, giving ``(n, vsp,
    scenario)``.  Coverage is summed device by device in index order, so a
    plan's shortfalls do not depend on the other plans in its stack.  A plan
    of the wrong shape, or with a negative, NaN, infinite or fractional count,
    is a ``ValueError``.
    """
    counts = _whole(bundles, "bundle counts").astype(np.float64, copy=False)
    _check_counts(counts, instance, (2, 3))
    return _shortfalls(counts, instance.pricing)


def _shortfalls(counts: np.ndarray, pricing: Pricing) -> np.ndarray:
    """:func:`shortfalls` of checked counts.

    A device with no bundle in any plan of the stack would add ``+0.0``
    everywhere, which leaves every sum as it is, so it is skipped.
    """
    coverage = np.zeros(counts.shape[:-1] + (pricing.snapped.shape[1],))
    bought = counts.reshape(-1, counts.shape[-1]).any(axis=0)
    for e in np.flatnonzero(bought).tolist():
        coverage += counts[..., e, None] * pricing.coverage[:, e, :]
    gap = np.maximum(0.0, pricing.snapped - coverage)
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


class PlanCosts(NamedTuple):
    """Cost breakdown of a stack of plans: one float64 entry per plan in each field."""

    membership_total: np.ndarray
    reservation_total: np.ndarray
    expected_on_demand: np.ndarray
    total: np.ndarray


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis strictly left to right from ``0.0``.

    The bits of ``total = 0.0; for t in row: total += t`` for every row at
    once: a cumulative sum adds its terms in order, and the leading zero makes
    the first partial sum ``0.0 + t`` as the loop does.
    """
    padded = np.zeros(terms.shape[:-1] + (terms.shape[-1] + 1,))
    padded[..., 1:] = terms
    return np.cumsum(padded, axis=-1)[..., -1]


def _stage1_costs(bundles: np.ndarray, pricing: Pricing) -> tuple[np.ndarray, np.ndarray]:
    """Membership and reservation totals of each plan in an ``(n, vsp, device)`` stack.

    Priced by the device set's ``pricing`` table.  Summed vsp-major, in
    (vsp, device) order; membership is paid where bundles are.  A (vsp,
    device) with no bundles adds zero, which leaves the partial sum as it was.
    """
    flat = (bundles.shape[0], bundles.shape[1] * bundles.shape[2])
    membership = _ordered_sum(((bundles >= 1) * pricing.memberships).reshape(flat))
    return membership, _ordered_sum((bundles * pricing.bundle_prices).reshape(flat))


def optimal_recourse(plan: ReservationPlan, instance: ProblemInstance) -> RecourseDecision:
    """Cost-minimal on-demand tensor for a fixed plan.

    Every (vsp, scenario) shortfall lands on the cheapest device.  Splits
    across equally cheap devices would cost the same; the canonical assignment
    keeps output deterministic.  A plan of the wrong shape is a ``ValueError``.
    """
    _check_counts(plan.bundles, instance, (2,))
    return _on_demand(_shortfalls(plan.bundles, instance.pricing), instance)


def _on_demand(short: np.ndarray, instance: ProblemInstance) -> RecourseDecision:
    """The recourse tensor that buys each (vsp, scenario) shortfall of ``short`` from the cheapest device."""
    tensor = np.zeros((instance.num_vsps, instance.num_devices, instance.num_scenarios), dtype=np.int64)
    tensor[:, instance.pricing.cheapest, :] = short
    return RecourseDecision(tensor)


def evaluate_many(bundles, instance: ProblemInstance) -> PlanCosts:
    """Full objective value of every plan in an ``(n, vsp, device)`` bundle stack.

    Membership is paid exactly where bundles are bought.  Each (vsp,
    scenario) shortfall is bought from the cheapest device.  Summation order
    is fixed and is the same for every plan whatever the stack holds: stage 1
    vsp-major (:func:`_stage1_costs`), recourse scenario-major and within a
    scenario vsp by vsp (:func:`_ordered_sum`), with coverage summed in device
    order (:func:`shortfalls`).  A plan's costs are therefore bit-identical in
    a stack of one or of many, and no per-plan recourse tensor is built.
    """
    counts = _whole(bundles, "bundle counts").astype(np.int64, copy=False)
    _check_counts(counts, instance, (3,))
    return _plan_costs(counts, _shortfalls(counts, instance.pricing), instance)


def _plan_costs(counts: np.ndarray, short: np.ndarray, instance: ProblemInstance) -> PlanCosts:
    """:func:`evaluate_many` of checked counts whose shortfalls are ``short``."""
    pricing = instance.pricing
    membership_total, reservation_total = _stage1_costs(counts, pricing)
    units = short * pricing.unit_price  # (n, vsp, scenario)
    scenario_costs = _ordered_sum(units.transpose(0, 2, 1))  # (n, scenario), summed vsp by vsp
    expected = _ordered_sum(instance.probabilities * scenario_costs)

    total = membership_total + reservation_total + expected
    return PlanCosts(membership_total, reservation_total, expected, total)


def evaluate_total(plan: ReservationPlan, instance: ProblemInstance) -> Solution:
    """Full objective value of one plan, with the bits :func:`evaluate_many` gives it in any stack.

    Membership is normalized to exactly the devices with bundles; paying a
    membership without bundles buys nothing.  A plan that is normalized
    already is returned as it is.  The plan's shortfalls are computed once,
    from the instance's pricing table, and give both the cost breakdown and
    the optimal recourse tensor of the returned solution.
    """
    normalized = plan
    if not (plan.membership == (plan.bundles >= 1)).all():
        normalized = ReservationPlan.from_bundles(plan.bundles)
    counts = normalized.bundles[None]
    _check_counts(counts, instance, (3,))
    short = _shortfalls(counts, instance.pricing)
    cost = CostBreakdown(*(float(column[0]) for column in _plan_costs(counts, short, instance)))
    return Solution(plan=normalized, recourse=_on_demand(short[0], instance), cost=cost)
