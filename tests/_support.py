"""Shared instance builders and independent oracles for the test suite.

Random instances draw similarities, thresholds, and probabilities from dyadic
grids so coverage sums are exact in binary floating point: the integer
shortfalls computed by any summation order agree, and oracle comparisons can
use tight tolerances.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from semalloc import (
    DemandScenario,
    EdgeDevice,
    ProblemInstance,
    ReservationPlan,
    Solution,
    Vsp,
    VspDemand,
    on_demand_unit_cost,
    reservation_bundle_cost,
)

SIMILARITY_GRID = (0.0, 0.5, 0.75, 1.0)
THRESHOLD_GRID = (0.5, 0.75, 1.0)
RATE_GRID = (1.25e6, 2.5e6, 5.0e6)
POWER_GRID = (0.08, 0.1, 0.12)
MEMBERSHIP_GRID = (0.0, 0.02, 0.05)


def make_random_instance(
    rng: np.random.Generator,
    max_vsps: int = 2,
    max_devices: int = 3,
    max_scenarios: int = 3,
) -> ProblemInstance:
    num_vsps = int(rng.integers(1, max_vsps + 1))
    num_devices = int(rng.integers(1, max_devices + 1))
    num_scenarios = int(rng.integers(1, max_scenarios + 1))

    devices = tuple(
        EdgeDevice(
            id=e,
            uplink_rate=float(rng.choice(RATE_GRID)),
            transmit_power=float(rng.choice(POWER_GRID)),
            avg_payload_semantic=5125.0,
            avg_payload_raw=650000.0,
            membership_cost=float(rng.choice(MEMBERSHIP_GRID)),
            bundle_size=int(rng.choice((4, 5))),
            alpha_reservation=5.0,
            alpha_on_demand=15.0,
        )
        for e in range(num_devices)
    )
    vsps = tuple(Vsp(id=w, interest_label=f"interest-{w}") for w in range(num_vsps))

    weights = rng.integers(1, 4, size=num_scenarios)
    probabilities = weights / weights.sum()
    scenarios = tuple(
        DemandScenario(
            probability=float(probabilities[i]),
            per_vsp=tuple(
                VspDemand(
                    interest_key=f"interest-{w}",
                    quantity=int(rng.integers(0, 13)),
                    threshold=float(rng.choice(THRESHOLD_GRID)),
                )
                for w in range(num_vsps)
            ),
        )
        for i in range(num_scenarios)
    )

    similarity = rng.choice(SIMILARITY_GRID, size=(num_vsps, num_devices, num_scenarios))
    # the averaged deterministic program needs positive expected similarity for
    # every VSP with positive expected requirement
    for w in range(num_vsps):
        has_demand = any(d.per_vsp[w].requirement > 0 for d in scenarios)
        if has_demand and similarity[w].max() == 0.0:
            similarity[w, 0, :] = 0.5

    return ProblemInstance(devices, vsps, scenarios, similarity)


def random_plan(rng: np.random.Generator, instance: ProblemInstance) -> ReservationPlan:
    """Uniform plan within the per-(vsp, device) brute-force search bounds."""
    bounds = oracle_bundle_bounds(instance)
    bundles = rng.integers(0, bounds + 1, dtype=np.int64)
    return ReservationPlan.from_bundles(bundles)


def oracle_bundle_bounds(instance: ProblemInstance) -> np.ndarray:
    """Independently derived per-(vsp, device) bundle caps for enumeration."""
    bounds = np.zeros((instance.num_vsps, instance.num_devices), dtype=np.int64)
    for w in range(instance.num_vsps):
        max_req = max(
            instance.requirement(w, i) for i in range(instance.num_scenarios)
        )
        for e in range(instance.num_devices):
            column = instance.similarity[w, e, :]
            positive = column[column > 0]
            if positive.size == 0 or max_req <= 0:
                continue
            per_bundle = instance.devices[e].bundle_size * float(positive.min())
            bounds[w, e] = math.ceil(max_req / per_bundle)
    return bounds


def brute_force_recourse_cost(plan: ReservationPlan, instance: ProblemInstance) -> float:
    """Expected on-demand cost by enumerating every feasible integer tensor.

    Scenarios and VSPs decouple, so each (vsp, scenario) cell is minimized by
    full enumeration of device splits up to the ceiled residual.
    """
    unit_costs = [on_demand_unit_cost(dev) for dev in instance.devices]
    num_devices = instance.num_devices
    expected = 0.0
    for i, scen in enumerate(instance.scenarios):
        scenario_cost = 0.0
        for w in range(instance.num_vsps):
            req = instance.requirement(w, i)
            coverage = sum(
                int(plan.bundles[w, e]) * instance.devices[e].bundle_size * float(instance.similarity[w, e, i])
                for e in range(num_devices)
            )
            residual = req - coverage
            if residual <= 0:
                continue
            cap = math.ceil(residual)
            best = None
            for combo in itertools.product(range(cap + 1), repeat=num_devices):
                if sum(combo) + coverage >= req:
                    cost = sum(k * c for k, c in zip(combo, unit_costs))
                    if best is None or cost < best:
                        best = cost
            scenario_cost += best
        expected += scen.probability * scenario_cost
    return expected


def enumerate_sip_minimum(instance: ProblemInstance, margin: int = 1) -> float:
    """Exhaustive minimum of the two-stage objective over the bundle lattice.

    Enumerates every plan up to the independently derived bounds plus a safety
    margin (so the solver's tighter bound is itself exercised), computing costs
    with vectorized numpy arithmetic rather than the solver's search.
    """
    bounds = oracle_bundle_bounds(instance) + margin
    num_vsps, num_devices = bounds.shape
    axes = [range(int(b) + 1) for b in bounds.reshape(-1)]
    plans = np.array(list(itertools.product(*axes)), dtype=np.int64)
    plans = plans.reshape(len(plans), num_vsps, num_devices)

    bundle_costs = np.array([reservation_bundle_cost(dev) for dev in instance.devices])
    memberships = np.array([dev.membership_cost for dev in instance.devices])
    sizes = np.array([dev.bundle_size for dev in instance.devices], dtype=np.float64)
    probs = instance.probabilities
    cheapest = min(on_demand_unit_cost(dev) for dev in instance.devices)

    requirement = np.array(
        [
            [instance.requirement(w, i) for i in range(instance.num_scenarios)]
            for w in range(num_vsps)
        ]
    )
    per_bundle = sizes[None, :, None] * instance.similarity  # (W, E, S)

    stage1 = (plans * bundle_costs[None, None, :]).sum(axis=(1, 2))
    stage1 += ((plans >= 1) * memberships[None, None, :]).sum(axis=(1, 2))
    coverage = np.einsum("nwe,wes->nws", plans.astype(np.float64), per_bundle)
    short = np.ceil(np.clip(requirement[None, :, :] - coverage, 0.0, None))
    stage2 = (short.sum(axis=1) * probs[None, :]).sum(axis=1) * cheapest
    return float((stage1 + stage2).min())


def solution_to_dict(solution: Solution) -> dict:
    """The document of a solution file: ``json.dumps(d, sort_keys=True, indent=2) + "\\n"`` is its bytes."""
    return {
        "plan": {
            "membership": solution.plan.membership.tolist(),
            "bundles": solution.plan.bundles.tolist(),
        },
        "on_demand": solution.recourse.on_demand.tolist(),
        "cost": {
            "membership_total": solution.cost.membership_total,
            "reservation_total": solution.cost.reservation_total,
            "expected_on_demand": solution.cost.expected_on_demand,
            "total": solution.cost.total,
        },
    }
