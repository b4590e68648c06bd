"""Independent reference plans for the search checks.

``highs_plan`` poses each VSP's two-stage problem as one extensive-form MILP
and solves it with HiGHS through ``scipy.optimize.milp``:

    min  sum_e (membership_e * y_e + bundle_cost_e * x_e) + sum_i p_i * unit * z_i
    s.t. sum_e size_e * sim_ei * x_e + z_i >= requirement_i     for every scenario i
         x_e <= U_e * y_e,  x_e, z_i integer >= 0,  y_e binary

It shares no code with semalloc's solver: prices and bounds are recomputed here
from the instance fields.  Plans are always costed with semalloc's own
``evaluate_total``, so every comparison is made under the package's cost model.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

import semalloc


class OracleError(RuntimeError):
    """HiGHS did not return an optimal plan."""


def _energy_price(device, alpha: float) -> float:
    return device.transmit_power * device.avg_payload_semantic / device.uplink_rate * alpha


def highs_plan(instance) -> np.ndarray:
    """Optimal (vsp, device) bundle counts from one MILP per VSP."""
    devices = instance.devices
    num_devices, num_scenarios = len(devices), instance.num_scenarios
    sizes = np.array([d.bundle_size for d in devices], dtype=np.float64)
    bundle_cost = np.array([d.bundle_size * _energy_price(d, d.alpha_reservation) for d in devices])
    membership = np.array([d.membership_cost for d in devices], dtype=np.float64)
    unit = min(_energy_price(d, d.alpha_on_demand) for d in devices)
    probs = np.array([s.probability for s in instance.scenarios])
    bundles = np.zeros((instance.num_vsps, num_devices), dtype=np.int64)
    for w in range(instance.num_vsps):
        req = np.array([s.per_vsp[w].quantity * s.per_vsp[w].threshold for s in instance.scenarios])
        if not (req > 0).any():
            continue
        sim = np.asarray(instance.similarity[w], dtype=np.float64)  # (device, scenario)
        upper = np.zeros(num_devices)
        for e in range(num_devices):
            positive = sim[e][sim[e] > 0]
            if positive.size:
                upper[e] = math.ceil(req.max() / (sizes[e] * positive.min()))
        # variables: x (E), y (E), z (N)
        cost = np.concatenate([bundle_cost, membership, probs * unit])
        cover = np.hstack([(sizes[:, None] * sim).T, np.zeros((num_scenarios, num_devices)),
                           np.eye(num_scenarios)])
        link = np.hstack([np.eye(num_devices), -np.diag(upper), np.zeros((num_devices, num_scenarios))])
        result = milp(
            cost,
            constraints=[LinearConstraint(cover, lb=req), LinearConstraint(link, ub=0.0)],
            integrality=np.ones(cost.size),
            bounds=Bounds(np.zeros(cost.size),
                          np.concatenate([upper, np.ones(num_devices), np.ceil(req)])),
            options={"mip_rel_gap": 0.0, "time_limit": 60.0},
        )
        if result.status != 0:
            raise OracleError(f"HiGHS failed on VSP {w}: {result.message}")
        bundles[w] = np.round(result.x[:num_devices]).astype(np.int64)
    return bundles


def total(bundles, instance) -> float:
    plan = semalloc.ReservationPlan.from_bundles(bundles)
    return semalloc.evaluate_total(plan, instance).cost.total


def highs_total(instance) -> float:
    """``evaluate_total`` of the HiGHS plan."""
    return total(highs_plan(instance), instance)


def cheapest_neighbour(bundles, instance) -> float:
    """Lowest ``evaluate_total`` among plans one bundle away from ``bundles``."""
    best = math.inf
    base = np.array(bundles, dtype=np.int64)
    for index in np.ndindex(base.shape):
        for step in (-1, 1):
            if base[index] + step < 0:
                continue
            moved = base.copy()
            moved[index] += step
            best = min(best, total(moved, instance))
    return best
