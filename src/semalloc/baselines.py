"""Comparison schemes: the expected-value formulation and random allocation.

The expected-value scheme collapses the scenario set to its mean (demand as
the probability-weighted product quantity*threshold, similarity likewise
averaged), solves the deterministic program, then pays for that fixed plan
under the true scenario distribution.  The random scheme draws whole plans
uniformly within the search bounds, every plan from one seeded PCG64 stream.
Each scheme's plans (:func:`evf_plan`, :func:`random_plans`) are split from
their pricing, because neither reads an on-demand price: a sweep over price
factors draws or solves them once and prices them at every factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_model import ProblemInstance
from .recourse import ReservationPlan, Solution, _ordered_sum, evaluate_many, evaluate_total
from .solvers import DipInstance, SolverConfig, solve_dip


@dataclass(frozen=True)
class RandomSchemeConfig:
    """Seed and sample count for the random allocation scheme."""

    seed: int
    samples: int

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


@dataclass(frozen=True)
class RandomSchemeResult:
    """Every sampled plan and its total, aggregate statistics, and the best plan's solution.

    ``plans`` is a read-only ``(samples, vsp, device)`` bundle stack;
    ``best`` is :func:`evaluate_total` of ``plans[best_index]``.
    """

    plans: np.ndarray
    totals: tuple[float, ...]
    mean_total: float
    min_total: float
    max_total: float
    best_index: int
    best: Solution


def evf_plan(instance: ProblemInstance, config: SolverConfig | None = None) -> ReservationPlan:
    """The expected-value scheme's plan: the optimum of the averaged deterministic program.

    The averaged requirement is E[quantity*threshold] (the constraint's
    right-hand side is the product, so its expectation is the faithful mean
    demand), posed with threshold 1.  Both averages are accumulated scenario
    by scenario in index order.  The program reads the bundle sizes,
    memberships and bundle prices but no on-demand price, so the plan is the
    same at every on-demand price factor.  Infeasibility of the averaged
    program propagates unchanged.
    """
    probabilities = instance.probabilities
    avg_requirement = _ordered_sum(probabilities * instance.requirements)
    avg_similarity = _ordered_sum(probabilities * instance.similarity)
    dip = DipInstance(
        devices=instance.devices,
        actual_similarity=avg_similarity,
        actual_quantity=avg_requirement,
        actual_threshold=np.ones(instance.num_vsps),
    )
    return solve_dip(dip, config).plan


def solve_evf(instance: ProblemInstance, config: SolverConfig | None = None) -> Solution:
    """The plan of :func:`evf_plan`, costed under the true scenarios."""
    return evaluate_total(evf_plan(instance, config), instance)


def random_plans(instance: ProblemInstance, config: RandomSchemeConfig) -> np.ndarray:
    """The random scheme's draw: a read-only ``(samples, vsp, device)`` stack of uniform plans.

    Generator pinned for cross-run reproducibility: one PCG64 seeded through
    ``SeedSequence(seed)`` draws every plan in one
    ``Generator.integers(0, instance.bundle_upper_bounds + 1, size=(samples,
    vsp, device), dtype=np.int64)`` call.  The draw fills the stack in C
    order, one plan after another, so the first ``k`` plans of any draw are
    the ``k``-sample draw: a plan does not depend on the sample count.  The
    bounds read no price, so the draw is the same at every on-demand price
    factor.
    """
    upper = instance.bundle_upper_bounds
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(config.seed)))
    plans = rng.integers(0, upper + 1, size=(config.samples, *upper.shape), dtype=np.int64)
    plans.setflags(write=False)
    return plans


def solve_random(instance: ProblemInstance, config: RandomSchemeConfig) -> RandomSchemeResult:
    """Uniform random plans within the per-(vsp, device) bundle bounds.

    The plans of :func:`random_plans` are priced together by one
    :func:`evaluate_many` call; only the best is expanded into a full
    :class:`Solution`.
    """
    plans = random_plans(instance, config)
    totals = tuple(evaluate_many(plans, instance).total.tolist())
    best_index = min(range(len(totals)), key=lambda i: (totals[i], i))
    return RandomSchemeResult(
        plans=plans,
        totals=totals,
        mean_total=sum(totals) / len(totals),
        min_total=min(totals),
        max_total=max(totals),
        best_index=best_index,
        best=evaluate_total(ReservationPlan.from_bundles(plans[best_index]), instance),
    )


def random_summary_dict(result: RandomSchemeResult) -> dict:
    """JSON-ready summary: per-sample totals plus aggregates and the best plan."""
    best = result.best
    return {
        "samples": len(result.totals),
        "totals": list(result.totals),
        "mean_total": result.mean_total,
        "min_total": result.min_total,
        "max_total": result.max_total,
        "best_index": result.best_index,
        "best_plan": {
            "membership": best.plan.membership.tolist(),
            "bundles": best.plan.bundles.tolist(),
        },
        "best_cost": {
            "membership_total": best.cost.membership_total,
            "reservation_total": best.cost.reservation_total,
            "expected_on_demand": best.cost.expected_on_demand,
            "total": best.cost.total,
        },
    }
