"""Exact first-stage optimization via per-VSP depth-first branch-and-bound.

Both programs separate over VSPs: the objective is a sum of per-VSP terms and
every coverage constraint involves a single VSP.  Each subproblem searches the
bundle lattice bounded by ``core_model.bundle_caps``.  A node's lower bound is
its stage-1 cost plus its remaining per-scenario coverage gaps, priced by a
feasible dual of the LP relaxation of the subtree below it: the recourse price
per unit, scaled down so that no device left to branch on covers a unit for
less than its bundle price plus its membership spread over its search bound.
That spread is the weak fixed-charge relaxation of Padberg, Van Roy and Wolsey
("Valid linear inequalities for fixed charge problems", Oper. Res. 33(4),
1985).  The bound is admissible: recourse buys the gap rounded up; no count
exceeds its search bound, so a device in use pays at least that share of its
membership per bundle; and by weak duality the priced gap never exceeds what
the subtree still pays.  The bound is convex and piecewise linear in the next
device's count, so each node visits its children least bound first, outward
from the bound's minimiser, and stops at the first child that can no longer
win, or tie, the incumbent.  A program with recourse (SIP) also prices, once
its search of ``E`` devices and ``N`` scenarios reaches node ``E * N + 1``,
the zero plan and each one-device plan whose count closes one scenario's gap,
as the search itself would price those leaves.  The best of them joins the
incumbents, and each device's count is then capped at the largest whose
stage-1 cost alone still fits the incumbent's tie window, with its dual ratio
repriced at the new cap: objective-based bound tightening seeded by a primal
heuristic (Savelsbergh, ORSA J. Computing 6(4), 1994).  A search that ends
sooner never pays for that pass.  DIP uses the same search with an uncapped
price, which prunes every subtree that can no longer cover its gap, and
without the pass.  Both programs build their search data (exploration orders,
bundle prices, dual ratios and coverage rows) for every VSP at once in one
numpy set-up, :func:`_priced_search_setup`, from a
``core_model.pricing_table``.  Among equal-cost optima the lexicographically
smallest bundle vector by device index is returned, which keeps results
reproducible regardless of the exploration order heuristic.  A sweep along one
parameter in which every plan's cost is affine (the on-demand price factor, or
the probabilities ``(p, 1 - p)``) is solved by :func:`solve_sip_grid`: each
VSP is searched at the grid's ends, and only the intervals whose ends do not
prove one plan are bisected.  It and :func:`solve_sip` share one per-point
path, :func:`_sip_searches`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .core_model import (
    CostBreakdown,
    EdgeDevice,
    Pricing,
    ProblemInstance,
    bundle_caps,
    pricing_table,
)
from .errors import InfeasibleError, NodeLimitError, SemallocError, ValidationFailure
from .recourse import (
    RecourseDecision,
    ReservationPlan,
    Solution,
    _on_demand,
    _ordered_sum,
    _plan_costs,
    _shortfalls,
    _stage1_costs,
    evaluate_many,
    evaluate_total,
    recourse_cost_fn,
)

# Costs within TIE_REL * best cost of the incumbent count as tied, a window
# relative to the costs at every price scale; ties are resolved by the
# lexicographic rule, and pruning keeps tied subtrees alive.
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
        if (thr < 0).any() or (thr > 1).any() or not np.all(np.isfinite(thr)):
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
    """Knobs for the branch-and-bound search."""

    node_limit: int = 10_000_000

    def __post_init__(self):
        if self.node_limit < 1:
            raise ValueError(f"node_limit must be >= 1, got {self.node_limit}")


def bundle_upper_bound(w: int, e: int, instance: ProblemInstance) -> int:
    """Largest bundle count on (w, e) any optimal plan can use: ``instance.bundle_upper_bounds[w, e]``."""
    return int(instance.bundle_upper_bounds[w, e])


@dataclass
class _SearchOutcome:
    cost: float | None  # the best leaf cost
    bundles: tuple[int, ...] | None  # the lexicographically smallest vector within the tie window of ``cost``
    nodes: int
    exceeded: bool
    bound: float  # lower bound on the optimum; equals ``cost`` once the search completes
    own_cost: float | None  # the cost of ``bundles`` itself


class _SearchSetup(NamedTuple):
    """Every VSP's search data from :func:`_priced_search_setup`, as plain lists the DFS indexes."""

    orders: list[list[int]]  # (vsp, depth): the device branched on at each depth
    ratios: list[list[float]]  # (vsp, device): p_e / sum_i weights_i * a_ei, inf where the sum is 0
    rows: list[list[list[float]]]  # (vsp, device, scenario): a_ei, the coverage of one bundle
    weighted: list[list[float]]  # (vsp, device): sum_i weights_i * a_ei, the divisor of each ratio
    upper: list[list[int]]  # (vsp, device): the search bounds U_e
    memberships: list[float]
    bundle_costs: list[float]
    weights: list[float]
    cap: float


def _priced_search_setup(
    pricing: Pricing,
    similarity: np.ndarray,
    weights: Sequence[float],
    cap: float,
    upper: np.ndarray,
) -> _SearchSetup:
    """Exploration order, dual ratios and coverage rows of every VSP's search, built at once.

    ``pricing`` is the devices' table for ``similarity``, which is ``(vsp,
    device, scenario)``, and ``upper`` the ``(vsp, device)`` search bounds.
    One bundle of device ``e`` covers ``a_ei = size_e * similarity[w, e, i]``
    in scenario ``i``: ``rows[w, e, i]``, the table's ``coverage``.

    - **Order.**  Devices by ascending reservation cost per expected relevant
      unit, ``b_e / (size_e * sum_i weights_i * similarity[w, e, i])``, ties
      by device index; devices with no relevant unit go last, by index.
      Cheap-and-relevant devices first tighten incumbents early.  The order
      only affects search speed, never the returned optimum (the lexicographic
      tie-break is applied in device-index space).
    - **Price.**  One bundle costs ``p_e = b_e + m_e / U_e`` in the LP
      relaxation of a subtree.  No count exceeds ``U_e``, so ``k_e >= 1``
      bundles pay a membership ``m_e >= m_e * k_e / U_e``: the weak
      fixed-charge relaxation ``z_e >= k_e / U_e`` (Padberg, Van Roy and
      Wolsey 1985).  A device with ``U_e = 0`` buys nothing and keeps ``b_e``.
    - **Ratio.**  ``p_e / sum_i weights_i * a_ei``, or infinity where that sum
      is 0: the largest dual scale at which device ``e`` buys no coverage
      below its price.  :func:`_suffix_scales` takes their running minimum.

    Every weighted sum runs over the scenarios left to right from 0.0
    (:func:`~semalloc.recourse._ordered_sum`), so orders and ratios have the
    bits of the per-VSP sums they stand for.
    """
    sizes, memberships, bundle_costs, rows = pricing.sizes, pricing.memberships, pricing.bundle_prices, pricing.coverage
    scenario_weights = np.asarray(weights, dtype=np.float64)
    expected = _ordered_sum(scenario_weights * similarity)
    weighted = _ordered_sum(scenario_weights * rows)
    relevant = sizes * expected
    idle = relevant <= 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        per_unit = np.where(idle, 0.0, bundle_costs / relevant)
        lp_prices = np.where(upper > 0, bundle_costs + memberships / upper, bundle_costs)
        ratios = np.where(weighted > 0.0, lp_prices / weighted, math.inf)
    orders = np.lexsort((per_unit, idle))  # stable: equal keys keep device-index order
    arrays = (orders, ratios, rows, weighted, upper, memberships, bundle_costs)
    return _SearchSetup(*(array.tolist() for array in arrays), list(weights), cap)


def _suffix_scales(order: Sequence[int], ratios: Sequence[float], cap: float) -> list[float]:
    """Dual scale of the remaining coverage gaps at every depth ``0..len(order)``.

    Scale ``d`` is ``min(cap, min over e in order[d:] of ratios[e])``, with the
    ratios of :func:`_priced_search_setup`.  Pricing a unit of scenario ``i``'s
    gap at ``scale * weights_i`` costs at most the recourse price ``cap`` per
    weighted unit and lets no device left to branch on buy coverage below its
    bundle price: a feasible dual of the LP relaxation of the subtree at depth
    ``d``.  By weak duality ``scale * sum_i weights_i * max(0, gap_i)`` never
    exceeds what the subtree still pays.  With no productive device left and
    an infinite ``cap`` (a program without recourse) the scale is infinite: a
    positive gap can no longer be covered.
    """
    return list(accumulate((ratios[device] for device in reversed(order)), min, initial=cap))[::-1]


def _objective_caps(setup: _SearchSetup, w: int, ceiling: float) -> tuple[list[int], list[float]]:
    """VSP ``w``'s search bounds and dual ratios once no plan costing more than ``ceiling`` can win.

    A plan with ``k >= 1`` bundles of device ``e`` costs, as the search sums
    it, at least ``fl(m_e + fl(k * b_e))``: float addition is monotone and
    every other term is non-negative.  So each bound ``U_e`` falls to the
    largest ``k`` whose stage-1 floor is at most ``ceiling``, found by
    bisection on that floor and so never below it; a device that pays nothing
    per bundle keeps its bound.  This is objective-based bound tightening
    (Savelsbergh, "Preprocessing and probing techniques for mixed integer
    programming problems", ORSA J. Computing 6(4), 1994).  Each capped
    device's ratio is repriced as in :func:`_priced_search_setup`, at ``b_e +
    m_e / U_e`` (``b_e`` at ``U_e = 0``) over ``setup.weighted``.
    """
    upper, ratios, weighted = list(setup.upper[w]), list(setup.ratios[w]), setup.weighted[w]
    for e, (membership, step, bound) in enumerate(zip(setup.memberships, setup.bundle_costs, upper)):
        if not bound or step <= 0.0 or membership + bound * step <= ceiling:
            continue
        low, high = 0, bound  # ``high`` bundles alone cost more than the ceiling
        estimate = (ceiling - membership) / step  # may overflow when ``step`` is tiny: then it lies outside
        guess = int(estimate) if 0.0 < estimate < high else 0
        for mid in (guess, guess + 1):  # the float estimate and the count after it settle most caps
            if low < mid < high:
                if membership + mid * step <= ceiling:
                    low = mid
                else:
                    high = mid
        while high - low > 1:
            mid = (low + high) // 2
            if membership + mid * step <= ceiling:
                low = mid
            else:
                high = mid
        upper[e] = low
        if weighted[e] > 0.0:
            ratios[e] = (step + membership / low if low else step) / weighted[e]
    return upper, ratios


def _weighted_gap(needs: Sequence[float], covered: Sequence[float], weights: Sequence[float]) -> float:
    """``sum_i weights_i * max(0, needs_i - covered_i)``: the gap a dual scale prices."""
    return sum([w * (need - cov) for need, cov, w in zip(needs, covered, weights) if need > cov])


def _ceil_down(x: float) -> int:
    return math.ceil(x - 1e-9 * max(1.0, x))


def _child_bounds(
    base: float,
    step: float,
    needs: Sequence[float],
    covered: Sequence[float],
    row: Sequence[float],
    weights: Sequence[float],
    scale: float,
) -> tuple[int, float, float, list[tuple[float, float]]]:
    """Child bound after ``k >= 1`` bundles of the next device, as a function of ``k``.

    With gaps ``g_i = needs_i - covered_i``, the bound is
    ``base + k*step + scale * sum_i weights_i * max(0, g_i - k*row_i)`` (``base``
    is the stage-1 cost with the device's membership): convex and piecewise
    linear, with a kink at each ``g_i / row_i``.  Returns ``(first, value,
    slope, kinks)``: the least count that can pass, the value and slope of the
    first piece extended to ``k = 0``, and the kinks as ``(k, slope increase)``
    in ascending order.  An infinite scale fails every count that leaves a gap
    open; then only ``first`` constrains the counts.
    """
    if scale == math.inf:
        first = 1
        for need, cov, per_bundle, w in zip(needs, covered, row, weights):
            if need > cov and w:
                if per_bundle <= 0.0:
                    return 1, math.inf, 0.0, []
                first = max(first, _ceil_down((need - cov) / per_bundle))
        return first, base, step, []
    priced = 0.0
    slope = step
    kinks = []
    for need, cov, per_bundle, w in zip(needs, covered, row, weights):
        gap = need - cov
        if gap > 0.0 and w:
            priced += w * gap
            if per_bundle > 0.0:
                rise = scale * w * per_bundle
                slope -= rise
                kinks.append((gap / per_bundle, rise))
    kinks.sort()
    return 1, base + scale * priced, slope, kinks


def _counts_by_bound(zero: float, bounds, upper: int) -> Iterator[tuple[float, int]]:
    """Count 0 and the counts ``first..upper``, each with its child bound, least bound first.

    Count 0 has the bound ``zero`` and a positive count the bound of
    :func:`_child_bounds`.  That bound is convex, so two pointers walk outward
    from its integer minimiser, the floor of the kink where the slope turns
    non-negative, and each step takes the side whose next bound is smaller.
    The bounds come out non-decreasing: a caller can stop at the first one
    past its ceiling, and the one pending bounds every count not yet yielded.
    Each pointer prices its count as ``value + a*k - b``, with ``a`` and ``b``
    summed over the kinks below ``k``: O(1) amortised per count.  Counts with
    an infinite bound are never yielded.
    """
    first, value, a_lo, kinks = bounds
    b_lo, below, num_kinks = 0.0, 0, len(kinks)
    # pass the kinks up to the one where the slope turns non-negative, and all below ``first``
    for kink, rise in kinks:
        if a_lo >= 0.0 and kink >= first:
            break
        a_lo += rise
        b_lo += rise * kink
        below += 1
    minimiser = upper if a_lo < 0.0 else kinks[below - 1][0] if below else 0
    lo = int(minimiser) if minimiser < upper else upper  # its floor: kinks are positive
    if lo < first:
        lo = first
    if lo > upper:
        lo = upper
    # each pointer sums the kinks strictly below its count
    hi, a_hi, b_hi, above = lo + 1, a_lo, b_lo, below
    while above < num_kinks and kinks[above][0] < hi:
        kink, rise = kinks[above]
        a_hi += rise
        b_hi += rise * kink
        above += 1
    while below and kinks[below - 1][0] >= lo:
        below -= 1
        kink, rise = kinks[below]
        a_lo -= rise
        b_lo -= rise * kink
    low = value + a_lo * lo - b_lo if lo >= first else math.inf
    high = value + a_hi * hi - b_hi if hi <= upper else math.inf
    while True:
        if zero <= low and zero <= high:
            if zero == math.inf:
                return
            yield zero, 0
            zero = math.inf
        elif low <= high:
            yield low, lo
            lo -= 1
            while below and kinks[below - 1][0] >= lo:
                below -= 1
                kink, rise = kinks[below]
                a_lo -= rise
                b_lo -= rise * kink
            low = value + a_lo * lo - b_lo if lo >= first else math.inf
        else:
            yield high, hi
            hi += 1
            while above < num_kinks and kinks[above][0] < hi:
                kink, rise = kinks[above]
                a_hi += rise
                b_hi += rise * kink
                above += 1
            high = value + a_hi * hi - b_hi if hi <= upper else math.inf


def _dfs_bundle_search(
    setup: _SearchSetup,
    w: int,
    needs: Sequence[float],
    leaf_cost: Callable[[list[float]], float | None],
    node_limit: int,
) -> _SearchOutcome:
    """Depth-first branch-and-bound over bundle vectors, pruned by an LP-dual bound.

    Searches VSP ``w`` of ``setup``.  A node at depth ``d`` with stage-1 cost
    ``S`` and per-scenario coverage ``c`` (carried down the recursion;
    ``setup.rows[w][e]`` is one bundle of device ``e``) has the lower bound
    ``S + scale_d * sum_i weights_i * max(0, needs_i - c_i)`` with the dual scale
    of :func:`_suffix_scales` (``weights`` are the scenario probabilities and
    ``cap`` the recourse unit price, or ``[1]`` and infinity for a program
    without recourse), which prices each bundle left to branch on at its price
    in :func:`_priced_search_setup`.  It is admissible: recourse rounds its gap up,
    no count exceeds its search bound ``U_e``, so a device in use pays at least
    ``m_e / U_e`` of membership per bundle, and weak duality bounds the rest.
    Each node visits its children in order of their bound (:func:`_counts_by_bound`),
    so good incumbents come early, and stops at the first child past the tie
    window of the incumbent: every later child is no better, and tied subtrees
    stay in.  Count 0 is visited before the other counts are priced when its
    bound is under their stage-1 floor.  A visited node is one unit of
    ``node_limit``.  ``leaf_cost`` maps a complete vector's coverage to the rest
    of the objective, or None when the leaf is infeasible.  Of the leaves within
    the tie window of the cheapest, the lexicographically smallest vector wins,
    whatever the visiting order.  When the budget runs out, each node on the
    way back up adds the bound of its next child pending, which bounds all its
    children left unexplored.

    With recourse (``setup.cap`` finite), node ``E * N + 1`` first offers the
    zero plan and, for each device ``e`` with ``U_e > 0`` and each scenario
    ``i`` with ``needs_i > 0`` and ``a_ei > 0``, the plan of ``min(U_e, max(1,
    ceil(needs_i / a_ei)))`` bundles of ``e`` alone, priced with the leaves'
    own arithmetic and offered as a leaf.  Then :func:`_objective_caps` caps
    every ``U_e`` at the incumbent's ceiling and reprices the dual scales.
    The caps bind only plans outside the tie window, which holds the optimum
    and every plan the search can still return, so the search returns what it
    returned without them and, cut, bounds the optimum from below.  Bounds
    priced before the caps stay valid, only looser.  A search cut after that
    node returns a plan at least as good as the best one-device plan the pass
    priced; its lower bound can still stall.  A budget of at most ``E * N``
    nodes never reaches the pass.
    """
    order, coverage_rows, upper_bounds = setup.orders[w], setup.rows[w], setup.upper[w]
    membership_costs, bundle_costs, weights = setup.memberships, setup.bundle_costs, setup.weights
    num_devices = len(order)
    scales = _suffix_scales(order, setup.ratios[w], setup.cap)
    # the budget or, with recourse, the last node before the one-device plans are priced and the counts capped
    watch = min(node_limit, num_devices * len(needs)) if setup.cap < math.inf else node_limit
    best_cost = math.inf
    ceiling = math.inf  # the incumbent plus its tie window
    tied: list[tuple[float, tuple[int, ...]]] = []  # leaves within the window, with their costs
    vec = [0] * num_devices
    nodes = 0
    exceeded = False
    frontier = math.inf

    def offer(cost: float, plan: tuple[int, ...]) -> None:
        nonlocal best_cost, ceiling, tied
        if cost < best_cost:
            best_cost = cost
            ceiling = cost + TIE_REL * cost
            tied = [leaf for leaf in tied if leaf[0] <= ceiling]
        if cost <= ceiling:
            tied.append((cost, plan))

    def tighten() -> None:
        # the zero plan and each leaf k * e_e whose count k closes one scenario's gap, priced as the DFS sums them
        nonlocal upper_bounds, scales
        offer(0.0 + leaf_cost([0.0] * len(needs)), (0,) * num_devices)
        for device, (upper, row) in enumerate(zip(upper_bounds, coverage_rows)):
            membership, step = membership_costs[device], bundle_costs[device]
            if not upper or membership + step > ceiling:
                continue  # no count, or one bundle alone costs more than the incumbent
            counts = {min(upper, max(1, math.ceil(need / a))) for need, a in zip(needs, row) if need > 0.0 and a > 0.0}
            for count in sorted(counts):
                stage1 = 0.0 + (membership + count * step)
                if stage1 > ceiling:
                    break
                cost = stage1 + leaf_cost([0.0 + count * a for a in row])
                if cost <= ceiling:
                    offer(cost, tuple(count if e == device else 0 for e in range(num_devices)))
        upper_bounds, ratios = _objective_caps(setup, w, ceiling)
        scales = _suffix_scales(order, ratios, setup.cap)

    def recurse(depth: int, stage1: float, covered: list[float], gap: float) -> None:
        nonlocal nodes, exceeded, frontier, watch
        nodes += 1
        if nodes > watch:
            if nodes > node_limit:
                exceeded = True
                frontier = min(frontier, (stage1 + scales[depth] * gap) if gap > 0.0 else stage1)
                return
            watch = node_limit
            tighten()
        if depth == num_devices:
            extra = leaf_cost(covered)
            if extra is None:
                return
            cost = stage1 + extra
            if cost <= ceiling:
                offer(cost, tuple(vec))
            return
        device = order[depth]
        zero = (stage1 + scales[depth + 1] * gap) if gap > 0.0 else stage1
        membership = membership_costs[device]
        step = bundle_costs[device]
        upper = upper_bounds[device]
        least = stage1 + membership + step if upper else math.inf  # under every positive count's bound
        if zero <= least:  # count 0 comes first: visit it before pricing the others
            if zero <= ceiling and zero < math.inf:
                recurse(depth + 1, stage1, covered, gap)
            zero = math.inf
        if not upper or least > ceiling:
            return  # no positive count, or each costs more than the incumbent in stage 1 alone
        row = coverage_rows[device]
        bounds = _child_bounds(stage1 + membership, step, needs, covered, row, weights, scales[depth + 1])
        for bound, count in _counts_by_bound(zero, bounds, upper):
            if exceeded:  # the budget ran out below this node; the pending bound covers the rest
                frontier = min(frontier, bound)
                return
            if bound > ceiling:
                return
            if count:
                vec[device] = count
                grown = [c + count * r for c, r in zip(covered, row)]
                recurse(depth + 1, stage1 + (membership + count * step), grown, _weighted_gap(needs, grown, weights))
                vec[device] = 0
            else:
                recurse(depth + 1, stage1, covered, gap)

    empty = [0.0] * len(needs)
    recurse(0, 0.0, empty, _weighted_gap(needs, empty, weights))
    # ``recurse`` refers to itself through its closure; unbinding it lets reference counting free the
    # search's state at once, where the cycle collector would run every few hundred searches
    del recurse
    if not tied:
        return _SearchOutcome(None, None, nodes, exceeded, frontier, None)
    own_cost, chosen = min(tied, key=lambda leaf: leaf[1])
    return _SearchOutcome(best_cost, chosen, nodes, exceeded, min(best_cost, frontier), own_cost)


def solve_dip(dip: DipInstance, config: SolverConfig | None = None) -> Solution:
    """Cost-minimal reservation-only plan for exactly known demand.

    Raises :class:`InfeasibleError` when a VSP has positive requirement but no
    device with positive similarity (reservation alone cannot cover it).
    """
    config = config or SolverConfig()
    num_devices = len(dip.devices)
    requirements = (dip.actual_quantity * dip.actual_threshold)[:, None]
    similarity = dip.actual_similarity[:, :, None]
    pricing = pricing_table(dip.devices, similarity, requirements)
    caps = bundle_caps(requirements, pricing.sizes, similarity)
    setup = _priced_search_setup(pricing, similarity, [1.0], math.inf, caps)

    outcomes = []
    for w in range(dip.num_vsps):
        requirement = float(requirements[w, 0])
        if requirement <= 0.0:
            outcomes.append(_SearchOutcome(0.0, (0,) * num_devices, 0, False, 0.0, 0.0))
            continue
        if not (dip.actual_similarity[w] > 0.0).any():
            raise InfeasibleError(
                w, f"VSP {w}: requirement {requirement} but no device has positive similarity"
            )
        need = float(pricing.snapped[w, 0])
        outcome = _dfs_bundle_search(
            setup, w, [need], lambda covered: 0.0 if covered[0] >= need else None, config.node_limit
        )
        outcomes.append(outcome)
        if outcome.bundles is None and not outcome.exceeded:
            raise InfeasibleError(
                w, f"VSP {w}: no bundle vector within the search bounds covers {requirement}"
            )

    bundles = _outcome_bundles(outcomes, num_devices)
    membership_total, reservation_total = _stage1_costs(bundles[None], pricing)
    solution = Solution(
        ReservationPlan.from_bundles(bundles),
        RecourseDecision(np.zeros((dip.num_vsps, num_devices, 1), dtype=np.int64)),
        CostBreakdown.from_parts(float(membership_total[0]), float(reservation_total[0]), 0.0),
    )
    feasible = all(outcome.bundles is not None for outcome in outcomes)
    _raise_if_cut(solution, outcomes, config.node_limit, feasible)
    return solution


def solve_sip(instance: ProblemInstance, config: SolverConfig | None = None) -> Solution:
    """Exact two-stage optimum: reservation under uncertainty plus optimal recourse.

    Decomposes per VSP, searches each bundle lattice depth-first with lower
    bounds that price the remaining expected recourse, and evaluates leaves
    with the closed-form recourse.  VSP subproblems are independent, so the
    merged result does not depend on the order they are solved in.  Exceeding
    the per-subproblem node budget raises :class:`NodeLimitError` carrying the
    best incumbent, a lower bound and the gap, never a silent suboptimal
    answer.
    """
    config = config or SolverConfig()
    outcomes = _sip_searches(instance, config.node_limit, range(instance.num_vsps))
    solution = evaluate_total(ReservationPlan.from_bundles(_outcome_bundles(outcomes, instance.num_devices)), instance)
    _raise_if_cut(solution, outcomes, config.node_limit, feasible=True)  # zero bundles buy on demand
    return solution


def _sip_searches(instance: ProblemInstance, node_limit: int, vsps: Iterable[int]) -> list[_SearchOutcome]:
    """Check ``instance``'s validation report, then search each VSP of ``vsps``, in that order, on its pricing table.

    The one per-point path of :func:`solve_sip` and :func:`solve_sip_grid`.
    A VSP with no gap to close in any scenario buys nothing and is not
    searched.
    """
    report = instance.validation
    if not report.ok:
        raise ValidationFailure(report.violations)

    num_devices = instance.num_devices
    pricing = instance.pricing
    cheapest_unit = pricing.unit_price
    probabilities = [scen.probability for scen in instance.scenarios]
    # the search bounds are read only when some VSP has a gap to close
    setup = (
        _priced_search_setup(pricing, instance.similarity, probabilities, cheapest_unit, instance.bundle_upper_bounds)
        if (pricing.snapped > 0.0).any()
        else None
    )

    needs_by_vsp = pricing.snapped.tolist()
    outcomes = []
    for w in vsps:
        needs = needs_by_vsp[w]
        if all(need <= 0.0 for need in needs):
            outcomes.append(_SearchOutcome(0.0, (0,) * num_devices, 0, False, 0.0, 0.0))
            continue
        outcomes.append(
            _dfs_bundle_search(setup, w, needs, recourse_cost_fn(needs, probabilities, cheapest_unit), node_limit)
        )
    return outcomes


def _outcome_bundles(outcomes: Sequence[_SearchOutcome], num_devices: int) -> np.ndarray:
    """The ``(vsp, device)`` bundle matrix of per-VSP outcomes: zero where a search found no plan."""
    bundles = np.zeros((len(outcomes), num_devices), dtype=np.int64)
    for w, outcome in enumerate(outcomes):
        if outcome.bundles is not None:
            bundles[w] = outcome.bundles
    return bundles


def solve_sip_grid(instances: Sequence[ProblemInstance], config: SolverConfig | None = None) -> list[Solution]:
    """:func:`solve_sip` of every instance of a one-parameter grid, searching only where a plan can change.

    ``instances`` lie in grid order along a parameter ``t`` in which every
    bundle vector's cost is affine, and differ in nothing else: the on-demand
    price factor (``compare``) or the probabilities ``(p, 1 - p)``
    (``sweep-probability``).  Each VSP's optimum is then a minimum of affine
    functions of ``t`` (parametric programming; Gal and Greenberg, eds.,
    *Advances in Sensitivity Analysis and Parametric Programming*, 1997).
    Each VSP is searched at both ends of the grid, then by bisection.  Where
    both ends of an interval return the same bundle vector, and at both ends
    that vector's own cost is the best leaf cost, the vector is the optimum
    and the lexicographic choice at every point between: a lexicographically
    smaller rival tied inside would be tied at an end too.  Those points are
    not searched; otherwise the midpoint is.  Each distinct plan's
    shortfalls and recourse tensor are computed once among the points whose
    tables share ``coverage``, ``snapped`` and ``cheapest``, as instances
    derived from one base do, and priced on each point's table with the bits
    of :func:`evaluate_total`, so the results are those of
    ``[solve_sip(instance, config) for instance in instances]``.

    If a search is cut or a point fails, every point is solved by
    :func:`solve_sip` in grid order, so the error raised is that loop's.  A
    point that is not searched cannot be cut: a node budget that would cut
    only such a point does not raise.
    """
    config = config or SolverConfig()
    try:
        outcomes = _bisected_outcomes(instances, config.node_limit)
    except SemallocError:
        outcomes = None
    if outcomes is None:
        return [solve_sip(instance, config) for instance in instances]
    # no search was cut, so no point raises NodeLimitError
    priced = {}
    solutions = []
    for instance, found in zip(instances, outcomes):
        pricing = instance.pricing
        bundles = _outcome_bundles(found, instance.num_devices)
        key = (id(pricing.coverage), id(pricing.snapped), pricing.cheapest, bundles.tobytes())
        if key not in priced:
            short = _shortfalls(bundles[None], pricing)
            priced[key] = ReservationPlan.from_bundles(bundles), short, _on_demand(short[0], instance)
        plan, short, recourse = priced[key]
        cost = CostBreakdown(*(float(column[0]) for column in _plan_costs(bundles[None], short, instance)))
        solutions.append(Solution(plan, recourse, cost))
    return solutions


def _bisected_outcomes(instances: Sequence[ProblemInstance], node_limit: int) -> list[list[_SearchOutcome]] | None:
    """Every grid point's per-VSP outcomes by the bisection of :func:`solve_sip_grid`; None if a search was cut."""
    if not instances:
        return []
    num_vsps = instances[0].num_vsps
    outcomes: list[list] = [[None] * num_vsps for _ in instances]

    def search(k: int, vsps: list[int]) -> bool:
        found = _sip_searches(instances[k], node_limit, vsps)
        for w, outcome in zip(vsps, found):
            outcomes[k][w] = outcome
        return not any(outcome.exceeded for outcome in found)

    last = len(instances) - 1
    every = list(range(num_vsps))
    if not search(0, every) or (last and not search(last, every)):
        return None
    intervals = [(0, last, every)]
    while intervals:
        lo, hi, vsps = intervals.pop()
        if hi - lo < 2:
            continue
        undecided = []
        for w in vsps:
            left, right = outcomes[lo][w], outcomes[hi][w]
            if left.bundles == right.bundles and left.own_cost == left.cost and right.own_cost == right.cost:
                for k in range(lo + 1, hi):
                    outcomes[k][w] = left
            else:
                undecided.append(w)
        if undecided:
            mid = (lo + hi) // 2
            if not search(mid, undecided):
                return None
            intervals += [(lo, mid, undecided), (mid, hi, undecided)]
    return outcomes


def _raise_if_cut(
    solution: Solution, outcomes: Sequence[_SearchOutcome], node_limit: int, feasible: bool
) -> None:
    """Raise :class:`NodeLimitError` if some VSP search ran out of nodes.

    The lower bound sums every VSP's bound; for a feasible partial plan it is
    capped at the partial total, so summation order cannot make the gap
    negative.  An infeasible partial plan (a DIP VSP cut short before any plan
    covered it) has an infinite gap.
    """
    incomplete = [w for w, outcome in enumerate(outcomes) if outcome.exceeded]
    if not incomplete:
        return
    total = solution.cost.total
    lower_bound = sum(outcome.bound for outcome in outcomes)
    if feasible:
        lower_bound = min(lower_bound, total)
        gap = (total - lower_bound) / total if total > 0.0 else 0.0
    else:
        gap = math.inf
    raise NodeLimitError(solution, incomplete, node_limit, lower_bound, gap)


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
    trades against the shrinking expected on-demand cost.  Every count is
    priced in one :func:`evaluate_many` call, so each row has the bits
    :func:`evaluate_total` gives its plan.
    """
    if not 0 <= w < instance.num_vsps:
        raise ValueError(f"vsp index {w} out of range")
    if not 0 <= e < instance.num_devices:
        raise ValueError(f"device index {e} out of range")
    counts = list(counts)
    for count in counts:
        if count < 0:
            raise ValueError(f"bundle counts must be non-negative, got {count}")
    bundles = np.zeros((len(counts), instance.num_vsps, instance.num_devices), dtype=np.int64)
    bundles[:, w, e] = counts
    costs = evaluate_many(bundles, instance)
    stage1 = (costs.membership_total + costs.reservation_total).tolist()
    return [
        SweepPoint(count, first, second, total)
        for count, first, second, total in zip(
            counts, stage1, costs.expected_on_demand.tolist(), costs.total.tolist()
        )
    ]
