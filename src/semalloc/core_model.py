"""Domain entities, pricing formulas, and instance validation.

Units are fixed package-wide: data sizes in bytes, rates in bytes/second,
power in watts, energy in joules, costs in abstract currency units.  When
converting from link-layer conventions, 1 Kb = 1000 bits = 125 bytes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError

PROBABILITY_SUM_TOL = 1e-9
SHORTFALL_TOL = 1e-9  # relative window within which a coverage gap counts as closed


def _check_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class EdgeDevice:
    """One sensing device: channel, payload, and subscription pricing parameters.

    ``bundle_size`` is the number of transmissions covered by one reserved
    bundle.  ``alpha_reservation``/``alpha_on_demand`` convert transmission
    energy into currency for the reserved and on-demand plans; on-demand must
    be strictly more expensive per joule.
    """

    id: int
    uplink_rate: float
    transmit_power: float
    avg_payload_semantic: float
    membership_cost: float
    bundle_size: int
    alpha_reservation: float
    alpha_on_demand: float
    avg_payload_raw: float | None = None  # only used by energy reports

    def __post_init__(self):
        if int(self.id) != self.id or self.id < 0:
            raise ValueError(f"device id must be a non-negative integer, got {self.id}")
        if _check_finite("uplink_rate", self.uplink_rate) <= 0:
            raise ValueError(f"uplink_rate must be positive, got {self.uplink_rate}")
        if _check_finite("transmit_power", self.transmit_power) <= 0:
            raise ValueError(f"transmit_power must be positive, got {self.transmit_power}")
        if _check_finite("avg_payload_semantic", self.avg_payload_semantic) < 0:
            raise ValueError("avg_payload_semantic must be non-negative")
        if self.avg_payload_raw is not None and _check_finite("avg_payload_raw", self.avg_payload_raw) < 0:
            raise ValueError("avg_payload_raw must be non-negative")
        if _check_finite("membership_cost", self.membership_cost) < 0:
            raise ValueError("membership_cost must be non-negative")
        if int(self.bundle_size) != self.bundle_size or self.bundle_size < 1:
            raise ValueError(f"bundle_size must be an integer >= 1, got {self.bundle_size}")
        if _check_finite("alpha_reservation", self.alpha_reservation) <= 0:
            raise ValueError("alpha_reservation must be positive")
        if _check_finite("alpha_on_demand", self.alpha_on_demand) <= 0:
            raise ValueError("alpha_on_demand must be positive")
        if self.alpha_on_demand <= self.alpha_reservation:
            raise ValueError(
                "alpha_on_demand must exceed alpha_reservation "
                f"({self.alpha_on_demand} <= {self.alpha_reservation})"
            )


@dataclass(frozen=True)
class Vsp:
    """A virtual service provider consuming semantic data."""

    id: int
    interest_label: str = ""

    def __post_init__(self):
        if int(self.id) != self.id or self.id < 0:
            raise ValueError(f"vsp id must be a non-negative integer, got {self.id}")


@dataclass(frozen=True)
class VspDemand:
    """One VSP's demand triple inside a scenario: interest, quantity, threshold."""

    interest_key: str
    quantity: int
    threshold: float

    def __post_init__(self):
        if int(self.quantity) != self.quantity or self.quantity < 0:
            raise ValueError(f"quantity must be a non-negative integer, got {self.quantity}")
        t = _check_finite("threshold", self.threshold)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"threshold must lie in [0, 1], got {t}")

    @property
    def requirement(self) -> float:
        """Relevant transmissions needed: quantity scaled by the acceptable fraction."""
        return self.quantity * self.threshold


@dataclass(frozen=True)
class DemandScenario:
    """One joint demand realization for all VSPs, with its probability."""

    probability: float
    per_vsp: tuple[VspDemand, ...]

    def __post_init__(self):
        p = _check_finite("probability", self.probability)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {p}")
        object.__setattr__(self, "per_vsp", tuple(self.per_vsp))


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable bundle of devices, VSPs, the scenario set, and the similarity tensor.

    ``similarity`` is indexed ``(vsp, device, scenario)``.  Construction does
    not validate cross-field consistency; :attr:`validation` runs
    :func:`validate_instance` (the loader and the SIP solvers read it) so
    every violation is reported at once.
    """

    devices: tuple[EdgeDevice, ...]
    vsps: tuple[Vsp, ...]
    scenarios: tuple[DemandScenario, ...]
    similarity: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "devices", tuple(self.devices))
        object.__setattr__(self, "vsps", tuple(self.vsps))
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        tensor = np.array(self.similarity, dtype=np.float64, copy=True)
        tensor.setflags(write=False)
        object.__setattr__(self, "similarity", tensor)

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def num_vsps(self) -> int:
        return len(self.vsps)

    @property
    def num_scenarios(self) -> int:
        return len(self.scenarios)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([s.probability for s in self.scenarios])

    def requirement(self, vsp: int, scenario: int) -> float:
        return self.scenarios[scenario].per_vsp[vsp].requirement

    @cached_property
    def requirements(self) -> np.ndarray:
        """Read-only requirement matrix, indexed ``(vsp, scenario)``.

        Built on first use, so an instance whose scenarios list the wrong
        number of VSP demands still reaches :func:`validate_instance`.
        """
        matrix = np.array(
            [[scen.per_vsp[w].requirement for scen in self.scenarios] for w in range(self.num_vsps)],
            dtype=np.float64,
        ).reshape(self.num_vsps, self.num_scenarios)
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def pricing(self) -> Pricing:
        """Read-only pricing table that every evaluation and search of this instance reads.

        :func:`pricing_table` of the devices, the similarity tensor and the
        requirements, built on first use; an instance derived by
        :func:`with_probabilities` or :func:`scale_on_demand_cost` builds its own.
        """
        return pricing_table(self.devices, self.similarity, self.requirements)

    @cached_property
    def validation(self) -> ValidationReport:
        """:func:`validate_instance` of this instance, run on first use.

        The loader and every SIP solve read this one report.  An instance
        derived by :func:`with_probabilities` or :func:`scale_on_demand_cost`
        is a new object, validated afresh.
        """
        return validate_instance(self)

    @cached_property
    def bundle_upper_bounds(self) -> np.ndarray:
        """Read-only int64 ``(vsp, device)`` search bounds: the most bundles any optimal plan buys.

        Enough bundles to cover the VSP's worst-case requirement from the
        device alone at its least productive positive similarity
        (:func:`bundle_caps`); anything beyond that can be dropped without
        losing feasibility or raising cost.  Zero where the device never
        matches the interest or demand is zero in every scenario.
        """
        matrix = bundle_caps(self.requirements, self.pricing.sizes, self.similarity)
        matrix.setflags(write=False)
        return matrix


class Pricing(NamedTuple):
    """A device set's pricing table, from :func:`pricing_table`; its arrays are read-only."""

    sizes: np.ndarray  # (device,): bundle sizes
    memberships: np.ndarray  # (device,): membership fees
    bundle_prices: np.ndarray  # (device,): reserved bundle prices
    cheapest: int  # on-demand device: lowest unit price, ties to the lowest index
    unit_price: float  # its on-demand unit price
    coverage: np.ndarray  # (vsp, device, scenario): size_e * similarity, one bundle's coverage
    snapped: np.ndarray  # (vsp, scenario): the requirements lowered by :func:`snap`


@dataclass(frozen=True)
class CostBreakdown:
    """Objective decomposition; ``total`` is always the sum of the three parts."""

    membership_total: float
    reservation_total: float
    expected_on_demand: float
    total: float

    @classmethod
    def from_parts(cls, membership: float, reservation: float, on_demand: float) -> "CostBreakdown":
        return cls(membership, reservation, on_demand, membership + reservation + on_demand)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# pricing and transmission model


def transmission_time(payload_bytes: float, device: EdgeDevice) -> float:
    """Uplink transfer time in seconds: payload divided by the device's rate."""
    payload = float(payload_bytes)
    if not math.isfinite(payload) or payload < 0:
        raise ValueError(f"payload must be finite and non-negative, got {payload_bytes}")
    return payload / device.uplink_rate


def transmission_energy(payload_bytes: float, device: EdgeDevice) -> float:
    """Uplink energy in joules: transmit power times transfer time."""
    return device.transmit_power * transmission_time(payload_bytes, device)


def reservation_bundle_cost(device: EdgeDevice) -> float:
    """Price of one reserved bundle: energy for bundle_size average payloads at the reserved rate."""
    return (
        device.bundle_size
        * device.transmit_power
        * device.avg_payload_semantic
        / device.uplink_rate
        * device.alpha_reservation
    )


def on_demand_unit_cost(device: EdgeDevice) -> float:
    """Price of one on-demand transmission: energy for one average payload at the on-demand rate."""
    return (
        device.transmit_power
        * device.avg_payload_semantic
        / device.uplink_rate
        * device.alpha_on_demand
    )


def snap(requirement):
    """Requirement (scalar or array) lowered by ``SHORTFALL_TOL * max(1, requirement)``.

    Coverage is a float sum, so an exact cover, or a whole-unit gap, can be off
    by a rounding error; measured against the snapped requirement, such a gap
    rounds to its integer instead of buying a phantom on-demand unit.
    """
    return requirement - SHORTFALL_TOL * np.maximum(1.0, requirement)


def pricing_table(devices: Sequence[EdgeDevice], similarity: np.ndarray, requirements: np.ndarray) -> Pricing:
    """The read-only :class:`Pricing` of ``devices`` against a ``(vsp, device, scenario)`` similarity.

    ``requirements`` are ``(vsp, scenario)``.  The one builder of the table
    that SIP, DIP and plan evaluation read.  An empty device set has no
    on-demand device: ``cheapest`` is -1 and ``unit_price`` infinite.
    """
    sizes = np.array([dev.bundle_size for dev in devices], dtype=np.float64)
    memberships = np.array([dev.membership_cost for dev in devices], dtype=np.float64)
    bundle_prices = np.array([reservation_bundle_cost(dev) for dev in devices], dtype=np.float64)
    unit_price, cheapest = min(((on_demand_unit_cost(dev), e) for e, dev in enumerate(devices)), default=(math.inf, -1))
    coverage = sizes[:, None] * similarity
    snapped = snap(requirements)
    for array in (sizes, memberships, bundle_prices, coverage, snapped):
        array.setflags(write=False)
    return Pricing(sizes, memberships, bundle_prices, cheapest, unit_price, coverage, snapped)


def bundle_caps(requirements: np.ndarray, bundle_sizes: np.ndarray, similarity: np.ndarray) -> np.ndarray:
    """Bundles each device alone needs to cover each VSP's worst case, as an int64 ``(vsp, device)`` matrix.

    ``requirements`` are ``(vsp, scenario)`` and ``similarity`` is ``(vsp,
    device, scenario)``.  Entry ``(w, e)`` is ``ceil(r / (bundle_sizes[e] *
    s))`` with ``r`` VSP ``w``'s largest requirement and ``s`` the least
    positive similarity of ``(w, e)``: 0 where ``r`` is 0 or no similarity is
    positive (the device never matches).  A least positive similarity so
    small (subnormal) that the count reaches ``2**63`` bounds nothing and is a
    :class:`ConfigurationError` naming the first such entry in row-major order.
    """
    least_positive = np.where(similarity > 0.0, similarity, np.inf).min(axis=2, initial=np.inf)
    with np.errstate(over="ignore"):
        counts = np.ceil(requirements.max(axis=1)[:, None] / (bundle_sizes * least_positive))
    unbounded = np.argwhere(~(counts < 2.0**63))
    if unbounded.size:
        w, e = unbounded[0].tolist()
        raise ConfigurationError(
            f"VSP {w}, device {e}: similarity {float(least_positive[w, e])!r} is too small to bound its bundle count"
        )
    return counts.astype(np.int64)


def energy_ratio(device: EdgeDevice) -> float:
    """Raw-to-semantic transmission energy ratio.

    Power and rate cancel in the energy model, so the ratio reduces exactly to
    the payload-size ratio; computing it that way avoids spurious rounding.
    """
    if device.avg_payload_raw is None:
        raise ValueError(f"device {device.id} carries no raw payload size")
    if device.avg_payload_semantic <= 0:
        raise ValueError(f"device {device.id} has zero semantic payload; ratio undefined")
    return device.avg_payload_raw / device.avg_payload_semantic


# ---------------------------------------------------------------------------
# instance validation and functional updates


def demand_count_violations(scenarios, num_vsps: int) -> list[str]:
    """One message per scenario whose demand list does not have one entry per VSP."""
    return [
        f"scenario {i} lists {len(scen.per_vsp)} vsp demands, expected {num_vsps}"
        for i, scen in enumerate(scenarios)
        if len(scen.per_vsp) != num_vsps
    ]


def validate_instance(instance: ProblemInstance) -> ValidationReport:
    """Collect every invariant violation instead of stopping at the first."""
    violations: list[str] = []

    if not instance.devices:
        violations.append("device set must be non-empty")
    if not instance.vsps:
        violations.append("vsp set must be non-empty")
    if not instance.scenarios:
        violations.append("scenario set must be non-empty")

    for e, dev in enumerate(instance.devices):
        if dev.id != e:
            violations.append(f"device ids must be 0..{len(instance.devices) - 1} in order; position {e} has id {dev.id}")
    for w, vsp in enumerate(instance.vsps):
        if vsp.id != w:
            violations.append(f"vsp ids must be 0..{len(instance.vsps) - 1} in order; position {w} has id {vsp.id}")

    violations.extend(demand_count_violations(instance.scenarios, instance.num_vsps))

    if instance.scenarios:
        total = math.fsum(s.probability for s in instance.scenarios)
        if abs(total - 1.0) > PROBABILITY_SUM_TOL:
            violations.append(f"probabilities sum to {total}")

    expected_shape = (instance.num_vsps, instance.num_devices, instance.num_scenarios)
    if instance.similarity.shape != expected_shape:
        violations.append(
            f"similarity tensor has shape {instance.similarity.shape}, expected {expected_shape}"
        )
    else:
        if not np.all(np.isfinite(instance.similarity)):
            violations.append("similarity tensor contains non-finite entries")
        else:
            bad = (instance.similarity < 0.0) | (instance.similarity > 1.0)
            if bad.any():
                w, e, s = (int(k[0]) for k in np.nonzero(bad))
                violations.append(
                    f"similarity out of [0, 1]: entry ({w}, {e}, {s}) = {instance.similarity[w, e, s]}"
                )

    return ValidationReport(tuple(violations))


def with_probabilities(instance: ProblemInstance, probabilities) -> ProblemInstance:
    """New instance with the scenario probabilities replaced."""
    probs = [float(p) for p in probabilities]
    if len(probs) != instance.num_scenarios:
        raise ValueError(
            f"expected {instance.num_scenarios} probabilities, got {len(probs)}"
        )
    scenarios = tuple(
        dataclasses.replace(scen, probability=p) for scen, p in zip(instance.scenarios, probs)
    )
    return ProblemInstance(instance.devices, instance.vsps, scenarios, instance.similarity)


def scale_on_demand_cost(instance: ProblemInstance, factor: float) -> ProblemInstance:
    """New instance with every device's on-demand coefficient scaled by ``factor``.

    The scaled coefficient must stay above the reservation coefficient; the
    device constructor enforces that and rejects factors that invert pricing.
    """
    if not math.isfinite(factor) or factor <= 0:
        raise ValueError(f"factor must be positive and finite, got {factor}")
    devices = tuple(
        dataclasses.replace(dev, alpha_on_demand=dev.alpha_on_demand * factor)
        for dev in instance.devices
    )
    return ProblemInstance(devices, instance.vsps, instance.scenarios, instance.similarity)
