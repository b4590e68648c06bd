"""Solver library for subscription provisioning of semantic-data transmissions.

Virtual service providers subscribe to edge devices under uncertain demand:
reservation bundles are bought before demand is known, on-demand transmissions
repair any shortfall afterwards.  The package provides the exact two-stage
stochastic solver, its deterministic counterpart, expected-value and random
baselines, cosine-similarity interest matching, and a CLI experiment harness.
"""

from importlib.resources import files
from pathlib import Path

from .baselines import RandomSchemeConfig, RandomSchemeResult, solve_evf, solve_random
from .core_model import (
    CostBreakdown,
    DemandScenario,
    EdgeDevice,
    ProblemInstance,
    ValidationReport,
    Vsp,
    VspDemand,
    energy_ratio,
    on_demand_unit_cost,
    reservation_bundle_cost,
    scale_on_demand_cost,
    transmission_energy,
    transmission_time,
    validate_instance,
    with_probabilities,
)
from .errors import (
    ConfigurationError,
    InfeasibleError,
    NodeLimitError,
    SchemaError,
    SemallocError,
    ValidationFailure,
)
from .ingestion import load_problem, read_solution, write_solution
from .recourse import (
    PlanCosts,
    RecourseDecision,
    ReservationPlan,
    Solution,
    evaluate_many,
    evaluate_total,
    optimal_recourse,
    shortfalls,
)
from .similarity import (
    CategoryCorpus,
    EmbeddingProvider,
    FileEmbeddings,
    HashEmbedder,
    average_similarity,
    build_similarity_tensor,
    cosine_match,
)
from .solvers import (
    DipInstance,
    SolverConfig,
    bundle_upper_bound,
    dip_from_instance,
    solve_dip,
    solve_sip,
    sweep_first_stage,
)

__version__ = "0.1.0"


def data_file(name: str) -> Path:
    """Path to a bundled demo problem or fixture file."""
    return Path(str(files("semalloc").joinpath("data", name)))
