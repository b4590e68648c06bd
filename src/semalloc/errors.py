"""Exception types shared across the package."""

from __future__ import annotations


class SemallocError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SemallocError):
    """A problem definition references something that does not exist or is malformed."""


class SchemaError(ConfigurationError):
    """A problem document violates the JSON schema; message carries a JSON pointer."""


class ValidationFailure(SemallocError):
    """A constructed instance violates model invariants."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


class InfeasibleError(SemallocError):
    """A deterministic program has no feasible plan for some VSP."""

    def __init__(self, vsp: int, message: str):
        self.vsp = vsp
        super().__init__(message)


class NodeLimitError(SemallocError):
    """The branch-and-bound node budget was exhausted before proving optimality.

    Carries the best incumbent assembled so far (``partial``) and the indices of
    the VSP subproblems whose search was cut short.  The partial solution must
    not be treated as optimal.  From ``solve_sip`` it is always a feasible plan;
    from ``solve_dip``, a VSP cut short before any covering plan was found keeps
    zero bundles, so its requirement is left uncovered.  ``lower_bound`` bounds
    the optimal total from below: the finished VSPs' optima plus, for each
    cut-short VSP, the least search bound over its unexplored subtrees (or its
    incumbent, if lower).  The depth-first search leaves shallow subtrees
    unopened until late, so this bound rises only as they close and may stall
    over a wide range of budgets: a larger budget narrows the gap mostly
    through a better incumbent.  ``gap`` is ``(partial total - lower_bound) /
    partial total``, 0 when both are 0, and infinite when the partial plan
    leaves a requirement uncovered.
    """

    def __init__(self, partial, incomplete_vsps, node_limit: int, lower_bound: float, gap: float):
        self.partial = partial
        self.incomplete_vsps = tuple(incomplete_vsps)
        self.node_limit = node_limit
        self.lower_bound = lower_bound
        self.gap = gap
        super().__init__(
            f"node limit {node_limit} exceeded for VSP subproblem(s) "
            f"{list(self.incomplete_vsps)}; best incumbent attached "
            f"(total {partial.cost.total:.10g}, lower bound {lower_bound:.10g}, gap {gap:.2%})"
        )
