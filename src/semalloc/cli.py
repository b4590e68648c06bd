"""Command-line front end: solve commands, experiment sweeps, and CSV emission.

CSV columns are named after the quantities they hold (probability, stage
costs, totals) so any plotting tool reproduces the standard cost-structure,
probability-sweep, and scheme-comparison figures directly.  All outputs are
byte-deterministic for fixed inputs and seeds; every command, the grid
sweeps included, runs in one thread.  Each CSV is built as one string and
goes out in one write, floats written with their shortest round-trip
``repr``: the similarity tensor's lines are joined directly, and other
tables go through one ``csv.writer`` call for all their rows.  Files are
written by :func:`~semalloc.ingestion.write_text`, so an output file that
cannot be written is a :class:`ConfigurationError`, as for ``solve``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .baselines import (
    RandomSchemeConfig,
    evf_plan,
    random_plans,
    random_summary_dict,
    solve_evf,
    solve_random,
)
from .core_model import (
    ProblemInstance,
    energy_ratio,
    scale_on_demand_cost,
    transmission_energy,
    with_probabilities,
)
from .errors import ConfigurationError, SemallocError
from .ingestion import dump_json, load_problem, write_solution, write_text
from .recourse import Solution, _plan_costs, _shortfalls, evaluate_total
from .solvers import SolverConfig, dip_from_instance, solve_dip, solve_sip, solve_sip_grid, sweep_first_stage


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse a grid spec: either ``a:b:step`` (inclusive) or comma-separated values."""
    try:
        if "," in text:
            values = [float(tok) for tok in text.split(",")]
        elif ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ValueError
            start, stop, step = (float(tok) for tok in parts)
            if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
                raise ValueError
            count = int((stop - start) / step + 1e-9)
            # rounding keeps grid points like 0.3 exact instead of 0.30000000000000004
            values = [round(start + i * step, 10) for i in range(count + 1)]
        else:
            values = [float(text)]
    except ValueError:
        raise ConfigurationError(
            f"grid must be 'a:b:step' or comma-separated numbers, got {text!r}"
        ) from None
    if not values or any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigurationError(f"grid must be non-empty and strictly ascending, got {text!r}")
    return tuple(values)


def _write_text(out: Path | None, text: str) -> None:
    """``text`` to ``out`` in one write (:func:`write_text`), or to stdout when None."""
    if out is None:
        sys.stdout.write(text)
    else:
        write_text(text, out)


def _write_csv(out: Path | None, header: list[str], rows: list[list]) -> None:
    """Header and rows to ``out``, or to stdout when None.

    ``csv.writer`` writes floats with ``repr`` and other values with ``str``;
    rows hold no None, which it would write as an empty field.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(out, buffer.getvalue())


def _write_similarity(out: Path | None, tensor: np.ndarray) -> None:
    """One ``w,e,i,similarity`` line per tensor entry, in (w, e, i) order, after the header.

    The tensor is validated finite and in [0, 1], so each ``repr`` is the
    field ``csv.writer`` would write and none needs quoting.
    """
    num_vsps, num_devices, num_scenarios = tensor.shape
    prefixes = [
        f"{w},{e},{i},"
        for w in range(num_vsps)
        for e in range(num_devices)
        for i in range(num_scenarios)
    ]
    lines = map(str.__add__, prefixes, map(repr, tensor.ravel().tolist()))
    _write_text(out, "\n".join(["vsp,device,scenario,similarity", *lines]) + "\n")


# ---------------------------------------------------------------------------
# pure row builders (the commands below only add I/O)


def plan_type(solution: Solution, instance: ProblemInstance, w: int) -> str:
    """Classify one VSP's behavior: reserved, on-demand, or none."""
    if solution.plan.bundles[w].any():
        return "reserved"
    for i, scen in enumerate(instance.scenarios):
        if scen.probability > 0.0 and solution.recourse.on_demand[w, :, i].any():
            return "on-demand"
    return "none"


def sweep_probability_rows(
    instance: ProblemInstance, grid: tuple[float, ...], config: SolverConfig | None = None
) -> list[list]:
    """SIP with scenario probabilities (p, 1-p) at each grid point p, by :func:`solve_sip_grid`."""
    if instance.num_scenarios != 2:
        raise ConfigurationError(
            f"probability sweep requires exactly 2 scenarios, got {instance.num_scenarios}"
        )
    if any(not 0.0 <= p <= 1.0 for p in grid):
        raise ConfigurationError("probability grid points must lie in [0, 1]")
    shifted = [with_probabilities(instance, [p, 1.0 - p]) for p in grid]
    rows = []
    for p, point, solution in zip(grid, shifted, solve_sip_grid(shifted, config)):
        stage1 = solution.cost.membership_total + solution.cost.reservation_total
        row = [p, stage1, solution.cost.expected_on_demand, solution.cost.total]
        row.extend(plan_type(solution, point, w) for w in range(instance.num_vsps))
        rows.append(row)
    return rows


def sweep_bundle_rows(
    instance: ProblemInstance, vsp: int, device: int, max_bundles: int
) -> tuple[list[list], int]:
    """First-stage sweep rows plus the index of the cheapest row."""
    if max_bundles < 0:
        raise ConfigurationError(f"--max must be non-negative, got {max_bundles}")
    points = sweep_first_stage(instance, vsp, device, range(max_bundles + 1))
    argmin = min(range(len(points)), key=lambda i: (points[i].total_cost, i))
    rows = [
        [p.bundles, p.stage1_cost, p.stage2_cost, p.total_cost, int(i == argmin)]
        for i, p in enumerate(points)
    ]
    return rows, argmin


def compare_rows(
    instance: ProblemInstance,
    factors: tuple[float, ...],
    seed: int,
    samples: int,
    config: SolverConfig | None = None,
) -> list[list]:
    """Totals for SIP, EVF, and the random scheme at each on-demand cost factor.

    No price factor changes the EVF plan or the random draw, nor the draw's
    shortfalls, so each is computed once and priced at every factor; SIP is
    solved over the grid by :func:`solve_sip_grid`.
    """
    if not all(math.isfinite(f) and f > 0 for f in factors):
        raise ConfigurationError("on-demand cost factors must be positive and finite")
    # every factor is checked, by the device constructor's pricing rule, before any solve
    points, inverted = [], []
    for factor in factors:
        try:
            points.append((factor, scale_on_demand_cost(instance, factor)))
        except ValueError:
            inverted.append(factor)
    if inverted:
        bound = max(dev.alpha_reservation / dev.alpha_on_demand for dev in instance.devices)
        raise ConfigurationError(
            "on-demand cost factors must exceed max_e alpha_reservation/alpha_on_demand = "
            f"{bound!r}; got {', '.join(repr(f) for f in inverted)}"
        )
    random_config = RandomSchemeConfig(seed=seed, samples=samples)
    if not points:
        return []
    first = points[0][1]
    try:
        evf = evf_plan(first, config)
        plans = random_plans(first, random_config)
    except Exception:
        # SIP at the first factor comes before EVF and the random scheme: its error, if any, is the one raised
        solve_sip(first, config)
        raise
    short = _shortfalls(plans, first.pricing)
    rows = []
    for (factor, scaled), sip in zip(points, solve_sip_grid([scaled for _, scaled in points], config)):
        totals = _plan_costs(plans, short, scaled).total.tolist()
        evf_total = evaluate_total(evf, scaled).cost.total
        rows.append([factor, sip.cost.total, evf_total, sum(totals) / len(totals), min(totals)])
    return rows


def energy_report_rows(instance: ProblemInstance) -> tuple[list[list], float]:
    """Per-device semantic/raw transmission energies and ratios, plus the overall ratio."""
    rows = []
    semantic_sum = 0.0
    raw_sum = 0.0
    for dev in instance.devices:
        if dev.avg_payload_raw is None:
            raise ConfigurationError(
                f"device {dev.id} has no avg_payload_raw; energy report needs both payload sizes"
            )
        semantic = transmission_energy(dev.avg_payload_semantic, dev)
        raw = transmission_energy(dev.avg_payload_raw, dev)
        semantic_sum += semantic
        raw_sum += raw
        rows.append([dev.id, semantic, raw, energy_ratio(dev)])
    overall = raw_sum / semantic_sum if semantic_sum > 0 else float("nan")
    return rows, overall


# ---------------------------------------------------------------------------
# click commands


@contextmanager
def _reported_errors(ctx: click.Context):
    """Run a command body, reporting its failures."""
    try:
        yield
    except (SemallocError, ValueError) as exc:
        root = ctx.find_root()
        if root.obj and root.obj.get("json_errors"):
            payload = {"error": str(exc), "type": type(exc).__name__}
            click.echo(json.dumps(payload, sort_keys=True), err=True)
            ctx.exit(1)
        raise click.ClickException(str(exc)) from exc


_problem_option = click.option(
    "--problem",
    required=True,
    type=click.Path(exists=True, dir_okay=False, path_type=Path),
    help="Problem definition JSON.",
)
_out_option = click.option(
    "--out",
    type=click.Path(dir_okay=False, path_type=Path),
    default=None,
    help="Output file; stdout when omitted.",
)


@click.group()
@click.option("--json-errors", is_flag=True, help="Report failures as JSON on stderr.")
@click.pass_context
def main(ctx: click.Context, json_errors: bool):
    """Subscription provisioning of semantic-data transmissions under uncertain demand."""
    ctx.ensure_object(dict)
    ctx.obj["json_errors"] = json_errors


@main.command()
@_problem_option
@click.option(
    "--scheme",
    type=click.Choice(["sip", "dip", "evf", "random"]),
    default="sip",
    show_default=True,
    help="Solution scheme.",
)
@click.option("--seed", type=int, default=42, show_default=True, help="Random-scheme seed.")
@click.option("--samples", type=int, default=100, show_default=True, help="Random-scheme draws.")
@click.option("--node-limit", type=int, default=None, help="Branch-and-bound node budget per VSP.")
@_out_option
@click.pass_context
def solve(ctx, problem: Path, scheme: str, seed: int, samples: int, node_limit: int | None, out: Path | None):
    """Solve a problem and print the cost breakdown."""
    with _reported_errors(ctx):
        instance = load_problem(problem)
        config = SolverConfig(node_limit=node_limit) if node_limit is not None else SolverConfig()
        if scheme == "random":
            result = solve_random(instance, RandomSchemeConfig(seed=seed, samples=samples))
            payload = random_summary_dict(result)
            click.echo(f"scheme             : random ({samples} samples, seed {seed})")
            click.echo(f"mean_total         : {result.mean_total:.10g}")
            click.echo(f"min_total          : {result.min_total:.10g}")
            click.echo(f"max_total          : {result.max_total:.10g}")
            if out is not None:
                dump_json(payload, out)
            return
        if scheme == "sip":
            solution = solve_sip(instance, config)
        elif scheme == "evf":
            solution = solve_evf(instance, config)
        else:
            if instance.num_scenarios != 1:
                raise ConfigurationError(
                    "dip scheme needs exactly one scenario (demand must be certain)"
                )
            solution = solve_dip(dip_from_instance(instance), config)
        click.echo(f"scheme             : {scheme}")
        click.echo(f"membership_total   : {solution.cost.membership_total:.10g}")
        click.echo(f"reservation_total  : {solution.cost.reservation_total:.10g}")
        click.echo(f"expected_on_demand : {solution.cost.expected_on_demand:.10g}")
        click.echo(f"total              : {solution.cost.total:.10g}")
        click.echo(f"bundles            : {solution.plan.bundles.tolist()}")
        if out is not None:
            write_solution(solution, out)


@main.command("sweep-probability")
@_problem_option
@click.option("--grid", default="0:1:0.1", show_default=True, help="Probability grid for scenario 1.")
@_out_option
@click.pass_context
def sweep_probability(ctx, problem: Path, grid: str, out: Path | None):
    """Vary the two-scenario probability split and re-solve at each point."""
    with _reported_errors(ctx):
        instance = load_problem(problem)
        points = parse_grid(grid)
        rows = sweep_probability_rows(instance, points)
        header = ["probability_scenario1", "reservation_cost", "expected_on_demand", "total_cost"]
        header.extend(f"plan_vsp{w}" for w in range(instance.num_vsps))
        _write_csv(out, header, rows)


@main.command("sweep-bundles")
@_problem_option
@click.option("--vsp", type=int, default=0, show_default=True)
@click.option("--device", type=int, default=0, show_default=True)
@click.option("--max", "max_bundles", type=int, required=True, help="Largest bundle count swept.")
@_out_option
@click.pass_context
def sweep_bundles(ctx, problem: Path, vsp: int, device: int, max_bundles: int, out: Path | None):
    """Sweep one (vsp, device) bundle count; marks the cheapest row."""
    with _reported_errors(ctx):
        instance = load_problem(problem)
        rows, _ = sweep_bundle_rows(instance, vsp, device, max_bundles)
        header = ["bundles", "stage1_cost", "stage2_cost", "total_cost", "is_argmin"]
        _write_csv(out, header, rows)


@main.command()
@_problem_option
@click.option("--grid", default="0.5:3:0.5", show_default=True, help="On-demand cost factors.")
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--samples", type=int, default=100, show_default=True)
@_out_option
@click.pass_context
def compare(ctx, problem: Path, grid: str, seed: int, samples: int, out: Path | None):
    """Compare SIP against EVF and the random scheme over on-demand cost factors."""
    with _reported_errors(ctx):
        instance = load_problem(problem)
        factors = parse_grid(grid)
        rows = compare_rows(instance, factors, seed, samples)
        header = ["factor", "sip_total", "evf_total", "random_mean_total", "random_min_total"]
        _write_csv(out, header, rows)


@main.command("energy-report")
@_problem_option
@_out_option
@click.pass_context
def energy_report(ctx, problem: Path, out: Path | None):
    """Per-device semantic vs raw transmission energy and their ratio."""
    with _reported_errors(ctx):
        instance = load_problem(problem)
        rows, overall = energy_report_rows(instance)
        header = ["device", "semantic_energy_j", "raw_energy_j", "energy_ratio"]
        table = [*rows, ["overall", "", "", overall]]
        _write_csv(out, header, table)


@main.command("similarity")
@_problem_option
@_out_option
@click.pass_context
def similarity_cmd(ctx, problem: Path, out: Path | None):
    """Print the (vsp, device, scenario) similarity tensor."""
    with _reported_errors(ctx):
        _write_similarity(out, load_problem(problem).similarity)


if __name__ == "__main__":
    main()
