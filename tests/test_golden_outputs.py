"""Byte-for-byte pins of the random scheme, the scheme comparison and the bundle sweep.

The golden files under ``tests/data`` hold what the CLI writes for two
bundled demos.  They pin every sampled plan's total, the EVF and random
columns of ``compare`` and every first-stage sweep row to the bit, so a
change in summation order or in the random draws shows here.  They change
only with a documented change of behaviour.  The random-scheme and
``compare`` files are also rebuilt here from the documented rules alone: the
random plans from one ``SeedSequence(seed)`` PCG64 draw, the SIP and EVF
columns from the solvers.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import semalloc as sm
from semalloc.cli import main
from _support import oracle_bundle_bounds

DATA = Path(__file__).parent / "data"
DEMOS = ("singapore_demo.json", "cost_structure_demo.json")


def _cli_file(args: list[str], out: Path) -> bytes:
    result = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out.read_bytes()


def random_summary_bytes(demo: str, tmp_path: Path) -> bytes:
    """``solve --scheme random --seed 7 --samples 40`` summary JSON."""
    args = ["solve", "--problem", str(sm.data_file(demo)), "--scheme", "random", "--seed", "7", "--samples", "40"]
    return _cli_file(args, tmp_path / "random.json")


def compare_bytes(demo: str, tmp_path: Path) -> bytes:
    """``compare --grid 0.5,1,2 --samples 40`` CSV."""
    args = ["compare", "--problem", str(sm.data_file(demo)), "--grid", "0.5,1,2", "--samples", "40"]
    return _cli_file(args, tmp_path / "compare.csv")


def sweep_bundles_bytes(demo: str, tmp_path: Path) -> bytes:
    """``sweep-bundles --max 15`` CSV of every (vsp, device), each after a ``# vsp w device e`` line."""
    instance = sm.load_problem(sm.data_file(demo))
    parts = []
    for w in range(instance.num_vsps):
        for e in range(instance.num_devices):
            args = ["sweep-bundles", "--problem", str(sm.data_file(demo)), "--vsp", str(w), "--device", str(e)]
            csv = _cli_file([*args, "--max", "15"], tmp_path / f"sweep-{w}-{e}.csv")
            parts.append(f"# vsp {w} device {e}\n".encode() + csv)
    return b"".join(parts)


OUTPUTS = {
    "random_seed7_samples40": (random_summary_bytes, "json"),
    "compare_grid_0.5_1_2_samples40": (compare_bytes, "csv"),
    "sweep_bundles_max15": (sweep_bundles_bytes, "csv"),
}


def golden_path(output: str, demo: str) -> Path:
    suffix = OUTPUTS[output][1]
    return DATA / f"golden_{output}_{Path(demo).stem}.{suffix}"


@pytest.mark.parametrize("demo", DEMOS)
@pytest.mark.parametrize("output", sorted(OUTPUTS))
def test_output_matches_golden_bytes(output, demo, tmp_path):
    produce = OUTPUTS[output][0]
    assert produce(demo, tmp_path) == golden_path(output, demo).read_bytes()


def documented_random_draw(instance: sm.ProblemInstance, seed: int, samples: int) -> np.ndarray:
    """The random scheme's plans by its documented rule, with independently derived bounds."""
    bounds = oracle_bundle_bounds(instance)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    return rng.integers(0, bounds + 1, size=(samples, *bounds.shape), dtype=np.int64)


@pytest.mark.parametrize("demo", DEMOS)
def test_random_golden_follows_the_documented_draw(demo):
    instance = sm.load_problem(sm.data_file(demo))
    plans = documented_random_draw(instance, seed=7, samples=40)
    totals = sm.evaluate_many(plans, instance).total.tolist()
    best = min(range(len(totals)), key=lambda i: (totals[i], i))
    golden = json.loads(golden_path("random_seed7_samples40", demo).read_text())
    assert golden["totals"] == totals
    assert golden["best_index"] == best
    assert golden["best_plan"] == {
        "membership": (plans[best] > 0).astype(int).tolist(),
        "bundles": plans[best].tolist(),
    }


@pytest.mark.parametrize("demo", DEMOS)
def test_compare_golden_columns_follow_the_solvers_and_the_documented_draw(demo):
    instance = sm.load_problem(sm.data_file(demo))
    rows = list(csv.reader(golden_path("compare_grid_0.5_1_2_samples40", demo).read_text().splitlines()))
    assert rows[0] == ["factor", "sip_total", "evf_total", "random_mean_total", "random_min_total"]
    assert [row[0] for row in rows[1:]] == ["0.5", "1.0", "2.0"]
    for row in rows[1:]:
        scaled = sm.scale_on_demand_cost(instance, float(row[0]))
        totals = sm.evaluate_many(documented_random_draw(scaled, seed=42, samples=40), scaled).total.tolist()
        assert row[1:] == [
            repr(sm.solve_sip(scaled).cost.total),
            repr(sm.solve_evf(scaled).cost.total),
            repr(sum(totals) / len(totals)),
            repr(min(totals)),
        ]
