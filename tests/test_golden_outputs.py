"""Byte-for-byte pins of the random scheme, the scheme comparison and the bundle sweep.

The golden files under ``tests/data`` hold what the CLI writes for two
bundled demos.  They pin every sampled plan's total, the EVF and random
columns of ``compare`` and every first-stage sweep row to the bit, so a
change in summation order or in the random draws shows here.  They change
only with a documented change of behaviour.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

import semalloc as sm
from semalloc.cli import main

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
