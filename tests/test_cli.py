import csv
import json

import pytest
from click.testing import CliRunner

import semalloc as sm
from semalloc.cli import (
    compare_rows,
    energy_report_rows,
    main,
    parse_grid,
    sweep_bundle_rows,
    sweep_probability_rows,
)
from semalloc.errors import ConfigurationError

from test_ingestion import minimal_doc


@pytest.fixture
def runner():
    return CliRunner()


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestParseGrid:
    def test_range_form(self):
        assert parse_grid("0:1:0.1") == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

    def test_range_is_inclusive_and_clean(self):
        assert parse_grid("0.5:3:0.5") == (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)

    def test_comma_form(self):
        assert parse_grid("0.5,1,1.5,2,3") == (0.5, 1.0, 1.5, 2.0, 3.0)

    def test_single_value(self):
        assert parse_grid("0.25") == (0.25,)

    @pytest.mark.parametrize(
        "bad", ["", "1:0:0.1", "0:1:0", "a:b:c", "3,2,1", "1,1", "0:inf:1", "0:1:inf", "-inf:0:1", "1:2"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_grid(bad)


class TestSolveCommand:
    def test_dip_reports_two_bundles(self, runner):
        result = runner.invoke(
            main,
            ["solve", "--problem", str(sm.data_file("single_device_demo.json")), "--scheme", "dip"],
        )
        assert result.exit_code == 0
        assert "bundles            : [[2]]" in result.output

    def test_sip_zero_demand_total_zero(self, runner):
        result = runner.invoke(
            main,
            ["solve", "--problem", str(sm.data_file("zero_demand_demo.json")), "--scheme", "sip"],
        )
        assert result.exit_code == 0
        assert "total              : 0" in result.output

    def test_dip_rejects_multiple_scenarios(self, runner):
        result = runner.invoke(
            main,
            ["solve", "--problem", str(sm.data_file("singapore_demo.json")), "--scheme", "dip"],
        )
        assert result.exit_code != 0

    def test_solution_file_written(self, runner, tmp_path):
        out = tmp_path / "solution.json"
        result = runner.invoke(
            main,
            [
                "solve",
                "--problem",
                str(sm.data_file("singapore_demo.json")),
                "--scheme",
                "sip",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0
        loaded = sm.read_solution(out)
        assert loaded.cost.total == sm.solve_sip(
            sm.load_problem(sm.data_file("singapore_demo.json"))
        ).cost.total

    def test_random_scheme_writes_summary(self, runner, tmp_path):
        out = tmp_path / "summary.json"
        args = [
            "solve",
            "--problem",
            str(sm.data_file("singapore_demo.json")),
            "--scheme",
            "random",
            "--seed",
            "7",
            "--samples",
            "20",
            "--out",
            str(out),
        ]
        assert runner.invoke(main, args).exit_code == 0
        first = out.read_bytes()
        assert runner.invoke(main, args).exit_code == 0
        assert out.read_bytes() == first
        payload = json.loads(first)
        assert payload["samples"] == 20
        assert len(payload["totals"]) == 20

    def test_evf_scheme_runs(self, runner):
        result = runner.invoke(
            main,
            ["solve", "--problem", str(sm.data_file("singapore_demo.json")), "--scheme", "evf"],
        )
        assert result.exit_code == 0
        assert "scheme             : evf" in result.output

    def test_json_errors_flag(self, runner):
        result = runner.invoke(
            main,
            [
                "--json-errors",
                "solve",
                "--problem",
                str(sm.data_file("singapore_demo.json")),
                "--scheme",
                "dip",
            ],
        )
        assert result.exit_code == 1
        payload = json.loads(result.stderr)
        assert payload["type"] == "ConfigurationError"

    def test_json_errors_for_an_integer_beyond_float_range(self, runner, tmp_path):
        doc = json.loads(sm.data_file("singapore_demo.json").read_text())
        doc["devices"][1]["uplink_rate"] = 10**400
        problem = tmp_path / "huge.json"
        problem.write_text(json.dumps(doc))
        result = runner.invoke(main, ["--json-errors", "solve", "--problem", str(problem)])
        assert result.exit_code == 1
        payload = json.loads(result.stderr)
        assert payload["type"] == "SchemaError"
        assert f"{problem}: /devices/1/uplink_rate: 1000" in payload["error"]
        assert payload["error"].endswith(" is beyond the range of a float")

    @pytest.mark.parametrize("scheme", ["sip", "dip", "evf", "random"])
    def test_json_errors_for_a_subnormal_similarity(self, runner, tmp_path, scheme):
        problem = tmp_path / "subnormal.json"
        problem.write_text(json.dumps(minimal_doc(similarity={"tensor": [[[1e-320]]]})))
        args = ["--json-errors", "solve", "--problem", str(problem), "--scheme", scheme]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "VSP 0, device 0: similarity 1e-320 is too small to bound its bundle count",
            "type": "ConfigurationError",
        }

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_json_errors_for_a_node_limit_below_one(self, runner, limit):
        problem = str(sm.data_file("singapore_demo.json"))
        result = runner.invoke(main, ["--json-errors", "solve", "--problem", problem, "--node-limit", limit])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {"error": f"node_limit must be >= 1, got {limit}", "type": "ValueError"}

    def test_json_errors_for_a_negative_seed(self, runner):
        problem = str(sm.data_file("singapore_demo.json"))
        args = ["--json-errors", "solve", "--problem", problem, "--scheme", "random", "--seed", "-1"]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {"error": "seed must be >= 0, got -1", "type": "ValueError"}


class TestThreadsVariable:
    """``SEMALLOC_THREADS`` once chose a worker count; no value of it now changes an exit code or a byte."""

    @pytest.mark.parametrize("value", ["0", "abc"])
    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--scheme", "sip"],
            ["solve", "--scheme", "random", "--samples", "3"],
            ["sweep-bundles", "--max", "2"],
            ["similarity"],
        ],
        ids=["sip", "random", "sweep-bundles", "similarity"],
    )
    def test_every_command_ignores_the_value(self, runner, tmp_path, args, value):
        problem = ["--problem", str(sm.data_file("singapore_demo.json"))]
        unset = runner.invoke(main, [*args, *problem, "--out", str(tmp_path / "unset")])
        ignored = runner.invoke(
            main, [*args, *problem, "--out", str(tmp_path / "set")], env={"SEMALLOC_THREADS": value}
        )
        assert unset.exit_code == ignored.exit_code == 0
        assert (ignored.stdout, ignored.stderr) == (unset.stdout, unset.stderr)
        assert (tmp_path / "set").read_bytes() == (tmp_path / "unset").read_bytes()

    @pytest.mark.parametrize("args", [["--help"], ["solve", "--help"], ["compare", "--help"]])
    def test_help_ignores_the_value(self, runner, args):
        result = runner.invoke(main, args, env={"SEMALLOC_THREADS": "abc"})
        assert result.exit_code == 0
        assert "Usage:" in result.output

    def test_usage_errors_come_first(self, runner):
        result = runner.invoke(main, ["solve"], env={"SEMALLOC_THREADS": "abc"})
        assert result.exit_code == 2
        assert "--problem" in result.stderr and "SEMALLOC_THREADS" not in result.stderr


class TestSweepProbability:
    def test_csv_shape_and_endpoints(self, runner, tmp_path):
        out = tmp_path / "sweep.csv"
        result = runner.invoke(
            main,
            [
                "sweep-probability",
                "--problem",
                str(sm.data_file("singapore_demo.json")),
                "--grid",
                "0:1:0.5",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0
        rows = read_csv(out)
        assert rows[0] == [
            "probability_scenario1",
            "reservation_cost",
            "expected_on_demand",
            "total_cost",
            "plan_vsp0",
            "plan_vsp1",
        ]
        assert len(rows) == 4
        assert float(rows[-1][3]) == 0.0
        assert rows[1][4] == "reserved" and rows[1][5] == "reserved"
        assert rows[-1][4] == "none"

    def test_requires_two_scenarios(self, runner):
        result = runner.invoke(
            main,
            [
                "sweep-probability",
                "--problem",
                str(sm.data_file("cost_structure_demo.json")),
            ],
        )
        assert result.exit_code != 0
        assert "2 scenarios" in result.output or "2 scenarios" in (result.stderr or "")

    def test_json_errors_for_a_non_finite_grid_range(self, runner):
        problem = str(sm.data_file("singapore_demo.json"))
        result = runner.invoke(main, ["--json-errors", "sweep-probability", "--problem", problem, "--grid", "0:inf:1"])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": "grid must be 'a:b:step' or comma-separated numbers, got '0:inf:1'",
            "type": "ConfigurationError",
        }

    def test_rejects_grid_outside_unit_interval(self, runner):
        result = runner.invoke(
            main,
            [
                "sweep-probability",
                "--problem",
                str(sm.data_file("singapore_demo.json")),
                "--grid",
                "0:2:1",
            ],
        )
        assert result.exit_code != 0


class TestSweepBundles:
    def test_monotone_stage_columns(self, runner, tmp_path):
        out = tmp_path / "bundles.csv"
        result = runner.invoke(
            main,
            [
                "sweep-bundles",
                "--problem",
                str(sm.data_file("cost_structure_demo.json")),
                "--max",
                "20",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0
        rows = read_csv(out)[1:]
        assert len(rows) == 21
        stage1 = [float(r[1]) for r in rows]
        stage2 = [float(r[2]) for r in rows]
        assert stage1 == sorted(stage1)
        assert stage2 == sorted(stage2, reverse=True)
        marks = [int(r[4]) for r in rows]
        assert sum(marks) == 1
        argmin = marks.index(1)
        totals = [float(r[3]) for r in rows]
        assert totals[argmin] == min(totals)

    def test_index_error_surfaces(self, runner):
        result = runner.invoke(
            main,
            [
                "sweep-bundles",
                "--problem",
                str(sm.data_file("cost_structure_demo.json")),
                "--vsp",
                "3",
                "--max",
                "5",
            ],
        )
        assert result.exit_code != 0
        problem = str(sm.data_file("cost_structure_demo.json"))
        result = runner.invoke(main, ["--json-errors", "sweep-bundles", "--problem", problem, "--max", "-1"])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {"error": "--max must be non-negative, got -1", "type": "ConfigurationError"}


# every solve ``compare`` can start: a factor or seed check that fails must come before all of them
COMPARE_SOLVES = ("solve_sip", "solve_sip_grid", "evf_plan", "random_plans")


class TestCompare:
    def test_dominance_each_row(self, runner, tmp_path):
        out = tmp_path / "compare.csv"
        result = runner.invoke(
            main,
            [
                "compare",
                "--problem",
                str(sm.data_file("singapore_demo.json")),
                "--grid",
                "0.5,1,2",
                "--samples",
                "30",
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0
        rows = read_csv(out)
        assert rows[0] == ["factor", "sip_total", "evf_total", "random_mean_total", "random_min_total"]
        for row in rows[1:]:
            sip, evf, rmean, rmin = (float(v) for v in row[1:])
            assert sip <= evf + 1e-9
            assert sip <= rmean + 1e-9
            assert sip <= rmin + 1e-9

    @pytest.mark.parametrize("grid", ["0,1", "nan", "1,inf"])
    def test_non_positive_or_non_finite_factor(self, runner, grid):
        problem = str(sm.data_file("singapore_demo.json"))
        result = runner.invoke(main, ["--json-errors", "compare", "--problem", problem, "--grid", grid])
        assert result.exit_code == 1
        payload = json.loads(result.stderr)
        assert payload == {"error": "on-demand cost factors must be positive and finite",
                           "type": "ConfigurationError"}

    def test_inverted_factors_rejected_before_any_solve(self, runner, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("solved before every factor was checked")

        for entry in COMPARE_SOLVES:
            monkeypatch.setattr(f"semalloc.cli.{entry}", unexpected)
        problem = str(sm.data_file("singapore_demo.json"))
        result = runner.invoke(main, ["--json-errors", "compare", "--problem", problem, "--grid", "0.1:3:0.1"])
        assert result.exit_code == 1
        payload = json.loads(result.stderr)
        assert payload["type"] == "ConfigurationError"
        # alpha_reservation 5 over alpha_on_demand 15 on every device; 0.4 * 15 = 6 > 5 is valid
        assert payload["error"] == (
            "on-demand cost factors must exceed max_e alpha_reservation/alpha_on_demand = "
            "0.3333333333333333; got 0.1, 0.2, 0.3"
        )

    def test_negative_seed_rejected_before_any_solve(self, runner, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("solved before the random-scheme seed was checked")

        for entry in COMPARE_SOLVES:
            monkeypatch.setattr(f"semalloc.cli.{entry}", unexpected)
        problem = str(sm.data_file("singapore_demo.json"))
        result = runner.invoke(main, ["--json-errors", "compare", "--problem", problem, "--seed", "-1"])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {"error": "seed must be >= 0, got -1", "type": "ValueError"}


    @pytest.mark.parametrize("grid", ["1", "0.5:3:0.5"])
    def test_one_evf_solve_and_one_draw_whatever_the_grid_length(self, runner, monkeypatch, grid):
        calls = {"solve_dip": 0, "random_plans": 0}

        def counted(module, name):
            original = getattr(module, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        counted(sm.baselines, "solve_dip")
        counted(sm.cli, "random_plans")
        problem = str(sm.data_file("singapore_demo.json"))
        result = runner.invoke(main, ["compare", "--problem", problem, "--grid", grid, "--samples", "5"])
        assert result.exit_code == 0, result.output
        assert calls == {"solve_dip": 1, "random_plans": 1}


class TestEnergyReport:
    def test_ratio_column(self, runner, tmp_path):
        out = tmp_path / "energy.csv"
        result = runner.invoke(
            main,
            [
                "energy-report",
                "--problem",
                str(sm.data_file("singapore_demo.json")),
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0
        rows = read_csv(out)
        device_rows = rows[1:-1]
        assert len(device_rows) == 3
        for row in device_rows:
            assert float(row[3]) == 650000 / 5125
        assert rows[-1][0] == "overall"

    def test_equal_payloads_ratio_one(self, runner, tmp_path):
        doc = json.loads(sm.data_file("cost_structure_demo.json").read_text())
        doc["devices"][0]["avg_payload_raw"] = doc["devices"][0]["avg_payload_semantic"]
        problem = tmp_path / "equal.json"
        problem.write_text(json.dumps(doc))
        out = tmp_path / "energy.csv"
        result = runner.invoke(
            main, ["energy-report", "--problem", str(problem), "--out", str(out)]
        )
        assert result.exit_code == 0
        assert float(read_csv(out)[1][3]) == 1.0

    def test_missing_raw_payload_is_usage_error(self, runner, tmp_path):
        doc = json.loads(sm.data_file("cost_structure_demo.json").read_text())
        del doc["devices"][0]["avg_payload_raw"]
        problem = tmp_path / "noraw.json"
        problem.write_text(json.dumps(doc))
        result = runner.invoke(main, ["energy-report", "--problem", str(problem)])
        assert result.exit_code != 0


CSV_COMMANDS = {
    "similarity": ["similarity", "--problem", str(sm.data_file("interest_switch_corpus.json"))],
    "compare": ["compare", "--problem", str(sm.data_file("singapore_demo.json")), "--grid", "1,2", "--samples", "5"],
    "sweep-probability": ["sweep-probability", "--problem", str(sm.data_file("singapore_demo.json")), "--grid", "0,1"],
    "sweep-bundles": ["sweep-bundles", "--problem", str(sm.data_file("singapore_demo.json")), "--max", "2"],
    "energy-report": ["energy-report", "--problem", str(sm.data_file("singapore_demo.json"))],
}


@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
def test_out_in_a_missing_directory_is_a_configuration_error(runner, tmp_path, command):
    out = tmp_path / "missing" / "x.csv"
    result = runner.invoke(main, ["--json-errors", *CSV_COMMANDS[command], "--out", str(out)])
    assert result.exit_code == 1
    payload = json.loads(result.stderr)
    assert payload["type"] == "ConfigurationError"
    assert payload["error"].startswith(f"cannot write {out}: ")
    assert not out.parent.exists()


class TestSimilarityCommand:
    def test_tensor_rows(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        result = runner.invoke(
            main,
            [
                "similarity",
                "--problem",
                str(sm.data_file("interest_switch_corpus.json")),
                "--out",
                str(out),
            ],
        )
        assert result.exit_code == 0
        rows = read_csv(out)
        assert rows[0] == ["vsp", "device", "scenario", "similarity"]
        assert len(rows) == 1 + 1 * 3 * 2
        scores = {(r[1], r[2]): float(r[3]) for r in rows[1:]}
        assert scores[("2", "0")] == pytest.approx(0.83, abs=1e-9)
        assert scores[("0", "1")] == pytest.approx(0.793, abs=1e-9)

    def test_uneven_demand_lists_are_a_validation_failure(self, runner, tmp_path):
        # a second VSP demand in scenario 1 only; the problem declares one VSP
        doc = json.loads(sm.data_file("interest_switch_corpus.json").read_text())
        doc["scenarios"][1]["per_vsp"].append(dict(doc["scenarios"][1]["per_vsp"][0]))
        for name in ("corpora_demo.csv", "embeddings_demo.json"):
            (tmp_path / name).write_bytes(sm.data_file(name).read_bytes())
        problem = tmp_path / "uneven.json"
        problem.write_text(json.dumps(doc))
        result = runner.invoke(main, ["--json-errors", "similarity", "--problem", str(problem)])
        assert result.exit_code == 1
        payload = json.loads(result.stderr)
        assert payload == {
            "error": "scenario 1 lists 2 vsp demands, expected 1",
            "type": "ValidationFailure",
        }

    def test_json_errors_for_a_count_beyond_float_range(self, runner, tmp_path):
        for name in ("interest_switch_corpus.json", "embeddings_demo.json"):
            (tmp_path / name).write_bytes(sm.data_file(name).read_bytes())
        rows = read_csv(sm.data_file("corpora_demo.csv"))
        rows[1][2] = "1" + "0" * 400
        with open(tmp_path / "corpora_demo.csv", "w", newline="") as handle:
            csv.writer(handle).writerows(rows)
        problem = tmp_path / "interest_switch_corpus.json"
        result = runner.invoke(main, ["--json-errors", "similarity", "--problem", str(problem)])
        assert result.exit_code == 1
        assert json.loads(result.stderr) == {
            "error": f"corpus count 1{'0' * 400} for {rows[1][1]!r} is beyond the range of a float",
            "type": "ConfigurationError",
        }


DEMOS = [
    "cost_structure_demo.json",
    "interest_switch_corpus.json",
    "interest_switch_demo.json",
    "singapore_demo.json",
    "single_device_demo.json",
    "zero_demand_demo.json",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_rows_hold_no_none(demo):
    """``csv.writer`` would write None as an empty field."""
    instance = sm.load_problem(sm.data_file(demo))
    builders = [
        lambda: sweep_bundle_rows(instance, 0, 0, 6)[0],
        lambda: compare_rows(instance, (1.0, 2.0), 3, 10),
        lambda: energy_report_rows(instance)[0],
        lambda: sweep_probability_rows(instance, (0.0, 0.5, 1.0)),
    ]
    for build in builders:
        try:
            rows = build()
        except ConfigurationError:  # a command this demo does not support
            continue
        assert rows and not any(value is None for row in rows for value in row)
