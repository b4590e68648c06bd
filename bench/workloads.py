"""Seeded inputs, op lists and output checks for the three benchmark workloads.

Every op is one call into semalloc's public surface.  ``search`` ops call the
library (load, solve, write); ``sweep`` and ``corpus`` ops run CLI commands
in-process through the click group.  The generators write ordinary problem
files, so the program only ever sees generated inputs, never the seed.

Sizes are laid out across the op list by op index and only the values inside
each problem come from the seed.  That keeps the work of a pass nearly the same
from seed to seed, which is what lets a later change be compared against its
parent on any seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import semalloc
import semalloc.cli
from semalloc.errors import NodeLimitError

WORKLOADS = ("search", "sweep", "corpus")

# Per-VSP branch-and-bound budget of a search op.  The hard third of the
# problems exhaust it at the seed code; that is the scaling wall the workload
# is meant to expose, not noise to be tuned away.
SEARCH_NODE_LIMIT = 10_000
SEARCH_OPS = 240  # generated ops; the fixed repro op comes on top
SWEEP_COMPARE_OPS = 14
SWEEP_PROBABILITY_OPS = 7
CORPUS_OPS = 30
REL_TOL = 1e-9

_RATES = (1.5e6, 2.5e6, 3.5e6)
_POWERS = (0.07, 0.1, 0.13)
_WORDS = (
    "bus", "lorry", "sedan", "cyclist", "pedestrian", "junction", "lane", "signal",
    "crossing", "bridge", "tunnel", "highway", "parking", "taxi", "van", "scooter",
    "night", "rain", "queue", "merge", "stop", "turn", "school", "market", "harbour",
    "crane", "container", "tram", "depot", "roundabout", "ramp", "toll", "barrier",
    "ambulance", "police", "delivery", "truck", "motorcycle", "kerb", "footpath",
)


def hundredths(rng: np.random.Generator, low: float, high: float, size=None):
    """Uniform draws rounded to 0.01: the decimal grid real problem files use."""
    return np.round(rng.uniform(low, high, size=size), 2)


def probabilities(rng: np.random.Generator, count: int) -> list[float]:
    """Scenario probabilities on the hundredths grid that sum to 1 within 1e-9."""
    cuts = np.sort(rng.choice(np.arange(1, 100), size=count - 1, replace=False))
    parts = np.diff(np.concatenate(([0], cuts, [100])))
    return [int(p) / 100 for p in parts]


def device_records(rng, count: int, bundle: tuple[int, int], membership: tuple[float, float]):
    return [
        {
            "id": e,
            "uplink_rate": float(rng.choice(_RATES)),
            "transmit_power": float(rng.choice(_POWERS)),
            "avg_payload_semantic": 5125,
            "membership_cost": float(hundredths(rng, *membership)),
            "bundle_size": int(rng.integers(bundle[0], bundle[1] + 1)),
            "alpha_reservation": 5,
            "alpha_on_demand": 15,
        }
        for e in range(count)
    ]


def scenario_records(rng, num_vsps: int, num_scenarios: int, quantity, threshold, keys):
    return [
        {
            "probability": p,
            "per_vsp": [
                {
                    "interest_key": keys[w][i],
                    "quantity": int(rng.integers(quantity[0], quantity[1] + 1)),
                    "threshold": float(hundredths(rng, *threshold)),
                }
                for w in range(num_vsps)
            ],
        }
        for i, p in enumerate(probabilities(rng, num_scenarios))
    ]


def tensor_problem(rng, num_vsps, num_devices, num_scenarios, *, bundle, membership,
                   quantity, threshold, similarity) -> dict:
    keys = [[f"interest-{w}"] * num_scenarios for w in range(num_vsps)]
    return {
        "devices": device_records(rng, num_devices, bundle, membership),
        "vsps": [{"id": w} for w in range(num_vsps)],
        "scenarios": scenario_records(rng, num_vsps, num_scenarios, quantity, threshold, keys),
        "similarity": {
            "tensor": hundredths(rng, *similarity, size=(num_vsps, num_devices, num_scenarios)).tolist()
        },
    }


# The ROADMAP item-1 repro: coverage 3 * 3 * 0.09 equals the requirement 0.81
# only up to float rounding, the solver's leaf sees no gap, evaluate_total
# buys one on-demand unit, and both +-1 neighbours of the returned plan are
# cheaper.  It stays in the op list until the solver agrees with evaluate_total.
REPRO_PROBLEM = {
    "devices": [
        {
            "id": 0,
            "uplink_rate": 2500000,
            "transmit_power": 0.1,
            "avg_payload_semantic": 5125,
            "membership_cost": 0,
            "bundle_size": 3,
            "alpha_reservation": 5,
            "alpha_on_demand": 1000,
        }
    ],
    "vsps": [{"id": 0}],
    "scenarios": [
        {"probability": 1.0, "per_vsp": [{"interest_key": "x", "quantity": 1, "threshold": 0.81}]}
    ],
    "similarity": {"tensor": [[[0.09]]]},
}


def write_json(path: Path, document) -> int:
    data = json.dumps(document, sort_keys=True).encode("utf-8")
    path.write_bytes(data)
    return len(data)


def search_problem(rng, k: int) -> dict:
    """Problem ``k`` of the search list: two hard ops for every moderate one.

    Hard: W=1-2, E=9-10, 2-3 scenarios, quantity 400-599, thresholds
    0.5-1.0, similarity down to 0.05, so bundle lattices run to hundreds of
    counts per device and no hard op finishes within the node budget at the
    seed code.  Moderate: W=1-2, E=5-6, 4 scenarios, quantity 10-119,
    thresholds 0.3-1.0, similarity from 0.30.  Both use bundle size 5-10 and
    the hundredths grid for similarity, thresholds and probabilities.
    """
    num_vsps = 1 + (k // 3) % 2
    num_scenarios = 2 + k % 3
    common = dict(bundle=(5, 10), membership=(0.01, 0.15))
    if k % 3 == 2:
        return tensor_problem(rng, num_vsps, 5 + (k // 6) % 2, num_scenarios, quantity=(10, 119),
                              threshold=(0.3, 1.0), similarity=(0.30, 0.99), **common)
    return tensor_problem(rng, num_vsps, 9 + (k // 2) % 2, num_scenarios, quantity=(400, 599),
                          threshold=(0.5, 1.0), similarity=(0.05, 0.99), **common)


def fleet_problem(rng, k: int, num_scenarios: int) -> dict:
    """A fleet problem for ``sweep``: W=4-8, E=8-24, bundle size 80-200."""
    return tensor_problem(rng, 4 + k % 5, 8 + (5 * k) % 17, num_scenarios,
                          bundle=(80, 200), membership=(0.05, 0.2), quantity=(20, 300),
                          threshold=(0.5, 1.0), similarity=(0.30, 0.99))


def corpus_files(rng, k: int, directory: Path) -> tuple[Path, int]:
    """Problem, corpus CSV and embeddings JSON of corpus op ``k``.

    W=4 VSPs, N=2 scenarios, E=100-200 devices, 8 categories per device drawn
    from a shared vocabulary of 150, 400 or 1000 texts, so the same text
    recurs across many devices; 32-dimensional embeddings.
    """
    num_vsps, num_scenarios, per_device, dim = 4, 2, 8, 32
    num_devices = 100 + (k * 53) % 101
    vocab_size = (150, 400, 1000)[k % 3]
    texts: set[str] = set()
    while len(texts) < vocab_size:
        texts.add(" ".join(rng.choice(_WORDS, size=int(rng.integers(2, 5)))))
    vocabulary = sorted(texts)
    interests = [f"interest {' '.join(rng.choice(_WORDS, size=3))} {j}" for j in range(6)]
    keys = [[interests[int(rng.integers(len(interests)))] for _ in range(num_scenarios)]
            for _ in range(num_vsps)]
    vectors = np.round(rng.standard_normal((len(vocabulary) + len(interests), dim)), 6)
    embeddings = {text: vec.tolist() for text, vec in zip(vocabulary + interests, vectors)}

    rows = io.StringIO()
    writer = csv.writer(rows, lineterminator="\n")
    writer.writerow(["device_id", "category", "count"])
    for e in range(num_devices):
        for index in rng.choice(len(vocabulary), size=per_device, replace=False):
            writer.writerow([e, vocabulary[index], int(rng.integers(1, 21))])

    problem = {
        "devices": device_records(rng, num_devices, (50, 200), (0.05, 0.2)),
        "vsps": [{"id": w} for w in range(num_vsps)],
        "scenarios": scenario_records(rng, num_vsps, num_scenarios, (20, 300), (0.5, 1.0), keys),
        "similarity": {"corpus_file": f"corpus-{k:03d}.csv", "embeddings_file": f"embeddings-{k:03d}.json"},
    }
    size = write_json(directory / f"embeddings-{k:03d}.json", embeddings)
    csv_bytes = rows.getvalue().encode("utf-8")
    (directory / f"corpus-{k:03d}.csv").write_bytes(csv_bytes)
    path = directory / f"corpus-{k:03d}.json"
    return path, size + len(csv_bytes) + write_json(path, problem)


# ---------------------------------------------------------------------------
# ops


@dataclass
class Check:
    """Outcome of an op's output check; ``excess`` is set for solve ops only."""

    ok: bool
    detail: str = ""
    excess: float | None = None


@dataclass
class Op:
    """One timed call.  ``args`` is a CLI argument list, or None for a library solve."""

    id: str
    problem: Path
    out: Path
    input_bytes: int
    args: list[str] | None = None

    def run(self) -> None:
        if self.args is not None:
            semalloc.cli.main.main(args=self.args, standalone_mode=False)
            return
        instance = semalloc.load_problem(self.problem)
        solution = semalloc.solve_sip(instance, semalloc.SolverConfig(node_limit=SEARCH_NODE_LIMIT))
        semalloc.write_solution(solution, self.out)

    def output(self, error: BaseException | None):
        """What the op produced, read back outside the timed region."""
        if self.args is not None:
            return None if error else self.out.read_bytes()
        if isinstance(error, NodeLimitError):
            return error.partial
        return None if error else semalloc.read_solution(self.out)


def digest(output) -> str:
    if output is None:
        return ""
    if isinstance(output, bytes):
        return hashlib.sha256(output).hexdigest()
    text = f"{output.plan.bundles.tolist()}|{output.cost.total!r}"
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[str]  # CLI arguments of the one untimed warm-up op

    def collect(self, errors: list[BaseException | None]) -> tuple[list, list[str]]:
        """Each op's output from the pass just run, and its digest."""
        outputs = [op.output(error) for op, error in zip(self.ops, errors)]
        return outputs, [digest(output) for output in outputs]

    def check(self, op: Op, output, error: BaseException | None) -> Check:
        if self.name == "search":
            return check_search(op, output, error)
        if error is not None:
            return Check(False, f"{type(error).__name__}: {error}")
        if self.name == "corpus":
            return check_corpus(op, output)
        return check_sweep(op, output)


def build(name: str, seed: int, directory: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``directory``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, WORKLOADS.index(name)))))
    return {"search": _search, "sweep": _sweep, "corpus": _corpus}[name](rng, directory)


def _search(rng, directory: Path) -> Workload:
    problems = [("repro", REPRO_PROBLEM)] + [(f"{k:03d}", search_problem(rng, k)) for k in range(SEARCH_OPS)]
    ops = []
    for tag, document in problems:
        path = directory / f"search-{tag}.json"
        size = write_json(path, document)
        ops.append(Op(f"search-{tag}", path, directory / f"search-{tag}.out.json", size))
    repro = ops[0]
    warmup = ["solve", "--problem", str(repro.problem), "--node-limit", str(SEARCH_NODE_LIMIT),
              "--out", str(directory / "warmup.out.json")]
    return Workload("search", ops, warmup)


def _cli_op(op_id: str, command: str, problem: Path, directory: Path, extra: list[str], size: int) -> Op:
    out = directory / f"{op_id}.out.csv"
    args = [command, "--problem", str(problem), *extra, "--out", str(out)]
    return Op(op_id, problem, out, size, args)


def _sweep(rng, directory: Path) -> Workload:
    ops = []
    for demo in ("singapore_demo.json", "cost_structure_demo.json"):
        path = semalloc.data_file(demo)
        ops.append(_cli_op(f"compare-{path.stem}", "compare", path, directory,
                           ["--seed", "42", "--samples", "100"], path.stat().st_size))
    singapore = semalloc.data_file("singapore_demo.json")
    ops.append(_cli_op("probability-singapore_demo", "sweep-probability", singapore, directory,
                       ["--grid", "0:1:0.1"], singapore.stat().st_size))
    for k in range(SWEEP_COMPARE_OPS):
        path = directory / f"fleet-compare-{k:03d}.json"
        size = write_json(path, fleet_problem(rng, k, 8 + k % 9))
        samples = (50, 100, 150)[k % 3]
        ops.append(_cli_op(f"compare-{k:03d}", "compare", path, directory,
                           ["--grid", "0.5:1.5:0.5", "--seed", str(k), "--samples", str(samples)], size))
    for k in range(SWEEP_PROBABILITY_OPS):
        path = directory / f"fleet-probability-{k:03d}.json"
        size = write_json(path, fleet_problem(rng, k, 2))
        ops.append(_cli_op(f"probability-{k:03d}", "sweep-probability", path, directory,
                           ["--grid", "0:1:0.05"], size))
    warmup = ["compare", "--problem", str(singapore), "--grid", "1,2", "--samples", "10",
              "--out", str(directory / "warmup.out.csv")]
    return Workload("sweep", ops, warmup)


def _corpus(rng, directory: Path) -> Workload:
    ops = []
    for k in range(CORPUS_OPS):
        path, size = corpus_files(rng, k, directory)
        ops.append(_cli_op(f"similarity-{k:03d}", "similarity", path, directory, [], size))
    demo = semalloc.data_file("interest_switch_corpus.json")
    warmup = ["similarity", "--problem", str(demo), "--out", str(directory / "warmup.out.csv")]
    return Workload("corpus", ops, warmup)


# ---------------------------------------------------------------------------
# checks


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_search(op: Op, solution, error: BaseException | None) -> Check:
    """Reported total, +-1 neighbours, and the independent HiGHS plan.

    ``excess`` is (returned - reference) / reference, the reference being the
    cheapest of the returned plan, its neighbours and the HiGHS plan, all
    costed by ``evaluate_total``.  A node-limit failure is scored on its
    partial plan.  If HiGHS fails, the op fails its check and the reference
    falls back to the returned plan and its neighbours.
    """
    import oracle  # scipy loads only once the timed passes and the memory reading are done

    if solution is None:
        return Check(False, f"{type(error).__name__}: {error}")
    instance = semalloc.load_problem(op.problem)
    returned = semalloc.evaluate_total(solution.plan, instance).cost.total
    neighbour = oracle.cheapest_neighbour(solution.plan.bundles, instance)
    problems = []
    if error is not None:
        problems.append(f"{type(error).__name__}: {error}")
    try:
        highs = oracle.highs_total(instance)
    except oracle.OracleError as exc:
        problems.append(f"no HiGHS reference: {exc}")
        highs = math.inf
    reference = min(returned, neighbour, highs)
    excess = (returned - reference) / reference if reference > 0 else 0.0
    if not _close(solution.cost.total, returned):
        problems.append(f"reported total {solution.cost.total!r} != evaluate_total {returned!r}")
    if neighbour < returned and not _close(neighbour, returned):
        problems.append(f"a +-1 neighbour costs {neighbour!r} < {returned!r}")
    if highs < returned and not _close(highs, returned):
        problems.append(f"the HiGHS plan costs {highs!r} < {returned!r}")
    return Check(not problems, "; ".join(problems), excess)


def _csv_rows(output: bytes) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(output.decode("utf-8"))))
    return rows[0], rows[1:]


def check_sweep(op: Op, output: bytes) -> Check:
    """compare: SIP <= EVF and SIP <= random-min per row.  sweep-probability:
    one row per grid point, and total = reservation + expected on-demand."""
    header, rows = _csv_rows(output)
    command = op.args[0]
    if command == "compare":
        bad = [
            row[0] for row in rows
            if float(row[1]) > float(row[2]) and not _close(float(row[1]), float(row[2]))
            or float(row[1]) > float(row[4]) and not _close(float(row[1]), float(row[4]))
        ]
        return Check(not bad and bool(rows), f"SIP above EVF or random-min at factors {bad}" if bad else "")
    grid = semalloc.cli.parse_grid(op.args[op.args.index("--grid") + 1])
    if len(rows) != len(grid):
        return Check(False, f"{len(rows)} rows for {len(grid)} grid points")
    bad = [row[0] for row in rows if float(row[1]) + float(row[2]) != float(row[3])]
    return Check(not bad, f"total != reservation + on-demand at {bad}" if bad else "")


def reference_tensor(problem_path: Path) -> np.ndarray:
    """Similarity tensor recomputed with numpy straight from the problem's files:
    row-normalise, one matmul, clip at 0, count-weighted mean."""
    problem = json.loads(problem_path.read_text(encoding="utf-8"))
    source = problem["similarity"]
    embeddings = json.loads((problem_path.parent / source["embeddings_file"]).read_text(encoding="utf-8"))
    texts = list(embeddings)
    row_of = {text: i for i, text in enumerate(texts)}
    matrix = np.array([embeddings[t] for t in texts], dtype=np.float64)
    matrix /= np.linalg.norm(matrix, axis=1, keepdims=True)
    with open(problem_path.parent / source["corpus_file"], newline="", encoding="utf-8") as handle:
        records = list(csv.DictReader(handle))
    num_devices = len(problem["devices"])
    weights = np.zeros((num_devices, len(texts)))
    for rec in records:
        weights[int(rec["device_id"]), row_of[rec["category"]]] += int(rec["count"])
    weights /= weights.sum(axis=1, keepdims=True)
    scenarios = problem["scenarios"]
    tensor = np.zeros((len(problem["vsps"]), num_devices, len(scenarios)))
    for i, scenario in enumerate(scenarios):
        for w, demand in enumerate(scenario["per_vsp"]):
            cosines = np.clip(matrix @ matrix[row_of[demand["interest_key"]]], 0.0, 1.0)
            tensor[w, :, i] = weights @ cosines
    return tensor


def check_corpus(op: Op, output: bytes) -> Check:
    _, rows = _csv_rows(output)
    expected = reference_tensor(op.problem)
    got = np.zeros_like(expected)
    for w, e, i, value in rows:
        got[int(w), int(e), int(i)] = float(value)
    if len(rows) != expected.size:
        return Check(False, f"{len(rows)} rows, expected {expected.size}")
    worst = float(np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1e-300)))
    ok = bool(np.allclose(got, expected, rtol=REL_TOL, atol=1e-15))
    return Check(ok, "" if ok else f"tensor differs from the numpy recomputation (rel {worst:.3g})")
