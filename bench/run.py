#!/usr/bin/env python3
"""semalloc benchmark: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

Run it inside a checkout that has ``src/semalloc``.  The package is imported
from that tree, never from an installed copy.  A run generates the workload's
inputs from ``--seed`` and times ``import semalloc`` plus one warm-up op in
fresh interpreters.  It then repeats passes over the op list for
``--seconds``, checks every output, and prints one JSON object as its last
line.  With ``--trace 0`` it reports the end-to-end metrics; the set-up
probes run a few at a time between passes.  With
``--trace 1`` it spends half the time untraced and half traced, reports the
per-layer metrics instead, and writes the spans to
``.bench_out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 15  # fresh interpreters whose median is setup_s
SETUP_PER_PASS = 3  # probes run before the first pass and after each pass
TAIL_BEYOND = 10  # ops a pass must have beyond the reported tail op time

# Runs in a fresh interpreter: time ``import semalloc`` plus the warm-up op.
SETUP_PROBE = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import semalloc
import semalloc.cli
semalloc.cli.main.main(args=json.loads(sys.argv[2]), standalone_mode=False)
print(time.perf_counter() - start)
"""


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Pass:
    wall: float
    times: list[float]
    errors: list[BaseException | None]
    outputs: list = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class SetupProbe:
    """``import semalloc`` plus the warm-up op, timed in fresh interpreters.

    The probes run a few at a time between passes, so that the samples span
    the whole run rather than one moment of the machine's load.
    """

    def __init__(self, warmup: list[str]):
        self.warmup = warmup
        self.samples: list[float] = []

    def sample(self, count: int = SETUP_PER_PASS) -> None:
        for _ in range(min(count, SETUP_REPEATS - len(self.samples))):
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(self.warmup)],
                cwd=ROOT, capture_output=True, text=True, timeout=120,
            )
            if proc.returncode != 0:
                raise BenchError(f"set-up probe failed:\n{proc.stderr}")
            self.samples.append(float(proc.stdout.split()[-1]))

    def median(self) -> float:
        self.sample(SETUP_REPEATS)
        return statistics.median(self.samples)


def run_pass(ops, tracer=None) -> Pass:
    times, errors = [], []
    start = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        began = perf_counter()
        try:
            op.run()
            error = None
        except Exception as exc:  # a failing op is a measured outcome, not a crash
            error = exc.with_traceback(None)  # kept frames would grow memory with every pass
        times.append(perf_counter() - began)
        errors.append(error)
    return Pass(perf_counter() - start, times, errors)


def measure(workload, budget: float, tracer=None, probe=None) -> list[Pass]:
    """Whole passes until the next one would overrun ``budget`` seconds (at least one).

    ``probe`` samples set-up time after each pass; that time is not charged
    to the budget.
    """
    passes = []
    spent = 0.0
    input_bytes = sum(op.input_bytes for op in workload.ops)
    while True:
        started = perf_counter()
        if tracer is not None:
            tracer.reset()  # drops what reading back the previous pass's outputs recorded
        result = run_pass(workload.ops, tracer)
        if tracer is not None:
            result.layers = layer_metrics(tracer, result.wall, input_bytes)
            result.spans = list(tracer.spans)
        result.outputs, result.digests = workload.collect(result.errors)
        if passes:
            result.outputs = []  # only the first pass's outputs are checked in full
        passes.append(result)
        spent += perf_counter() - started
        if probe is not None:
            probe.sample()
        if spent + result.wall > budget:
            return passes


def tail(times: list[float]) -> float:
    """The highest op time with at least TAIL_BEYOND ops beyond it."""
    return sorted(times)[len(times) - TAIL_BEYOND - 1]


def assess(workload, passes: list[Pass]):
    """Check the first pass's outputs and count failed ops over all passes.

    An op fails in a pass if it raised, if its output failed its check, or if
    its output or error differs from the first pass's.  The last case also
    makes the run inconsistent, which is reported as ``correct: false``.
    """
    first = passes[0]
    checks = [workload.check(op, out, err) for op, out, err in zip(workload.ops, first.outputs, first.errors)]
    failed = 0
    consistent = True
    for p in passes:
        for k, (error, dig) in enumerate(zip(p.errors, p.digests)):
            same = dig == first.digests[k] and type(error) is type(first.errors[k])
            consistent = consistent and same
            failed += bool(error is not None or not checks[k].ok or not same)
    return checks, failed, consistent


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "semalloc" / "__init__.py").is_file():
        print(f"run.py: no semalloc sources under {SRC}; run it inside a semalloc checkout", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    os.environ.pop("SEMALLOC_THREADS", None)  # the documented default: sequential
    sys.path.insert(0, str(SRC))
    import semalloc

    if SRC.resolve() not in Path(semalloc.__file__).resolve().parents:
        raise BenchError(f"semalloc was imported from {semalloc.__file__}, not from {SRC}")
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as scratch:
        workload = workloads.build(args.workload, args.seed, Path(scratch))
        if len(workload.ops) < 2 * TAIL_BEYOND:
            raise BenchError(f"a pass needs at least {2 * TAIL_BEYOND} ops for the tail percentile")
        with contextlib.redirect_stdout(io.StringIO()):  # stdout ends with the result line only
            semalloc.cli.main.main(args=workload.warmup, standalone_mode=False)

        if args.trace:
            untraced = measure(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                passes = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            measured = untraced + passes
        else:
            probe = SetupProbe(workload.warmup)
            probe.sample()
            passes = measured = measure(workload, args.seconds, probe=probe)
            setup_s = probe.median()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks, failed, consistent = assess(workload, measured)

    ops = len(workload.ops)
    attempted = ops * len(measured)
    excesses = [c.excess for c in checks if c.excess is not None]
    walls = [p.wall for p in passes]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "ops_per_pass": ops,
        "passes": len(measured),
        "failed_frac": failed / attempted,
        "plan_excess_rel": statistics.fmean(excesses) if excesses else 0.0,
        "tail_percentile": 100 * (ops - TAIL_BEYOND) / ops,
        "tail_ops_beyond": TAIL_BEYOND,
        "failures": {op.id: c.detail for op, c in zip(workload.ops, checks) if not c.ok},
    }
    if args.trace:
        values = {key: statistics.median(p.layers[key] for p in passes) for key in passes[0].layers}
        values["trace.overhead_s"] = statistics.median(walls) - statistics.median(p.wall for p in untraced)
        write_spans(args.workload, passes)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "op_p50_s": statistics.median(t for p in passes for t in p.times),
            "op_tail_s": statistics.median(tail(p.times) for p in passes),
            "ok_frac": 1 - failed / attempted,
            "plan_cost_ratio": 1 + detail["plan_excess_rel"],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    if set(values) != set(units):
        raise BenchError(f"measured metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": consistent, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def declared_units(trace: int) -> dict[str, str]:
    """Names and units of the metrics BENCHMARK.json declares for this kind of run."""
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def write_spans(workload: str, passes: list[Pass]) -> None:
    with open(OUT / f"spans-{workload}.jsonl", "w", encoding="utf-8") as handle:
        for number, p in enumerate(passes):
            for span in p.spans:
                handle.write(json.dumps({"pass": number, **span._asdict()}) + "\n")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(1)
