"""Tests of the benchmark itself: run with ``python -m pytest bench``."""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest

import semalloc
from semalloc import DemandScenario, EdgeDevice, ProblemInstance, Vsp, VspDemand

import oracle
import run
import workloads
from tracing import Span, Tracer, layer_metrics, self_times


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_bytes(name, tmp_path):
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for directory, seed in ((first, 7), (second, 7), (other, 8)):
        directory.mkdir()
        workloads.build(name, seed, directory)
    assert _files(first) == _files(second)
    assert _files(first) != _files(other)


def _dyadic_instance(rng) -> ProblemInstance:
    num_vsps, num_devices, num_scenarios = (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                                            int(rng.integers(1, 4)))
    devices = tuple(
        EdgeDevice(id=e, uplink_rate=float(rng.choice((1.25e6, 2.5e6, 5e6))), transmit_power=0.1,
                   avg_payload_semantic=5125.0, membership_cost=float(rng.choice((0.0, 0.02, 0.05))),
                   bundle_size=int(rng.choice((4, 5))), alpha_reservation=5.0, alpha_on_demand=15.0)
        for e in range(num_devices)
    )
    weights = rng.integers(1, 4, size=num_scenarios)
    scenarios = tuple(
        DemandScenario(float(weights[i] / weights.sum()), tuple(
            VspDemand("k", int(rng.integers(0, 13)), float(rng.choice((0.5, 0.75, 1.0))))
            for _ in range(num_vsps)))
        for i in range(num_scenarios)
    )
    similarity = rng.choice((0.0, 0.5, 0.75, 1.0), size=(num_vsps, num_devices, num_scenarios))
    return ProblemInstance(devices, tuple(Vsp(w) for w in range(num_vsps)), scenarios, similarity)


def _lattice_minimum(instance) -> float:
    """Brute force over every bundle vector within the per-VSP bounds."""
    axes = []
    for w in range(instance.num_vsps):
        for e in range(instance.num_devices):
            axes.append(range(semalloc.bundle_upper_bound(w, e, instance) + 1))
    shape = (instance.num_vsps, instance.num_devices)
    return min(oracle.total(np.array(point).reshape(shape), instance) for point in itertools.product(*axes))


def test_highs_oracle_matches_lattice_minimum():
    rng = np.random.default_rng(2022)
    for _ in range(25):
        instance = _dyadic_instance(rng)
        assert math.isclose(oracle.highs_total(instance), _lattice_minimum(instance), rel_tol=1e-9)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.compare", 0.0, 10.0, -1, "op"),
        Span("solvers.solve_sip", 1.0, 4.0, 0, "op"),
        Span("recourse.evaluate_total", 2.0, 3.0, 1, "op"),
        Span("baselines.solve_random", 5.0, 6.5, 0, "op"),
    ]
    assert self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_tracer_spans_every_binding_and_restores_them(tmp_path):
    original = semalloc.solve_sip
    tracer = Tracer()
    tracer.install()
    try:
        assert semalloc.solve_sip is not original
        assert semalloc.baselines.evaluate_total is semalloc.solvers.evaluate_total
        tracer.op = "op-1"
        start = time.perf_counter()
        semalloc.cli.main.main(args=["compare", "--problem", str(semalloc.data_file("singapore_demo.json")),
                                     "--grid", "1,2", "--samples", "5", "--out", str(tmp_path / "c.csv")],
                               standalone_mode=False)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert semalloc.solve_sip is original and semalloc.solvers.evaluate_total is semalloc.evaluate_total
    names = [span.name for span in tracer.spans]
    assert names.count("cli.compare") == 1 and names.count("solvers.solve_sip") == 2
    assert {span.op for span in tracer.spans} == {"op-1"}
    metrics = layer_metrics(tracer, wall, 0)
    assert metrics["baselines.random_samples"] == 10
    assert metrics["recourse.eval_calls"] == 2 + 2 + 10  # sip, evf and random per factor
    assert 0.5 < metrics["trace.coverage"] <= 1.0  # click parses outside any span
    assert metrics["cli.self_s"] > 0 and metrics["solvers.sip_self_s"] > 0


def test_node_limit_counts_as_failed_and_scores_the_partial(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SEARCH_NODE_LIMIT", 50)
    document = workloads.search_problem(np.random.default_rng(3), 0)  # a hard problem
    path = tmp_path / "hard.json"
    size = workloads.write_json(path, document)
    op = workloads.Op("hard", path, tmp_path / "hard.out.json", size)
    workload = workloads.Workload("search", [op], warmup=[])
    passes = []
    for _ in range(3):
        p = run.run_pass(workload.ops)
        p.outputs, p.digests = workload.collect(p.errors)
        passes.append(p)
    assert all(isinstance(p.errors[0], semalloc.NodeLimitError) for p in passes)
    checks, failed, consistent = run.assess(workload, passes)
    assert (failed, consistent) == (3, True)
    assert not checks[0].ok and checks[0].excess is not None and checks[0].excess >= 0.0


def test_repro_op_fails_its_neighbour_check(tmp_path):
    workload = workloads.build("search", 1, tmp_path)
    repro = workload.ops[0]
    p = run.run_pass([repro])
    check = workload.check(repro, repro.output(p.errors[0]), p.errors[0])
    if check.ok:
        pytest.skip("the solver now agrees with evaluate_total on the repro")
    assert "neighbour" in check.detail and check.excess > 1.0


def test_highs_failure_fails_the_op_check_without_raising(tmp_path, monkeypatch):
    def fail(instance):
        raise oracle.OracleError("HiGHS failed on VSP 0: time limit reached")

    monkeypatch.setattr(oracle, "highs_total", fail)
    workload = workloads.build("search", 1, tmp_path)
    op = workload.ops[3]  # a moderate problem
    p = run.run_pass([op])
    check = workload.check(op, op.output(p.errors[0]), p.errors[0])
    assert not check.ok and "time limit" in check.detail and check.excess is not None


def test_corpus_reference_matches_library_on_demo(tmp_path):
    workload = workloads.build("corpus", 5, tmp_path)
    op = workload.ops[0]
    op.run()
    assert workload.check(op, op.output(None), None).ok


def test_tail_has_ten_ops_beyond_it():
    times = [float(t) for t in range(40)]
    assert run.tail(times) == 29.0
