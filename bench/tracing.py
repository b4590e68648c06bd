"""Per-layer tracing from outside the package.

The layers are the modules of ``semalloc``.  ``Tracer.install`` replaces each
module's public functions, and the click command callbacks, at every module
binding that holds them (``semalloc.solvers.evaluate_total`` and
``semalloc.baselines.evaluate_total`` are patched with the same wrapper), so
nothing under ``src/`` changes.  Calls in ``HOT`` run in inner loops and are
only counted; every other call records a span.  Spans stay in memory and are
written out by the caller when the run ends.

The tracer keeps one stack of open spans, so it assumes the package runs on
one thread, which it does while SEMALLOC_THREADS is unset.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from collections import Counter
from time import perf_counter
from typing import NamedTuple

import click

LAYERS = ("ingestion", "similarity", "solvers", "recourse", "baselines", "core_model", "cli", "_parallel")

# Counted, not spanned: each runs thousands of times inside one spanned call.
HOT = frozenset({
    "similarity.cosine_match", "similarity.average_similarity", "similarity.embed",
    "recourse.shortfall", "recourse.cheapest_device", "solvers.bundle_upper_bound",
    "core_model.transmission_time", "core_model.transmission_energy",
    "core_model.reservation_bundle_cost", "core_model.on_demand_unit_cost",
    "core_model.energy_ratio", "cli.plan_type",
})


def layer_of(module_name: str) -> str:
    """Metric prefix of a module: its last dotted part, leading underscores dropped."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the same span list; -1 for a root span
    op: str


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - child for span, child in zip(spans, covered)]


class Tracer:
    def __init__(self):
        self.op = ""
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget the spans and counts of the previous pass."""
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.lattice_log10 = 0.0
        self.embedded: set[tuple[str, str]] = set()
        self._open: list[int] = []
        self._names: list[str] = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            index = len(self._names)
            parent = self._open[-1] if self._open else -1
            self._names.append(name)
            self.spans.append(None)
            self._open.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter()
                self._open.pop()
                self.spans[index] = Span(name, start, end, parent, self.op)

        return wrapper

    def _counted(self, name: str, fn):
        if name == "solvers.bundle_upper_bound":
            @functools.wraps(fn)
            def bound(*args, **kwargs):
                self.counts[name] += 1
                value = fn(*args, **kwargs)
                if self._open and self._names[self._open[-1]].startswith("solvers.solve_sip"):
                    self.lattice_log10 += math.log10(value + 1)
                return value

            return bound
        if name == "similarity.embed":
            @functools.wraps(fn)
            def embed(provider, text):
                self.counts[name] += 1
                self.embedded.add((self.op, text))
                return fn(provider, text)

            return embed

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn):
        if name in HOT:
            return self._counted(name, fn)
        spanned = self._spanned(name, fn)
        if name != "parallel.parallel_map":
            return spanned

        @functools.wraps(fn)
        def mapped(task, items):
            work = list(items)
            self.counts["parallel.items"] += len(work)
            # the task is the caller's closure: span it under the caller's layer
            task_name = f"{layer_of(task.__module__)}.{task.__qualname__}"
            return spanned(self._spanned(task_name, task), work)

        return mapped

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of every layer at all of its bindings."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        commands = []
        for module_name in LAYERS:
            module = importlib.import_module(f"semalloc.{module_name}")
            layer = layer_of(module.__name__)
            for attr, value in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    wrappers[value] = self._wrap(f"{layer}.{attr}", value)
                elif isinstance(value, click.Command) and value.callback is not None:
                    commands.append((f"{layer}.{value.name}", value))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        for name, command in commands:
            self._patch(command, "callback", self._spanned(name, command.callback))

        # the provider the loader builds from an embeddings file
        files = importlib.import_module("semalloc.similarity").FileEmbeddings
        self._patch(files, "embed", self._counted("similarity.embed", files.embed))
        from_path = files.__dict__["from_path"].__func__
        self._patch(files, "from_path", classmethod(self._spanned("similarity.FileEmbeddings.from_path", from_path)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "semalloc" or name.startswith("semalloc."))]


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(tracer: Tracer, wall_s: float, input_bytes: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass (``trace.overhead_s`` is added by the caller)."""
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    layer_own: Counter = Counter()
    for span, self_s in zip(spans, selfs):
        total[span.name] += span.end - span.start
        own[span.name.split(".<locals>", 1)[0]] += self_s  # a function owns its closures
        layer_own[span.name.split(".", 1)[0]] += self_s
    roots = sum(span.end - span.start for span in spans if span.parent < 0)
    eval_calls = counts["recourse.evaluate_total"]
    embed_calls = counts["similarity.embed"]
    random_samples = sum(
        1 for index, span in enumerate(spans)
        if span.name == "recourse.evaluate_total" and _has_ancestor(spans, index, "baselines.solve_random")
    )
    return {
        "similarity.build_s": total["similarity.build_similarity_tensor"],
        "similarity.embed_calls": embed_calls,
        "similarity.embed_reuse": embed_calls / len(tracer.embedded) if tracer.embedded else 0.0,
        "similarity.cosine_calls": counts["similarity.cosine_match"],
        "solvers.sip_self_s": own["solvers.solve_sip"],
        "solvers.sip_calls": counts["solvers.solve_sip"],
        "solvers.dip_self_s": own["solvers.solve_dip"],
        "solvers.node_limit_hits": counts["solvers.solve_sip!NodeLimitError"]
        + counts["solvers.solve_dip!NodeLimitError"],
        "solvers.lattice_log10": tracer.lattice_log10,
        "recourse.eval_calls": eval_calls,
        "recourse.eval_s": total["recourse.evaluate_total"],
        "recourse.us_per_eval": 1e6 * total["recourse.evaluate_total"] / eval_calls if eval_calls else 0.0,
        "recourse.shortfall_calls": counts["recourse.shortfall"],
        "baselines.random_self_s": own["baselines.solve_random"],
        "baselines.random_samples": random_samples,
        "baselines.evf_self_s": own["baselines.solve_evf"],
        "ingestion.load_self_s": own["ingestion.load_problem"],
        "ingestion.load_calls": counts["ingestion.load_problem"],
        "ingestion.write_s": total["ingestion.dump_json"],
        "ingestion.input_bytes": input_bytes,
        "core_model.validate_s": total["core_model.validate_instance"],
        "core_model.rebuild_s": total["core_model.scale_on_demand_cost"] + total["core_model.with_probabilities"],
        "cli.self_s": layer_own["cli"],
        "parallel.map_calls": counts["parallel.parallel_map"],
        "parallel.items": counts["parallel.items"],
        "parallel.self_s": own["parallel.parallel_map"],
        "trace.coverage": roots / wall_s if wall_s > 0 else 0.0,
    }
