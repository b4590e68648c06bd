"""The benchmark's tracer still installs on the package and restores it.

``bench/tracing.py`` wraps the package's functions by module and binding
name, so renaming or deleting a module it lists in ``LAYERS`` breaks every
``bench/run.py --trace 1`` run.  This test catches that in the package's own
suite, and short traced ``search``, ``sweep`` and ``corpus`` runs must exit
cleanly with every check passed.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import click
import pytest

import semalloc
from semalloc.similarity import FileEmbeddings

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bindings() -> dict:
    """Every attribute of every loaded semalloc module, and every command callback."""
    modules = {name: module for name, module in sys.modules.items() if name.split(".")[0] == "semalloc"}
    found = {(name, attr): value for name, module in modules.items() for attr, value in vars(module).items()}
    found.update(
        ((name, attr, "callback"), value.callback)
        for name, module in modules.items()
        for attr, value in vars(module).items()
        if isinstance(value, click.Command)
    )
    found.update((("FileEmbeddings", attr), value) for attr, value in vars(FileEmbeddings).items())
    return found


def test_tracer_installs_on_every_layer_and_restores_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    for layer in tracing.LAYERS:
        importlib.import_module(f"semalloc.{layer}")
    before = _bindings()
    original = semalloc.solve_sip
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patches)
        assert semalloc.solve_sip is not original
    finally:
        tracer.uninstall()
    for owner, attr, value in patched:
        assert inspect.getattr_static(owner, attr) is value, (owner, attr)
    after = _bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []


@pytest.mark.parametrize("workload", ["search", "sweep", "corpus"])
def test_a_traced_run_passes_every_check(workload):
    args = ["--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "1"]
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
