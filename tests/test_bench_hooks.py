"""The benchmark's tracer must find every name it rebinds, and put each one back.

``bench/rwbench/hooks.py`` times layers by rebinding the program's public
names from outside.  This test loads that file as it is (without writing
bytecode next to it), installs the spans and the operator counters, restores
them, and checks that the program looks exactly as before.  A rename in
``src/`` that the traced benchmark run would trip over fails here first.
"""

import importlib.util
import multiprocessing
import pathlib
import sys

import pytest

from rankweight import cli, documents, fields, linalg, polys, ranksupport, verify, weights  # noqa: F401

HOOKS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "rwbench" / "hooks.py"


def _load_hooks():
    spec = importlib.util.spec_from_file_location("rankweight_bench_hooks", HOOKS)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _snapshot():
    modules = {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "rankweight" or name.startswith("rankweight.")
    }
    classes = {cls.__name__: dict(vars(cls)) for cls in (fields.FieldElement, linalg.Subspace)}
    return modules, classes, dict(verify._CHECKS)


def _changed(before: dict, after: dict):
    """The names whose value is not the very object it was."""
    return sorted(set(before) ^ set(after)) + [k for k, v in before.items() if k in after and after[k] is not v]


def test_tracer_installs_and_restores_every_patch():
    hooks = _load_hooks()
    modules, classes, checks = _snapshot()
    tracer = hooks.Tracer()
    try:
        tracer.install_spans()
        tracer.install_counters()
        installed = len(tracer.patches.undo)
        assert ranksupport.restriction is not modules["rankweight.ranksupport"]["restriction"]
        assert fields.FieldElement.__mul__ is not classes["FieldElement"]["__mul__"]
        assert verify._CHECKS != checks
    finally:
        tracer.restore()
    assert installed > 100
    after_modules, after_classes, after_checks = _snapshot()
    assert after_modules.keys() == modules.keys()
    for name, attrs in modules.items():
        assert _changed(attrs, after_modules[name]) == [], name
    for name, attrs in classes.items():
        assert _changed(attrs, after_classes[name]) == [], name
    assert _changed(checks, after_checks) == []


@pytest.mark.parametrize("workers", [1, 2])
def test_execute_runs_a_rebound_run_item_in_item_order(workers, monkeypatch):
    """The benchmark times each verify item by rebinding ``verify._run_item``,
    so ``_execute`` must look that name up at call time, in forked pool
    workers too, and give back what the rebound function returns, in order."""
    if workers > 1 and multiprocessing.get_context().get_start_method() != "fork":
        pytest.skip("a pool worker sees a rebinding made in this process only when forked")
    items = [("equivdef", i, 100 + i) for i in range(9)]
    monkeypatch.setattr(verify, "_run_item", lambda item: ("rebound", item[1], item[2]))
    assert verify._execute(items, workers) == [("rebound", i, 100 + i) for i in range(9)]
