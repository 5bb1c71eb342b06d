"""The benchmark in perfbench/ reads resdp through module attributes.

Renaming or deleting one of those names would only show when the benchmark
runs; these tests make it fail the test suite instead.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    names = ("spans", "workloads")
    saved = {name: sys.modules.pop(name, None) for name in names}
    yield [importlib.import_module(name) for name in names]
    for name, module in saved.items():
        sys.modules.pop(name, None)
        if module is not None:
            sys.modules[name] = module


def test_tracer_resolves_every_traced_function(perfbench_modules):
    spans, _ = perfbench_modules
    spans.Tracer()  # getattr on every traced name; raises if one is gone


def test_every_resdp_attribute_read_by_the_benchmark_exists(perfbench_modules):
    for module in perfbench_modules:
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
                continue
            target = getattr(module, node.value.id, None)
            if getattr(target, "__name__", "").startswith("resdp."):
                name = f"{module.__name__}: {node.value.id}.{node.attr}"
                assert hasattr(target, node.attr), name
