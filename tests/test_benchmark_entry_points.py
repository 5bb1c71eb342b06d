"""The benchmark in perfbench/ reads resdp through module attributes.

Renaming or deleting one of those names, or a keyword argument the benchmark
passes, would only show when the benchmark runs; these tests make it fail the
test suite instead.
"""

import ast
import importlib
import inspect
import sys
from types import ModuleType
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


def _resdp_names(tree):
    """Names a perfbench file binds to resdp, its modules, or objects imported from them."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name == "resdp" for alias in node.names):
            names["resdp"] = importlib.import_module("resdp")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "resdp":
            for alias in node.names:
                try:
                    target = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    target = getattr(importlib.import_module(node.module), alias.name)
                names[alias.asname or alias.name] = target
    return names


def _resdp_calls(path):
    """(line, callee, call node) for every call whose callee perfbench takes from resdp."""
    tree = ast.parse(path.read_text())
    names = _resdp_names(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) \
                and isinstance(names.get(func.value.id), ModuleType):
            yield node.lineno, getattr(names[func.value.id], func.attr), node
        elif isinstance(func, ast.Name) and func.id in names \
                and not isinstance(names[func.id], ModuleType):
            yield node.lineno, names[func.id], node


def test_every_resdp_call_in_the_benchmark_binds():
    bound = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for line, callee, node in _resdp_calls(path):
            sig = inspect.signature(callee)
            keywords = {k.arg: None for k in node.keywords if k.arg is not None}
            unpacked = any(isinstance(a, ast.Starred) for a in node.args) \
                or len(keywords) < len(node.keywords)
            where = f"{path.name}:{line} {callee.__qualname__}"
            try:
                if unpacked:
                    sig.bind_partial(**keywords)
                else:
                    sig.bind(*[None] * len(node.args), **keywords)
            except TypeError as exc:
                pytest.fail(f"{where}: {exc}")
            bound.add(callee.__qualname__)
    # The calls whose keywords the benchmark relies on are among those checked.
    assert {"fiber_sample", "DownstairsHamiltonian", "dumps"} <= bound, bound


def test_tracer_hooks_read_a_shape_export_and_a_certify_grid_item(perfbench_modules, tmp_path):
    # The counter hooks read call arguments and results by position
    # (export's path is args[2]); run one tiny item of each workload under
    # the tracer so a moved argument fails here rather than in the benchmark.
    spans, workloads = perfbench_modules
    tracer = spans.Tracer()
    shape = workloads.ShapeExport(1, True, str(tmp_path))
    grid = workloads.CertifyGrid(1, True, str(tmp_path))
    tracer.install()
    try:
        shape_out = tracer.run_item(0, shape.run, shape.items[0])
        check, _, samples = grid.items[0]
        report = tracer.run_item(1, grid.run, grid.items[0])
    finally:
        tracer.uninstall()
    assert shape.check(shape.items[0], shape_out).ok
    assert grid.check(grid.items[0], report).ok
    counters = tracer.counters
    assert counters["shapes.export.bytes"] > 0
    assert counters[f"verification.{check}.used"] == report.samples > 0
    assert counters[f"verification.{check}.requested"] == samples
    assert tracer.layer_metrics()["verification.useful_frac"] > 0
