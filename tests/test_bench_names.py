"""The library names the benchmark reaches into still exist.

``bench/spans.py`` patches the functions in ``FUNCTIONS`` and the methods
in ``METHODS`` with span wrappers, and the workloads call the package as
``sj.<name>``.  A rename or move in ``src/`` breaks the traced benchmark
run (``Tracer.install``) or a workload, and without these checks only
``python -m pytest bench`` would notice.  ``spans.py`` imports only the
standard library, so it is loaded by path and not edited.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import spinjoint
import spinjoint.cli  # noqa: F401  (the workloads call sj.cli.main)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    missing = []
    for name in _spans().FUNCTIONS:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"spinjoint.{module}"), attr, None)):
            missing.append(name)
    assert missing == []


def test_traced_methods_are_defined_on_their_classes():
    missing = []
    for name, (module, cls, method) in _spans().METHODS.items():
        owner = getattr(importlib.import_module(f"spinjoint.{module}"), cls)
        if method not in vars(owner):
            missing.append(name)
    assert missing == []


def test_workload_package_names_exist():
    used = {
        (path.name, node.attr)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "sj"
    }
    assert len(used) > 20  # the rule has something to check
    assert sorted((path, name) for path, name in used if not hasattr(spinjoint, name)) == []
