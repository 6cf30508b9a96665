"""Names the demos and the benchmark tracer bind still exist.

Static checks only (no demo runs): every ``conetorsion`` import in
``demos/*.py`` resolves, and every ``bench/tracer.py`` span names a function
whose signature has the arguments its counter reads.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRACER = ROOT / "bench" / "tracer.py"


def _conetorsion_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "conetorsion":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    names = list(_conetorsion_imports(demo))
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def _tracer_spans():
    """SPANS entries as ((module, function), counter name or None) and the
    argument names each counter reads as ``args["..."]``."""
    tree = ast.parse(TRACER.read_text())
    reads = {}
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            reads[fn.name] = {
                node.slice.value for node in ast.walk(fn)
                if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "args" and isinstance(node.slice, ast.Constant)}
    spans = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            spans = [(ast.literal_eval(k), v.elts[1]) for k, v in
                     zip(node.value.keys, node.value.values)]
    assert spans, "bench/tracer.py defines no SPANS table"
    out = []
    for key, counter in spans:
        name = counter.id if isinstance(counter, ast.Name) else None
        out.append((key, name, reads.get(name, set())))
    return out


@pytest.mark.parametrize("span", _tracer_spans(), ids=lambda s: ".".join(s[0]))
def test_tracer_span_resolves_and_binds(span):
    (module, name), counter, arguments = span
    fn = getattr(importlib.import_module(f"conetorsion.{module}"), name, None)
    assert callable(fn), f"conetorsion.{module}.{name}"
    params = inspect.signature(fn).parameters
    assert arguments <= set(params), (counter, arguments - set(params))
