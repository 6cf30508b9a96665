"""Names the demos and the benchmark bind still exist, the package exports
nothing that only tests use, and importing it loads no scipy it does not run.

Static checks only (no demo runs, no solves), apart from one import in a
fresh interpreter: every ``conetorsion`` import
in ``demos/*.py`` resolves, every call of an imported name in the demos and
every ``ct.<name>(...)`` call in ``bench/workloads.py`` binds to the
signature it calls, every ``bench/tracer.py`` span names a function whose
signature has the arguments its counter reads, every sweep column
``bench/workloads.py`` reports is one that ``SweepRow.column`` answers,
every name ``conetorsion/__init__.py`` imports is read somewhere in the
library, the demos or the benchmark (tests aside), and so is every parameter
with a default passed by some call there, only ``mesher.py`` numbers
mesh edges (the rest reads ``TaggedMesh.edge_table``), ``cli.py`` builds no
mesh and runs no solve, eigensolve or quantity, every config key the
loader accepts is documented in ``README.md``, the README example
config loads, and ``import conetorsion`` leaves the scipy packages below
unloaded.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from conetorsion.cli import _KNOWN_KEYS, load_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRACER = ROOT / "bench" / "tracer.py"
WORKLOADS = ROOT / "bench" / "workloads.py"
README = ROOT / "README.md"
INIT = ROOT / "src" / "conetorsion" / "__init__.py"
CLI = ROOT / "src" / "conetorsion" / "cli.py"


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


def _library_calls():
    """(where, function, positional count, keyword names) of each
    ``ct.<name>(...)`` call in bench/workloads.py and each demo call of a
    name imported from ``conetorsion``."""
    ct = importlib.import_module("conetorsion")
    calls = []
    for path in [WORKLOADS, *DEMOS]:
        imported = {name: module for module, name in _conetorsion_imports(path)}
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "ct":
                name, fn = f.attr, getattr(ct, f.attr, None)
            elif isinstance(f, ast.Name) and f.id in imported:
                module = importlib.import_module(imported[f.id])
                name, fn = f.id, getattr(module, f.id, None)
            else:
                continue
            keywords = [k.arg for k in node.keywords]
            assert None not in keywords and not any(
                isinstance(a, ast.Starred) for a in node.args), "unpacked call"
            calls.append((f"{path.name}:{node.lineno}:{name}", fn,
                          len(node.args), keywords))
    return calls


@pytest.mark.parametrize("call", _library_calls(), ids=lambda c: c[0])
def test_library_call_binds(call):
    where, fn, n_positional, keywords = call
    assert callable(fn), where
    inspect.signature(fn).bind(*[None] * n_positional,
                               **dict.fromkeys(keywords))


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


def _row_columns():
    """The ``_ROW_COLUMNS`` tuple of bench/workloads.py."""
    tree = ast.parse(WORKLOADS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_ROW_COLUMNS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/workloads.py defines no _ROW_COLUMNS")


@pytest.mark.parametrize("name", _row_columns())
def test_bench_row_column_resolves(name):
    from conetorsion.quantities import DeficitReport
    from conetorsion.stability import SweepRow
    values = {f.name: 0.0 for f in fields(DeficitReport) if f.name != "extras"}
    report = DeficitReport(**{**values, "z": np.zeros(2)})
    assert isinstance(SweepRow(0.0, report).column(name), float)


def test_every_export_has_a_caller_outside_tests():
    """A name the package exports is read (a name or an attribute, not its
    ``def``/``class`` or an import) in src/, demos/ or bench/, test files aside."""
    callers = [p for p in (ROOT / "src" / "conetorsion").glob("*.py") if p != INIT]
    callers += DEMOS + [p for p in (ROOT / "bench").glob("*.py")
                        if not p.name.startswith("test_")]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for path in callers for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}
    exported = [alias.asname or alias.name for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [name for name in exported if name not in read] == []


def _references(tree):
    """Names read in ``tree``: each ``Name``, each ``Attribute`` and each
    string constant, with multiplicity."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_function_has_a_caller_outside_tests():
    """Every function and method defined in ``src/conetorsion``, nested ones
    too, is referenced (called, read as an attribute or named in a string,
    as the tracer's ``SPANS`` do) somewhere in src/, demos/ or bench/ (test
    files aside) outside its own body.  Dunder methods are called by Python
    itself and are exempt.  A helper left behind by a change fails here."""
    library = sorted((ROOT / "src" / "conetorsion").glob("*.py"))
    callers = library + DEMOS + [p for p in (ROOT / "bench").glob("*.py")
                                 if not p.name.startswith("test_")]
    count = {}
    for path in callers:
        for name in _references(ast.parse(path.read_text())):
            count[name] = count.get(name, 0) + 1
    orphans = []
    for path in library:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("__"):
                continue
            own = sum(name == fn.name for name in _references(fn))
            if count.get(fn.name, 0) == own:
                orphans.append(f"{path.name}:{fn.lineno}:{fn.name}")
    assert orphans == []


def _defaulted_parameters(path):
    """(called name, parameter, position or None) of each parameter with a
    default in the module-level functions and class methods of ``path``.
    A class is called by its own name for its ``__init__``; a method's
    positions skip ``self``; a keyword-only parameter has no position."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            members = [(node.name, node, False)]
        elif isinstance(node, ast.ClassDef):
            members = [(node.name if fn.name == "__init__" else fn.name, fn,
                        not any(getattr(d, "id", None) == "staticmethod"
                                for d in fn.decorator_list))
                       for fn in node.body if isinstance(fn, ast.FunctionDef)]
        else:
            continue
        for name, fn, method in members:
            positional = (fn.args.posonlyargs + fn.args.args)[int(method):]
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield name, arg.arg, i
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield name, arg.arg, None


def test_every_default_has_a_caller():
    """Every parameter with a default, in every function and method of
    ``src/conetorsion``, is passed by keyword or by position by some call in
    src/, demos/ or bench/ (test files aside); a call is matched by the name
    it calls, and only its positions before any ``*args`` count.
    ``cli.main(argv)`` is exempt: the console entry point, it reads
    ``sys.argv`` when ``argv`` is None."""
    library = sorted((ROOT / "src" / "conetorsion").glob("*.py"))
    callers = library + DEMOS + [p for p in (ROOT / "bench").glob("*.py")
                                 if not p.name.startswith("test_")]
    passed = {}             # called name -> {(positions passed, keywords)}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                n_positional = next((i for i, a in enumerate(node.args)
                                     if isinstance(a, ast.Starred)), len(node.args))
                passed.setdefault(name, set()).add(
                    (n_positional, frozenset(k.arg for k in node.keywords)))
    unset = [f"{path.name}:{name}({param})" for path in library
             for name, param, position in _defaulted_parameters(path)
             if not any(param in keywords
                        or (position is not None and position < n_positional)
                        for n_positional, keywords in passed.get(name, ()))]
    assert [u for u in unset if u != "cli.py:main(argv)"] == []


def test_only_the_mesher_numbers_edges():
    """No library module but mesher.py reads ``edge_key`` or
    ``triangle_edges`` (as a name, an attribute or an import)."""
    numbering = {"edge_key", "triangle_edges"}
    for path in (ROOT / "src" / "conetorsion").glob("*.py"):
        if path.name == "mesher.py":
            continue
        read = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                read.update(alias.name for alias in node.names)
        assert not read & numbering, f"{path.name} reads {sorted(read & numbering)}"


def test_only_the_mesher_stores_into_the_mesh_cache():
    """No library module but mesher.py assigns to or deletes
    ``<expr>._cache[...]``: each per-mesh result has one owner."""
    for path in (ROOT / "src" / "conetorsion").glob("*.py"):
        if path.name == "mesher.py":
            continue
        stores = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, (ast.Store, ast.Del))
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "_cache"]
        assert stores == [], f"{path.name} stores into _cache at lines {stores}"


def test_the_cli_only_formats():
    """cli.py imports none of the mesh and boundary builders and calls no
    solve, assembly, eigensolve or ``quantities`` function; ``stability``
    runs them.  ``write_mesh`` and ``fem.write_solution`` (output) stay."""
    from conetorsion import quantities
    tree = ast.parse(CLI.read_text())
    modules, names = {}, {}      # local name -> conetorsion module it binds
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    builders = {"refine", "triangulate", "boundary_partition", "normal_span"}
    assert not builders & {name for _, name in names.values()}
    called = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in modules:
            called.add((modules[f.value.id], f.attr))
        elif isinstance(f, ast.Name) and f.id in names:
            called.add(names[f.id])
    banned = {("fem", "solve"), ("fem", "assemble"),
              ("poincare", "mu_estimate"), ("poincare", "eta_estimate")}
    banned |= {("quantities", name) for name, value in vars(quantities).items()
               if inspect.isfunction(value)}
    assert sorted(called & banned) == []


@pytest.mark.parametrize("section,key", sorted(
    (section, key) for section, keys in _KNOWN_KEYS.items() for key in keys))
def test_readme_documents_config_key(section, key):
    assert re.search(rf"(?<!\w){key} =", README.read_text()), f"[{section}] {key}"


def test_readme_example_config_loads(tmp_path):
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block.group(1))
    cfg = load_config(str(path))
    assert cfg.spec.beta == pytest.approx(2 * np.pi)
    assert cfg.alphas == (0.0, 0.5, 1.0) and cfg.kinds == ("mu", "eta")


# scipy packages no workload runs; the ``table`` radius imports interpolate
UNLOADED_SCIPY = ("scipy.interpolate", "scipy.optimize", "scipy.special",
                  "scipy.spatial", "scipy.integrate", "scipy.fft")


def test_import_leaves_unused_scipy_unloaded():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, conetorsion; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        check=True).stdout.split()
    assert "scipy.sparse.linalg" in out
    assert [m for m in out if ".".join(m.split(".")[:2]) in UNLOADED_SCIPY] == []
