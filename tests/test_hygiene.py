"""Source hygiene: every name a module imports is used in that module, every
local a function assigns is read, and every parameter a function takes is
read.

Walks the syntax tree of each module in the package; ``__init__.py`` is
exempt from the import check because its imports are the public re-exports.
Also checks that every package name the benchmark's tracer wraps still
exists.
"""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bspsched"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str):
    """(line, name) of each imported name that its scope never uses: the
    module for a top-level import, the function, nested ones included, for
    an import inside a function."""
    found = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
            continue
        imported = {}
        stack = list(ast.iter_child_nodes(scope))
        while stack:  # the scope's own imports: nested functions are skipped
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = min(imported.get(name, node.lineno),
                                         node.lineno)
            stack.extend(ast.iter_child_nodes(node))
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        found += [(line, name) for name, line in imported.items()
                  if name not in used]
    return sorted(found)


def unused_locals(source: str):
    """(line, name) of each single-name assignment that its function never
    reads. Reads in nested functions count; names that the function or a
    nested one declares nonlocal or global are skipped."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = set()
        declared = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                declared.update(node.names)
        assigned = {}
        stack = list(func.body)
        while stack:  # the function's own scope: nested definitions are skipped
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    assigned.setdefault(target.id, node.lineno)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assigned.setdefault(node.target.id, node.lineno)
            stack.extend(ast.iter_child_nodes(node))
        found += [
            (line, name) for name, line in assigned.items()
            if name not in read and name not in declared
        ]
    return sorted(found)


def unused_params(source: str):
    """(line, function, name) of each parameter that its function's body never
    reads. Reads in nested functions count; lambdas, ``self``, ``cls`` and
    names starting with ``_`` are exempt."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {
            node.id for stmt in func.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            (a.lineno, func.name, a.arg) for a in params
            if a.arg not in read and a.arg not in ("self", "cls")
            and not a.arg.startswith("_")
        ]
    return sorted(found)


# (module, function, parameter) kept on purpose: bench/workloads.py passes
# greedy_chain's g positionally
UNUSED_PARAMS_ALLOWED = {("chains.py", "greedy_chain", "g")}


def test_modules_found():
    assert {p.stem for p in MODULES} >= {"dag", "schedule", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    assert unused_imports("from typing import Dict, List\nx: List = []\n") == [(1, "Dict")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    # a function's import counts as used only where that function reads it
    source = (
        "def f():\n"
        "    from os import sep, getcwd\n"
        "    def inner():\n"
        "        return getcwd()\n"
        "    return inner\n"
        "def g():\n"
        "    from os import sep\n"
        "    return sep\n"
    )
    assert unused_imports(source) == [(2, "sep")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text(encoding="utf-8")) == []


def test_detects_unused_local():
    source = (
        "def f(xs):\n"
        "    n = len(xs)\n"
        "    total: int = 0\n"
        "    seen = set()\n"
        "    count = 0\n"
        "    def inner():\n"
        "        nonlocal count\n"
        "        count = 1\n"
        "        return seen\n"
        "    a, b = xs\n"
        "    return inner\n"
    )
    assert unused_locals(source) == [(2, "n"), (3, "total")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_params(path):
    found = unused_params(path.read_text(encoding="utf-8"))
    assert [
        (line, func, name) for (line, func, name) in found
        if (path.name, func, name) not in UNUSED_PARAMS_ALLOWED
    ] == []


def test_detects_unused_param():
    source = (
        "class C:\n"
        "    def m(self, a, b, *rest, c, _d, **kw):\n"
        "        def inner(x):\n"
        "            return a + x\n"
        "        return inner, kw\n"
        "    @classmethod\n"
        "    def k(cls, e=len):\n"
        "        return (lambda v: 1)\n"
    )
    assert unused_params(source) == [
        (2, "m", "b"), (2, "m", "c"), (2, "m", "rest"), (7, "k", "e"),
    ]


def _bench_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = [w["name"] for w in json.loads(
    (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bench_tracing_finds_every_name_it_wraps(workload):
    # the traced bench run wraps package functions by name, so a rename or
    # deletion here must fail before it crashes that run
    from bspsched import cli, commsched, dag, ilp, oracle, variants

    modules = (cli, commsched, dag, ilp, oracle, variants)
    before = [dict(vars(m)) for m in modules]
    tracing = _bench_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, workload)
        tracing.install_generators(tracer)
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in modules] == before
