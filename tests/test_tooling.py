"""Checks on the source tree itself."""

import argparse
import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import varpois
from varpois import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "varpois"


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_the_package():
    """Invariants raise named exceptions (field.InvariantViolation): python
    -O strips assert, and a bare AssertionError names nothing."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or (isinstance(node, ast.Raise) and node.exc is not None
                      and _raises_assertion_error(node))]
    assert sorted(SRC.glob("*.py")), f"no sources under {SRC}"
    assert found == []


def _raised_names(node) -> set:
    """Names a raise statement can raise: `raise E`, `raise E(...)`, and
    `raise (A if cond else B)(...)`."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return {n.id for n in ast.walk(exc) if isinstance(n, ast.Name)}


def test_every_exported_exception_is_raised():
    """Every exception class that varpois exports is raised somewhere in
    the package, so catching the exported class catches a real error."""
    exported = {name for name in dir(varpois)
                if isinstance(getattr(varpois, name), type)
                and issubclass(getattr(varpois, name), BaseException)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= _raised_names(node)
    assert exported, "varpois exports no exception class"
    assert sorted(exported - raised) == []


@pytest.mark.parametrize("workload, trace", [
    pytest.param(w, t, id=w if t == "0" else f"{w}-traced")
    for t in ("0", "1") for w in ("lenard", "jacobi-cohomology", "difflinalg")])
def test_benchmark_smoke_verdicts(workload, trace):
    """One smoke round of each benchmark workload: every verdict checks.
    The traced run also fails when a function the benchmark traces is
    gone (TraceTargetMissing)."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--size", "smoke", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout


def _defined_functions(tree) -> list:
    """(qualname, node, method) for every function and method of a module,
    method true for a function defined in a class body."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child,
                            isinstance(node, ast.ClassDef)))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
    visit(tree, "")
    return out


def _named(node) -> list:
    """Every identifier that a Name or an Attribute under node names."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]


def _attribute_named(node) -> list:
    """Every identifier that an Attribute under node names, or a string
    that getattr reads."""
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)] \
        + [n.args[1].value for n in ast.walk(node)
           if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
           and n.func.id == "getattr" and len(n.args) > 1
           and isinstance(n.args[1], ast.Constant)
           and isinstance(n.args[1].value, str)]


def test_library_code_has_a_library_caller():
    """Every function and method of the package is exported from varpois,
    or named (called, passed or traced by the benchmark) somewhere in src/
    or bench/ outside its own definition: no library code serves only the
    tests.  A method counts as named only by an attribute (`.name`) or a
    getattr string, so a variable of the same name does not hide it.
    Dunder methods are called by the language and are exempt."""
    sources = sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sources}
    uses: dict = {}
    attribute_uses: dict = {}
    for tree in trees.values():
        for name in _named(tree):
            uses[name] = uses.get(name, 0) + 1
        for name in _attribute_named(tree):
            attribute_uses[name] = attribute_uses.get(name, 0) + 1
    layers = (ROOT / "bench" / "layers.py").read_text()
    for target in re.findall(r':([\w.]+)"', layers):
        name = target.split(".")[-1]
        uses[name] = uses.get(name, 0) + 1
        attribute_uses[name] = attribute_uses.get(name, 0) + 1
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, node, method in _defined_functions(trees[path]):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if "." not in qualname and hasattr(varpois, name):
                continue
            named = _attribute_named if method else _named
            own = sum(1 for n in named(node) if n == name)
            if (attribute_uses if method else uses).get(name, 0) == own:
                unused.append(f"{path.name}:{qualname}")
    assert unused == []


def _imported_names(tree) -> dict:
    """{name: line} for every name an import statement binds (`import a.b`
    binds a); `from __future__` imports bind none."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def test_no_unused_imports():
    """Every name imported by a module of the package (but __init__.py,
    whose imports are the public API) or of the tests is used: a Name node
    names it, which includes the root of an attribute chain."""
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items()
                   if name not in used]
    assert len(paths) > 10, f"no sources under {SRC}"
    assert unused == []


RUNTIME_PROBE = """
import sys
import varpois
import varpois.cli
from varpois import (CoefficientField, DiffAlgebra, MatDiffOp, ScalarDiffOp,
                     parse_session, rational_antiderivative, row_echelon)
from varpois.field import _primitive_parts

session = sys.argv[1]
report, code = varpois.cli.run(["--session", session, "lenard", "--H", "H",
                                "--K", "K", "--seed", "u^2/2",
                                "--steps", "2"])
assert code == 0, report.body()
alg = DiffAlgebra(1)
x = alg.field.x
M = MatDiffOp(alg, [[ScalarDiffOp(alg, {0: alg.from_scalar(1 / (x + 1)),
                                        1: alg.one}),
                     ScalarDiffOp(alg, {0: alg.from_scalar(x / (x - 2))})],
                    [ScalarDiffOp(alg, {1: alg.from_scalar(x)}),
                     ScalarDiffOp(alg, {0: alg.from_scalar(1 / x)})]])
row_echelon(M)
jets = parse_session("vars 2\\nparams c\\n")
u, v = (jets.evaluate(s) for s in ("(u1 + c*x)*(u2' + x)",
                                   "(u1 + c*x)*u1'"))
factor, _ = _primitive_parts(u.terms, [u.terms, v.terms])
assert factor is not None
F = CoefficientField(["c"])
c = F.param("c")
assert rational_antiderivative(((F.x + c) / (F.x ** 2 + c)).derive()) \\
    is not None
print(sorted(m for m in sys.modules if m.split(".")[0] == "sympy"))
"""


def test_runtime_never_imports_sympy(tmp_path):
    """Import varpois and its CLI, run a lenard session with a parameter, a
    row echelon form with fraction entries, a primitive part with jets and
    a rational antiderivative over Q(c): no sympy module is loaded, so no
    lazy import moves sympy's start-up cost into a job."""
    session = tmp_path / "kdv.vp"
    session.write_text("vars 1\nparams c\nH = u' + 2*u*d + c*d^3\nK = d\n")
    proc = subprocess.run([sys.executable, "-c", RUNTIME_PROBE, str(session)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120, env={**os.environ,
                                            "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_cli_option_is_read():
    """Every option and positional of the CLI parser, its subcommands'
    included, is read as args.<dest> in cli.py: no option is accepted and
    then ignored."""
    def dests(parser):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                yield action.dest
                for sub in action.choices.values():
                    yield from dests(sub)
            elif not isinstance(action, argparse._HelpAction):
                yield action.dest

    tree = ast.parse((SRC / "cli.py").read_text())
    read = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id == "args"}
    options = set(dests(cli._PARSER))
    assert "session" in options
    assert sorted(options - read) == []


# the positional count of a call that spreads *args or **kwargs
INFINITE_ARGS = 1 << 30


def _is_private(qualname: str) -> bool:
    """A function or method whose name, or an enclosing class's, starts
    with one underscore."""
    return any(part.startswith("_") and not part.endswith("__")
               for part in qualname.split("."))


def test_every_optional_parameter_of_private_code_is_passed():
    """Every parameter with a default of a private function or method (see
    _is_private; dunder methods are exempt) is passed by some call in src/
    or bench/, by position or by keyword: a default that no caller
    overrides is a setting nobody reaches."""
    sources = sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sources]
    calls: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name is None:
                continue
            spread = any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                (INFINITE_ARGS if spread else len(node.args),
                 {k.arg for k in node.keywords}))
    unpassed = []
    for path, tree in zip(sources, trees):
        if path.parent != SRC:
            continue
        for qualname, node, method in _defined_functions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or \
                    not _is_private(qualname):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            bound = method and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in node.decorator_list)
            offset = 1 if bound else 0
            optional = [(i - offset, a.arg) for i, a in enumerate(positional)
                        if i >= len(positional) - len(args.defaults)]
            optional += [(None, a.arg) for a, d in
                         zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None]
            for index, arg in optional:
                if not any((index is not None and count > index)
                           or arg in keywords
                           for count, keywords in calls.get(name, [])):
                    unpassed.append(f"{path.name}:{qualname}({arg})")
    assert unpassed == []

