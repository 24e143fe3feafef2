"""A lint that needs nothing outside the standard library.

It mirrors the rule selection in ``pyproject.toml`` (``E9, F63, F7, F82``)
over every Python file under ``src/``, ``tests/`` and ``benchmarks/``:

* E9 / F7 — every file reads and compiles (syntax errors, ``return`` or
  ``break`` outside their block, a bare ``except`` that is not last);
* F63 — no ``is`` / ``is not`` against a literal, no ``assert`` or ``if``
  on a non-empty tuple, no ``print >>``;
* F82 — no name that resolves to the module's globals without being
  bound there or in builtins, and no ``__all__`` entry the module does
  not bind (both through :mod:`symtable`, the compiler's own scoping).

On top of that, the modules in ``UNUSED_IMPORT_MODULES`` must import
nothing they do not use.  A line may opt out of one finding with a
trailing ``# noqa``.
"""

from __future__ import annotations

import ast
import builtins
import symtable
from pathlib import Path
from typing import Iterator, List, Set

import pytest

ROOT = Path(__file__).resolve().parents[1]
LINTED_TREES = ("src", "tests", "benchmarks")

#: Module names the import system binds in every module's globals.
MODULE_DUNDERS = frozenset(
    {"__name__", "__file__", "__doc__", "__spec__", "__loader__", "__package__",
     "__builtins__", "__path__", "__cached__", "__annotations__", "__dict__"}
)
BUILTIN_NAMES = frozenset(dir(builtins)) | MODULE_DUNDERS

#: Modules held to "no unused imports" (paths relative to the repo root;
#: a directory covers every module in it).
UNUSED_IMPORT_MODULES = (
    "src/repro/core/stages",
    "src/repro/core/platform.py",
    "src/repro/search/plan.py",
    "src/repro/search/index.py",
    "src/repro/search/sharded.py",
    "src/repro/pipeline/subscriptions.py",
    "src/repro/pipeline/wal.py",
    "src/repro/pipeline/write_side.py",
    "src/repro/pipeline/state.py",
    "src/repro/pipeline/executors.py",
    "src/repro/pipeline/sharding.py",
    "src/repro/enrich/fingerprints.py",
    "src/repro/enrich/dsl.py",
    "src/repro/protocols/detect.py",
    "src/repro/protocols/base.py",
    "src/repro/net/probespace.py",
    "src/repro/scan/queue.py",
)


def python_files() -> List[Path]:
    files: List[Path] = []
    for tree in LINTED_TREES:
        files.extend(
            path for path in sorted((ROOT / tree).rglob("*.py"))
            if "__pycache__" not in path.parts
        )
    return files


def unused_import_files() -> List[Path]:
    files: List[Path] = []
    for entry in UNUSED_IMPORT_MODULES:
        path = ROOT / entry
        files.extend(sorted(path.glob("*.py")) if path.is_dir() else [path])
    return files


def _rel(path: Path) -> str:
    return str(path.relative_to(ROOT))


def _noqa_lines(source: str) -> Set[int]:
    return {n for n, line in enumerate(source.splitlines(), 1) if "# noqa" in line}


# -- F63: comparisons, asserts and branches that are always wrong ------------

def _is_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return node.value not in (None, True, False, Ellipsis) or type(node.value) in (int, float)
    return isinstance(node, (ast.JoinedStr, ast.Tuple, ast.List, ast.Dict, ast.Set))


def f63_findings(tree: ast.AST) -> Iterator[tuple]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if isinstance(op, (ast.Is, ast.IsNot)) and (
                    _is_literal(operands[i]) or _is_literal(operands[i + 1])
                ):
                    yield node.lineno, "F632 `is` comparison with a literal"
        elif isinstance(node, ast.Assert) and isinstance(node.test, ast.Tuple) and node.test.elts:
            yield node.lineno, "F631 assert on a non-empty tuple is always true"
        elif isinstance(node, ast.If) and isinstance(node.test, ast.Tuple) and node.test.elts:
            yield node.lineno, "F634 if on a non-empty tuple is always true"
        elif (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.RShift)
            and isinstance(node.left, ast.Name) and node.left.id == "print"
        ):
            yield node.lineno, "F633 `print >>` is Python 2 syntax"


# -- F82: names that resolve to nothing --------------------------------------

def _tables(table: symtable.SymbolTable) -> Iterator[symtable.SymbolTable]:
    yield table
    for child in table.get_children():
        yield from _tables(child)


def _bound_globals(top: symtable.SymbolTable) -> Set[str]:
    """Names bound in the module namespace, including through ``global``."""
    bound = {
        sym.get_name() for sym in top.get_symbols()
        if sym.is_assigned() or sym.is_imported() or sym.is_namespace()
    }
    for table in _tables(top):
        if table is top:
            continue
        for sym in table.get_symbols():
            if sym.is_declared_global() and (
                sym.is_assigned() or sym.is_imported() or sym.is_namespace()
            ):
                bound.add(sym.get_name())
    return bound


def _first_line(tree: ast.AST, name: str) -> int:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == name:
            return node.lineno
    return 0


def _all_entries(tree: ast.Module) -> Iterator[tuple]:
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets) and isinstance(
                node.value, (ast.List, ast.Tuple)
            ):
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        yield elt.lineno, elt.value


def f82_findings(source: str, filename: str, tree: ast.Module) -> Iterator[tuple]:
    if any(
        isinstance(node, ast.ImportFrom) and any(alias.name == "*" for alias in node.names)
        for node in ast.walk(tree)
    ):
        return  # a star import binds names no static pass can see
    top = symtable.symtable(source, filename, "exec")
    bound = _bound_globals(top) | BUILTIN_NAMES
    reported: Set[str] = set()
    for table in _tables(top):
        for sym in table.get_symbols():
            name = sym.get_name()
            if name in bound or name in reported or not sym.is_referenced():
                continue
            if table is top or sym.is_global():
                reported.add(name)
                yield _first_line(tree, name), f"F821 undefined name {name!r}"
    for lineno, name in _all_entries(tree):
        if name not in bound:
            yield lineno, f"F822 undefined name {name!r} in __all__"


# -- unused imports ------------------------------------------------------------

def _annotation_strings(tree: ast.AST) -> Iterator[str]:
    """Names inside quoted annotations (``-> "QueryPlan"``)."""
    annotations: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]:
                if arg is not None:
                    annotations.append(arg.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                for inner in ast.walk(parsed):
                    if isinstance(inner, ast.Name):
                        yield inner.id


def unused_imports(tree: ast.Module) -> Iterator[tuple]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_annotation_strings(tree))
    used.update(name for _lineno, name in _all_entries(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname is not None:
                    name = alias.asname
                else:
                    name = alias.name.split(".")[0]
                if name not in used:
                    yield node.lineno, f"F401 {alias.name!r} imported but unused"


# -- the tests -------------------------------------------------------------------

def _check(path: Path, findings) -> List[str]:
    source = path.read_text()
    skip = _noqa_lines(source)
    return [f"{_rel(path)}:{lineno}: {message}" for lineno, message in findings if lineno not in skip]


def test_every_python_file_compiles():
    errors = []
    for path in python_files():
        try:
            compile(path.read_bytes(), _rel(path), "exec", dont_inherit=True)
        except (SyntaxError, ValueError) as exc:
            errors.append(f"{_rel(path)}: E9 {exc}")
    assert not errors, "\n".join(errors)


def test_no_always_wrong_comparisons_asserts_or_branches():
    errors = []
    for path in python_files():
        errors += _check(path, f63_findings(ast.parse(path.read_text(), _rel(path))))
    assert not errors, "\n".join(errors)


def test_every_global_name_and_all_entry_resolves():
    errors = []
    for path in python_files():
        source = path.read_text()
        errors += _check(path, f82_findings(source, _rel(path), ast.parse(source, _rel(path))))
    assert not errors, "\n".join(errors)


def test_listed_modules_have_no_unused_imports():
    files = unused_import_files()
    assert all(path.is_file() for path in files), [p for p in files if not p.is_file()]
    errors = []
    for path in files:
        errors += _check(path, unused_imports(ast.parse(path.read_text(), _rel(path))))
    assert not errors, "\n".join(errors)


# -- the lint checks itself ------------------------------------------------------

BAD_MODULE = '''
import os
from typing import List

__all__ = ["present", "missing"]

def present(x):
    assert (x, "message")
    if (x, 1):
        pass
    if x is "literal":
        return undefined_helper(x)
    return x is not 3

def assign_later():
    global LATE
    LATE = 1
    return LATE
'''


def test_the_lint_catches_what_it_claims():
    tree = ast.parse(BAD_MODULE)
    f63 = sorted(message.split()[0] for _line, message in f63_findings(tree))
    assert f63 == ["F631", "F632", "F632", "F634"]
    f82 = sorted(message for _line, message in f82_findings(BAD_MODULE, "<bad>", tree))
    assert f82 == [
        "F821 undefined name 'undefined_helper'",
        "F822 undefined name 'missing' in __all__",
    ]
    assert sorted(message for _line, message in unused_imports(tree)) == [
        "F401 'List' imported but unused",
        "F401 'os' imported but unused",
    ]


@pytest.mark.parametrize("snippet", ["x = (", "def f():\n    return\nreturn 1\n", "break\n"])
def test_compile_errors_are_syntax_errors(snippet):
    with pytest.raises(SyntaxError):
        compile(snippet, "<snippet>", "exec", dont_inherit=True)
