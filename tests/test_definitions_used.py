"""Every function, class and method in ``src/repro`` is used by code
besides its own definition.

A definition only tests call is code the program does not run: a test
that needs such a helper keeps it in ``tests/oracles``.  The scan walks
the syntax trees of ``src/``, ``benchmarks/``, ``perfbench/`` and
``examples/`` and counts a definition's name where code refers to it:
a name, an attribute, an import, or a string constant that is exactly
the name (``getattr`` targets, ``perfbench/tracer.py``'s ``TARGETS``
rows).  Words in docstrings and comments do not count.  Dunder names
are exempt; the runtime calls them.
"""

from __future__ import annotations

import ast
import pathlib
from collections import Counter
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
USERS = ("src", "benchmarks", "perfbench", "examples")


def _trees(directory: str) -> Dict[pathlib.Path, ast.AST]:
    return {
        path: ast.parse(path.read_text())
        for path in sorted((ROOT / directory).rglob("*.py"))
    }


def _definitions(trees: Dict[pathlib.Path, ast.AST]) -> Dict[str, List[str]]:
    found: Dict[str, List[str]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            found.setdefault(name, []).append(where)
    return found


def _references(tree: ast.AST) -> Counter:
    """Names ``tree``'s code refers to (a definition names nothing)."""
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.alias):
            refs[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            refs[node.value] += 1
    return refs


def test_references_are_code_not_words():
    tree = ast.parse(
        'import a.b as c\n'
        'def f():\n'
        '    """g h"""\n'
        '    # i\n'
        '    return j.k, getattr(m, "n"), "o p"\n'
    )
    refs = _references(tree)
    assert set(refs) == {"b", "j", "k", "getattr", "m", "n"}


def test_every_src_definition_is_used_outside_its_definition():
    trees: Dict[pathlib.Path, ast.AST] = {}
    for directory in USERS:
        trees.update(_trees(directory))
    used: Counter = Counter()
    for tree in trees.values():
        used += _references(tree)
    src = {path: tree for path, tree in trees.items()
           if path.is_relative_to(ROOT / "src")}
    unused = [
        f"{name} ({', '.join(where)})"
        for name, where in sorted(_definitions(src).items())
        if not used[name]
    ]
    assert not unused, (
        "used by no code but its definition (delete it, or move it to "
        "tests/oracles if a test needs it): " + "; ".join(unused)
    )
