"""Every function, class and method in ``src/repro`` is used by code
besides its own definition.

A definition only tests call is code the program does not run: a test
that needs such a helper keeps it in ``tests/oracles``.  The scan walks
the syntax trees of ``src/``, ``benchmarks/``, ``perfbench/`` and
``examples/`` and counts a definition's name where code refers to it:
a name, an attribute, or a string constant that is exactly the name
(``getattr`` targets, ``perfbench/tracer.py``'s ``TARGETS`` rows).  An
import and an ``__all__`` entry do not count: a package that only
re-exports a definition does not call it.  Words in docstrings and
comments do not count either.  Dunder names are exempt; the runtime
calls them.
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


def _exports(tree: ast.AST) -> set:
    """The string constants inside ``tree``'s ``__all__`` assignments."""
    return {
        const
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AugAssign))
        and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
        )
        for const in ast.walk(node.value)
        if isinstance(const, ast.Constant)
    }


def _references(tree: ast.AST) -> Counter:
    """Names ``tree``'s code refers to (a definition, an import and an
    ``__all__`` entry name nothing)."""
    exports = _exports(tree)
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and node not in exports:
            refs[node.value] += 1
    return refs


def test_references_are_code_not_words():
    tree = ast.parse(
        'import a.b as c\n'
        'from q import r, s as t\n'
        '__all__ = ["u", "v"]\n'
        '__all__ += ["w"]\n'
        'def f():\n'
        '    """g h"""\n'
        '    # i\n'
        '    return j.k, getattr(m, "n"), "o p", t\n'
    )
    refs = _references(tree)
    assert set(refs) == {"__all__", "j", "k", "getattr", "m", "n", "t"}


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
