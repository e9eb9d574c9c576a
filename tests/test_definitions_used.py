"""Every function, class and method in ``src/repro`` is named somewhere
besides its own definition.

A definition only tests call is code the program does not run: a test
that needs such a helper keeps it in ``tests/oracles``.  The scan is an
AST walk over ``src/repro`` for definition names plus a count of whole
words in the text: a name must occur at least twice in ``src/``
(definition and one use, call or mention), or at least once in
``benchmarks/``, ``perfbench/`` or ``examples/``.  Dunder names are
exempt; the runtime calls them.
"""

from __future__ import annotations

import ast
import pathlib
import re
from collections import Counter
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
OTHER_USERS = ("benchmarks", "perfbench", "examples")


def _sources(directory: str) -> Dict[pathlib.Path, str]:
    return {
        path: path.read_text()
        for path in sorted((ROOT / directory).rglob("*.py"))
    }


def _definitions(sources: Dict[pathlib.Path, str]) -> Dict[str, List[str]]:
    found: Dict[str, List[str]] = {}
    for path, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            where = f"{path.relative_to(ROOT)}:{node.lineno}"
            found.setdefault(name, []).append(where)
    return found


def _words(sources: Dict[pathlib.Path, str]) -> Counter:
    return Counter(
        word for text in sources.values()
        for word in re.findall(r"\w+", text)
    )


def test_every_src_definition_is_named_outside_its_definition():
    src = _sources("src")
    in_src = _words(src)
    elsewhere = Counter()
    for directory in OTHER_USERS:
        elsewhere += _words(_sources(directory))
    unused = [
        f"{name} ({', '.join(where)})"
        for name, where in sorted(_definitions(src).items())
        if in_src[name] < 2 and not elsewhere[name]
    ]
    assert not unused, (
        "named only by its definition (delete it, or move it to "
        "tests/oracles if a test needs it): " + "; ".join(unused)
    )
