"""Nothing in ``src/repro`` keys on ``id()``.

An ``id()`` names an object only while it lives, so a key built from
one needs a strong reference to keep the id from being reused, and it
silently stops meaning "this content" once the object can change.  An
image is immutable and hashes by identity, so caches key on the image
itself.  The one ``id()`` key left is the tag-set interner's union memo
(``repro/taint/tags.py``), whose entries hold both operands and are
checked with ``is`` before a hit is trusted.
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWED = {SRC / "taint" / "tags.py"}


def test_no_id_calls_outside_the_interner():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path in ALLOWED:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def test_the_interner_still_has_its_id_key():
    # Guards the scan itself: it must see the call it exempts.
    tree = ast.parse((SRC / "taint" / "tags.py").read_text())
    assert any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
        for node in ast.walk(tree)
    )
