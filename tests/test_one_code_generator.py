"""Only the block JIT turns source text into code in ``src/repro``.

The block JIT's emitter (``repro/isa/blockjit.py``) is the one code
generator: it compiles per-op functions, fused blocks and loop traces.
Everything else — the rule matcher included — runs as written, so no
other module calls the builtins ``compile``, ``exec`` or ``eval``.
(``re.compile`` is an attribute call and is not one of them.)
"""

from __future__ import annotations

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWED = {SRC / "isa" / "blockjit.py"}
BUILTINS = {"compile", "exec", "eval"}


def _code_builtin_calls(path: pathlib.Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in BUILTINS
        ):
            yield node


def test_no_compile_exec_or_eval_outside_the_block_jit():
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py")) if path not in ALLOWED
        for node in _code_builtin_calls(path)
    ]
    assert found == []


def test_the_block_jit_still_compiles():
    # Guards the scan itself: it must see the call it exempts.
    calls = {node.func.id
             for node in _code_builtin_calls(SRC / "isa" / "blockjit.py")}
    assert "compile" in calls
