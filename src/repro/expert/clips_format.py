"""CLIPS s-expression rendering (paper Appendix A).

The paper shows Secpert's asserted facts in CLIPS syntax (A.1).  These
renderers produce the same shape from the live objects, so traces read
like the appendix::

    CLIPS> (assert (system_call_access
        (system_call_name SYS_execve)
        (resource_name "/bin/ls")
        ...))
"""

from __future__ import annotations

import re
from typing import Any

from repro.expert.template import Fact
from repro.taint.tags import Tag, TagSet


_SYMBOL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _render_value(value: Any) -> str:
    if isinstance(value, str):
        # CLIPS symbols (SYS_execve, FILE) print bare; anything else is a
        # string literal — matching the appendix's quoting.
        if _SYMBOL_RE.match(value):
            return value
        return f'"{value}"'
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if value is None:
        return "nil"
    if isinstance(value, TagSet):
        return " ".join(_render_value(tag) for tag in value) or "nil"
    if isinstance(value, Tag):
        if value.name is None:
            return value.source.value
        return f'{value.source.value} "{value.name}"'
    if isinstance(value, (tuple, list)):
        inner = " ".join(_render_value(v) for v in value)
        return inner or "nil"
    return str(value)


def render_fact(fact: Fact, indent: int = 4) -> str:
    """One fact as a CLIPS ``assert`` form (Appendix A.1 style)."""
    pad = " " * indent
    lines = [f"(assert ({fact.name}"]
    for slot, value in fact.items():
        lines.append(f"{pad}({slot} {_render_value(value)})")
    lines.append(")")
    lines.append(")")
    return "\n".join(lines)


def render_assert(fact: Fact) -> str:
    """With the interactive prompt, exactly as the appendix shows."""
    return "CLIPS> " + render_fact(fact)
