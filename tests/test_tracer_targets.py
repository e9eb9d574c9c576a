"""Every row of the benchmark tracer's ``TARGETS`` names live code.

``perfbench/tracer.py`` wraps each ``(module, class, attribute, layer)``
row by name when a traced benchmark run starts, and fails to install if
one no longer resolves.  Nothing else in the test suite runs
``perfbench/``, so a rename or deletion in ``src/`` would break the
traced run silently; this test reads the table (without installing it)
and resolves every row the way the tracer does.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_table_is_not_empty():
    assert len(TARGETS) >= 1


@pytest.mark.parametrize(
    "module_name, cls_name, attr",
    [(m, c, a) for m, c, a, _ in TARGETS],
    ids=[f"{m}:{c + '.' if c else ''}{a}" for m, c, a, _ in TARGETS],
)
def test_row_resolves(module_name, cls_name, attr):
    module = importlib.import_module(module_name)
    if cls_name is None:
        assert callable(getattr(module, attr, None)), \
            f"{module_name}.{attr} is gone"
        return
    owner = getattr(module, cls_name, None)
    assert owner is not None, f"{module_name}.{cls_name} is gone"
    # The tracer wraps the attribute the class itself defines.
    assert attr in owner.__dict__, f"{cls_name}.{attr} is not defined on it"
