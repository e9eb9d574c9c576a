"""Parse once: a sweep variant goes from its parent's parsed statements
to its image with no text parse in between.

The variant carries the statements of its rendered text, stamped with
that text's line numbers, and is assembled from them.  The image must
equal, digest for digest, the image assembled from the text (the
golden variant keys in ``tests/cache`` pin the keys themselves).  The
parse of each parent is memoized per process and shared by every
variant, so no variant may change it.
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

from repro.advers import plan_sweep
from repro.cache.digest import image_digest
from repro.isa.assembler import (
    SourceStmt,
    assemble,
    parse_source,
    render_statements,
)
from repro.programs.mutate import MUTATION_CLASSES, variants

#: The sweep round the golden variant keys come from.
ROUND_SEED = 7

#: Two parents and three seeds for the memo isolation check.
MEMO_PARENTS = ("grabem", "loop forker")
MEMO_SEEDS = (0, 1, 2)


def _round():
    return [planned.ref.resolve() for planned in plan_sweep(
        per_class=1, seed=ROUND_SEED
    )]


def test_statement_and_text_images_have_equal_digests():
    round_ = _round()
    assert {w.recipe.klass for w in round_} == set(MUTATION_CLASSES)
    for variant in round_:
        path, stmts = variant.program_path, variant.statements
        from_stmts = image_digest(assemble(path, stmts))
        text, _ = render_statements(stmts)
        from_render = image_digest(assemble(path, text))
        from_text = image_digest(assemble(path, variant.source))
        assert from_stmts == from_render == from_text, variant.name


def test_variant_statements_are_the_parse_of_its_source():
    for variant in _round():
        assert list(variant.statements) == parse_source(variant.source), \
            variant.name


def _generate(order):
    """Rendered source of every (parent, class, seed) in ``order``."""
    return {
        f"{parent}|{klass}|{seed}": variants(parent, klass, seed)[0].source
        for parent, klass, seed in order
    }


_GRID = [
    (parent, klass, seed)
    for parent in MEMO_PARENTS
    for klass in MUTATION_CLASSES
    for seed in MEMO_SEEDS
]

_FRESH_PROCESS = f"""
import json
from tests.advers.test_parse_once import _GRID, _generate
print(json.dumps(_generate(_GRID), sort_keys=True))
"""


def test_memoized_parses_are_isolated_between_variants():
    # Forward, then every seed/class/parent order reversed: each variant
    # sees the parent parse as the first one did.
    forward = _generate(_GRID)
    backward = _generate(list(reversed(_GRID)))
    assert forward == backward
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    fresh = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS],
        capture_output=True, text=True, check=True, cwd=root, env=env,
    )
    assert json.loads(fresh.stdout) == forward


def test_source_statements_reject_assignment():
    stmt = parse_source("main: mov eax, 1\n")[0]
    assert isinstance(stmt, SourceStmt)
    assert stmt.labels == ("main",) and stmt.operands == ("eax", "1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        stmt.operands = ("eax", "2")
    with pytest.raises(dataclasses.FrozenInstanceError):
        stmt.labels = ()
