"""Seed-deterministic, semantics-preserving mutation of guest sources.

The adversarial sweep (``repro sweep``, :mod:`repro.advers`) treats
Trojan detection as a hide-and-seek game: every Table 4-8 Trojan is a
*parent* from which thousands of variants are derived, each rewritten
just enough to look different to a syntactic scanner while provably
doing the same thing.  A detector worth its name must classify every
variant exactly like its parent — any variant that lands on a weaker
verdict is an *evasion* and gets filed in
:mod:`repro.programs.adversarial`.

Mutation classes (:data:`MUTATION_CLASSES`):

``rename-labels``
    Alpha-rename every label defined by the source (``main`` excepted);
    references in instruction operands and ``.word`` tables follow.
``rename-paths``
    Reinstall the program under a different path (its image name — the
    name its hardcoded strings are taint-tagged with), sometimes
    masquerading as a trusted or standard binary.
``substitute``
    Equivalent-instruction substitution: ``mov r, x`` becomes
    ``push x`` / ``pop r`` (same value, same taint, no flags), and
    ``add r, n`` flips to ``sub r, -n`` (same result, same flags).
``deadcode``
    Insert never-executed instructions: bare ``nop``\\ s and
    jumped-over dead blocks (``jmp L; <junk>; L: nop``).
``reorder``
    Permute independent top-level blocks — chunks that start at a label,
    are never fallen into, and end in an unconditional transfer — plus
    labelled data groups (relocation makes data order immaterial).
``split-merge``
    Split basic blocks with explicit ``jmp``-to-next bridges and merge
    blocks by deleting unreferenced labels.
``syscall-order``
    Swap adjacent independent ``mov`` pairs (classically: the order in
    which syscall argument registers are loaded).

Every mutation here is chosen to be *verdict-preserving by
construction* on the mini-ISA: none touches flags between a compare and
its branch (only ALU ops and ``cmp`` set flags), none changes the data
values or taint tags a run produces, and none changes the number of
times any original instruction executes.  Determinism contract:
``(parent name, class, seed)`` fully determines the variant — the RNG
is seeded with that string triple (hash-independent across processes
and ``PYTHONHASHSEED``), and no mutation iterates an unordered set.

Parse once: a parent's source is parsed once per process (a bounded
memo keyed by the source text) into frozen statements that every
variant shares; a mutation builds new statements, never edits them.
The variant carries its rendered text as ``source`` and that text's
statements, stamped with their rendered line numbers, as
``statements``, which is what its image assembles from.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

from repro.isa.assembler import (
    SourceStmt,
    is_symbol_token,
    parse_source,
    render_statements,
)
from repro.isa.registers import is_register
from repro.programs.base import Workload

#: The variant classes, in matrix order.
MUTATION_CLASSES: Tuple[str, ...] = (
    "rename-labels",
    "rename-paths",
    "substitute",
    "deadcode",
    "reorder",
    "split-merge",
    "syscall-order",
)

#: Mnemonics after which execution never falls through.
_UNCONDITIONAL = frozenset({"jmp", "ret", "hlt"})

#: Masquerade targets for ``rename-paths``: the trusted shared objects
#: and a few of the standard binaries HTH pre-registers stubs for.  The
#: trusted names are the interesting probes — a detector that extends
#: name-based trust to the monitored program itself goes blind here
#: (the evasion that produced ``PolicyConfig.distrusting``).
_MASQUERADE_PATHS: Tuple[str, ...] = (
    "/lib/libc.so",
    "/bin/sh",
    "/bin/ls",
    "/usr/sbin/sendmail",
)

_INSTALL_DIRS: Tuple[str, ...] = (
    "/bin", "/tmp", "/usr/local/bin", "/home/user", "/var/spool"
)

_ALPHA = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class MutationRecipe:
    """How a variant was derived: replayable coordinates + the op log."""

    parent: str
    klass: str
    seed: int
    ops: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        return {
            "parent": self.parent,
            "klass": self.klass,
            "seed": self.seed,
            "ops": list(self.ops),
        }


def variant_name(parent_name: str, klass: str, seed: int) -> str:
    """The deterministic name of one variant (computable without
    mutating — sweep planning builds refs from names alone)."""
    return f"{parent_name}~{klass}#{seed}"


# -- small helpers -----------------------------------------------------------

def _split_sections(
    stmts: Sequence[SourceStmt],
) -> Tuple[List[SourceStmt], List[SourceStmt]]:
    text = [s for s in stmts if s.section == ".text"]
    data = [s for s in stmts if s.section == ".data"]
    return text, data


def _defined_labels(stmts: Sequence[SourceStmt]) -> List[str]:
    """All labels defined by the source, in definition order."""
    out: List[str] = []
    for stmt in stmts:
        for label in stmt.labels:
            if label not in out:
                out.append(label)
    return out


def _referenced_symbols(stmts: Sequence[SourceStmt]) -> List[str]:
    """Every symbol spelled in an operand, in reference order."""
    out: List[str] = []
    for stmt in stmts:
        if stmt.mnemonic in (".asciz", ".ascii", ".space"):
            continue
        for op in stmt.operands:
            tok = op.strip()
            if is_symbol_token(tok) and tok not in out:
                out.append(tok)
    return out


def _fresh_label(rng: random.Random, taken: set) -> str:
    while True:
        name = "q" + "".join(rng.choice(_ALPHA) for _ in range(7))
        if name not in taken:
            taken.add(name)
            return name


def _instr(mnemonic: str, operands: Sequence[str],
           labels: Sequence[str] = ()) -> SourceStmt:
    return SourceStmt(".text", tuple(labels), mnemonic, tuple(operands))


# -- mutation classes --------------------------------------------------------

def _mut_rename_labels(
    stmts: Sequence[SourceStmt], rng: random.Random
) -> Tuple[List[SourceStmt], List[str]]:
    defined = [
        label for label in _defined_labels(stmts)
        if label != "main" and not is_register(label.lower())
    ]
    taken = set(defined) | set(_referenced_symbols(stmts)) | {"main"}
    mapping = {old: _fresh_label(rng, taken) for old in defined}
    out: List[SourceStmt] = []
    for stmt in stmts:
        operands = stmt.operands
        if stmt.mnemonic not in (".asciz", ".ascii", ".space"):
            operands = tuple(mapping.get(op.strip(), op) for op in operands)
        out.append(replace(
            stmt,
            labels=tuple(mapping.get(label, label) for label in stmt.labels),
            operands=operands,
        ))
    ops = [f"rename {old}->{new}" for old, new in mapping.items()]
    return out, ops or ["no-op (nothing to rename)"]


def _new_install_path(
    rng: random.Random, old: str, stmts: Sequence[SourceStmt]
) -> Tuple[str, str]:
    """(new path, op description).  One in four variants masquerades.

    The new path must never be one the program itself mentions in its
    string data: installing an execve Trojan *as* the binary it execs
    (or a system() Trojan as a command in its pipeline) turns the
    variant into a self-exec loop — a different program, not a
    semantics-preserving rename.  ``system()`` callers additionally
    exec ``/bin/sh`` through libc's *own* hardcoded string, so that
    path is off limits for them even though it never appears in the
    parent's source.
    """
    blob = " ".join(
        op
        for stmt in stmts
        if stmt.mnemonic in (".asciz", ".ascii")
        for op in stmt.operands
    )
    if any(
        stmt.mnemonic == "call" and "system" in stmt.operands
        for stmt in stmts
    ):
        blob += " /bin/sh"
    if rng.random() < 0.25:
        candidates = [
            p for p in _MASQUERADE_PATHS if p != old and p not in blob
        ]
        if candidates:
            path = rng.choice(candidates)
            return path, f"masquerade {old}->{path}"
    while True:
        base = "".join(rng.choice(_ALPHA) for _ in range(8))
        path = f"{rng.choice(_INSTALL_DIRS)}/{base}"
        if path != old and path not in blob:
            return path, f"reinstall {old}->{path}"


def _mut_substitute(
    stmts: Sequence[SourceStmt], rng: random.Random
) -> Tuple[List[SourceStmt], List[str]]:
    candidates: List[int] = []
    for index, stmt in enumerate(stmts):
        if not stmt.is_instr or len(stmt.operands) != 2:
            continue
        dst = stmt.operands[0].strip().lower()
        src = stmt.operands[1].strip()
        if stmt.mnemonic == "mov":
            # push/pop must not juggle the stack registers themselves.
            if dst not in ("esp", "ebp") and src.lower() != "esp" \
                    and not src.startswith("["):
                candidates.append(index)
        elif stmt.mnemonic in ("add", "sub"):
            try:
                int(src, 0)
            except ValueError:
                continue
            candidates.append(index)
    selected = [i for i in candidates if rng.random() < 0.5]
    if not selected and candidates:
        selected = [candidates[rng.randrange(len(candidates))]]
    chosen = set(selected)
    out: List[SourceStmt] = []
    ops: List[str] = []
    for index, stmt in enumerate(stmts):
        if index not in chosen:
            out.append(stmt)
            continue
        dst = stmt.operands[0].strip()
        src = stmt.operands[1].strip()
        if stmt.mnemonic == "mov":
            out.append(_instr("push", [src], labels=stmt.labels))
            out.append(_instr("pop", [dst]))
            ops.append(f"mov {dst},{src} -> push/pop")
        else:
            value = int(src, 0)
            flipped = "sub" if stmt.mnemonic == "add" else "add"
            out.append(
                _instr(flipped, [dst, str(-value)], labels=stmt.labels)
            )
            ops.append(f"{stmt.mnemonic} {dst},{src} -> {flipped} {-value}")
    return out, ops or ["no-op (nothing to substitute)"]


_JUNK_REGS = ("eax", "ebx", "ecx", "edx", "esi", "edi")


def _junk_instr(rng: random.Random) -> SourceStmt:
    reg = rng.choice(_JUNK_REGS)
    shape = rng.randrange(3)
    if shape == 0:
        return _instr("add", [reg, str(rng.randrange(1, 9999))])
    if shape == 1:
        return _instr("mov", [reg, str(rng.randrange(0, 9999))])
    return _instr("xor", [reg, reg])


def _mut_deadcode(
    stmts: Sequence[SourceStmt], rng: random.Random
) -> Tuple[List[SourceStmt], List[str]]:
    text, data = _split_sections(stmts)
    taken = set(_defined_labels(stmts)) | set(_referenced_symbols(stmts))
    count = min(rng.randint(2, 4), len(text) + 1)
    positions = sorted(rng.sample(range(len(text) + 1), count), reverse=True)
    ops: List[str] = []
    for pos in positions:
        if rng.random() < 0.5:
            text[pos:pos] = [_instr("nop", [])]
            ops.append(f"nop@{pos}")
        else:
            skip = _fresh_label(rng, taken)
            junk = [_junk_instr(rng) for _ in range(rng.randint(1, 3))]
            block = [_instr("jmp", [skip])] + junk + [
                _instr("nop", [], labels=[skip])
            ]
            text[pos:pos] = block
            ops.append(f"dead-block({len(junk)})@{pos}")
    ops.reverse()  # report in source order
    return text + data, ops


def _chunk_text(text: List[SourceStmt]) -> List[List[SourceStmt]]:
    """Split the text section at never-fallen-into labelled boundaries."""
    chunks: List[List[SourceStmt]] = []
    current: List[SourceStmt] = []
    for index, stmt in enumerate(text):
        boundary = (
            index > 0
            and stmt.labels
            and text[index - 1].mnemonic in _UNCONDITIONAL
        )
        if boundary and current:
            chunks.append(current)
            current = []
        current.append(stmt)
    if current:
        chunks.append(current)
    return chunks


def _mut_reorder(
    stmts: Sequence[SourceStmt], rng: random.Random
) -> Tuple[List[SourceStmt], List[str]]:
    text, data = _split_sections(stmts)
    ops: List[str] = []
    # -- text: permute independent trailing chunks (entry chunk pinned).
    chunks = _chunk_text(text)
    movable = [
        j for j in range(1, len(chunks))
        if chunks[j][-1].mnemonic in _UNCONDITIONAL
    ]
    if len(movable) > 1:
        perm = movable[:]
        rng.shuffle(perm)
        reordered = {slot: chunks[src] for slot, src in zip(movable, perm)}
        chunks = [
            reordered.get(j, chunk) for j, chunk in enumerate(chunks)
        ]
        if perm != movable:
            ops.append(f"reorder text chunks {movable} -> {perm}")
    text = [stmt for chunk in chunks for stmt in chunk]
    # -- data: labelled groups are address-free thanks to relocation.
    groups: List[List[SourceStmt]] = []
    current: List[SourceStmt] = []
    for stmt in data:
        if stmt.labels and current:
            groups.append(current)
            current = []
        current.append(stmt)
    if current:
        groups.append(current)
    movable_data = [j for j in range(len(groups)) if groups[j][0].labels]
    if len(movable_data) > 1:
        perm = movable_data[:]
        rng.shuffle(perm)
        reordered = {
            slot: groups[src] for slot, src in zip(movable_data, perm)
        }
        groups = [
            reordered.get(j, group) for j, group in enumerate(groups)
        ]
        if perm != movable_data:
            ops.append(f"reorder data groups {movable_data} -> {perm}")
    data = [stmt for group in groups for stmt in group]
    return text + data, ops or ["no-op (no independent blocks)"]


def _mut_split_merge(
    stmts: Sequence[SourceStmt], rng: random.Random
) -> Tuple[List[SourceStmt], List[str]]:
    text, data = _split_sections(stmts)
    taken = set(_defined_labels(stmts)) | set(_referenced_symbols(stmts))
    ops: List[str] = []
    # -- split: explicit jmp-to-next bridges at random block points.
    if len(text) > 1:
        count = min(rng.randint(1, 3), len(text) - 1)
        for pos in sorted(rng.sample(range(1, len(text)), count),
                          reverse=True):
            bridge = _fresh_label(rng, taken)
            text[pos] = replace(text[pos], labels=(bridge,) + text[pos].labels)
            text.insert(pos, _instr("jmp", [bridge]))
            ops.append(f"split@{pos}")
        ops.reverse()
    # -- merge: drop a random subset of unreferenced labels.
    referenced = set(_referenced_symbols(text + data))
    for index, stmt in enumerate(text):
        keep: List[str] = []
        for label in stmt.labels:
            if (label != "main" and label not in referenced
                    and rng.random() < 0.5):
                ops.append(f"merge drop {label}")
            else:
                keep.append(label)
        if len(keep) != len(stmt.labels):
            text[index] = replace(stmt, labels=tuple(keep))
    return text + data, ops or ["no-op (nothing to split)"]


def _mut_syscall_order(
    stmts: Sequence[SourceStmt], rng: random.Random
) -> Tuple[List[SourceStmt], List[str]]:
    text, data = _split_sections(stmts)
    candidates: List[int] = []
    for i in range(len(text) - 1):
        a, b = text[i], text[i + 1]
        if a.mnemonic != "mov" or b.mnemonic != "mov":
            continue
        if len(a.operands) != 2 or len(b.operands) != 2:
            continue
        if b.labels:  # a jump may enter between the pair
            continue
        a_dst = a.operands[0].strip().lower()
        b_dst = b.operands[0].strip().lower()
        a_src = a.operands[1].strip().lower()
        b_src = b.operands[1].strip().lower()
        # Independent iff neither reads the other's destination.
        if a_dst == b_dst or b_src == a_dst or a_src == b_dst:
            continue
        candidates.append(i)
    selected: List[int] = []
    last = -2
    for i in candidates:
        if i <= last + 1:
            continue  # pairs must not overlap
        if rng.random() < 0.6:
            selected.append(i)
            last = i
    if not selected and candidates:
        selected = [candidates[rng.randrange(len(candidates))]]
    ops: List[str] = []
    for i in selected:
        a, b = text[i], text[i + 1]
        # Each statement keeps its labels; the instructions trade places.
        text[i] = replace(a, mnemonic=b.mnemonic, operands=b.operands)
        text[i + 1] = replace(b, mnemonic=a.mnemonic, operands=a.operands)
        ops.append(f"swap mov@{i}: {a.operands[0]}<->{b.operands[0]}")
    return text + data, ops or ["no-op (no independent mov pairs)"]


_MUTATORS: Dict[
    str,
    Callable[[Sequence[SourceStmt], random.Random],
             Tuple[List[SourceStmt], List[str]]],
] = {
    "rename-labels": _mut_rename_labels,
    "substitute": _mut_substitute,
    "deadcode": _mut_deadcode,
    "reorder": _mut_reorder,
    "split-merge": _mut_split_merge,
    "syscall-order": _mut_syscall_order,
}


# -- the public mutator ------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _parse_parent(source: str) -> Tuple[SourceStmt, ...]:
    """The statements of a parent's source, parsed once per process.

    Statements are frozen, so every variant shares them.  Bounded, so a
    process fed ever-new parents keeps a fixed footprint; 64 holds every
    default sweep parent."""
    return tuple(parse_source(source))


def mutate_workload(parent: Workload, klass: str, seed: int) -> Workload:
    """One semantics-preserving variant of ``parent``.

    The variant is a first-class :class:`Workload` carrying the parent's
    expected verdict and rules, the same setup/argv/env/stdin, and a
    :class:`MutationRecipe` recording exactly how it was derived.
    """
    if klass not in MUTATION_CLASSES:
        raise ValueError(
            f"unknown mutation class {klass!r}; "
            f"choose from {', '.join(MUTATION_CLASSES)}"
        )
    rng = random.Random(f"{parent.name}|{klass}|{seed}")
    stmts = _parse_parent(parent.source)
    program_path = parent.program_path
    argv = list(parent.argv) if parent.argv is not None else None
    if klass == "rename-paths":
        old = parent.program_path
        program_path, op = _new_install_path(rng, old, stmts)
        if argv:
            argv = [program_path if arg == old else arg for arg in argv]
        mutated, ops = stmts, [op]
    else:
        mutated, ops = _MUTATORS[klass](stmts, rng)
    source, statements = render_statements(mutated)
    return replace(
        parent,
        name=variant_name(parent.name, klass, seed),
        program_path=program_path,
        source=source,
        statements=statements,
        description=f"{klass} variant of {parent.name!r} (seed {seed})",
        argv=argv,
        recipe=MutationRecipe(parent.name, klass, seed, tuple(ops)),
    )


def variants(parent_name: str, klass: str, seed: int) -> List[Workload]:
    """Fleet-facing factory: the single variant at these coordinates.

    This is the ``(module, factory)`` target of sweep
    :class:`~repro.fleet.refs.WorkloadRef`\\ s — ``params=(parent, klass,
    seed)`` resolves O(1) in any worker process, no shared state needed.
    """
    from repro.programs.registry import get

    return [mutate_workload(get(parent_name), klass, int(seed))]
