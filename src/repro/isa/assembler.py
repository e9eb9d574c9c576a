"""Two-pass assembler for the mini-ISA.

Syntax (one statement per line, ``;`` or ``#`` starts a comment)::

    .text
    main:
        mov  ebx, path          ; label reference -> address immediate
        mov  ecx, 0
        mov  eax, 5             ; SYS_open
        int  0x80
        cmp  eax, 0
        jl   fail
        ...
        call strlen             ; extern, resolved against libc.so at load
        ret
    .data
    path:   .asciz "/etc/passwd"
    buf:    .space 64
    table:  .word 1, 2, 3, other_label

Addressing: ``load dst, [reg+off]`` / ``store [reg+off], src``.  Every
instruction and every data cell occupies one address unit; strings store one
character code per cell, NUL-terminated.

Text is parsed once, by :func:`parse_source`, into frozen
:class:`SourceStmt` rows; :class:`Assembler` lowers the rows to
instructions and data, lays out symbols, and emits the image.  A caller
that already holds the rows of a text (the adversarial mutator, which
renders its variants with :func:`render_statements`) assembles them
directly: the rows carry the text's line numbers, so the image equals,
digest for digest, the one assembled from the text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.isa.image import DataRelocation, Image, TextRelocation
from repro.isa.instructions import (
    ALU_OPCODES,
    CONDITIONAL_OPCODES,
    CONTROL_TRANSFER_OPCODES,
    Imm,
    Instruction,
    Mem,
    Opcode,
    Operand,
    Reg,
)
from repro.isa.registers import is_register


class AssemblyError(Exception):
    """Raised on any syntax or semantic error in an assembly unit."""

    def __init__(self, message: str, line: int = 0) -> None:
        if line:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


_MNEMONICS: Dict[str, Opcode] = {op.value: op for op in Opcode}

_DST = ("destination", (Reg,))
_SRC = ("source", (Reg, Imm))
#: Opcode -> (role, accepted operand types) of each of its operands.
_OPERAND_SHAPES: Dict[Opcode, Tuple[Tuple[str, Tuple[type, ...]], ...]] = {
    **{op: (_DST, _SRC) for op in ALU_OPCODES | {Opcode.MOV, Opcode.CMP}},
    **{op: (("target", (Imm,)),) for op in CONTROL_TRANSFER_OPCODES},
    **{op: () for op in (Opcode.RET, Opcode.CPUID, Opcode.NOP, Opcode.HLT)},
    Opcode.LOAD: (_DST, ("source", (Mem,))),
    Opcode.STORE: (("destination", (Mem,)), _SRC),
    Opcode.CALL: (("target", (Imm, Reg)),),
    Opcode.PUSH: (("operand", (Reg, Imm)),),
    Opcode.POP: (_DST,),
    Opcode.INT: (("vector", (Imm,)),),
}

_LABEL_RE = re.compile(r"^[A-Za-z_.$][A-Za-z0-9_.$]*$")
_MEM_RE = re.compile(
    r"^\[\s*([A-Za-z]+)\s*(?:([+-])\s*(0x[0-9A-Fa-f]+|\d+)\s*)?\]$"
)

_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "0": "\0",
    "\\": "\\",
    '"': '"',
    "'": "'",
}


def _unescape(raw: str, line: int) -> str:
    out: List[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\":
            if i + 1 >= len(raw):
                raise AssemblyError("dangling escape in string literal", line)
            esc = raw[i + 1]
            if esc not in _ESCAPES:
                raise AssemblyError(f"unknown escape \\{esc}", line)
            out.append(_ESCAPES[esc])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _parse_int(token: str) -> Optional[int]:
    token = token.strip()
    neg = token.startswith("-")
    body = token[1:] if neg else token
    try:
        if body.lower().startswith("0x"):
            value = int(body, 16)
        elif body.isdigit():
            value = int(body, 10)
        elif len(body) >= 3 and body[0] == "'" and body[-1] == "'":
            inner = _unescape(body[1:-1], 0)
            if len(inner) != 1:
                return None
            value = ord(inner)
        else:
            return None
    except ValueError:
        return None
    return -value if neg else value


def _split_operands(text: str, line: int) -> List[str]:
    """Split an operand list on commas, honouring quotes and brackets."""
    parts: List[str] = []
    depth = 0
    quote: Optional[str] = None
    current: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if quote:
            current.append(ch)
            if ch == "\\" and i + 1 < len(text):
                current.append(text[i + 1])
                i += 1
            elif ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
            current.append(ch)
        elif ch == "[":
            depth += 1
            current.append(ch)
        elif ch == "]":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
        i += 1
    if quote:
        raise AssemblyError("unterminated string literal", line)
    if depth != 0:
        raise AssemblyError("unbalanced brackets", line)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _strip_comment(line: str) -> str:
    quote: Optional[str] = None
    i = 0
    while i < len(line):
        ch = line[i]
        if quote:
            if ch == "\\":
                i += 2  # an escape consumes the following character
                continue
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch in ";#":
            return line[:i]
        i += 1
    return line


# -- the statement model ------------------------------------------------------
#
# Every assembly goes text -> statements -> image.  A statement keeps the
# raw spelling of every operand, so the adversarial mutator
# (repro.programs.mutate) rewrites programs at this level and renders
# the result back to text that parses to the same statements.

@dataclass(frozen=True)
class SourceStmt:
    """One source statement, raw enough to re-render byte-for-byte.

    ``mnemonic`` is the lowered instruction mnemonic, or the directive
    name with its leading dot (``".asciz"``); ``operands`` are the raw
    comma-split operand spellings (string literals keep their quotes).
    ``line`` is the statement's line in its text; it becomes
    ``Instruction.line``, which the image digest covers.  Frozen, so
    one parse can be shared by every program derived from it.
    """

    section: str                      # ".text" | ".data"
    labels: Tuple[str, ...] = ()
    mnemonic: str = "nop"
    operands: Tuple[str, ...] = ()
    line: int = 0

    @property
    def is_instr(self) -> bool:
        return self.section == ".text"


_DATA_DIRECTIVES = (".asciz", ".ascii", ".word", ".space")
_LABEL_DEF_RE = re.compile(r"^([A-Za-z_.$][A-Za-z0-9_.$]*)\s*:\s*")
_INSTR_RE = re.compile(r"^([A-Za-z]+)\b\s*(.*)$")


def parse_source(source: str) -> List[SourceStmt]:
    """Parse assembly text into :class:`SourceStmt` rows, one per
    instruction or data directive, in text order (raises
    :class:`AssemblyError` on a syntax error).  The assembler's only
    line parser: mnemonics and operand shapes are checked when the rows
    are assembled."""
    stmts: List[SourceStmt] = []
    section = ".text"
    pending: List[str] = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        # Peel leading labels (there may be several on one line).
        while True:
            match = _LABEL_DEF_RE.match(line)
            if not match or match.group(1) in _MNEMONICS:
                break
            pending.append(match.group(1))
            line = line[match.end():]
        if not line:
            continue
        if line.startswith("."):
            directive, _, rest = line.partition(" ")
            directive = directive.strip()
            rest = rest.strip()
            if directive in (".text", ".data"):
                if pending:
                    raise AssemblyError(
                        "label immediately before section directive", lineno
                    )
                section = directive
                continue
            if directive in (".global", ".globl", ".extern"):
                continue  # informative only; all symbols are global
            if directive not in _DATA_DIRECTIVES:
                raise AssemblyError(f"unknown directive {directive}", lineno)
            operands = (
                (rest,) if directive in (".asciz", ".ascii")
                else tuple(_split_operands(rest, lineno))
            )
            stmts.append(SourceStmt(".data", tuple(pending), directive,
                                    operands, lineno))
            pending = []
            continue
        if section != ".text":
            raise AssemblyError("instruction outside .text", lineno)
        match = _INSTR_RE.match(line)
        if not match:
            raise AssemblyError(f"cannot parse {line!r}", lineno)
        operand_text = match.group(2).strip()
        operands = (
            tuple(_split_operands(operand_text, lineno)) if operand_text
            else ()
        )
        stmts.append(SourceStmt(".text", tuple(pending),
                                match.group(1).lower(), operands, lineno))
        pending = []
    if pending:
        # Trailing labels bind to the end of the current section; attach
        # a NOP so they address something executable.
        stmts.append(SourceStmt(".text", tuple(pending), "nop", (), 0))
    return stmts


class _Statement:
    """One lowered source statement (layout and emit input)."""

    __slots__ = ("labels", "kind", "payload", "line")

    def __init__(
        self, labels: Sequence[str], kind: str, payload: object, line: int
    ) -> None:
        self.labels = labels
        self.kind = kind  # 'instr' | 'asciz' | 'ascii' | 'word' | 'space'
        self.payload = payload
        self.line = line


class Assembler:
    """Assemble mini-ISA source into an :class:`Image`.

    ``source`` is assembly text or the :class:`SourceStmt` rows of some
    text; text goes through :func:`parse_source`, the one line parser,
    so both spellings of a program assemble to the same image as long
    as the rows carry the line numbers of that text.
    """

    def __init__(
        self, name: str, source: Union[str, Sequence[SourceStmt]]
    ) -> None:
        self._name = name
        self._source = source

    def assemble(self) -> Image:
        stmts = self._source
        if isinstance(stmts, str):
            stmts = parse_source(stmts)
        text_stmts, data_stmts = self._lower(stmts)
        symbols, text_size, data_size = self._layout(text_stmts, data_stmts)
        return self._emit(text_stmts, data_stmts, symbols, text_size, data_size)

    # -- pass 0: statements -> instructions and data ----------------------
    def _lower(
        self, stmts: Sequence[SourceStmt]
    ) -> Tuple[List[_Statement], List[_Statement]]:
        text_stmts: List[_Statement] = []
        data_stmts: List[_Statement] = []
        for stmt in stmts:
            if stmt.section == ".text":
                instr = self._instruction(stmt)
                text_stmts.append(
                    _Statement(stmt.labels, "instr", instr, stmt.line)
                )
            else:
                data_stmts.append(self._data(stmt))
        return text_stmts, data_stmts

    @staticmethod
    def _data(stmt: SourceStmt) -> _Statement:
        directive, tokens, lineno = stmt.mnemonic, stmt.operands, stmt.line
        if directive in (".asciz", ".ascii"):
            rest = ", ".join(tokens)
            if len(rest) < 2 or rest[0] != '"' or rest[-1] != '"':
                raise AssemblyError(f"{directive} expects a string literal", lineno)
            value = _unescape(rest[1:-1], lineno)
            return _Statement(stmt.labels, directive[1:], value, lineno)
        if directive == ".word":
            if not tokens:
                raise AssemblyError(".word expects at least one value", lineno)
            return _Statement(stmt.labels, "word", tokens, lineno)
        if directive == ".space":
            if len(tokens) not in (1, 2):
                raise AssemblyError(".space expects SIZE [, FILL]", lineno)
            size = _parse_int(tokens[0])
            fill = _parse_int(tokens[1]) if len(tokens) == 2 else 0
            if size is None or size < 0 or fill is None:
                raise AssemblyError("bad .space arguments", lineno)
            return _Statement(stmt.labels, "space", (size, fill), lineno)
        raise AssemblyError(f"unknown directive {directive}", lineno)

    def _instruction(self, stmt: SourceStmt) -> Instruction:
        lineno = stmt.line
        opcode = _MNEMONICS.get(stmt.mnemonic)
        if opcode is None:
            raise AssemblyError(f"unknown mnemonic {stmt.mnemonic!r}", lineno)
        operands = [self._parse_operand(tok, lineno) for tok in stmt.operands]
        shape = _OPERAND_SHAPES[opcode]
        if len(operands) != len(shape):
            raise AssemblyError(
                f"{opcode.value} expects {len(shape)} operand(s), "
                f"got {len(operands)}",
                lineno,
            )
        for op, (what, kinds) in zip(operands, shape):
            if not isinstance(op, kinds):
                raise AssemblyError(
                    f"{opcode.value}: {what} must be "
                    f"{'/'.join(k.__name__ for k in kinds)}, got {op}",
                    lineno,
                )
        a = operands[0] if operands else None
        b = operands[1] if len(operands) > 1 else None
        return Instruction(opcode, a, b, line=lineno)

    def _parse_operand(self, token: str, lineno: int) -> Operand:
        token = token.strip()
        if not token:
            raise AssemblyError("empty operand", lineno)
        mem = _MEM_RE.match(token)
        if mem:
            base = mem.group(1).lower()
            if not is_register(base):
                raise AssemblyError(f"unknown base register {base!r}", lineno)
            offset = 0
            if mem.group(3) is not None:
                offset = int(mem.group(3), 0)
                if mem.group(2) == "-":
                    offset = -offset
            return Mem(base, offset)
        lowered = token.lower()
        if is_register(lowered):
            return Reg(lowered)
        value = _parse_int(token)
        if value is not None:
            return Imm(value)
        if _LABEL_RE.match(token):
            return Imm(0, symbol=token)
        raise AssemblyError(f"cannot parse operand {token!r}", lineno)

    # -- pass 1: layout ---------------------------------------------------
    def _layout(
        self, text_stmts: List[_Statement], data_stmts: List[_Statement]
    ) -> Tuple[Dict[str, int], int, int]:
        symbols: Dict[str, int] = {}
        text_size = len(text_stmts)

        def define(label: str, offset: int, line: int) -> None:
            if label in symbols:
                raise AssemblyError(f"duplicate label {label!r}", line)
            symbols[label] = offset

        for index, stmt in enumerate(text_stmts):
            for label in stmt.labels:
                define(label, index, stmt.line)

        offset = text_size
        for stmt in data_stmts:
            for label in stmt.labels:
                define(label, offset, stmt.line)
            offset += self._data_length(stmt)
        data_size = offset - text_size
        return symbols, text_size, data_size

    @staticmethod
    def _data_length(stmt: _Statement) -> int:
        if stmt.kind == "asciz":
            return len(stmt.payload) + 1  # type: ignore[arg-type]
        if stmt.kind == "ascii":
            return len(stmt.payload)  # type: ignore[arg-type]
        if stmt.kind == "word":
            return len(stmt.payload)  # type: ignore[arg-type]
        if stmt.kind == "space":
            return stmt.payload[0]  # type: ignore[index]
        raise AssemblyError(f"unknown data kind {stmt.kind}")

    # -- pass 2: emit -------------------------------------------------------
    def _emit(
        self,
        text_stmts: List[_Statement],
        data_stmts: List[_Statement],
        symbols: Dict[str, int],
        text_size: int,
        data_size: int,
    ) -> Image:
        text: List[Instruction] = []
        text_relocs: List[TextRelocation] = []
        externs: Set[str] = set()

        for index, stmt in enumerate(text_stmts):
            instr: Instruction = stmt.payload  # type: ignore[assignment]
            for slot in ("a", "b"):
                op = getattr(instr, slot)
                if isinstance(op, Imm) and op.symbol is not None:
                    text_relocs.append(TextRelocation(index, slot, op.symbol))
                    if op.symbol not in symbols:
                        externs.add(op.symbol)
            text.append(instr)

        data: Dict[int, int] = {}
        data_relocs: List[DataRelocation] = []
        offset = text_size
        for stmt in data_stmts:
            if stmt.kind in ("asciz", "ascii"):
                payload: str = stmt.payload  # type: ignore[assignment]
                for ch in payload:
                    data[offset] = ord(ch)
                    offset += 1
                if stmt.kind == "asciz":
                    data[offset] = 0
                    offset += 1
            elif stmt.kind == "word":
                for token in stmt.payload:  # type: ignore[union-attr]
                    value = _parse_int(token)
                    if value is not None:
                        data[offset] = value
                    elif _LABEL_RE.match(token):
                        data[offset] = 0
                        data_relocs.append(DataRelocation(offset, token))
                        if token not in symbols:
                            externs.add(token)
                    else:
                        raise AssemblyError(
                            f"bad .word value {token!r}", stmt.line
                        )
                    offset += 1
            elif stmt.kind == "space":
                size, fill = stmt.payload  # type: ignore[misc]
                if fill:
                    for i in range(size):
                        data[offset + i] = fill
                offset += size
            else:  # pragma: no cover - exhaustive
                raise AssemblyError(f"unknown data kind {stmt.kind}", stmt.line)

        leaders = self._basic_block_leaders(text, symbols, text_size)
        return Image(
            name=self._name,
            text=tuple(text),
            data=data,
            data_size=data_size,
            symbols=symbols,
            text_relocations=tuple(text_relocs),
            data_relocations=tuple(data_relocs),
            bb_leaders=frozenset(leaders),
            externs=frozenset(externs),
        )

    @staticmethod
    def _basic_block_leaders(
        text: List[Instruction], symbols: Dict[str, int], text_size: int
    ) -> Set[int]:
        leaders: Set[int] = set()
        if text:
            leaders.add(0)
        for name, off in symbols.items():
            if off < text_size:
                leaders.add(off)
        for index, instr in enumerate(text):
            if instr.opcode in CONTROL_TRANSFER_OPCODES:
                if index + 1 < text_size:
                    leaders.add(index + 1)
                target = instr.a
                if isinstance(target, Imm) and target.symbol in symbols:
                    t_off = symbols[target.symbol]
                    if t_off < text_size:
                        leaders.add(t_off)
            if instr.opcode in CONDITIONAL_OPCODES and index + 1 < text_size:
                leaders.add(index + 1)
        return leaders


def assemble(name: str, source: Union[str, Sequence[SourceStmt]]) -> Image:
    """Assemble ``source`` (text, or the statements of some text) into
    an image called ``name``."""
    return Assembler(name, source).assemble()


def render_statements(
    stmts: Sequence[SourceStmt],
) -> Tuple[str, Tuple[SourceStmt, ...]]:
    """Render statements to canonical assembly text (text section first,
    then one ``.data`` section; statement order preserved).

    Returns the text and the statements in text order, each stamped with
    its line in that text, so ``parse_source(text)`` equals them and
    assembling either gives the same image.
    """
    lines: List[str] = []
    placed: List[SourceStmt] = []
    text = [s for s in stmts if s.section == ".text"]
    data = [s for s in stmts if s.section == ".data"]
    for stmt in text:
        for label in stmt.labels:
            lines.append(f"{label}:")
        operands = ", ".join(stmt.operands)
        lines.append(f"    {stmt.mnemonic} {operands}".rstrip())
        placed.append(SourceStmt(stmt.section, stmt.labels, stmt.mnemonic,
                                 stmt.operands, len(lines)))
    if data:
        lines.append(".data")
        for stmt in data:
            prefix = "".join(f"{label}: " for label in stmt.labels)
            operands = ", ".join(stmt.operands)
            lines.append(f"{prefix}{stmt.mnemonic} {operands}".rstrip())
            placed.append(SourceStmt(stmt.section, stmt.labels,
                                     stmt.mnemonic, stmt.operands,
                                     len(lines)))
    return "\n".join(lines) + "\n", tuple(placed)


def is_symbol_token(token: str) -> bool:
    """Would this operand spelling assemble to a symbol reference?"""
    token = token.strip()
    if not token or token[0] in "\"'[":
        return False
    if is_register(token.lower()):
        return False
    if _parse_int(token) is not None:
        return False
    return bool(_LABEL_RE.match(token))
