"""Secure Binary static checker (paper Appendix B).

A *Secure Binary* contains "no hard-coded data ... used towards a
resource name/type or resource content": no file or socket name may be
hardcoded, and data written to such resources must never be hardcoded.

The checker statically scans an assembled image: it extracts the string
constants in the data section, then walks the text looking for
data-section references that reach resource-using routines (open,
execve, connect, write helpers...) within the same basic block.  A clean
report makes the binary *safer*, not safe — exactly the appendix's
framing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.image import Image
from repro.isa.instructions import Instruction, Opcode

#: Routines whose use of a hardcoded operand violates the Secure Binary
#: rules: (symbol, what the operand names).
RESOURCE_ROUTINES: Dict[str, str] = {
    "open": "file name",
    "creat": "file name",
    "unlink": "file name",
    "chmod": "file name",
    "mkfifo": "file name",
    "execve": "process name",
    "gethostbyname": "host name",
    "connect_addr": "socket address",
    "bind_addr": "socket address",
    "write": "resource content",
    "fputs": "resource content",
    "system": "command line",
    "strcpy": "resource content",
}

#: How far (instructions) a data reference may sit before the call that
#: consumes it and still be attributed to that call.
_REACH = 12


@dataclass(frozen=True)
class Violation:
    """One hardcoded-resource finding."""

    symbol: str          # the data label referenced
    string: Optional[str]  # the string constant, when decodable
    routine: str         # which resource routine consumes it
    usage: str           # what the routine uses the operand for
    text_offset: int     # where the reference occurs

    def __str__(self) -> str:
        value = f' = "{self.string}"' if self.string else ""
        return (
            f"offset {self.text_offset}: {self.symbol}{value} "
            f"hardcoded {self.usage} reaches {self.routine}()"
        )


@dataclass
class SecureBinaryReport:
    image_name: str
    violations: List[Violation] = field(default_factory=list)
    strings: Dict[str, str] = field(default_factory=dict)

    @property
    def is_secure(self) -> bool:
        return not self.violations

    def render(self) -> str:
        status = "SECURE" if self.is_secure else "NOT SECURE"
        lines = [f"{self.image_name}: {status} "
                 f"({len(self.violations)} violation(s))"]
        lines.extend(f"  - {v}" for v in self.violations)
        return "\n".join(lines)


def extract_strings(image: Image) -> Dict[str, str]:
    """Data-section string constants, keyed by their defining symbol."""
    out: Dict[str, str] = {}
    for symbol, offset in image.symbols.items():
        if offset < image.text_size:
            continue
        chars: List[str] = []
        cursor = offset
        while cursor in image.data:
            value = image.data[cursor]
            if value == 0:
                break
            if not (32 <= value < 127):
                chars = []
                break
            chars.append(chr(value))
            cursor += 1
        if chars and image.data.get(cursor) == 0:
            out[symbol] = "".join(chars)
    return out


def _call_targets(image: Image) -> Dict[int, str]:
    """text index -> called symbol name (for relocated CALLs)."""
    out: Dict[int, str] = {}
    for reloc in image.text_relocations:
        instr = image.text[reloc.index]
        if instr.opcode is Opcode.CALL and reloc.slot == "a":
            out[reloc.index] = reloc.symbol
    return out


def _data_references(image: Image) -> List[Tuple[int, str]]:
    """(text index, symbol) pairs where code takes a data-section address."""
    out: List[Tuple[int, str]] = []
    for reloc in image.text_relocations:
        offset = image.symbols.get(reloc.symbol)
        if offset is None or offset < image.text_size:
            continue  # extern or code symbol
        instr = image.text[reloc.index]
        if instr.opcode is Opcode.CALL:
            continue
        if offset not in image.data:
            # An uninitialized buffer (.space): its *address* is embedded
            # but its content is not hardcoded data.
            continue
        out.append((reloc.index, reloc.symbol))
    return out


def check_secure_binary(image: Image) -> SecureBinaryReport:
    """Apply the Appendix B rules to one image."""
    strings = extract_strings(image)
    calls = _call_targets(image)
    report = SecureBinaryReport(image_name=image.name, strings=strings)

    for ref_index, symbol in _data_references(image):
        # Find the first resource-routine call downstream of the reference
        # (stopping at control transfers out of the straight-line region).
        for index in range(ref_index, min(ref_index + _REACH,
                                          image.text_size)):
            instr: Instruction = image.text[index]
            routine = calls.get(index)
            if routine is not None and routine in RESOURCE_ROUTINES:
                report.violations.append(
                    Violation(
                        symbol=symbol,
                        string=strings.get(symbol),
                        routine=routine,
                        usage=RESOURCE_ROUTINES[routine],
                        text_offset=ref_index,
                    )
                )
                break
            if index > ref_index and instr.opcode in (
                Opcode.RET, Opcode.HLT, Opcode.JMP
            ):
                break
    return report
