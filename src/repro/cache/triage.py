"""Static triage: profile an assembled image without running it.

The triage front-end runs *before* execution (and before the cache
lookup's result is even known): a pure function of the two-pass
assembler's output.  It answers two questions the execution engine
cannot answer cheaply:

* *what does this thing look like?* — section layout, data entropy,
  extracted strings and IOC-like literals, an opcode census, and a
  syscall-number census recovered from the ``mov eax, N`` / ``int 0x80``
  idiom the guest toolchain emits;
* *what is it near?* — a 64-bit simhash over opcode n-grams, a
  locality-sensitive digest under which near-duplicate variants (one
  patched constant, a renamed symbol) land a small Hamming distance
  apart.  Operators use it to spot clusters in submitted traffic.

Everything here is deterministic and hash()-free for the same reason the
cache keys are: two processes must profile the same image identically.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.image import Image
from repro.isa.instructions import Imm, Instruction, Opcode, Reg
from repro.kernel.syscalls import SYSCALL_NAMES

#: Literal shapes worth flagging during triage (filesystem paths,
#: host:port endpoints, URLs, dotted hostnames) — the static cousins of
#: the runtime rules' interesting names.
_IOC_PATTERNS: Tuple[Tuple[str, re.Pattern], ...] = (
    ("path", re.compile(r"^/[\w./-]+$")),
    ("endpoint", re.compile(r"^[\w.-]+:\d{1,5}$")),
    ("url", re.compile(r"^[a-z]+://[\w./:-]+$")),
    ("hostname", re.compile(r"^[\w-]+(\.[\w-]+)+$")),
)

_MIN_STRING = 4
_NGRAM = 3


@dataclass(frozen=True)
class TriageProfile:
    """The static profile of one assembled image."""

    name: str
    text_size: int
    data_size: int
    symbol_count: int
    entropy: float
    opcode_census: Tuple[Tuple[str, int], ...]
    syscall_census: Tuple[Tuple[str, int], ...]
    strings: Tuple[str, ...]
    iocs: Tuple[Tuple[str, str], ...]
    simhash: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "text_size": self.text_size,
            "data_size": self.data_size,
            "symbol_count": self.symbol_count,
            "entropy": round(self.entropy, 4),
            "opcode_census": [list(pair) for pair in self.opcode_census],
            "syscall_census": [list(pair) for pair in self.syscall_census],
            "strings": list(self.strings),
            "iocs": [list(pair) for pair in self.iocs],
            "simhash": f"{self.simhash:016x}",
        }


def shannon_entropy(values: Sequence[int]) -> float:
    """Shannon entropy (bits/byte) of the low bytes of ``values``."""
    if not values:
        return 0.0
    counts: Dict[int, int] = {}
    for value in values:
        byte = value & 0xFF
        counts[byte] = counts.get(byte, 0) + 1
    total = len(values)
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def extract_strings(
    image: Image, min_length: int = _MIN_STRING
) -> List[str]:
    """Printable-ASCII runs in the data section, lowest address first."""
    strings: List[str] = []
    run: List[str] = []
    last_offset: Optional[int] = None

    def flush() -> None:
        if len(run) >= min_length:
            strings.append("".join(run))
        run.clear()

    for offset in sorted(image.data):
        byte = image.data[offset] & 0xFF
        contiguous = last_offset is not None and offset == last_offset + 1
        if not contiguous:
            flush()
        if 0x20 <= byte < 0x7F:
            run.append(chr(byte))
        else:
            flush()
        last_offset = offset
    flush()
    return strings


def classify_iocs(strings: Sequence[str]) -> List[Tuple[str, str]]:
    """``(kind, literal)`` pairs for strings matching an IOC shape."""
    found: List[Tuple[str, str]] = []
    for literal in strings:
        for kind, pattern in _IOC_PATTERNS:
            if pattern.match(literal):
                found.append((kind, literal))
                break
    return found


def _imm_value(operand) -> Optional[int]:
    if isinstance(operand, Imm) and operand.symbol is None:
        return operand.value
    return None


def syscall_census(text: Sequence[Instruction]) -> List[Tuple[str, int]]:
    """Count syscall numbers reachable by the ``mov eax, N``/``int``
    idiom (a linear scan tracking the last immediate loaded into eax)."""
    counts: Dict[int, int] = {}
    last_eax: Optional[int] = None
    for inst in text:
        if inst.opcode is Opcode.MOV and isinstance(inst.a, Reg) and (
            inst.a.name == "eax"
        ):
            last_eax = _imm_value(inst.b)
        elif inst.opcode is Opcode.INT:
            if last_eax is not None:
                counts[last_eax] = counts.get(last_eax, 0) + 1
        elif inst.opcode in (Opcode.CALL, Opcode.JMP, Opcode.RET):
            # Control left the straight line; the tracked eax is stale.
            last_eax = None
    return [
        (SYSCALL_NAMES.get(number, f"SYS_{number}"), count)
        for number, count in sorted(counts.items())
    ]


def opcode_census(text: Sequence[Instruction]) -> List[Tuple[str, int]]:
    counts: Dict[str, int] = {}
    for inst in text:
        name = inst.opcode.name
        counts[name] = counts.get(name, 0) + 1
    return sorted(counts.items())


def _feature_hash(feature: str) -> int:
    digest = hashlib.sha256(feature.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def simhash64(text: Sequence[Instruction], ngram: int = _NGRAM) -> int:
    """64-bit simhash over opcode n-grams.

    Classic Charikar construction: each weighted feature votes +w/-w on
    every bit of its (stable, sha256-based) 64-bit hash; the result
    keeps the sign.  Images differing by a patched constant share every
    n-gram and collide; structurally different programs diverge.
    """
    weights: Dict[str, int] = {}
    opcodes = [inst.opcode.name for inst in text]
    if not opcodes:
        return 0
    if len(opcodes) < ngram:
        weights["|".join(opcodes)] = 1
    else:
        for i in range(len(opcodes) - ngram + 1):
            feature = "|".join(opcodes[i:i + ngram])
            weights[feature] = weights.get(feature, 0) + 1
    vector = [0] * 64
    for feature, weight in weights.items():
        bits = _feature_hash(feature)
        for bit in range(64):
            if bits & (1 << bit):
                vector[bit] += weight
            else:
                vector[bit] -= weight
    value = 0
    for bit in range(64):
        if vector[bit] > 0:
            value |= 1 << bit
    return value


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1")


def similarity(a: int, b: int) -> float:
    """1.0 = identical opcode structure, 0.0 = maximally distant."""
    return 1.0 - hamming64(a, b) / 64.0


def triage_image(image: Image) -> TriageProfile:
    """Profile one assembled image (pure; never executes anything)."""
    strings = extract_strings(image)
    return TriageProfile(
        name=image.name,
        text_size=len(image.text),
        data_size=max(image.data_size, len(image.data)),
        symbol_count=len(image.symbols),
        entropy=shannon_entropy(list(image.data.values())),
        opcode_census=tuple(opcode_census(image.text)),
        syscall_census=tuple(syscall_census(image.text)),
        strings=tuple(strings),
        iocs=tuple(classify_iocs(strings)),
        simhash=simhash64(image.text),
    )


@dataclass
class _Clustered:
    index: int
    simhash: int
    item: object = field(repr=False, default=None)


def cluster_order(pairs: Sequence[Tuple[object, int]]) -> List[object]:
    """Order items so near-duplicates are adjacent.

    ``pairs`` is ``(item, simhash)``.  Greedy nearest-neighbour chaining
    from the smallest simhash: deterministic, O(n²) on n≤ hundreds of
    workloads, and good enough to keep a variant family together.
    """
    remaining = [
        _Clustered(index=i, simhash=s, item=item)
        for i, (item, s) in enumerate(pairs)
    ]
    if not remaining:
        return []
    remaining.sort(key=lambda c: (c.simhash, c.index))
    ordered = [remaining.pop(0)]
    while remaining:
        head = ordered[-1]
        best = min(
            remaining,
            key=lambda c: (hamming64(head.simhash, c.simhash), c.index),
        )
        remaining.remove(best)
        ordered.append(best)
    return [c.item for c in ordered]
