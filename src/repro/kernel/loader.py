"""Program loader: image placement, relocation, dynamic linking, initial
stack.

The loader is one of Harrier's event sources (paper section 7.3.2): every
cell it copies out of a binary image is tagged BINARY by the monitor's
image-load hook, and the initial stack (argc/argv/envp) is tagged
USER INPUT (section 7.3.3).  The loader itself knows nothing about taint —
it reports *what* it mapped and the monitor does the tagging.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.image import Image
from repro.isa.instructions import Imm, Instruction, Opcode, Reg
from repro.isa.memory import (
    APP_BASE,
    FlatMemory,
    HEAP_BASE,
    LIBRARY_BASE,
    LIBRARY_STRIDE,
    STACK_TOP,
)


class LoaderError(Exception):
    """Unresolved symbols or overlapping placements."""


@dataclass(frozen=True)
class LoadedImage:
    """An image placed at a base address with relocations applied."""

    image: Image
    base: int
    #: True for the main executable, False for shared objects and the
    #: startup shim.  Harrier's BB-frequency module counts only app blocks
    #: (paper section 7.4).
    is_app: bool

    @property
    def name(self) -> str:
        return self.image.name

    @property
    def text_start(self) -> int:
        return self.base

    @property
    def text_end(self) -> int:
        return self.base + self.image.text_size

    @property
    def data_start(self) -> int:
        return self.base + self.image.text_size

    @property
    def end(self) -> int:
        return self.base + self.image.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def contains_code(self, addr: int) -> bool:
        return self.base <= addr < self.text_end

    def symbol_addr(self, name: str) -> Optional[int]:
        off = self.image.symbols.get(name)
        if off is None:
            return None
        return self.base + off

    def abs_bb_leaders(self) -> frozenset:
        return frozenset(self.base + off for off in self.image.bb_leaders)


class ImageMap:
    """All images loaded into one address space."""

    def __init__(self, loaded: Sequence[LoadedImage]) -> None:
        self._loaded = list(loaded)

    def __iter__(self):
        return iter(self._loaded)

    def __len__(self) -> int:
        return len(self._loaded)

    @property
    def app(self) -> LoadedImage:
        for li in self._loaded:
            if li.is_app:
                return li
        raise LoaderError("no app image in map")

    def find(self, addr: int) -> Optional[LoadedImage]:
        for li in self._loaded:
            if li.contains(addr):
                return li
        return None

    def find_code(self, addr: int) -> Optional[LoadedImage]:
        for li in self._loaded:
            if li.contains_code(addr):
                return li
        return None

    def symbol_addr(self, name: str) -> Optional[int]:
        for li in self._loaded:
            addr = li.symbol_addr(name)
            if addr is not None:
                return addr
        return None


#: Synthetic startup shim: calls main, passes its return value to exit(2).
_SHIM_BASE = 0x100


@lru_cache(maxsize=64)
def _make_shim(main_addr: int) -> Image:
    # Memoized (like ``libc_image``) so ``id(image.text)`` is stable across
    # runs of the same program — the warm BlockCacheStore keys its layouts
    # on text identity, and a fresh shim per run would defeat every hit.
    text = (
        Instruction(Opcode.CALL, Imm(main_addr, symbol="main")),
        Instruction(Opcode.MOV, Reg("ebx"), Reg("eax")),
        Instruction(Opcode.MOV, Reg("eax"), Imm(1)),  # SYS_exit
        Instruction(Opcode.INT, Imm(0x80)),
    )
    return Image(
        name="[startup]",
        text=text,
        symbols={"_start": 0},
        bb_leaders=frozenset({0, 1}),
    )


@dataclass
class LoadResult:
    """What the loader produced for one exec image."""

    entry: int
    image_map: ImageMap
    initial_sp: int
    #: [start, STACK_TOP) region holding argc/argv/envp — USER INPUT.
    initial_stack_range: Tuple[int, int]
    heap_base: int
    #: The relocated text mapped for each image, in ``image_map`` order.
    #: A library's tuple is shared by every load with equal relocation
    #: targets (see :meth:`Loader._relocate`), so its identity names the
    #: code a translated block was cut from.
    texts: Tuple[Tuple[Instruction, ...], ...]


class Loader:
    """Loads a main image plus shared libraries into a process memory.

    ``relocated`` is an optional warm memo (a
    :class:`repro.harrier.blockcache.BlockCacheStore`'s, which outlives
    runs): ``(id(text), base, resolved targets)`` -> ``(text, patched
    text)``.  With it each shared object is relocated once per process
    instead of once per load, and every load with equal targets maps the
    *same* patched tuple.  The entry pins the source text, so its id is
    never recycled while the memo lives.  The main executable is never
    memoized: it is the part of a layout that keeps changing.
    """

    def __init__(
        self,
        libraries: Sequence[Image] = (),
        relocated: Optional[Dict[tuple, tuple]] = None,
    ) -> None:
        self.libraries = list(libraries)
        self.relocated = relocated

    def load(
        self,
        memory: FlatMemory,
        program: Image,
        argv: Sequence[str],
        env: Dict[str, str],
    ) -> LoadResult:
        placements: List[LoadedImage] = [
            LoadedImage(program, APP_BASE, is_app=True)
        ]
        for i, lib in enumerate(self.libraries):
            placements.append(
                LoadedImage(lib, LIBRARY_BASE + i * LIBRARY_STRIDE,
                            is_app=False)
            )

        main_addr = placements[0].symbol_addr("main")
        if main_addr is None:
            raise LoaderError(f"{program.name}: no 'main' symbol")
        shim = LoadedImage(_make_shim(main_addr), _SHIM_BASE, is_app=False)
        loaded = [shim] + placements
        image_map = ImageMap(loaded)

        texts = tuple(
            self._map_one(memory, li, image_map) for li in loaded
        )

        sp = self._build_initial_stack(memory, argv, env)
        return LoadResult(
            entry=shim.base,
            image_map=image_map,
            initial_sp=sp,
            initial_stack_range=(sp, STACK_TOP),
            heap_base=HEAP_BASE,
            texts=texts,
        )

    # -- internals -----------------------------------------------------------
    def _map_one(
        self, memory: FlatMemory, li: LoadedImage, image_map: ImageMap
    ) -> Tuple[Instruction, ...]:
        """Map ``li`` (relocated text, then data) and return its text."""
        image = li.image

        def resolve(symbol: str) -> int:
            local = li.symbol_addr(symbol)
            if local is not None:
                return local
            addr = image_map.symbol_addr(symbol)
            if addr is None:
                raise LoaderError(
                    f"{image.name}: unresolved symbol {symbol!r}"
                )
            return addr

        text = self._relocate(li, resolve)
        memory.map_code(li.base, text)
        for off, value in image.data.items():
            memory.write(li.base + off, value)
        for dreloc in image.data_relocations:
            memory.write(li.base + dreloc.offset, resolve(dreloc.symbol))
        return text

    def _relocate(
        self, li: LoadedImage, resolve
    ) -> Tuple[Instruction, ...]:
        """``li``'s text with every relocation patched in, reused from
        the memo when text, base and resolved targets all match."""
        image = li.image
        relocations = image.text_relocations
        if not relocations:
            return image.text
        targets = tuple(resolve(reloc.symbol) for reloc in relocations)
        memo = None if li.is_app else self.relocated
        if memo is not None:
            key = (id(image.text), li.base, targets)
            entry = memo.get(key)
            if entry is not None:
                return entry[1]
        patched: List[Instruction] = list(image.text)
        for reloc, target in zip(relocations, targets):
            new_imm = Imm(target, symbol=reloc.symbol)
            patched[reloc.index] = replace(
                patched[reloc.index], **{reloc.slot: new_imm}
            )
        text = tuple(patched)
        if memo is not None:
            memo[key] = (image.text, text)
        return text

    @staticmethod
    def _build_initial_stack(
        memory: FlatMemory, argv: Sequence[str], env: Dict[str, str]
    ) -> int:
        """Lay out argv/env strings and arrays; returns the initial esp.

        Layout (addresses descend):  string area | env array | argv array |
        envp | argvp | argc  <- esp.  Guest convention: at ``main`` entry
        (after the shim's CALL pushed a return address) ``[esp+1]`` is argc,
        ``[esp+2]`` the argv pointer, ``[esp+3]`` the envp pointer.
        """
        env_strings = [f"{key}={value}" for key, value in env.items()]
        total = sum(len(s) + 1 for s in list(argv) + env_strings)
        cursor = STACK_TOP - total

        argv_ptrs: List[int] = []
        for arg in argv:
            argv_ptrs.append(cursor)
            cursor += memory.write_cstring(cursor, arg)
        env_ptrs: List[int] = []
        for entry in env_strings:
            env_ptrs.append(cursor)
            cursor += memory.write_cstring(cursor, entry)
        assert cursor == STACK_TOP

        strings_start = STACK_TOP - total
        cursor = strings_start
        # env array (NUL-terminated), then argv array, below the strings.
        cursor -= len(env_ptrs) + 1
        env_array = cursor
        for i, ptr in enumerate(env_ptrs):
            memory.write(env_array + i, ptr)
        memory.write(env_array + len(env_ptrs), 0)

        cursor -= len(argv_ptrs) + 1
        argv_array = cursor
        for i, ptr in enumerate(argv_ptrs):
            memory.write(argv_array + i, ptr)
        memory.write(argv_array + len(argv_ptrs), 0)

        sp = cursor - 3
        memory.write(sp, len(argv_ptrs))     # argc
        memory.write(sp + 1, argv_array)     # argv
        memory.write(sp + 2, env_array)      # envp
        return sp
