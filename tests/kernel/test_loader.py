"""Loader tests: placement, relocation, dynamic linking, initial stack."""

import pytest

from repro.isa import APP_BASE, FlatMemory, LIBRARY_BASE, assemble
from repro.kernel.loader import ImageMap, Loader, LoaderError


LIB_SOURCE = """
helper:
    mov eax, 7
    ret
.data
lib_secret: .asciz "in-lib"
"""

APP_SOURCE = """
main:
    call helper
    mov ebx, msg
    ret
.data
msg: .asciz "hi"
ptr: .word helper
"""


@pytest.fixture
def loaded():
    lib = assemble("/lib/test.so", LIB_SOURCE)
    app = assemble("/bin/app", APP_SOURCE)
    memory = FlatMemory()
    result = Loader([lib]).load(memory, app, argv=["/bin/app", "arg1"],
                                env={"KEY": "VAL"})
    return memory, result, app, lib


class TestPlacement:
    def test_app_at_app_base(self, loaded):
        memory, result, app, lib = loaded
        assert result.image_map.app.base == APP_BASE

    def test_library_at_library_base(self, loaded):
        memory, result, app, lib = loaded
        li = [x for x in result.image_map if x.name == "/lib/test.so"][0]
        assert li.base == LIBRARY_BASE
        assert not li.is_app

    def test_entry_is_shim(self, loaded):
        memory, result, app, lib = loaded
        shim = result.image_map.find_code(result.entry)
        assert shim.name == "[startup]"

    def test_shim_calls_main(self, loaded):
        memory, result, app, lib = loaded
        call = memory.fetch(result.entry)
        assert call.a.value == APP_BASE  # main is app offset 0


class TestRelocation:
    def test_local_data_symbol(self, loaded):
        memory, result, app, lib = loaded
        mov = memory.fetch(APP_BASE + 1)  # mov ebx, msg
        assert mov.b.value == APP_BASE + app.symbols["msg"]
        # the string content was copied
        assert memory.read_cstring(mov.b.value) == "hi"

    def test_extern_call_resolved_into_library(self, loaded):
        memory, result, app, lib = loaded
        call = memory.fetch(APP_BASE)  # call helper
        assert call.a.value == LIBRARY_BASE + lib.symbols["helper"]

    def test_data_relocation(self, loaded):
        memory, result, app, lib = loaded
        ptr_addr = APP_BASE + app.symbols["ptr"]
        assert memory.read(ptr_addr) == LIBRARY_BASE + lib.symbols["helper"]

    def test_unresolved_symbol_raises(self):
        app = assemble("/bin/app", "main:\n  call ghost_symbol\n")
        with pytest.raises(LoaderError):
            Loader([]).load(FlatMemory(), app, argv=[], env={})

    def test_missing_main_raises(self):
        app = assemble("/bin/app", "start:\n  nop\n")
        with pytest.raises(LoaderError):
            Loader([]).load(FlatMemory(), app, argv=[], env={})


class TestInitialStack:
    def test_argc_argv_envp_layout(self, loaded):
        memory, result, app, lib = loaded
        sp = result.initial_sp
        argc = memory.read(sp)
        argv_array = memory.read(sp + 1)
        env_array = memory.read(sp + 2)
        assert argc == 2
        assert memory.read_cstring(memory.read(argv_array)) == "/bin/app"
        assert memory.read_cstring(memory.read(argv_array + 1)) == "arg1"
        assert memory.read(argv_array + 2) == 0  # NUL terminator
        assert memory.read_cstring(memory.read(env_array)) == "KEY=VAL"
        assert memory.read(env_array + 1) == 0

    def test_stack_range_covers_strings(self, loaded):
        memory, result, app, lib = loaded
        start, end = result.initial_stack_range
        assert start == result.initial_sp
        from repro.isa import STACK_TOP

        assert end == STACK_TOP


class TestImageMap:
    def test_find_and_symbols(self, loaded):
        memory, result, app, lib = loaded
        imap = result.image_map
        assert imap.find(APP_BASE).name == "/bin/app"
        assert imap.find(0xDEAD_BEEF) is None
        assert imap.symbol_addr("helper") == LIBRARY_BASE
        assert imap.symbol_addr("nope") is None

    def test_app_property_requires_app(self):
        with pytest.raises(LoaderError):
            ImageMap([]).app


class TestRelocationMemo:
    """A shared object is relocated once per memo, and its patched text
    is reused only for the same source text, base and targets."""

    HOOKED_LIB = "lib_entry:\n    call app_hook\n    ret\n"

    @staticmethod
    def _app(pad: int):
        # ``pad`` nops move app_hook, so each app resolves the library's
        # relocation to a different address.
        nops = "    nop\n" * pad
        return assemble(
            "/bin/app",
            f"main:\n    call lib_entry\n    ret\n{nops}app_hook:\n"
            "    ret\n",
        )

    @staticmethod
    def _lib_text(loader, app):
        result = loader.load(FlatMemory(), app, argv=[], env={})
        (text,) = [
            text for li, text in zip(result.image_map, result.texts)
            if li.name == "/lib/hooked.so"
        ]
        return text

    def test_library_relocated_once(self):
        from repro.programs.libc import libc_image

        memo = {}
        libc = libc_image()
        app = assemble("/bin/app", "main:\n    call exit\n    ret\n")
        first = Loader([libc], relocated=memo).load(
            FlatMemory(), app, argv=[], env={}
        )
        again = Loader([libc], relocated=memo).load(
            FlatMemory(), app, argv=[], env={}
        )
        assert libc.text_relocations and len(memo) == 1
        # image_map order: startup shim, app, libc.
        assert again.texts[2] is first.texts[2]
        assert again.texts[2] is not libc.text
        # The app is patched per load, never memoized.
        assert again.texts[1] is not first.texts[1]
        assert again.texts[1] == first.texts[1]

    def test_relocation_into_the_app_is_never_shared(self):
        memo = {}
        lib = assemble("/lib/hooked.so", self.HOOKED_LIB)
        loader = Loader([lib], relocated=memo)
        app_a, app_b = self._app(1), self._app(3)
        text_a = self._lib_text(loader, app_a)
        text_b = self._lib_text(loader, app_b)
        assert text_a is not text_b
        assert text_a[0].a.value == APP_BASE + app_a.symbols["app_hook"]
        assert text_b[0].a.value == APP_BASE + app_b.symbols["app_hook"]
        assert len(memo) == 2
        # A fresh loader over the same memo reuses each app's own text.
        reloader = Loader([lib], relocated=memo)
        assert self._lib_text(reloader, app_b) is text_b
        assert self._lib_text(reloader, self._app(1)) is text_a
        assert len(memo) == 2

    def test_same_targets_share_one_text(self):
        memo = {}
        lib = assemble("/lib/hooked.so", self.HOOKED_LIB)
        loader = Loader([lib], relocated=memo)
        # Two different apps whose app_hook lands on the same address
        # patch the library identically: one text serves both.
        text = self._lib_text(loader, self._app(2))
        other = assemble(
            "/bin/other",
            "main:\n    nop\n    ret\n    nop\n    nop\napp_hook:\n"
            "    mov eax, 1\n    ret\n",
        )
        assert other.symbols["app_hook"] == self._app(2).symbols["app_hook"]
        assert self._lib_text(loader, other) is text
        assert len(memo) == 1
