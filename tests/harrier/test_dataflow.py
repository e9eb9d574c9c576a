"""Instruction-level taint propagation tests (driven end-to-end through
small guest programs so real block records exercise the module)."""

from repro.core.hth import HTH
from repro.core.options import RunOptions
from repro.isa import assemble
from repro.taint import DataSource, Tag
from tests.oracles.readers import app_image


def run_and_get_shadow(source, path="/bin/t", setup=None, stdin=None):
    hth = HTH()
    if setup:
        setup(hth)
    proc = None
    original_spawn = hth.kernel.spawn

    def capture_spawn(*args, **kwargs):
        nonlocal proc
        proc = original_spawn(*args, **kwargs)
        return proc

    hth.kernel.spawn = capture_spawn
    report = hth.run(assemble(path, source), stdin=stdin)
    shadow = hth.harrier.shadow(proc)
    return report, shadow, proc, hth


class TestBinaryTagging:
    def test_data_section_tagged_binary(self):
        source = """
main:
    mov eax, 0
    ret
.data
secret: .asciz "xyz"
"""
        report, shadow, proc, hth = run_and_get_shadow(source)
        addr = app_image(proc.image_map).symbol_addr("secret")
        tags = shadow.memory.get(addr)
        assert Tag(DataSource.BINARY, "/bin/t") in tags

    def test_libc_data_tagged_with_libc(self):
        report, shadow, proc, hth = run_and_get_shadow(
            "main:\n  mov eax, 0\n  ret"
        )
        libc = [li for li in proc.image_map if li.name == "/lib/libc.so"][0]
        tags = shadow.memory.get(libc.symbol_addr("sh_path"))
        assert Tag(DataSource.BINARY, "/lib/libc.so") in tags

    def test_immediate_produces_binary_tag(self):
        source = """
main:
    mov ebx, 1234
    mov edi, cell
    store [edi], ebx
    mov eax, 0
    ret
.data
cell: .space 1
"""
        report, shadow, proc, hth = run_and_get_shadow(source)
        addr = app_image(proc.image_map).symbol_addr("cell")
        assert Tag(DataSource.BINARY, "/bin/t") in shadow.memory.get(addr)


class TestPropagation:
    def test_alu_unions_operands(self):
        # value = hardcoded + user-input cell -> both tags
        source = """
main:
    mov ebp, esp
    load eax, [ebp+2]      ; argv array (USER INPUT cells)
    load eax, [eax+0]      ; argv[0] pointer
    load ebx, [eax]        ; first character (USER INPUT)
    mov ecx, 5             ; immediate (BINARY)
    add ebx, ecx
    mov edi, cell
    store [edi], ebx
    mov eax, 0
    ret
.data
cell: .space 1
"""
        report, shadow, proc, hth = run_and_get_shadow(source)
        addr = app_image(proc.image_map).symbol_addr("cell")
        tags = shadow.memory.get(addr)
        assert tags.has_source(DataSource.USER_INPUT)
        assert tags.has_source(DataSource.BINARY)

    def test_xor_self_clears(self):
        source = """
main:
    mov ebx, 7             ; BINARY-tagged
    xor ebx, ebx           ; constant-zero idiom clears the taint
    mov edi, cell
    store [edi], ebx
    mov eax, 0
    ret
.data
cell: .space 1
"""
        report, shadow, proc, hth = run_and_get_shadow(source)
        addr = app_image(proc.image_map).symbol_addr("cell")
        assert shadow.memory.get(addr).is_empty()

    def test_cpuid_tags_hardware(self):
        source = """
main:
    cpuid
    mov edi, cell
    store [edi], eax
    mov eax, 0
    ret
.data
cell: .space 1
"""
        report, shadow, proc, hth = run_and_get_shadow(source)
        addr = app_image(proc.image_map).symbol_addr("cell")
        assert shadow.memory.get(addr).has_source(DataSource.HARDWARE)

    def test_initial_stack_is_user_input(self):
        source = """
main:
    mov ebp, esp
    load ebx, [ebp+1]      ; argc
    mov edi, cell
    store [edi], ebx
    mov eax, 0
    ret
.data
cell: .space 1
"""
        report, shadow, proc, hth = run_and_get_shadow(source)
        addr = app_image(proc.image_map).symbol_addr("cell")
        assert shadow.memory.get(addr).has_source(DataSource.USER_INPUT)

    def test_file_read_tags_buffer(self):
        source = """
main:
    mov ebx, path
    mov ecx, 0
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, 8
    call read
    mov eax, 0
    ret
.data
path: .asciz "/tmp/data"
buf: .space 8
"""

        def setup(hth):
            hth.fs.write_text("/tmp/data", "12345678")

        report, shadow, proc, hth = run_and_get_shadow(source, setup=setup)
        addr = app_image(proc.image_map).symbol_addr("buf")
        assert Tag(DataSource.FILE, "/tmp/data") in shadow.memory.get(addr)

    def test_stdin_read_tags_user_input(self):
        source = """
main:
    mov ebx, 0
    mov ecx, buf
    mov edx, 8
    call read
    mov eax, 0
    ret
.data
buf: .space 8
"""
        report, shadow, proc, hth = run_and_get_shadow(
            source, stdin="abcd\n"
        )
        addr = app_image(proc.image_map).symbol_addr("buf")
        assert shadow.memory.get(addr).has_source(DataSource.USER_INPUT)

    def test_syscall_result_untainted(self):
        source = """
main:
    call getpid
    mov edi, cell
    store [edi], eax
    mov eax, 0
    ret
.data
cell: .space 1
"""
        report, shadow, proc, hth = run_and_get_shadow(source)
        addr = app_image(proc.image_map).symbol_addr("cell")
        assert shadow.memory.get(addr).is_empty()


class TestIncompleteMode:
    def test_console_input_tagged_binary_in_compat_mode(self):
        from repro.harrier.config import HarrierConfig

        source = """
main:
    mov ebx, 0
    mov ecx, buf
    mov edx, 8
    call read
    mov eax, 0
    ret
.data
buf: .space 8
"""
        hth = HTH(options=RunOptions(
            harrier_config=HarrierConfig(complete_dataflow=False)))
        proc = None
        original_spawn = hth.kernel.spawn

        def capture(*a, **k):
            nonlocal proc
            proc = original_spawn(*a, **k)
            return proc

        hth.kernel.spawn = capture
        hth.run(assemble("/usr/bin/pico", source), stdin="typed\n")
        shadow = hth.harrier.shadow(proc)
        addr = app_image(proc.image_map).symbol_addr("buf")
        tags = shadow.memory.get(addr)
        assert Tag(DataSource.BINARY, "/usr/bin/pico") in tags
        assert not tags.has_source(DataSource.USER_INPUT)
