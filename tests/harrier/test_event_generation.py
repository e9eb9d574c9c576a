"""Event-generation detail tests: content sniffing on transfers, memory
events, origin registries, dataflow-off origin semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hth import HTH
from repro.harrier.config import HarrierConfig
from repro.harrier.events import (
    DataTransferEvent,
    MemoryEvent,
    ResourceAccessEvent,
)
from repro.isa import assemble
from repro.kernel.network import SinkPeer
from repro.taint import DataSource


def run(source, path="/bin/t", setup=None, config=None, argv=None):
    hth = HTH(harrier_config=config)
    if setup:
        setup(hth)
    report = hth.run(assemble(path, source), argv=argv)
    return report, hth


class TestContentOnTransfers:
    def test_write_event_carries_content_type(self):
        source = r"""
main:
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, payload
    call fputs
    mov eax, 0
    ret
.data
path: .asciz "/tmp/x"
payload: .asciz "#!fake script"
"""
        report, hth = run(source)
        writes = [e for e in report.events
                  if isinstance(e, DataTransferEvent)
                  and e.direction == "write"]
        assert writes[0].content_type == "script"

    def test_read_event_carries_content_type(self):
        source = r"""
main:
    mov ebx, path
    mov ecx, 0
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, 16
    call read
    mov eax, 0
    ret
.data
path: .asciz "/tmp/x"
buf: .space 16
"""

        def setup(hth):
            hth.fs.create_file("/tmp/x", b"\x7fEXE-payload")

        report, hth = run(source, setup=setup)
        reads = [e for e in report.events
                 if isinstance(e, DataTransferEvent)
                 and e.direction == "read"]
        assert reads[0].content_type == "executable"


class TestMemoryEvents:
    SOURCE = r"""
main:
    mov ebx, 100
    call malloc
    mov ebx, 50
    call malloc
    mov eax, 0
    ret
"""

    def test_deltas_and_totals(self):
        report, hth = run(self.SOURCE)
        events = [e for e in report.events if isinstance(e, MemoryEvent)]
        assert [e.delta for e in events] == [100, 50]
        assert [e.total_allocated for e in events] == [100, 150]

    def test_brk_shrink_not_reported(self):
        source = r"""
main:
    mov ebx, 0x400100
    mov eax, 45
    int 0x80
    mov ebx, 0x400050       ; shrink: no event
    mov eax, 45
    int 0x80
    mov eax, 0
    ret
"""
        report, hth = run(source)
        events = [e for e in report.events if isinstance(e, MemoryEvent)]
        assert len(events) == 1
        assert events[0].delta == 0x100


class TestDataflowOffOrigins:
    def test_origins_are_unknown_not_empty(self):
        source = r"""
main:
    mov ebx, prog
    mov ecx, 0
    mov edx, 0
    call execve
    mov eax, 0
    ret
.data
prog: .asciz "/bin/ls"
"""
        report, hth = run(
            source, config=HarrierConfig(track_dataflow=False)
        )
        execs = [e for e in report.events
                 if isinstance(e, ResourceAccessEvent)
                 and e.call_name == "SYS_execve"]
        assert execs[0].origin.sources() == {DataSource.UNKNOWN}


class TestOriginRegistry:
    def test_read_back_of_own_write_keeps_name_origin(self):
        # Write to a hardcoded file, reopen and read it, then send the
        # data to a user socket: the *source file's* name origin must
        # still be known (hardcoded) at the final write.
        source = r"""
main:
    mov ebp, esp
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, payload
    call fputs
    mov ebx, esi
    call close
    mov ebx, path
    mov ecx, 0
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, buf
    mov edx, 32
    call read
    mov edi, eax
    mov ebx, esi
    call close
    ; destination: host+port from argv (user)
    load eax, [ebp+2]
    load ebx, [eax+1]
    call gethostbyname
    mov ecx, eax
    load eax, [ebp+2]
    load ebx, [eax+2]
    call atoi
    mov edx, eax
    call socket
    mov ebx, eax
    call connect_addr
    mov ecx, buf
    mov edx, edi
    call write
    mov eax, 0
    ret
.data
path: .asciz "/tmp/cache"
payload: .asciz "cached"
buf: .space 32
"""

        def setup(hth):
            hth.network.add_peer("dest.example", 7000,
                                 lambda: SinkPeer("dest"))

        report, hth = run(
            source, setup=setup,
            argv=["/bin/t", "dest.example", "7000"],
        )
        socket_writes = [
            e for e in report.events
            if isinstance(e, DataTransferEvent)
            and e.direction == "write"
            and e.resource.kind.value == "SOCKET"
        ]
        assert socket_writes
        (pairs,) = [e.source_origins for e in socket_writes]
        assert pairs
        tag, origin = pairs[0]
        assert tag.name == "/tmp/cache"
        assert origin.has_source(DataSource.BINARY)
        # hardcoded source name + user destination -> Low (not High)
        from repro.secpert.warnings import Severity

        flows = [w for w in report.warnings
                 if w.rule == "check_resource_flow"]
        assert flows and all(w.severity is Severity.LOW for w in flows)


class TestGuestMemoryDecodedOnce:
    """``describe`` decodes a call's path and written bytes; the monitor's
    pre-event and the handler both use that decoding."""

    SOURCE = r"""
main:
    mov ebx, path
    mov ecx, 0x241
    call open
    mov esi, eax
    mov ebx, esi
    mov ecx, payload
    call fputs
    mov eax, 0
    ret
.data
path: .asciz "/tmp/decoded-once"
payload: .asciz "#!fake script"
"""

    def test_one_read_per_path_and_per_write(self, monkeypatch):
        from repro.isa.memory import FlatMemory

        reads = []
        for name in ("read_cstring", "read_bytes"):
            original = getattr(FlatMemory, name)

            def counted(self, addr, *rest, _name=name, _fn=original):
                result = _fn(self, addr, *rest)
                reads.append((_name, result))
                return result

            monkeypatch.setattr(FlatMemory, name, counted)
        report, hth = run(self.SOURCE)
        assert [r for r in reads if r == ("read_cstring",
                                          "/tmp/decoded-once")] \
            == [("read_cstring", "/tmp/decoded-once")]
        assert [r for r in reads if r == ("read_bytes", b"#!fake script")] \
            == [("read_bytes", b"#!fake script")]
        assert hth.fs.lookup("/tmp/decoded-once").data == b"#!fake script"
        (write,) = [e for e in report.events
                    if isinstance(e, DataTransferEvent)]
        assert write.content_type == "script"
        (opened,) = [e for e in report.events
                     if isinstance(e, ResourceAccessEvent)
                     and e.resource.name == "/tmp/decoded-once"]
        assert opened.origin.has_source(DataSource.BINARY)


    def test_one_read_per_socketcall_send(self, monkeypatch):
        from repro.isa.memory import FlatMemory

        source = r"""
main:
    mov ebx, host
    call gethostbyname
    mov ecx, eax
    mov edx, 7000
    call socket
    mov ebx, eax
    call connect_addr
    mov edi, args
    store [edi], ebx
    store [edi+1], payload
    store [edi+2], 6
    mov ebx, 9
    mov ecx, edi
    mov eax, 102
    int 0x80
    mov eax, 0
    ret
.data
host: .asciz "dest.example"
payload: .asciz "secret"
args: .space 4
"""
        reads = []
        original = FlatMemory.read_bytes

        def counted(self, addr, length):
            reads.append(original(self, addr, length))
            return reads[-1]

        monkeypatch.setattr(FlatMemory, "read_bytes", counted)
        report, _ = run(source, setup=lambda hth: hth.network.add_peer(
            "dest.example", 7000, lambda: SinkPeer("dest")))
        assert reads.count(b"secret") == 1
        (sent,) = [e for e in report.events
                   if isinstance(e, DataTransferEvent)]
        assert sent.call_name == "SYS_socketcall:send"
        assert sent.content_type == "text" and sent.length == 6


@settings(max_examples=400, deadline=None)
@given(st.binary(max_size=100))
def test_text_sniffing_equals_the_per_byte_rule(data):
    from repro.harrier.content import sniff_content

    sample = data[:64]
    printable = sum(1 for b in sample if 32 <= b < 127 or b in (9, 10, 13))
    if data and sniff_content(data) in ("text", "binary"):
        expected = "text" if printable == len(sample) else "binary"
        assert sniff_content(data) == expected
