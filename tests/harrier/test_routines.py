"""Routine short-circuit tests (paper section 7.2): gethostbyname's result
carries the *name's* taint, not the hosts database's."""

from repro.core.hth import HTH
from repro.core.options import RunOptions
from repro.harrier.config import HarrierConfig
from repro.harrier.events import ResourceAccessEvent
from repro.isa import assemble
from repro.kernel.network import SinkPeer
from repro.taint import DataSource

CONNECT_HARDCODED = r"""
main:
    mov ebx, host
    call gethostbyname
    mov ecx, eax
    call socket
    mov ebx, eax
    mov edx, 80
    call connect_addr
    mov eax, 0
    ret
.data
host: .asciz "srv.example"
"""

CONNECT_USER = r"""
main:
    mov ebp, esp
    load eax, [ebp+2]
    load ebx, [eax+1]       ; argv[1] = host name
    call gethostbyname
    mov esi, eax            ; ip (USER INPUT via the short circuit)
    load eax, [ebp+2]
    load ebx, [eax+2]       ; argv[2] = port
    call atoi
    mov edx, eax            ; port (USER INPUT)
    mov ecx, esi
    call socket
    mov ebx, eax
    call connect_addr
    mov eax, 0
    ret
"""


def connect_event(report):
    events = [
        e for e in report.events
        if isinstance(e, ResourceAccessEvent)
        and e.call_name == "SYS_socketcall:connect"
    ]
    assert len(events) == 1
    return events[0]


def run(source, config=None, argv=None):
    hth = HTH(options=RunOptions(harrier_config=config))
    hth.network.add_peer("srv.example", 80, lambda: SinkPeer("srv"))
    return hth.run(assemble("/bin/t", source), argv=argv)


class TestShortCircuit:
    def test_hardcoded_host_yields_binary_origin(self):
        event = connect_event(run(CONNECT_HARDCODED))
        assert event.origin.has_source(DataSource.BINARY)
        assert "/bin/t" in event.origin.names_for(DataSource.BINARY)
        assert not event.origin.has_source(DataSource.FILE)

    def test_user_host_yields_user_origin(self):
        event = connect_event(
            run(CONNECT_USER, argv=["/bin/t", "srv.example", "80"])
        )
        assert event.origin.has_source(DataSource.USER_INPUT)
        # only trusted binaries (libc port/ip staging) may also appear
        untrusted = [
            n for n in event.origin.names_for(DataSource.BINARY)
            if n not in ("/lib/libc.so", "[startup]")
        ]
        assert untrusted == []

    def test_semantic_gap_without_short_circuit(self):
        # Disabling the routine module reproduces the paper's section 7.2
        # problem: the resolved address is tagged with the hosts database
        # (FILE /etc/hosts), not with the hardcoded name.
        config = HarrierConfig(short_circuit_routines=False)
        event = connect_event(run(CONNECT_HARDCODED, config=config))
        assert "/etc/hosts" in event.origin.names_for(DataSource.FILE)

    def test_nested_libc_calls_do_not_confuse_frames(self):
        # strlen and print call through libc between resolve and connect;
        # the short circuit must still bind the right frame.
        source = r"""
main:
    mov ebx, host
    call gethostbyname
    mov esi, eax
    mov ebx, msg
    call print              ; unrelated libc activity
    mov ecx, esi
    call socket
    mov ebx, eax
    mov edx, 80
    call connect_addr
    mov eax, 0
    ret
.data
host: .asciz "srv.example"
msg: .asciz "..."
"""
        event = connect_event(run(source))
        assert event.origin.has_source(DataSource.BINARY)
