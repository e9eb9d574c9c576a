"""Unit tests for Secpert's rule categories, driven by synthetic Harrier
events (no kernel involved)."""

import pytest

from repro.harrier.events import (
    DataTransferEvent,
    ProcessEvent,
    ResourceAccessEvent,
    ResourceId,
)
from repro.kernel.process import ResourceKind
from repro.secpert import PolicyConfig, Secpert, Severity
from repro.taint import DataSource, Tag, TagSet

APP = "/home/evil/a.out"
BIN = TagSet.of(DataSource.BINARY, APP)
USER = TagSet.of(DataSource.USER_INPUT)
SOCK_ORIGIN = TagSet.of(DataSource.SOCKET, "gateway:9")
EMPTY = TagSet.empty()


def base(call_name, **overrides):
    fields = dict(pid=1, time=10, frequency=3, address="1000",
                  call_name=call_name)
    fields.update(overrides)
    return fields


def execve_event(origin, frequency=3, time=10):
    return ResourceAccessEvent(
        **base("SYS_execve", frequency=frequency, time=time),
        resource=ResourceId(ResourceKind.FILE, "/bin/ls"),
        origin=origin,
    )


def write_event(kind, name, data_tags, resource_origin,
                source_origins=(), **overrides):
    return DataTransferEvent(
        **base("SYS_write", **overrides),
        direction="write",
        resource=ResourceId(kind, name),
        data_tags=data_tags,
        resource_origin=resource_origin,
        source_origins=source_origins,
        length=8,
    )


@pytest.fixture
def secpert():
    return Secpert(PolicyConfig(rare_frequency=2, long_time=100))


def severities(warnings):
    return sorted(w.severity for w in warnings)


class TestExecFlow:
    def test_hardcoded_name_low(self, secpert):
        warnings = secpert.analyze(execve_event(BIN))
        assert [w.severity for w in warnings] == [Severity.LOW]
        assert warnings[0].rule == "check_execve"
        assert '"/bin/ls"' in warnings[0].headline

    def test_rare_hardcoded_medium(self, secpert):
        warnings = secpert.analyze(execve_event(BIN, frequency=1, time=500))
        assert [w.severity for w in warnings] == [Severity.MEDIUM]
        assert any("rarely executed" in d for d in warnings[0].details)

    def test_socket_origin_high(self, secpert):
        warnings = secpert.analyze(execve_event(SOCK_ORIGIN))
        assert [w.severity for w in warnings] == [Severity.HIGH]

    def test_user_origin_silent(self, secpert):
        assert secpert.analyze(execve_event(USER)) == []

    def test_trusted_binary_origin_silent(self, secpert):
        libc = TagSet.of(DataSource.BINARY, "/lib/libc.so")
        assert secpert.analyze(execve_event(libc)) == []

    def test_socket_beats_rare_medium(self, secpert):
        mixed = BIN.union(SOCK_ORIGIN)
        warnings = secpert.analyze(
            execve_event(mixed, frequency=1, time=500)
        )
        assert [w.severity for w in warnings] == [Severity.HIGH]


class TestResourceAbuse:
    def make_event(self, total, recent):
        return ProcessEvent(
            **base("SYS_clone"),
            total_created=total,
            recent_created=recent,
            window=2000,
        )

    def test_below_thresholds_silent(self, secpert):
        assert secpert.analyze(self.make_event(total=3, recent=3)) == []

    def test_count_threshold_low(self, secpert):
        warnings = secpert.analyze(self.make_event(total=9, recent=1))
        assert [w.rule for w in warnings] == ["check_clone_count"]
        assert warnings[0].severity is Severity.LOW

    def test_rate_threshold_medium(self, secpert):
        warnings = secpert.analyze(self.make_event(total=6, recent=6))
        assert [w.rule for w in warnings] == ["check_clone_rate"]
        assert warnings[0].severity is Severity.MEDIUM

    def test_both_thresholds_fire_rate_first(self, secpert):
        warnings = secpert.analyze(self.make_event(total=9, recent=9))
        assert [w.rule for w in warnings] == [
            "check_clone_rate", "check_clone_count"
        ]


class TestBinaryFlows:
    def test_binary_to_hardcoded_file_high(self, secpert):
        warnings = secpert.analyze(
            write_event(ResourceKind.FILE, ".exrc%", BIN, BIN)
        )
        assert [w.severity for w in warnings] == [Severity.HIGH]
        assert warnings[0].rule == "check_binary_to_file"
        text = warnings[0].render()
        assert "The Data written to this file is originated from the" in text
        assert APP in text

    def test_binary_to_user_file_silent(self, secpert):
        assert secpert.analyze(
            write_event(ResourceKind.FILE, "out.txt", BIN, USER)
        ) == []

    def test_binary_to_remote_named_file_high(self, secpert):
        warnings = secpert.analyze(
            write_event(ResourceKind.FILE, "drop", BIN, SOCK_ORIGIN)
        )
        assert [w.severity for w in warnings] == [Severity.HIGH]
        assert any("socket" in d for d in warnings[0].details)

    def test_binary_to_hardcoded_socket_low(self, secpert):
        warnings = secpert.analyze(
            write_event(ResourceKind.SOCKET, "duero:40400", BIN, BIN)
        )
        assert [w.severity for w in warnings] == [Severity.LOW]
        assert warnings[0].rule == "check_binary_to_socket"

    def test_one_warning_per_untrusted_binary_source(self, secpert):
        data = TagSet.of(DataSource.BINARY, "/lib/libcrypto.so.4").union(
            TagSet.of(DataSource.BINARY, "/usr/lib/libreadline.so.4"),
        )
        warnings = secpert.analyze(
            write_event(ResourceKind.SOCKET, "duero:40400", data, BIN)
        )
        assert len(warnings) == 2  # pwsafe's two Low warnings

    def test_fifo_counts_as_file(self, secpert):
        warnings = secpert.analyze(
            write_event(ResourceKind.FIFO, "inpipe1", BIN, BIN)
        )
        assert warnings[0].rule == "check_binary_to_file"


class TestUserAndHardwareFlows:
    def test_user_to_hardcoded_file_high(self, secpert):
        warnings = secpert.analyze(
            write_event(ResourceKind.FILE, ".exrc%", USER, BIN)
        )
        rules = {w.rule for w in warnings}
        assert "check_user_input_flow" in rules
        assert all(w.severity is Severity.HIGH for w in warnings)

    def test_user_to_user_file_silent(self, secpert):
        assert secpert.analyze(
            write_event(ResourceKind.FILE, "a.txt", USER, USER)
        ) == []

    def test_hardware_to_hardcoded_file_high(self, secpert):
        hw = TagSet.of(DataSource.HARDWARE)
        warnings = secpert.analyze(
            write_event(ResourceKind.FILE, "/tmp/hw", hw, BIN)
        )
        assert [w.rule for w in warnings] == ["check_hardware_flow"]
        assert warnings[0].severity is Severity.HIGH

    def test_hardware_to_user_file_silent(self, secpert):
        hw = TagSet.of(DataSource.HARDWARE)
        assert secpert.analyze(
            write_event(ResourceKind.FILE, "mine.txt", hw, USER)
        ) == []


class TestResourceFlows:
    def file_tag(self, name="/etc/passwd"):
        return Tag(DataSource.FILE, name)

    def test_hard_to_hard_high(self, secpert):
        tag = self.file_tag()
        warnings = secpert.analyze(
            write_event(
                ResourceKind.SOCKET, "evil:80",
                TagSet((tag,)), BIN,
                source_origins=((tag, BIN),),
            )
        )
        assert [w.severity for w in warnings] == [Severity.HIGH]
        assert warnings[0].rule == "check_resource_flow"

    def test_user_to_hard_low(self, secpert):
        tag = self.file_tag("notes.txt")
        warnings = secpert.analyze(
            write_event(
                ResourceKind.SOCKET, "evil:80",
                TagSet((tag,)), BIN,
                source_origins=((tag, USER),),
            )
        )
        assert [w.severity for w in warnings] == [Severity.LOW]

    def test_hard_to_user_low(self, secpert):
        tag = self.file_tag()
        warnings = secpert.analyze(
            write_event(
                ResourceKind.FILE, "mine.txt",
                TagSet((tag,)), USER,
                source_origins=((tag, BIN),),
            )
        )
        assert [w.severity for w in warnings] == [Severity.LOW]

    def test_user_to_user_silent(self, secpert):
        tag = self.file_tag("notes.txt")
        assert secpert.analyze(
            write_event(
                ResourceKind.FILE, "mine.txt",
                TagSet((tag,)), USER,
                source_origins=((tag, USER),),
            )
        ) == []

    def test_server_context_elevates(self, secpert):
        # data from a connection accepted on a hardcoded server, written
        # to a hardcoded file (the pma socket->inpipe case)
        tag = Tag(DataSource.SOCKET, "gateway:37047")
        event = DataTransferEvent(
            **base("SYS_write"),
            direction="write",
            resource=ResourceId(ResourceKind.FIFO, "inpipe1"),
            data_tags=TagSet((tag,)),
            resource_origin=BIN,
            source_origins=((tag, EMPTY),),
            source_server_socket="LocalHost:11116",
            source_server_origin=BIN,
            length=4,
        )
        warnings = secpert.analyze(event)
        assert [w.severity for w in warnings] == [Severity.HIGH]
        assert any(
            "opened a socket for remote connections" in d
            for d in warnings[0].details
        )

    def test_read_direction_never_warns(self, secpert):
        tag = self.file_tag()
        event = DataTransferEvent(
            **base("SYS_read"),
            direction="read",
            resource=ResourceId(ResourceKind.FILE, "/etc/passwd"),
            data_tags=TagSet((tag,)),
            resource_origin=BIN,
            source_origins=((tag, BIN),),
            length=4,
        )
        assert secpert.analyze(event) == []
