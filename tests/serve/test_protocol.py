"""Serve wire protocol: submissions and events survive the round trip.

The protocol is the daemon's outermost contract — everything a client
can say must rebuild bit-for-bit on the worker side (including the
RunOptions subset and fault-profile scalars), and everything malformed
must be a typed :class:`ProtocolError`, never a stack trace mid-stream.
"""

import pytest

from repro.core.options import DEFAULT_MAX_TICKS, RunOptions
from repro.faultinject.plan import FaultProfile
from repro.serve.protocol import (
    SERVE_SCHEMA_VERSION,
    TERMINAL_KINDS,
    ProtocolError,
    Submission,
    accepted_event,
    decode_line,
    encode_event,
    options_from_wire,
    options_to_wire,
    rejected_event,
)


class TestSubmissionRoundTrip:
    def test_inline_source_round_trips(self):
        sub = Submission(
            source="main:\n    ret\n",
            path="/bin/backdoor",
            argv=("/bin/backdoor", "-q"),
            stdin="hello\n",
            files={"/etc/passwd": "root:x:0:0\n"},
            peers={"cmd.attacker.net:5150": "/bin/date\n",
                   "sink.example.org:80": ""},
            options=RunOptions(max_ticks=123456, wall_timeout=9.5,
                               metrics=True),
            tenant="acme",
            name="backdoor-probe",
        )
        back = Submission.from_wire(sub.to_wire())
        assert back == sub

    def test_workload_reference_round_trips(self):
        sub = Submission(workload=("4", "Remote execve"), tenant="t1")
        back = Submission.from_wire(sub.to_wire())
        assert back == sub
        assert back.workload == ("4", "Remote execve")

    def test_wire_is_plain_json(self):
        import json

        sub = Submission(source="main:\n    ret\n", argv=("/bin/g",))
        line = encode_event(sub.to_wire())
        assert Submission.from_wire(json.loads(line)) == sub

    def test_needs_exactly_one_of_source_or_workload(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            Submission()
        with pytest.raises(ProtocolError, match="exactly one"):
            Submission(source="main:\n ret\n", workload=("4", "Hardcode"))

    def test_future_schema_version_rejected(self):
        wire = Submission(source="main:\n ret\n").to_wire()
        wire["schema_version"] = SERVE_SCHEMA_VERSION + 1
        with pytest.raises(ProtocolError, match="schema_version"):
            Submission.from_wire(wire)

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            Submission.from_wire(["not", "a", "mapping"])


class TestOptionsOnTheWire:
    def test_missing_options_means_defaults(self):
        assert options_from_wire(None) == RunOptions()

    def test_option_fields_round_trip(self):
        options = RunOptions(
            provenance=False, metrics=True, max_ticks=777, wall_timeout=3.0,
            cache=False,
        )
        assert options_from_wire(options_to_wire(options)) == options

    def test_removed_switches_are_not_emitted(self):
        wire = options_to_wire(RunOptions())
        assert not {"block_cache", "taint_fastpath", "rete"} & set(wire)

    def test_parent_client_switches_accepted_when_true(self):
        # Every client of the previous release sends all three keys, as
        # true, on every submission.
        legacy = dict(
            options_to_wire(RunOptions(metrics=True)),
            block_cache=True, taint_fastpath=True, rete=True,
        )
        assert options_from_wire(legacy) == RunOptions(metrics=True)
        sub = Submission.from_wire(
            {"source": "nop", "options": legacy, "schema_version": 2}
        )
        assert sub.options == RunOptions(metrics=True)

    @pytest.mark.parametrize("key, oracle", [
        ("block_cache", "per-instruction interpreter"),
        ("taint_fastpath", "all-replay taint"),
        ("rete", "naive rule matcher"),
    ])
    def test_removed_switch_false_rejected(self, key, oracle):
        with pytest.raises(ProtocolError, match=oracle):
            options_from_wire({key: False})

    def test_unknown_option_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown options"):
            options_from_wire({"policy": "server-side-only"})

    @pytest.mark.parametrize("max_ticks", [0, -1, -10 ** 12])
    def test_nonpositive_max_ticks_rejected(self, max_ticks):
        with pytest.raises(ProtocolError, match="max_ticks"):
            options_from_wire({"max_ticks": max_ticks})

    @pytest.mark.parametrize("options", [
        {"max_ticks": float("nan")},
        {"max_ticks": "many"},
        {"wall_timeout": "soon"},
        {"wall_timeout": [1]},
    ])
    def test_unconvertible_values_rejected(self, options):
        with pytest.raises(ProtocolError, match="bad options value"):
            options_from_wire(options)

    @pytest.mark.parametrize(
        "wall_timeout", [0, -1.0, float("nan"), float("inf")]
    )
    def test_nonpositive_or_nonfinite_wall_timeout_rejected(
        self, wall_timeout
    ):
        with pytest.raises(ProtocolError, match="wall_timeout"):
            options_from_wire({"wall_timeout": wall_timeout})

    def test_tick_budget_bypass_submission_rejected(self):
        with pytest.raises(ProtocolError):
            Submission.from_wire({
                "source": "nop",
                "options": {"max_ticks": -10 ** 12,
                            "wall_timeout": float("nan")},
                "schema_version": 2,
            })

    def test_fault_profile_scalars_travel(self):
        options = RunOptions(
            fault_profile=FaultProfile(stall_rate=0.25, errno_rate=0.1),
            fault_seed=42,
        )
        back = options_from_wire(options_to_wire(options))
        assert back.fault_seed == 42
        assert back.fault_profile.stall_rate == 0.25
        assert back.fault_profile.errno_rate == 0.1

    def test_unknown_fault_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown fault"):
            options_from_wire({"fault": {"seed": 1, "blast_radius": 9}})

    def test_defaults_survive_an_empty_wire_dict(self):
        options = options_from_wire({})
        assert options.max_ticks == DEFAULT_MAX_TICKS
        assert options.wall_timeout is None
        assert options.fault_profile is None


class TestEvents:
    def test_encode_decode_round_trip(self):
        event = accepted_event("job-7", 3)
        assert decode_line(encode_event(event)) == event

    def test_rejected_event_carries_reason_and_schema(self):
        event = rejected_event("queue-full", "depth 64/64")
        assert event["kind"] == "rejected"
        assert event["schema_version"] == SERVE_SCHEMA_VERSION
        assert event["reason"] == "queue-full"

    def test_terminal_kinds_cover_every_way_a_stream_ends(self):
        assert TERMINAL_KINDS == {"rejected", "report", "error"}

    def test_undecodable_line_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_line(b"not json at all\n")
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_line(b"[1, 2, 3]\n")
