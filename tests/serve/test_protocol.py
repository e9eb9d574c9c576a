"""Serve wire protocol: submissions and events survive the round trip.

The protocol is the daemon's outermost contract — everything a client
can say must rebuild bit-for-bit on the worker side (including the
RunOptions subset and fault-profile scalars), and everything malformed
must be a typed :class:`ProtocolError`, never a stack trace mid-stream.
"""

import re

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


#: Submissions whose fields have the wrong JSON shape, each with the
#: words its ProtocolError names.
MALFORMED = [
    ({"workload": "x"}, "'workload' must be a JSON object"),
    ({"workload": {}}, "lacks key 'table'"),
    ({"workload": {"table": "4"}}, "lacks key 'name'"),
    ({"source": "nop", "files": [1]}, "'files' must be a JSON object"),
    ({"source": "nop", "peers": "ab"}, "'peers' must be a JSON object"),
    ({"source": "nop", "argv": 5}, "'argv' must be a JSON array"),
    ({"source": "nop", "argv": "ab"}, "'argv' must be a JSON array"),
    ({"source": "nop", "options": "x"}, "'options' must be a JSON object"),
    ({"source": "nop", "options": {"fault": "x"}},
     "'fault' must be a JSON object"),
    ({"source": "nop", "options": {"fault": {"seed": "x"}}},
     "bad fault seed"),
]


class TestMalformedSubmissions:
    """Every wrong shape is a ProtocolError, which the daemon answers
    with ``rejected``/``invalid-submission``; any other exception would
    drop the connection with no terminal event."""

    @pytest.mark.parametrize(
        "wire, words", MALFORMED, ids=[repr(w) for w, _ in MALFORMED]
    )
    def test_wrong_shape_is_a_protocol_error(self, wire, words):
        with pytest.raises(ProtocolError, match=re.escape(words)):
            Submission.from_wire(wire)

    def test_null_collections_mean_empty(self):
        sub = Submission.from_wire({
            "source": "nop", "argv": None, "files": None, "peers": None,
            "options": None,
        })
        assert sub.argv is None and not sub.files and not sub.peers
        assert sub.options == RunOptions()


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

    @pytest.mark.parametrize("key", ["block_cache", "taint_fastpath",
                                     "rete"])
    @pytest.mark.parametrize("value", [True, False])
    def test_removed_switches_are_unknown_fields(self, key, value):
        with pytest.raises(ProtocolError, match="unknown options"):
            options_from_wire({key: value})

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
        with pytest.raises(ProtocolError, match="max_ticks"):
            Submission.from_wire({
                "source": "nop",
                "options": {"max_ticks": -10 ** 12,
                            "wall_timeout": float("nan")},
                "schema_version": SERVE_SCHEMA_VERSION,
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

    @pytest.mark.parametrize("fault", [
        {"stall_rate": "x"},
        {"stall_rate": True},
        {"errno_rate": -3},
        {"connect_reset_rate": 1.5},
        {"resolve_fail_rate": float("inf")},
        {"quantum_jitter": float("nan")},
        {"max_faults": "many"},
        {"max_faults": True},
        {"max_faults": -1},
        {"max_faults": 2.0},
    ])
    def test_bad_fault_values_rejected(self, fault):
        with pytest.raises(ProtocolError, match="bad fault profile"):
            options_from_wire({"fault": fault})

    @pytest.mark.parametrize("fault", [
        {"stall_rate": 0, "errno_rate": 1},
        {"quantum_jitter": 1.0, "max_faults": 0},
        {"connect_reset_rate": 0.5, "max_faults": None},
    ])
    def test_fault_values_at_the_bounds_accepted(self, fault):
        profile = options_from_wire({"fault": fault}).fault_profile
        for name, value in fault.items():
            assert getattr(profile, name) == value

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
