"""The Rete differential: incremental matching changes nothing observable.

The acceptance property for the incremental matcher: on the Rete
network or on the naive full-rejoin oracle (``tests/oracles``), Secpert
produces bit-identical warnings, reports, and fire traces — across the
paper's full 62-workload matrix, in serial sessions, sharded fleets
(whose fork-started workers inherit the oracle), and the serve worker
path.
"""

import contextlib
import json

from repro.api import Session
from repro.fleet import run_fleet, workload_refs
from tests.oracles import naive_matcher


def _matcher(rete):
    return contextlib.nullcontext() if rete else naive_matcher()


def _dump(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, default=str)


class TestSerialDifferential:
    def test_all_62_workloads_bit_identical(self):
        refs = workload_refs(None)
        assert len(refs) == 62
        rete = Session()
        naive = Session()
        for ref in refs:
            workload = ref.resolve()
            a = rete.run_workload(workload)
            with naive_matcher():
                b = naive.run_workload(workload)
            assert _dump(a) == _dump(b), \
                f"{ref.module}/{ref.name}: rete report differs from naive"
            assert a.render_warnings() == b.render_warnings(), ref.name

    def test_fire_traces_identical_on_tables_4_and_8(self):
        # The engine-level contract behind the report identity: the
        # exact FiredRule sequence matches, activation by activation.
        from repro.secpert.secpert import Secpert

        fired_anywhere = False
        for ref in workload_refs(["4", "8"]):
            workload = ref.resolve()
            traces = {}
            for flag in (True, False):
                with _matcher(flag):
                    secpert = Secpert()
                workload.run(analyzer=secpert)
                traces[flag] = [
                    (f.rule_name, f.fact_ids)
                    for f in secpert.engine.fire_trace
                ]
            assert traces[True] == traces[False], ref.name
            fired_anywhere = fired_anywhere or bool(traces[True])
        assert fired_anywhere  # the sweep is not vacuous


class TestFleetDifferential:
    def test_sharded_sweep_bit_identical(self):
        refs = workload_refs(["4", "8"])
        rete = run_fleet(refs, workers=2)
        with naive_matcher():
            naive = run_fleet(refs, workers=2)
        by_name = lambda fleet: {  # noqa: E731
            r.name: json.dumps(r.report, sort_keys=True, default=str)
            for r in fleet.runs
        }
        assert by_name(rete) == by_name(naive)


class TestServeDifferential:
    def test_streaming_worker_path_bit_identical(self):
        # The serve worker builds the streaming Secpert itself
        # (TapAnalyzer); matching it naively must change nothing
        # observable.
        from repro.serve.protocol import Submission
        from repro.serve.worker import execute_submission

        refs = workload_refs(["8"])
        session = Session()
        for ref in refs:
            outputs = {}
            for flag in (True, False):
                warnings = []
                with _matcher(flag):
                    report, ok, engine = execute_submission(
                        session,
                        Submission(workload=("8", ref.name)),
                        on_warning=lambda seq, w: warnings.append(
                            (seq, str(w))
                        ),
                    )
                outputs[flag] = (_dump(report), ok, warnings)
                assert engine is not None
            assert outputs[True] == outputs[False], ref.name
