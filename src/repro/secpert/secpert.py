"""Secpert — the security expert (paper section 6).

Receives Harrier's events, asserts them as CLIPS facts (each event is the
record its fact reads, :mod:`repro.secpert.facts`), runs the inference
engine, and collects the warnings the policy rules produce.  Facts are
ephemeral (asserted per event, retracted after the engine quiesces), which
matches the prototype's resolution protocol; the fire trace persists so
the expert system can explain its advice.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.expert.engine import FiredRule, InferenceEngine
from repro.harrier.analyzer import EventAnalyzer
from repro.harrier.events import SecurityEvent
from repro.secpert.exec_flow_rules import build_exec_flow_rules
from repro.secpert.facts import ALL_TEMPLATES, fact_of
from repro.secpert.info_flow_rules import build_info_flow_rules
from repro.secpert.policy import PolicyConfig, PolicyFilters
from repro.secpert.resource_rules import build_resource_rules
from repro.secpert.warnings import SecurityWarning, WarningSink


class Secpert(EventAnalyzer):
    def __init__(self, policy: Optional[PolicyConfig] = None) -> None:
        self.policy = policy or PolicyConfig()
        self.sink = WarningSink()
        self.engine = self._build_engine()
        #: Optional ProvenanceRecorder (repro.telemetry.provenance).
        #: When attached, every stamped warning carries an evidence
        #: trail built from the fire-trace slice its event produced.
        self.provenance = None
        self._rule_docs = {r.name: r.doc for r in self.engine.rules}

    def _build_engine(self) -> InferenceEngine:
        engine = InferenceEngine()
        for template in ALL_TEMPLATES:
            engine.define_template(template)
        # The rules' trust filters, memoised for this engine only.
        filters = PolicyFilters(self.policy)
        for rule in (
            build_exec_flow_rules(filters)
            + build_resource_rules(filters)
            + build_info_flow_rules(filters)
        ):
            engine.add_rule(rule)
        engine.context["warn"] = self.sink
        engine.context["policy"] = self.policy
        return engine

    def distrust(self, name: str) -> None:
        """Withdraw name-based trust from ``name`` and rebuild the rules.

        The policy is baked into every rule closure at engine-build
        time, so narrowing it means rebuilding the engine — the warning
        sink, provenance recorder, and any attached metrics registry
        carry over.  Called by :meth:`repro.core.hth.HTH.run` before
        spawn when the monitored program itself carries a trusted name
        (the masquerade evasion; see docs/adversarial.md).
        """
        if name not in self.policy.trusted_binaries:
            return
        metrics = self.engine.metrics
        self.policy = self.policy.distrusting(name)
        self.engine = self._build_engine()
        self.engine.metrics = metrics
        self._rule_docs = {r.name: r.doc for r in self.engine.rules}

    def attach_telemetry(self, telemetry) -> None:
        """Wire the engine's metrics hooks to a live registry."""
        if getattr(telemetry, "is_enabled", False):
            self.engine.metrics = telemetry.metrics

    def attach_provenance(self, recorder) -> None:
        """Stamp evidence trails onto warnings via this recorder."""
        self.provenance = recorder

    # -- EventAnalyzer ---------------------------------------------------------
    def analyze(self, event: SecurityEvent) -> Sequence[SecurityWarning]:
        fact = fact_of(event)
        if fact is None:
            return ()
        engine = self.engine
        if not engine.accepts(fact):
            # No production can take it: asserting, running and
            # retracting would change nothing but the fact's id.
            engine.skip_fact(fact)
            return []
        before = len(self.sink)
        trace_before = len(engine.fire_trace)
        engine.assert_fact(fact)
        engine.run()
        engine.retract(fact)
        new = self.sink.warnings[before:]
        fired = engine.fire_trace[trace_before:]
        # Stamp the triggering event (and, when a provenance recorder is
        # attached, the evidence trail) onto the warnings.
        recorder = self.provenance
        stamped = [
            SecurityWarning(
                severity=w.severity,
                rule=w.rule,
                headline=w.headline,
                details=w.details,
                event=event,
                pid=w.pid,
                time=w.time,
                evidence=(
                    recorder.evidence_for(
                        w, event, fact, fired, self._rule_docs
                    )
                    if recorder is not None
                    else None
                ),
            )
            for w in new
        ]
        self.sink.warnings[before:] = stamped
        return stamped

    # -- queries -------------------------------------------------------------
    @property
    def warnings(self) -> List[SecurityWarning]:
        return self.sink.warnings

    @property
    def quarantined_rules(self) -> List[str]:
        """Names of rules the engine disabled after they raised."""
        return sorted(self.engine.quarantined)

    def explanations(self) -> List[FiredRule]:
        """The engine's fire trace (which rule fired on which facts)."""
        return list(self.engine.fire_trace)

    def explain(self, warning: SecurityWarning) -> str:
        """A CLIPS-style explanation of one warning (appendix A shapes):
        the asserted fact that triggered it, the production that fired,
        and the advice — "an expert system can give the user all of the
        information that was used to reach its conclusion" (§6.2.1)."""
        from repro.expert.clips_format import render_assert

        lines = []
        if warning.event is not None:
            fact = fact_of(warning.event)
            if fact is not None:
                lines.append(render_assert(fact))
                lines.append("")
        rule = next(
            (r for r in self.engine.rules if r.name == warning.rule), None
        )
        lines.append(f"FIRE {warning.rule}")
        if rule is not None and rule.doc:
            lines.append(f"  ; {rule.doc}")
        lines.append("")
        lines.append(warning.render())
        return "\n".join(lines)

    def render_warnings(self) -> str:
        return self.sink.render_all()
