"""Cross-session monitoring (paper section 10, item 6).

"Expanding the rules to take into account a program's behavior during
several different executions ... when data is downloaded to a file we
will be able to see how that file is being used in later executions
instead of immediately producing an error."

Mechanics:

* a :class:`SessionStore` keeps per-program history — which files
  each program dropped, and in which session — for as long as the
  monitor lives;
* :class:`CrossSessionAnalyzer` wraps a regular :class:`Secpert` and
  rewrites its advice:

  - a first-session hardcoded-file *drop* warning is **deferred**: the
    High is replaced by a Low notice saying the file will be tracked;
  - an execve (or open) of a file dropped in an *earlier* session
    **escalates** to High, with the history spelled out — the paper's
    "replace the rule ... with a set of rules that track (potentially in
    later executions) how that file is being used".

:class:`CrossSessionMonitor` runs sessions on one persistent machine
(the filesystem survives between executions, like a real host).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

from repro.harrier.events import ResourceAccessEvent, SecurityEvent
from repro.secpert.policy import PolicyConfig
from repro.secpert.secpert import Secpert
from repro.secpert.warnings import SecurityWarning, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.report import RunReport, Verdict

#: Rules whose first-session warnings are deferred for later correlation.
_DEFERRABLE_RULES = frozenset(
    {"check_binary_to_file", "check_executable_download"}
)
#: Calls that count as "using" a previously dropped file.
_USE_CALLS = frozenset({"SYS_execve", "SYS_open", "SYS_chmod"})


@dataclass
class ProgramHistory:
    """What the store remembers about one program across sessions."""

    sessions: int = 0
    #: dropped path -> session number (1-based) in which it appeared.
    dropped_files: Dict[str, int] = field(default_factory=dict)


class SessionStore:
    """Per-program histories (the "save all the information between two
    consecutive executions" state)."""

    def __init__(self) -> None:
        self._programs: Dict[str, ProgramHistory] = {}

    def history(self, program: str) -> ProgramHistory:
        history = self._programs.get(program)
        if history is None:
            history = ProgramHistory()
            self._programs[program] = history
        return history

    def begin_session(self, program: str) -> int:
        history = self.history(program)
        history.sessions += 1
        return history.sessions

    def record_drop(self, program: str, path: str) -> None:
        history = self.history(program)
        history.dropped_files.setdefault(path, history.sessions)

    def dropped_in_earlier_session(
        self, program: str, path: str
    ) -> Optional[int]:
        history = self.history(program)
        session = history.dropped_files.get(path)
        if session is not None and session < history.sessions:
            return session
        return None


class CrossSessionAnalyzer:
    """EventAnalyzer wrapper implementing the cross-session policy."""

    def __init__(
        self,
        store: SessionStore,
        policy: Optional[PolicyConfig] = None,
    ) -> None:
        self.store = store
        self.secpert = Secpert(policy)
        self.program: str = "?"
        #: Rewritten warnings (what the user actually sees).
        self.warnings: List[SecurityWarning] = []

    def begin_session(self, program: str) -> int:
        self.program = program
        return self.store.begin_session(program)

    # -- EventAnalyzer ------------------------------------------------------
    def analyze(self, event: SecurityEvent) -> Sequence[SecurityWarning]:
        out: List[SecurityWarning] = []
        out.extend(self._escalations(event))
        for warning in self.secpert.analyze(event):
            out.append(self._maybe_defer(warning))
        self.warnings.extend(out)
        return out

    def _maybe_defer(self, warning: SecurityWarning) -> SecurityWarning:
        if warning.rule not in _DEFERRABLE_RULES:
            return warning
        if warning.severity is not Severity.HIGH:
            return warning
        path = self._drop_path(warning)
        if path is None:
            return warning
        self.store.record_drop(self.program, path)
        return SecurityWarning(
            severity=Severity.LOW,
            rule=f"{warning.rule}:deferred",
            headline=warning.headline,
            details=warning.details + (
                "Cross-session tracking: this file drop is recorded; the "
                "warning escalates if a later session uses the file.",
            ),
            event=warning.event,
            pid=warning.pid,
            time=warning.time,
        )

    @staticmethod
    def _drop_path(warning: SecurityWarning) -> Optional[str]:
        event = warning.event
        resource = getattr(event, "resource", None)
        if resource is None:
            return None
        return resource.name

    def _escalations(self, event: SecurityEvent) -> List[SecurityWarning]:
        if not isinstance(event, ResourceAccessEvent):
            return []
        if event.call_name not in _USE_CALLS:
            return []
        session = self.store.dropped_in_earlier_session(
            self.program, event.resource.name
        )
        if session is None:
            return []
        current = self.store.history(self.program).sessions
        return [
            SecurityWarning(
                severity=Severity.HIGH,
                rule="check_cross_session_use",
                headline=(
                    f"Found {event.call_name} call on "
                    f"{event.resource.name} dropped in an earlier session"
                ),
                details=(
                    f"session {session}: this program created "
                    f"{event.resource.name} with hardcoded data",
                    f"session {current}: the file is now being used "
                    f"({event.call_name})",
                ),
                event=event,
                pid=event.pid,
                time=event.time,
            )
        ]


@dataclass
class SessionReport:
    """Per-session slice of a cross-session run."""

    session: int
    report: "RunReport"
    warnings: List[SecurityWarning]

    @property
    def verdict(self) -> "Verdict":
        from repro.core.report import Verdict

        if not self.warnings:
            return Verdict.BENIGN
        return Verdict.from_severity(max(w.severity for w in self.warnings))


class CrossSessionMonitor:
    """Runs a program repeatedly on one persistent machine, applying the
    cross-session policy."""

    def __init__(self):
        from repro.core.hth import HTH  # local: avoids a circular import

        self.store = SessionStore()
        self.analyzer = CrossSessionAnalyzer(self.store)
        self.hth = HTH(analyzer=self.analyzer)
        self.sessions: List[SessionReport] = []

    def run_session(
        self,
        program,
        argv=None,
        env=None,
        stdin=None,
    ) -> SessionReport:
        name = program if isinstance(program, str) else program.name
        session = self.analyzer.begin_session(name)
        before = len(self.analyzer.warnings)
        report = self.hth.run(program, argv=argv, env=env, stdin=stdin)
        session_report = SessionReport(
            session=session,
            report=report,
            warnings=list(self.analyzer.warnings[before:]),
        )
        self.sessions.append(session_report)
        return session_report
