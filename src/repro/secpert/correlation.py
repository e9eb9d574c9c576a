"""Simultaneous-session monitoring (paper section 10, item 7).

"Adding support to concurrently monitor different executions on one
machine, and introducing new rules and policy to detect interactions
between the different programs."

:class:`InteractionAnalyzer` wraps Secpert and additionally tracks, per
*program* (by command path), which files each one creates.  When one
monitored program uses — executes, chmods, or reopens — a file another
program created, an interaction warning fires: neither half of a
dropper/launcher pair looks malicious alone, but the interaction is the
classic staged-Trojan shape (the Windows-update.com example of §2.1
installs through exactly such a chain).

This also enables the paper's §8.2 suggestion for g++-style false
positives: a parent and the helpers it spawns form one *program group*,
so intra-group interactions are not flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.harrier.events import (
    DataTransferEvent,
    ResourceAccessEvent,
    SecurityEvent,
)
from repro.secpert.policy import PolicyConfig
from repro.secpert.secpert import Secpert
from repro.secpert.warnings import SecurityWarning, Severity

#: Calls that count as "using" another program's file.
_USE_CALLS = frozenset({"SYS_execve", "SYS_chmod"})


@dataclass
class MachineState:
    """What the correlator knows about the whole machine."""

    #: file path -> program (group) that created it.
    file_creators: Dict[str, str] = field(default_factory=dict)
    #: pid -> program group name.
    pid_groups: Dict[int, str] = field(default_factory=dict)
    #: Interactions already reported (creator, user, path).
    reported: Set[Tuple[str, str, str]] = field(default_factory=set)


class InteractionAnalyzer:
    """EventAnalyzer wrapper correlating events across programs."""

    def __init__(self, policy: Optional[PolicyConfig] = None) -> None:
        self.secpert = Secpert(policy)
        self.state = MachineState()
        self.warnings: List[SecurityWarning] = []

    # -- program-group bookkeeping ---------------------------------------
    def register_process(self, pid: int, group: str) -> None:
        """Attach a pid to a program group (fork children inherit)."""
        self.state.pid_groups[pid] = group

    def group_of(self, pid: int) -> str:
        return self.state.pid_groups.get(pid, f"pid{pid}")

    # -- EventAnalyzer ------------------------------------------------------
    def analyze(self, event: SecurityEvent) -> Sequence[SecurityWarning]:
        out: List[SecurityWarning] = []
        out.extend(self._correlate(event))
        out.extend(self.secpert.analyze(event))
        self.warnings.extend(out)
        return out

    def _correlate(self, event: SecurityEvent) -> List[SecurityWarning]:
        group = self.group_of(event.pid)
        if isinstance(event, DataTransferEvent):
            if event.direction == "write" and event.resource is not None:
                self.state.file_creators.setdefault(
                    event.resource.name, group
                )
            return []
        if not isinstance(event, ResourceAccessEvent):
            return []
        if event.call_name not in _USE_CALLS:
            return []
        path = event.resource.name
        creator = self.state.file_creators.get(path)
        if creator is None or creator == group:
            return []  # unknown file, or intra-group use (the g++ case)
        key = (creator, group, path)
        if key in self.state.reported:
            return []
        self.state.reported.add(key)
        return [
            SecurityWarning(
                severity=Severity.MEDIUM,
                rule="check_program_interaction",
                headline=(
                    f"Found {event.call_name} call on {path} created by "
                    f"another monitored program"
                ),
                details=(
                    f"{path} was written by {creator}",
                    f"and is now being used by {group} "
                    f"({event.call_name})",
                    "staged dropper/launcher interaction between programs",
                ),
                event=event,
                pid=event.pid,
                time=event.time,
            )
        ]


class MultiProgramMonitor:
    """Runs several programs on one machine under one correlator.

    Built on the kernel's normal multi-process support: every program is
    spawned up front, the scheduler interleaves them, and the analyzer
    sees one merged event stream (pid -> program group resolved through
    fork-aware bookkeeping).
    """

    def __init__(self):
        from repro.core.hth import HTH

        self.analyzer = InteractionAnalyzer()
        self.hth = HTH(analyzer=self.analyzer)
        # Track fork lineage so children stay in the parent's group.
        original_fork = self.hth.kernel.fork_process

        def fork_with_groups(parent):
            child = original_fork(parent)
            group = self.analyzer.state.pid_groups.get(parent.pid)
            if group is not None:
                self.analyzer.register_process(child.pid, group)
            return child

        self.hth.kernel.fork_process = fork_with_groups

    def spawn(self, program, argv=None, env=None, group: Optional[str] = None):
        proc = self.hth.kernel.spawn(program, argv=argv, env=env)
        name = group or proc.command
        self.analyzer.register_process(proc.pid, name)
        return proc

    def run(self):
        """Run every spawned program under the default tick budget."""
        self.hth.kernel.write_hosts_file()
        return self.hth.kernel.run(max_ticks=self.hth.options.max_ticks)

    @property
    def warnings(self) -> List[SecurityWarning]:
        return self.analyzer.warnings

    def interaction_warnings(self) -> List[SecurityWarning]:
        return [
            w for w in self.warnings
            if w.rule == "check_program_interaction"
        ]
