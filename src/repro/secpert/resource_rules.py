"""Resource-abuse rules (paper section 4.2 + section 10 item 4).

Four productions:

* ``check_clone_count`` — the *number* of processes created is high -> Low
  ("Found several SYS_clone calls / This call was frequent");
* ``check_clone_rate`` — the *rate* of creation is high -> Medium
  ("This call was very frequent in a short period of time");
* ``check_memory_usage`` / ``check_memory_abuse`` — heap growth past the
  policy thresholds -> Low / Medium (the future-work memory-abuse rules;
  Trojan.Vundo's virtual-memory drain is the motivating example).
"""

from __future__ import annotations

from typing import List

from repro.expert.conditions import Pattern, Test, V
from repro.expert.engine import Rule, RuleContext
from repro.secpert.policy import PolicyConfig
from repro.secpert.warnings import SecurityWarning, Severity, WarningSink


def build_resource_rules(policy: PolicyConfig) -> List[Rule]:
    def count_high(bindings) -> bool:
        return bindings["total"] > policy.process_count_threshold

    def rate_high(bindings) -> bool:
        return bindings["recent"] > policy.process_rate_threshold

    def warn_count(ctx: RuleContext) -> None:
        sink: WarningSink = ctx.context["warn"]
        sink.add(
            SecurityWarning(
                severity=Severity.LOW,
                rule="check_clone_count",
                headline="Found several SYS_clone calls",
                details=("This call was frequent",),
                pid=ctx["pid"],
                time=ctx["time"],
            )
        )

    def warn_rate(ctx: RuleContext) -> None:
        sink: WarningSink = ctx.context["warn"]
        sink.add(
            SecurityWarning(
                severity=Severity.MEDIUM,
                rule="check_clone_rate",
                headline="Found several SYS_clone calls",
                details=(
                    "This call was very frequent in a short period of time",
                ),
                pid=ctx["pid"],
                time=ctx["time"],
            )
        )

    count_rule = Rule(
        name="check_clone_count",
        doc="Many processes created in total",
        lhs=[
            Pattern(
                "process_created",
                total=V("total"),
                time=V("time"),
                pid=V("pid"),
            ),
            Test(count_high),
        ],
        action=warn_count,
    )
    rate_rule = Rule(
        name="check_clone_rate",
        doc="Processes created at a high rate",
        salience=1,  # the stronger signal is reported first
        lhs=[
            Pattern(
                "process_created",
                recent=V("recent"),
                time=V("time"),
                pid=V("pid"),
            ),
            Test(rate_high),
        ],
        action=warn_rate,
    )

    def memory_low(bindings) -> bool:
        return (
            policy.memory_low_threshold
            < bindings["total"] <= policy.memory_high_threshold
        )

    def memory_high(bindings) -> bool:
        return bindings["total"] > policy.memory_high_threshold

    def warn_memory(severity, detail):
        def action(ctx: RuleContext) -> None:
            sink: WarningSink = ctx.context["warn"]
            sink.add(
                SecurityWarning(
                    severity=severity,
                    rule=(
                        "check_memory_usage"
                        if severity is Severity.LOW
                        else "check_memory_abuse"
                    ),
                    headline="Found unusually large memory allocation",
                    details=(
                        detail,
                        f"total heap cells allocated: {ctx['total']}",
                    ),
                    pid=ctx["pid"],
                    time=ctx["time"],
                )
            )

        return action

    # One Pattern object for both thresholds, so the two rules share one
    # join node and a memory event is matched once.
    memory_pattern = Pattern(
        "memory_usage",
        total_allocated=V("total"),
        time=V("time"),
        pid=V("pid"),
    )
    memory_low_rule = Rule(
        name="check_memory_usage",
        doc="Heap growth past the low threshold (future work item 4)",
        lhs=[memory_pattern, Test(memory_low)],
        action=warn_memory(
            Severity.LOW, "This program is consuming a lot of memory"
        ),
    )
    memory_high_rule = Rule(
        name="check_memory_abuse",
        doc="Heap growth past the abuse threshold (future work item 4)",
        salience=1,
        lhs=[memory_pattern, Test(memory_high)],
        action=warn_memory(
            Severity.MEDIUM,
            "This program may be draining OS memory to degrade performance",
        ),
    )
    return [count_rule, rate_rule, memory_low_rule, memory_high_rule]
