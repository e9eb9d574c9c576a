"""A from-scratch CLIPS-style expert system shell (paper section 6.2).

Three components, mirroring the paper's description of CLIPS:

* **facts** — :class:`Template` / :class:`Fact` (with multislots),
* **rules** — :class:`Rule` with pattern/test/not LHS elements,
* **inference engine** — :class:`InferenceEngine`: salience-ordered agenda,
  refraction, assert/retract, and a fire trace for explainability.
"""

from repro.expert.clips_format import (
    render_assert,
    render_fact,
)
from repro.expert.conditions import Not, P, Pattern, Test, V
from repro.expert.engine import (
    Activation,
    EngineError,
    FiredRule,
    InferenceEngine,
    Rule,
    RuleContext,
)
from repro.expert.rete import MatchStats, ReteNetwork
from repro.expert.template import Fact, SlotSpec, Template, TemplateError

__all__ = [
    "Template",
    "SlotSpec",
    "Fact",
    "TemplateError",
    "Pattern",
    "Test",
    "Not",
    "V",
    "P",
    "InferenceEngine",
    "Rule",
    "RuleContext",
    "Activation",
    "FiredRule",
    "EngineError",
    "ReteNetwork",
    "MatchStats",
    "render_fact",
    "render_assert",
]
