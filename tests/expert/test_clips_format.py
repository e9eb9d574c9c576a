"""CLIPS-syntax rendering tests (paper Appendix A shapes)."""

from repro.expert import (
    InferenceEngine,
    Pattern,
    Rule,
    Template,
    render_assert,
    render_fact,
)
from repro.expert.engine import FiredRule
from repro.harrier.events import ResourceAccessEvent, ResourceId
from repro.kernel.process import ResourceKind
from repro.secpert.facts import fact_of
from repro.taint import DataSource, TagSet


def render_firing(index, fired):
    """One agenda firing (Appendix A.3 style)."""
    ids = ",".join(f"f-{fid}" for fid in fired.fact_ids)
    return f"FIRE {index} {fired.rule_name}: {ids}"


def render_fire_trace(trace):
    """A whole agenda run, one ``render_firing`` line per firing."""
    return "\n".join(
        render_firing(i, fired) for i, fired in enumerate(trace, start=1)
    )


class TestFactRendering:
    def test_appendix_a1_shape(self):
        """The rendered execve fact reads like the appendix's assert."""
        event = ResourceAccessEvent(
            pid=1, time=33, frequency=1, address="8048403",
            call_name="SYS_execve",
            resource=ResourceId(ResourceKind.FILE, "/bin/ls"),
            origin=TagSet.of(DataSource.BINARY, "/bench/execve.exe"),
        )
        text = render_fact(fact_of(event))
        assert text.startswith("(assert (system_call_access")
        assert "(system_call_name SYS_execve)" in text
        assert '(resource_name "/bin/ls")' in text
        assert "(resource_type FILE)" in text
        assert 'BINARY "/bench/execve.exe"' in text
        assert "(time 33)" in text
        assert "(frequency 1)" in text
        assert '(address "8048403")' in text

    def test_render_assert_has_prompt(self):
        template = Template.define("t", "x")
        assert render_assert(template.make(x=1)).startswith("CLIPS> (assert")

    def test_value_rendering_edge_cases(self):
        template = Template.define("t", "a", "b", "c", "d")
        fact = template.make(a=None, b=True, c=(1, 2), d=TagSet.empty())
        text = render_fact(fact)
        assert "(a nil)" in text
        assert "(b TRUE)" in text
        assert "(c 1 2)" in text
        assert "(d nil)" in text


class TestFireTraceRendering:
    def test_appendix_a3_shape(self):
        fired = FiredRule(
            rule_name="check_execve", fact_ids=(43, 42, 5), bindings={}
        )
        assert render_firing(1, fired) == "FIRE 1 check_execve: f-43,f-42,f-5"

    def test_trace_from_live_engine(self):
        engine = InferenceEngine()
        engine.define_template(Template.define("go", "n"))
        engine.add_rule(Rule("r", [Pattern("go")], lambda ctx: None))
        engine.assert_fact(engine.templates["go"].make(n=1))
        engine.assert_fact(engine.templates["go"].make(n=2))
        engine.run()
        text = render_fire_trace(engine.fire_trace)
        assert text.splitlines()[0].startswith("FIRE 1 r: f-")
        assert text.splitlines()[1].startswith("FIRE 2 r: f-")
