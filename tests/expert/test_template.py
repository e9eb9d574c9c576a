"""Template/Fact tests."""

import pytest

from repro.expert import SlotSpec, Template, TemplateError


@pytest.fixture
def template():
    return Template(
        "event",
        (
            SlotSpec("name"),
            SlotSpec("count", default=0),
            SlotSpec("origins", multi=True),
        ),
    )


class TestTemplate:
    def test_make_fills_defaults(self, template):
        fact = template.make(name="x")
        assert fact["count"] == 0
        assert fact["origins"] == ()

    def test_make_rejects_unknown_slot(self, template):
        with pytest.raises(TemplateError):
            template.make(bogus=1)

    def test_duplicate_slots_rejected(self):
        with pytest.raises(TemplateError):
            Template("t", (SlotSpec("a"), SlotSpec("a")))

    def test_define_shorthand(self):
        t = Template.define("t", "a", "b", multi=("c",))
        fact = t.make(a=1, b=2, c=[3, 4])
        assert fact["c"] == (3, 4)

    def test_multislot_normalization(self, template):
        assert template.make(name="x", origins="solo")["origins"] == ("solo",)
        assert template.make(name="x", origins=None)["origins"] == ()
        assert template.make(name="x", origins=[1, 2])["origins"] == (1, 2)


class TestFact:
    def test_get_unknown_slot_raises(self, template):
        fact = template.make(name="x")
        with pytest.raises(TemplateError):
            fact.get("bogus")

    def test_items_and_name(self, template):
        fact = template.make(name="x", count=3)
        assert fact.name == "event"
        assert dict(fact.items())["count"] == 3

    def test_repr_shows_id(self, template):
        fact = template.make(name="x")
        assert "f-?" in repr(fact)
        fact.fact_id = 7
        assert "f-7" in repr(fact)
