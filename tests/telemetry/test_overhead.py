"""The §9 overhead study: order labelling and the measured study."""

from repro.telemetry import overhead
from repro.telemetry.overhead import (
    CONFIGS,
    OverheadStudy,
    interleave,
    inversions,
    measure_overhead,
    order_label,
)

GUEST = """
main:
    mov ecx, 40
loop:
    cmp ecx, 0
    jz done
    sub ecx, 1
    jmp loop
done:
    mov eax, 0
    ret
"""


def _study(ms):
    """A study whose configs ran exactly the given millisecond samples."""
    return OverheadStudy({
        name: [t / 1000 for t in samples] for name, samples in ms.items()
    })


MONOTONE = {
    "native": [5, 5, 6, 6, 5],
    "no-dataflow": [7, 7, 8, 8, 7],
    "no-bbfreq": [10, 11, 10, 11, 10],
    "full": [12, 12, 13, 13, 12],
}


class TestOrderLabel:
    def test_monotone(self):
        stats = _study(MONOTONE).stats
        assert inversions(stats) == []
        assert order_label(stats) == "monotone"

    def test_inversion_inside_the_quartiles_is_unresolved(self):
        # no-bbfreq's median sits above full's, but full's Q3 still
        # reaches no-bbfreq's Q1: the spread cannot order them.
        ms = dict(MONOTONE, **{
            "no-bbfreq": [11, 12, 13, 14, 15],
            "full": [10, 11, 12, 13, 16],
        })
        stats = _study(ms).stats
        assert stats["no-bbfreq"]["median"] > stats["full"]["median"]
        assert inversions(stats) == [("no-bbfreq", "full")]
        assert order_label(stats) == "unresolved"

    def test_inversion_beyond_the_quartiles_is_inverted(self):
        ms = dict(MONOTONE, **{"no-bbfreq": [20, 21, 20, 21, 20]})
        stats = _study(ms).stats
        assert inversions(stats) == [("no-bbfreq", "full")]
        assert order_label(stats) == "inverted"

    def test_render_names_the_label_and_the_inverted_pair(self):
        ms = dict(MONOTONE, **{"no-bbfreq": [20, 21, 20, 21, 20]})
        text = _study(ms).render("study")
        assert "order: inverted (median no-bbfreq > full)" in text
        assert "order: monotone" in _study(MONOTONE).render("study")


class TestInterleave:
    def test_warms_up_then_rotates_the_start(self, monkeypatch):
        monkeypatch.setattr(overhead, "REPS", 3)
        calls = []
        seconds = interleave({
            name: (lambda name=name: calls.append(name)) for name in "abc"
        })
        assert calls == list("abc" "abc" "bca" "cab")
        assert {name: len(ts) for name, ts in seconds.items()} == {
            "a": 3, "b": 3, "c": 3,
        }


class TestMeasureOverhead:
    def test_every_config_gets_every_rep(self, monkeypatch):
        monkeypatch.setattr(overhead, "REPS", 3)
        study = measure_overhead("/bin/loop", GUEST)
        assert list(study.seconds) == list(CONFIGS)
        assert all(
            len(ts) == 3 and min(ts) > 0 for ts in study.seconds.values()
        )
        assert order_label(study.stats) in (
            "monotone", "unresolved", "inverted"
        )
