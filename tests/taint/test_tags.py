"""Unit and property tests for the multi-source taint tags."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.taint import EMPTY, DataSource, Tag, TagSet, union_all


def test_tag_requires_data_source():
    with pytest.raises(TypeError):
        Tag("FILE", "/etc/passwd")  # type: ignore[arg-type]


def test_tag_str_with_and_without_name():
    assert str(Tag(DataSource.FILE, "/etc/passwd")) == "FILE(/etc/passwd)"
    assert str(Tag(DataSource.HARDWARE)) == "HARDWARE"


def test_empty_singleton():
    assert TagSet.empty() is TagSet.empty()
    assert EMPTY.is_empty()
    assert not EMPTY
    assert len(EMPTY) == 0


def test_of_constructor():
    ts = TagSet.of(DataSource.BINARY, "/bin/ls")
    assert len(ts) == 1
    assert Tag(DataSource.BINARY, "/bin/ls") in ts
    assert ts.has_source(DataSource.BINARY)
    assert not ts.has_source(DataSource.FILE)


def test_union_merges_tags():
    a = TagSet.of(DataSource.FILE, "/a")
    b = TagSet.of(DataSource.SOCKET, "host:80")
    merged = a.union(b)
    assert len(merged) == 2
    assert merged.has_source(DataSource.FILE)
    assert merged.has_source(DataSource.SOCKET)


def test_union_returns_self_when_subset():
    a = TagSet.of(DataSource.FILE, "/a")
    assert a.union(EMPTY) is a
    assert a.union(a) is a


def test_union_rejects_non_tagset():
    with pytest.raises(TypeError):
        TagSet.empty().union({Tag(DataSource.FILE, "/a")})  # type: ignore


def test_tagset_rejects_non_tags():
    with pytest.raises(TypeError):
        TagSet(["FILE"])  # type: ignore[list-item]


def test_names_for_sorted():
    ts = union_all(
        [
            TagSet.of(DataSource.FILE, "/z"),
            TagSet.of(DataSource.FILE, "/a"),
            TagSet.of(DataSource.BINARY, "/bin"),
        ]
    )
    assert ts.names_for(DataSource.FILE) == ("/a", "/z")


def test_iteration_is_sorted_and_deterministic():
    ts = union_all(
        [
            TagSet.of(DataSource.SOCKET, "b"),
            TagSet.of(DataSource.SOCKET, "a"),
        ]
    )
    assert list(ts) == sorted(ts.tags, key=lambda t: t.sort_key())


def test_or_operator_and_equality_hash():
    a = TagSet.of(DataSource.FILE, "/a")
    b = TagSet.of(DataSource.FILE, "/a")
    assert a == b
    assert hash(a) == hash(b)
    assert (a | TagSet.of(DataSource.BINARY, "/x")).has_source(DataSource.BINARY)
    assert a != "not a tagset"  # __eq__ NotImplemented path


def test_union_all_empty_iterable():
    assert union_all([]) is TagSet.empty()


# -- property-based tests ----------------------------------------------------

_sources = st.sampled_from(list(DataSource))
_names = st.one_of(st.none(), st.text(min_size=1, max_size=8))
_tags = st.builds(Tag, _sources, _names)
_tagsets = st.builds(lambda ts: TagSet(ts), st.frozensets(_tags, max_size=6))


@given(_tagsets, _tagsets)
def test_union_commutative(a, b):
    assert a.union(b) == b.union(a)


@given(_tagsets, _tagsets, _tagsets)
def test_union_associative(a, b, c):
    assert a.union(b).union(c) == a.union(b.union(c))


@given(_tagsets)
def test_union_idempotent(a):
    assert a.union(a) == a


@given(_tagsets)
def test_empty_is_identity(a):
    assert a.union(EMPTY) == a
    assert EMPTY.union(a) == a


@given(_tagsets, _tagsets)
def test_union_is_superset(a, b):
    merged = a.union(b)
    assert a.tags <= merged.tags
    assert b.tags <= merged.tags
