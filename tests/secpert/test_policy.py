"""PolicyConfig filter/predicate tests."""

from repro.secpert.policy import PolicyConfig
from repro.taint import DataSource, TagSet


def ts(*pairs):
    return TagSet.empty().union(
        *(TagSet.of(src, name) for src, name in pairs)
    )


class TestFilters:
    def test_filter_binary_drops_trusted(self):
        policy = PolicyConfig()
        origin = ts(
            (DataSource.BINARY, "/lib/libc.so"),
            (DataSource.BINARY, "/home/evil"),
        )
        assert policy.filter_binary(origin) == ("/home/evil",)

    def test_filter_binary_empty_when_all_trusted(self):
        policy = PolicyConfig()
        origin = ts((DataSource.BINARY, "/lib/libc.so"),
                    (DataSource.BINARY, "[startup]"))
        assert policy.filter_binary(origin) == ()

    def test_filter_socket_default_trusts_none(self):
        policy = PolicyConfig()
        origin = ts((DataSource.SOCKET, "evil:80"))
        assert policy.filter_socket(origin) == ("evil:80",)

    def test_filter_socket_with_trusted_set(self):
        policy = PolicyConfig(trusted_sockets=frozenset({"good:443"}))
        origin = ts((DataSource.SOCKET, "good:443"),
                    (DataSource.SOCKET, "bad:80"))
        assert policy.filter_socket(origin) == ("bad:80",)

    def test_custom_trusted_binaries(self):
        policy = PolicyConfig(trusted_binaries=frozenset({"/bin/vendor"}))
        origin = ts((DataSource.BINARY, "/bin/vendor"))
        assert not policy.is_hardcoded(origin)


class TestPredicates:
    def test_is_hardcoded(self):
        policy = PolicyConfig()
        assert policy.is_hardcoded(ts((DataSource.BINARY, "/app")))
        assert not policy.is_hardcoded(ts((DataSource.USER_INPUT, None)))
        assert not policy.is_hardcoded(TagSet.empty())

    def test_from_socket(self):
        policy = PolicyConfig()
        assert policy.from_socket(ts((DataSource.SOCKET, "x:1")))
        assert not policy.from_socket(ts((DataSource.FILE, "/f")))

    def test_from_user(self):
        policy = PolicyConfig()
        assert policy.from_user(ts((DataSource.USER_INPUT, None)))
        assert not policy.from_user(ts((DataSource.BINARY, "/app")))

    def test_is_rare_needs_both_conditions(self):
        policy = PolicyConfig(rare_frequency=2, long_time=100)
        assert policy.is_rare(frequency=1, time=101)
        assert not policy.is_rare(frequency=2, time=101)   # too frequent
        assert not policy.is_rare(frequency=1, time=100)   # too early
