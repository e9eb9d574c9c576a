"""Policy configuration and trust filters (paper sections 4 and A.2).

The CLIPS prototype exposes ``?*RARE_FREQUENCY*`` / ``?*LONG_TIME*``
globals and ``filter_binary`` / ``filter_socket`` functions that drop
trusted resources from an origin list ("In our prototype we trust the
libc and ld-linux shared objects.  We do not trust any sockets although
our implementation does support this.").  This module is the equivalent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, Tuple

from repro.taint.tags import DataSource, TagSet

#: Default trusted shared objects: guest libc plus the loader shim (the
#: paper trusts libc.so and ld-linux.so).
DEFAULT_TRUSTED_BINARIES: FrozenSet[str] = frozenset(
    {"/lib/libc.so", "[startup]"}
)


@dataclass(frozen=True)
class PolicyConfig:
    #: A basic block executed fewer than this many times is "rare"
    #: (?*RARE_FREQUENCY*).
    rare_frequency: int = 2
    #: An event this long after program start is "a while" into execution
    #: (?*LONG_TIME*, virtual ticks).
    long_time: int = 5000
    #: Total process creations beyond this -> Low warning (section 4.2).
    process_count_threshold: int = 8
    #: Creations inside the rate window beyond this -> Medium warning.
    process_rate_threshold: int = 5
    #: Heap cells allocated beyond this -> Low warning (section 10 item 4;
    #: the Trojan.Vundo memory-drain pattern).
    memory_low_threshold: int = 50_000
    #: ... and beyond this -> Medium warning.
    memory_high_threshold: int = 200_000
    trusted_binaries: FrozenSet[str] = DEFAULT_TRUSTED_BINARIES
    #: Trusted remote endpoints ("we do not trust any sockets, although
    #: our implementation does support this").
    trusted_sockets: FrozenSet[str] = frozenset()

    # -- filter functions (appendix A.2) -----------------------------------
    def filter_binary(self, origin: TagSet) -> Tuple[str, ...]:
        """Untrusted binaries among an origin tag set (suspicious ones)."""
        return tuple(
            name
            for name in origin.names_for(DataSource.BINARY)
            if name not in self.trusted_binaries
        )

    def filter_socket(self, origin: TagSet) -> Tuple[str, ...]:
        """Untrusted sockets among an origin tag set."""
        return tuple(
            name
            for name in origin.names_for(DataSource.SOCKET)
            if name not in self.trusted_sockets
        )

    # -- evolution -----------------------------------------------------------
    def distrusting(self, name: str) -> "PolicyConfig":
        """A copy with ``name`` dropped from the trusted-binaries set.

        Used when the monitored program itself carries a trusted name
        (a Trojan masquerading as ``/lib/libc.so``): trust is a property
        of the *shared objects a program links against*, never of the
        program under observation.
        """
        return replace(
            self, trusted_binaries=self.trusted_binaries - {name}
        )

    # -- derived predicates ---------------------------------------------------
    def is_hardcoded(self, origin: TagSet) -> bool:
        """The identifier came (at least partly) from an untrusted binary."""
        return bool(self.filter_binary(origin))

    def from_socket(self, origin: TagSet) -> bool:
        return bool(self.filter_socket(origin))

    def from_user(self, origin: TagSet) -> bool:
        return origin.has_source(DataSource.USER_INPUT)

    def is_rare(self, frequency: int, time: int) -> bool:
        """Rarely-executed code far into the run (section 4.1 rule 3)."""
        return frequency < self.rare_frequency and time > self.long_time


#: Origins remembered per filter before :class:`PolicyFilters` starts
#: over (a run sees a few distinct origin sets; this caps a hostile one).
MAX_MEMO = 4096


class PolicyFilters:
    """A :class:`PolicyConfig` whose trust filters remember answers.

    Every write fact runs five rule tests over the same few origin sets,
    and each test filters them again; a filter's answer depends only on
    the set and the (frozen) policy, so one dict probe replaces the
    name sort.  One instance per Secpert engine: nothing is shared
    between engines or processes.  Everything else reads through to
    ``config``.
    """

    def __init__(self, config: PolicyConfig) -> None:
        self.config = config
        self._binary: Dict[TagSet, Tuple[str, ...]] = {}
        self._socket: Dict[TagSet, Tuple[str, ...]] = {}

    def __getattr__(self, name: str) -> Any:
        return getattr(self.config, name)

    @staticmethod
    def _memo(memo: Dict[TagSet, Tuple[str, ...]], origin: TagSet,
              compute) -> Tuple[str, ...]:
        names = memo.get(origin)
        if names is None:
            if len(memo) >= MAX_MEMO:
                memo.clear()
            names = memo[origin] = compute(origin)
        return names

    def filter_binary(self, origin: TagSet) -> Tuple[str, ...]:
        return self._memo(self._binary, origin, self.config.filter_binary)

    def filter_socket(self, origin: TagSet) -> Tuple[str, ...]:
        return self._memo(self._socket, origin, self.config.filter_socket)

    def is_hardcoded(self, origin: TagSet) -> bool:
        return bool(self.filter_binary(origin))

    def from_socket(self, origin: TagSet) -> bool:
        return bool(self.filter_socket(origin))
