"""Exploit characterization data (paper Tables 1 and 2).

Table 1 summarizes the execution patterns of the nine real-world
malicious-code examples of section 2.1.  Table 2 enumerates the legal
(data source x resource-ID origin) combinations of section 5.1 — here
derived from the taint model so the table stays consistent with the
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.taint.tags import DataSource


@dataclass(frozen=True)
class ExploitProfile:
    """One Table 1 row."""

    name: str
    kind: str
    no_user_intervention: bool
    remotely_directed: bool
    hardcoded_resources: bool
    degrades_performance: bool
    summary: str


#: Table 1, transcribed from sections 2.1-2.2.
TABLE1_PROFILES: Tuple[ExploitProfile, ...] = (
    ExploitProfile(
        "PWSteal.Tarno.Q", "Trojan", True, False, True, False,
        "logs passwords/web forms, posts them to predefined URLs",
    ),
    ExploitProfile(
        "Trojan.Lodeight.A", "Trojan/Backdoor", True, True, True, False,
        "downloads a remote file (Beagle), opens a backdoor on TCP 1084",
    ),
    ExploitProfile(
        "W32.Mytob.J@mm", "Worm/Backdoor", True, True, True, True,
        "mass mailer; FTP server + IRC command channel",
    ),
    ExploitProfile(
        "Trojan.Vundo", "Trojan/Adware", True, True, True, True,
        "downloader + injected adware DLL; drains virtual memory",
    ),
    ExploitProfile(
        "Windows-update.com", "Trojan dropper", True, True, True, False,
        "fake site drops custom Trojans per downloaded configuration",
    ),
    ExploitProfile(
        "W32/MyDoom.B", "Virus/Backdoor", True, True, True, False,
        "registry persistence; ctfmon.dll backdoor / TCP proxy",
    ),
    ExploitProfile(
        "Phatbot", "Trojan/Bot", True, True, True, True,
        "p2p-controlled bot: steals keys, runs system(), kills processes",
    ),
    ExploitProfile(
        "Sendmail Trojan", "Trojan", True, True, True, False,
        "build-time payload connects to a fixed server on port 6667",
    ),
    ExploitProfile(
        "TCP Wrappers Trojan", "Trojan/Backdoor", True, True, True, False,
        "root shell for source port 421; mails whoami/uname home",
    ),
)


def table1_rows() -> List[Tuple[str, str, str, str, str]]:
    """Rows ready for printing (check marks as in the paper)."""
    def mark(flag: bool) -> str:
        return "X" if flag else ""

    return [
        (
            p.name,
            mark(p.no_user_intervention),
            mark(p.remotely_directed),
            mark(p.hardcoded_resources),
            mark(p.degrades_performance),
        )
        for p in TABLE1_PROFILES
    ]


#: Which data sources carry a resource identifier whose *own* origin is
#: tracked (section 5.1 / Table 2).
_HAS_RESOURCE_ID = {
    DataSource.FILE: "File name",
    DataSource.SOCKET: "Socket name (address)",
}

#: Origins a resource identifier can have.
_ID_ORIGINS = (
    DataSource.USER_INPUT,
    DataSource.FILE,
    DataSource.SOCKET,
    DataSource.BINARY,
)


def table2_rows() -> List[Tuple[str, str, str]]:
    """(data source, resource id, resource-id origin) rows of Table 2."""
    rows: List[Tuple[str, str, str]] = []
    for source in (
        DataSource.USER_INPUT,
        DataSource.FILE,
        DataSource.SOCKET,
        DataSource.BINARY,
        DataSource.HARDWARE,
    ):
        resource_id = _HAS_RESOURCE_ID.get(source)
        if resource_id is None:
            rows.append((source.value, "—", "—"))
        else:
            for origin in _ID_ORIGINS:
                rows.append((source.value, resource_id, origin.value))
    return rows
