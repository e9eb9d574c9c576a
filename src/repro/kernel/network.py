"""Simulated network: DNS, listeners, connections, scripted remote peers.

The paper's workloads need three network behaviours:

* a guest *client* connecting out to a (possibly hardcoded) address — the
  remote side here is a :class:`ScriptedPeer` that can push data back
  (e.g. the "Remote execve" micro-benchmark receives a program name from
  the attacker's socket);
* a guest *server* (pma, the socket micro-benchmarks) accepting
  connections that arrive at scheduled virtual times;
* name resolution (``gethostbyname``), backed by a DNS table — the tag
  short-circuit problem of paper section 7.2 exists precisely because the
  resolved address does not originate from the name string.

Addresses are integers; ``format_addr`` renders "host:port" strings for
warning messages, reverse-resolving known names the way the paper's output
shows ("duero:40400 (AF_INET)").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

AF_INET = 2
SOCK_STREAM = 1

#: Conventional address for the local host.
LOCALHOST_NAME = "LocalHost"
LOCALHOST_IP = 0x7F000001


def dotted(ip: int) -> str:
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class ScriptedPeer:
    """A remote endpoint driven by a script instead of a guest process."""

    def __init__(self, label: str = "remote") -> None:
        self.label = label
        #: Everything the guest sent to this peer (assertable in tests).
        self.received = bytearray()

    def on_connect(self, connection: "Connection") -> bytes:
        """Data pushed to the guest immediately after connect."""
        return b""

    def on_receive(self, connection: "Connection", data: bytes) -> bytes:
        """Called when the guest sends ``data``; returns the response."""
        return b""


class ConversationPeer(ScriptedPeer):
    """A peer that sends ``opening`` on connect and then one scripted reply
    per message received from the guest (the pma "attacker" shape)."""

    def __init__(
        self,
        label: str = "remote",
        opening: bytes = b"",
        replies: Optional[List[bytes]] = None,
        close_when_done: bool = True,
    ) -> None:
        super().__init__(label)
        self.opening = opening
        self.replies = list(replies or [])
        self.close_when_done = close_when_done

    def on_connect(self, connection: "Connection") -> bytes:
        if not self.replies and self.close_when_done:
            # Nothing more will ever arrive: mark the stream closed so the
            # guest reads the opening bytes and then sees EOF.
            connection.open = False
        return self.opening

    def on_receive(self, connection: "Connection", data: bytes) -> bytes:
        self.received.extend(data)
        if self.replies:
            response = self.replies.pop(0)
        else:
            response = b""
        if not self.replies and self.close_when_done:
            # Hang up once the script is exhausted so guest reads see EOF
            # (after draining any buffered data) instead of blocking forever.
            connection.open = False
        return response


class SinkPeer(ScriptedPeer):
    """A peer that silently accepts everything (exfiltration target)."""

    def on_receive(self, connection: "Connection", data: bytes) -> bytes:
        self.received.extend(data)
        return b""


@dataclass
class Connection:
    """One established stream, viewed from the guest side."""

    local_label: str
    peer_label: str
    peer: Optional[ScriptedPeer] = None
    incoming: bytearray = field(default_factory=bytearray)
    #: Raw bytes the guest wrote on this connection.
    sent: bytearray = field(default_factory=bytearray)
    open: bool = True
    #: Set when this connection was accepted by a guest server socket.
    accepted_via: Optional[str] = None

    def send(self, data: bytes) -> int:
        """Guest -> peer transmission."""
        self.sent.extend(data)
        if self.peer is not None:
            response = self.peer.on_receive(self, data)
            if response:
                self.incoming.extend(response)
        return len(data)

    def close(self) -> None:
        self.open = False


@dataclass
class Listener:
    """A guest socket in the listening state."""

    address: Tuple[int, int]  # (ip, port)
    backlog: List[Connection] = field(default_factory=list)


@dataclass(order=True)
class ScheduledConnect:
    """An inbound connection that arrives at a given virtual time."""

    time: int
    target: Tuple[int, int] = field(compare=False)
    peer: ScriptedPeer = field(compare=False)


class Network:
    """The world outside the guest processes."""

    def __init__(self) -> None:
        self._dns: Dict[str, int] = {LOCALHOST_NAME: LOCALHOST_IP,
                                     "localhost": LOCALHOST_IP}
        self._reverse: Dict[int, str] = {LOCALHOST_IP: LOCALHOST_NAME}
        self._listeners: Dict[Tuple[int, int], Listener] = {}
        self._peers: Dict[Tuple[int, int], Callable[[], ScriptedPeer]] = {}
        self._scheduled: List[ScheduledConnect] = []
        self._next_ip = 0x0A000001  # 10.0.0.1 onward

    # -- DNS ----------------------------------------------------------------
    def register_host(self, name: str, ip: Optional[int] = None) -> int:
        """Add a resolvable host name; returns its address."""
        if name in self._dns:
            return self._dns[name]
        if ip is None:
            ip = self._next_ip
            self._next_ip += 1
        self._dns[name] = ip
        self._reverse.setdefault(ip, name)
        return ip

    def resolve(self, name: str) -> Optional[int]:
        return self._dns.get(name)

    def hosts_file_text(self) -> str:
        """The /etc/hosts content mirroring the DNS table."""
        lines = [f"{dotted(ip)}\t{name}" for name, ip in sorted(self._dns.items())]
        return "".join(line + "\n" for line in lines)

    def format_addr(self, ip: int, port: int) -> str:
        host = self._reverse.get(ip, dotted(ip))
        return f"{host}:{port}"

    # -- remote peers ---------------------------------------------------------
    def add_peer(
        self,
        host: str,
        port: int,
        peer_factory: Callable[[], ScriptedPeer],
    ) -> int:
        """Register a scripted peer reachable at host:port; returns its IP."""
        ip = self.register_host(host)
        self._peers[(ip, port)] = peer_factory
        return ip

    def connect(
        self, ip: int, port: int, local_label: str
    ) -> Optional[Connection]:
        """Guest outbound connect.  Returns None when nothing listens."""
        listener = self._listeners.get((ip, port))
        if listener is not None:
            # Guest-to-guest: hand the listener a connection that loops back.
            conn = Connection(
                local_label=local_label,
                peer_label=self.format_addr(ip, port),
            )
            listener.backlog.append(conn)
            return conn
        factory = self._peers.get((ip, port))
        if factory is None:
            return None
        peer = factory()
        conn = Connection(
            local_label=local_label,
            peer_label=self.format_addr(ip, port),
            peer=peer,
        )
        opening = peer.on_connect(conn)
        if opening:
            conn.incoming.extend(opening)
        return conn

    # -- guest listeners -------------------------------------------------------
    def listen(self, ip: int, port: int) -> Listener:
        listener = self._listeners.get((ip, port))
        if listener is None:
            listener = Listener(address=(ip, port))
            self._listeners[(ip, port)] = listener
        return listener

    # -- scheduled inbound traffic ----------------------------------------------
    def schedule_connect(
        self, time: int, host: str, port: int, peer: ScriptedPeer
    ) -> None:
        """Arrange for ``peer`` to dial host:port at virtual ``time``."""
        ip = self.register_host(host)
        self._scheduled.append(ScheduledConnect(time, (ip, port), peer))
        self._scheduled.sort()

    def next_event_time(self) -> Optional[int]:
        if not self._scheduled:
            return None
        return self._scheduled[0].time

    def deliver_due(self, now: int) -> int:
        """Deliver scheduled connections due at or before ``now``.

        Returns the number delivered; undeliverable events (no listener yet)
        are retried on later calls.
        """
        delivered = 0
        remaining: List[ScheduledConnect] = []
        for event in self._scheduled:
            if event.time > now:
                remaining.append(event)
                continue
            listener = self._listeners.get(event.target)
            if listener is None:
                remaining.append(event)
                continue
            ip, port = event.target
            conn = Connection(
                local_label=self.format_addr(ip, port),
                peer_label=event.peer.label,
                peer=event.peer,
            )
            opening = event.peer.on_connect(conn)
            if opening:
                conn.incoming.extend(opening)
            listener.backlog.append(conn)
            delivered += 1
        self._scheduled = remaining
        return delivered
