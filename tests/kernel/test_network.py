"""Network simulation tests: DNS, peers, listeners, scheduled connects."""

import pytest

from repro.kernel.network import (
    Connection,
    ConversationPeer,
    LOCALHOST_IP,
    LOCALHOST_NAME,
    Network,
    ScriptedPeer,
    SinkPeer,
    dotted,
)


@pytest.fixture
def net():
    return Network()


class TestDns:
    def test_localhost_preregistered(self, net):
        assert net.resolve(LOCALHOST_NAME) == LOCALHOST_IP
        assert net.resolve("localhost") == LOCALHOST_IP

    def test_register_assigns_unique_ips(self, net):
        a = net.register_host("a.example")
        b = net.register_host("b.example")
        assert a != b
        assert net.resolve("a.example") == a

    def test_register_idempotent(self, net):
        a1 = net.register_host("a.example")
        a2 = net.register_host("a.example")
        assert a1 == a2

    def test_unknown_name(self, net):
        assert net.resolve("nope.example") is None

    def test_format_addr_reverse_resolves(self, net):
        ip = net.register_host("srv.example")
        assert net.format_addr(ip, 80) == "srv.example:80"

    def test_format_addr_falls_back_to_dotted(self, net):
        assert net.format_addr(0x01020304, 9) == "1.2.3.4:9"

    def test_dotted(self):
        assert dotted(0x7F000001) == "127.0.0.1"

    def test_hosts_file_contains_entries(self, net):
        net.register_host("x.example")
        text = net.hosts_file_text()
        assert "x.example" in text
        assert "LocalHost" in text


class TestClientConnect:
    def test_connect_to_peer(self, net):
        peer = SinkPeer("p")
        ip = net.add_peer("srv", 80, lambda: peer)
        conn = net.connect(ip, 80, "pid1")
        assert conn is not None
        conn.send(b"hello")
        assert bytes(peer.received) == b"hello"

    def test_connect_refused_when_nothing_listens(self, net):
        ip = net.register_host("srv")
        assert net.connect(ip, 81, "pid1") is None

    def test_conversation_peer_opening_and_replies(self, net):
        peer = ConversationPeer("p", opening=b"hi", replies=[b"r1", b"r2"])
        ip = net.add_peer("srv", 80, lambda: peer)
        conn = net.connect(ip, 80, "pid1")
        assert bytes(conn.incoming) == b"hi"
        conn.incoming.clear()
        conn.send(b"q1")
        assert bytes(conn.incoming) == b"r1"
        conn.incoming.clear()
        conn.send(b"q2")
        assert bytes(conn.incoming) == b"r2"
        assert not conn.open  # script exhausted -> hang up

    def test_conversation_peer_without_replies_closes_at_connect(self, net):
        peer = ConversationPeer("p", opening=b"name")
        ip = net.add_peer("srv", 80, lambda: peer)
        conn = net.connect(ip, 80, "pid1")
        assert bytes(conn.incoming) == b"name"  # data still readable
        assert not conn.open

    def test_conversation_peer_keep_open(self, net):
        peer = ConversationPeer("p", opening=b"x", close_when_done=False)
        ip = net.add_peer("srv", 80, lambda: peer)
        conn = net.connect(ip, 80, "pid1")
        assert conn.open


class TestListeners:
    def test_guest_to_guest_backlog(self, net):
        listener = net.listen(LOCALHOST_IP, 99)
        conn = net.connect(LOCALHOST_IP, 99, "pid2")
        assert conn is not None
        assert listener.backlog == [conn]

    def test_listen_idempotent(self, net):
        a = net.listen(LOCALHOST_IP, 99)
        b = net.listen(LOCALHOST_IP, 99)
        assert a is b


class TestScheduledConnects:
    def test_deliver_due_requires_listener(self, net):
        net.schedule_connect(10, "LocalHost", 99, ScriptedPeer("a"))
        assert net.deliver_due(20) == 0  # no listener yet
        assert net.has_pending_events()
        listener = net.listen(LOCALHOST_IP, 99)
        assert net.deliver_due(20) == 1
        assert len(listener.backlog) == 1
        assert not net.has_pending_events()

    def test_not_due_yet(self, net):
        net.listen(LOCALHOST_IP, 99)
        net.schedule_connect(100, "LocalHost", 99, ScriptedPeer("a"))
        assert net.deliver_due(50) == 0
        assert net.next_event_time() == 100

    def test_events_sorted_by_time(self, net):
        net.schedule_connect(30, "LocalHost", 99, ScriptedPeer("late"))
        net.schedule_connect(10, "LocalHost", 99, ScriptedPeer("early"))
        assert net.next_event_time() == 10

    def test_opening_delivered_on_scheduled_connect(self, net):
        listener = net.listen(LOCALHOST_IP, 99)
        net.schedule_connect(
            5, "LocalHost", 99, ConversationPeer("a", opening=b"hello",
                                                 close_when_done=False)
        )
        net.deliver_due(5)
        assert bytes(listener.backlog[0].incoming) == b"hello"


class TestConnection:
    def test_deliver_and_close(self):
        conn = Connection(local_label="l", peer_label="p")
        conn.deliver(b"abc")
        assert bytes(conn.incoming) == b"abc"
        conn.close()
        assert not conn.open

    def test_send_without_peer_just_records(self):
        conn = Connection(local_label="l", peer_label="p")
        assert conn.send(b"xy") == 2
        assert bytes(conn.sent) == b"xy"
