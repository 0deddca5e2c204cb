"""The network front end: framing, admission control, typed errors,
drain durability, and the client library.

Acceptance scenarios from the PR issue:

* a `ServiceClient` round-trip over loopback survives a server drain
  with in-flight ops (every acked op is durable after restart +
  recovery);
* a saturated admission queue rejects with a retryable ``BUSY`` frame
  and client retries succeed;
* a killed or hung server surfaces as the typed timeout/connection
  error, never a bare socket traceback.
"""

import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    ProtocolError,
    ServiceBusyError,
    ServiceClosedError,
    ServiceConnectionError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.obs import get_registry
from repro.service import (
    AsyncNetServer,
    DeltaUpdate,
    ServiceClient,
    ServiceConfig,
    UpdateService,
    parse_address,
)
from repro.service.net import HEADER, PROTOCOL_VERSION, recv_frame, send_frame
from repro.updates.delta import InsertNode
from repro.xmlmodel.parser import XmlParser

DOC = "doc.xml"
JOIN_TIMEOUT = 30


def fresh_doc():
    return XmlParser("<log></log>").parse()


def entry_op(index):
    return DeltaUpdate(DOC, (InsertNode((), 1 << 30, xml=f'<e i="{index}"/>'),))


def make_service(**overrides):
    config = dict(batch_size=8, coalesce_wait=0.002)
    config.update(overrides)
    service = UpdateService(ServiceConfig(**config))
    service.host_document(DOC, fresh_doc())
    return service.start()


@pytest.fixture
def served():
    service = make_service()
    server = AsyncNetServer(service, own_service=True).start()
    client = ServiceClient(*server.address)
    yield service, server, client
    client.close()
    server.close()


class TestRoundTrip:
    def test_ping_submit_wait_query_flush(self, served):
        _service, _server, client = served
        assert client.ping() == [DOC]
        seq = client.submit_wait(entry_op(0))
        assert seq == 1
        assert '<e i="0"/>' in client.query(DOC)
        client.flush()

    def test_async_submit_then_flush_is_durable_in_order(self, served):
        service, _server, client = served
        for index in range(10):
            client.submit(entry_op(index))
        client.flush()
        text = service.query(DOC)
        positions = [text.index(f'i="{index}"') for index in range(10)]
        assert positions == sorted(positions)

    def test_query_statement_renders_results(self, served):
        _service, _server, client = served
        client.submit_wait(entry_op(7))
        results = client.query(
            DOC, f'FOR $e IN document("{DOC}")/log/e RETURN $e'
        )
        assert results == ['<e i="7"/>']

    def test_execute_update_statement_server_side(self, served):
        service, _server, client = served
        outcome = client.execute(
            DOC, f'FOR $d IN document("{DOC}")/log UPDATE $d {{ INSERT <x/> }}'
        )
        assert outcome["seq"] is not None and outcome["delta_ops"] == 1
        assert "<x/>" in service.query(DOC)

    def test_stats_exposes_service_and_metrics(self, served):
        _service, _server, client = served
        stats = client.stats()
        assert stats["service"]["documents"] == [DOC]
        assert stats["net"]["connections"] == 1
        assert "net.requests" in stats["metrics"]

    def test_checkpoint_over_the_wire(self, tmp_path):
        service = make_service(wal_path=str(tmp_path / "doc.wal"))
        with AsyncNetServer(service, own_service=True) as server:
            with ServiceClient(*server.address) as client:
                client.submit_wait(entry_op(1))
                report = client.checkpoint()
                assert report["wal_seq"] >= 1
                assert report["documents"] == 1


class TestAdmissionControl:
    def test_full_batcher_queue_rejects_busy_and_retry_succeeds(self):
        service = make_service(queue_limit=1, batch_size=1, coalesce_wait=0.0)
        host = service.host(DOC)
        gate = threading.Event()
        original_apply = host.apply

        def slow_apply(op):
            gate.wait(JOIN_TIMEOUT)
            original_apply(op)

        host.apply = slow_apply
        server = AsyncNetServer(service, own_service=True).start()
        client = ServiceClient(*server.address)
        try:
            before = get_registry().counter("net.rejected").value
            client.submit(entry_op(0))  # the committer picks this up...
            deadline = time.monotonic() + JOIN_TIMEOUT
            saw_busy = False
            error = None
            # ...and stalls in apply; the queue (capacity 1) fills, and
            # the next submission must come back BUSY instead of
            # parking the connection on the full queue.
            while time.monotonic() < deadline and not saw_busy:
                try:
                    client.submit(entry_op(1))
                except ServiceBusyError as busy:
                    saw_busy, error = True, busy
            assert saw_busy, "queue never reported BUSY"
            assert error.retryable
            assert get_registry().counter("net.rejected").value > before
            gate.set()
            # The retry path: with the batcher unblocked the same
            # submission goes through.
            client.submit(entry_op(2), retries_busy=8, backoff=0.05)
            client.flush()
        finally:
            client.close()
            server.close()

    def test_connection_limit_answers_busy_and_closes(self):
        service = make_service()
        server = AsyncNetServer(service, max_connections=1, own_service=True).start()
        first = ServiceClient(*server.address)
        try:
            assert first.ping() == [DOC]  # ensures the first conn is registered
            with pytest.raises(ServiceBusyError):
                extra = ServiceClient(*server.address)
                try:
                    extra.ping()
                finally:
                    extra.close()
        finally:
            first.close()
            server.close()

    def test_per_connection_inflight_bound(self):
        service = make_service(queue_limit=64, batch_size=1)
        host = service.host(DOC)
        gate = threading.Event()
        original_apply = host.apply
        host.apply = lambda op: (gate.wait(JOIN_TIMEOUT), original_apply(op))
        server = AsyncNetServer(service, max_inflight=2, own_service=True).start()
        client = ServiceClient(*server.address)
        try:
            submitted = 0
            with pytest.raises(ServiceBusyError) as excinfo:
                for index in range(8):
                    client.submit(entry_op(index))
                    submitted += 1
            assert submitted >= 2  # the bound, not the first op, tripped
            assert "in flight" in str(excinfo.value)
            gate.set()
            client.flush()
        finally:
            client.close()
            server.close()


class TestDrain:
    def test_drain_makes_acked_async_submits_durable(self, tmp_path):
        wal_path = str(tmp_path / "doc.wal")
        service = make_service(wal_path=wal_path)
        server = AsyncNetServer(service, own_service=True).start()
        client = ServiceClient(*server.address)
        acked = 0
        for index in range(20):
            client.submit(entry_op(index))
            acked += 1
        # No flush: the server's drain must finish these in-flight ops
        # (stop accepting, drain the session tickets, close the
        # service) before the process could exit.
        server.close()
        client.close()

        restarted = UpdateService(ServiceConfig(wal_path=wal_path))
        restarted.host_document(DOC, fresh_doc())
        report = restarted.recover()
        restarted.start()
        text = restarted.query(DOC)
        restarted.close()
        assert report.applied + report.covered >= acked
        for index in range(acked):
            assert f'i="{index}"' in text

    def test_drained_server_refuses_new_connections(self, served):
        _service, server, client = served
        client.ping()
        server.close()
        host, port = server.address
        with pytest.raises((ServiceConnectionError, ServiceTimeoutError)):
            late = ServiceClient(host, port, connect_timeout=0.5)
            try:
                late.ping()
            finally:
                late.close()


class TestTypedClientErrors:
    def test_hung_server_raises_typed_timeout(self):
        """A server that accepts but never answers surfaces as the
        typed timeout, not a bare socket.timeout."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        try:
            client = ServiceClient(
                *listener.getsockname()[:2], request_timeout=0.2
            )
            with pytest.raises(ServiceTimeoutError) as excinfo:
                client.ping()
            assert not isinstance(excinfo.value, socket.timeout)
            # The stream is desynchronised; the client refuses reuse.
            with pytest.raises(ServiceError):
                client.ping()
        finally:
            listener.close()

    def test_close_fails_a_waiting_call_promptly(self):
        """Closing a shared client from one thread releases a call another
        thread is waiting on, instead of leaving it to its timeout."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        outcome = {}
        try:
            client = ServiceClient(*listener.getsockname()[:2], request_timeout=30)

            def waiter():
                try:
                    client.ping()
                except ServiceError as error:
                    outcome["error"] = error

            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.2)  # the ping is in flight against a silent server
            started = time.monotonic()
            client.close()
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive()
            assert time.monotonic() - started < 5.0
            assert isinstance(outcome.get("error"), ServiceClosedError)
        finally:
            listener.close()

    def test_killed_server_mid_request_raises_typed_error(self):
        """A connection dropped mid-request maps to the typed
        connection error — the caller never sees the raw OSError."""

        def kill_after_accept(listener):
            conn, _peer = listener.accept()
            conn.recv(4)  # let the request start arriving...
            conn.close()  # ...then die under it

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        killer = threading.Thread(target=kill_after_accept, args=(listener,))
        killer.start()
        try:
            client = ServiceClient(*listener.getsockname()[:2])
            with pytest.raises((ServiceConnectionError, ServiceTimeoutError)):
                client.ping()
        finally:
            killer.join(JOIN_TIMEOUT)
            listener.close()

    def test_connection_refused_is_typed(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        host, port = probe.getsockname()[:2]
        probe.close()  # nothing listens here now
        with pytest.raises(ServiceConnectionError):
            ServiceClient(host, port, connect_timeout=0.5)

    def test_server_error_maps_to_service_error(self, served):
        _service, _server, client = served
        with pytest.raises(ServiceError) as excinfo:
            client.query("no-such-doc.xml")
        assert "no-such-doc.xml" in str(excinfo.value)

    def test_request_timeout_maps_to_service_timeout(self):
        service = make_service(query_workers=1)
        gate = threading.Event()
        server = AsyncNetServer(service, own_service=True).start()
        client = ServiceClient(*server.address)
        blocker_started = threading.Event()

        def block(host):
            blocker_started.set()
            gate.wait(JOIN_TIMEOUT)
            return "done"

        occupier = threading.Thread(
            target=lambda: service.query(DOC, block, timeout=JOIN_TIMEOUT)
        )
        occupier.start()
        try:
            assert blocker_started.wait(JOIN_TIMEOUT)
            with pytest.raises(ServiceTimeoutError):
                client.query(DOC, timeout=0.2)
        finally:
            gate.set()
            occupier.join(JOIN_TIMEOUT)
            client.close()
            server.close()


class TestProtocol:
    def _raw(self, server, message):
        sock = socket.create_connection(server.address, timeout=5)
        try:
            send_frame(sock, message)
            return recv_frame(sock)
        finally:
            sock.close()

    def test_version_mismatch_is_bad_request(self, served):
        _service, server, _client = served
        for version in (1, 99):  # 1 included: only one version is answered
            response = self._raw(server, {"v": version, "id": 1, "op": "ping"})
            assert response["ok"] is False
            assert response["error"]["code"] == "BAD_REQUEST"
            assert str(PROTOCOL_VERSION) in response["error"]["message"]

    def test_unknown_request_kind_is_bad_request(self, served):
        _service, server, _client = served
        response = self._raw(
            server, {"v": PROTOCOL_VERSION, "id": 2, "op": "explode"}
        )
        assert response["error"]["code"] == "BAD_REQUEST"

    def test_commit_marker_payload_is_rejected(self, served):
        _service, server, _client = served
        response = self._raw(
            server,
            {
                "v": PROTOCOL_VERSION,
                "id": 3,
                "op": "submit",
                "payload": {"kind": "commit", "seqs": [1]},
            },
        )
        assert response["error"]["code"] == "BAD_REQUEST"

    def test_oversized_frame_is_dropped_not_buffered(self, served):
        _service, server, _client = served
        sock = socket.create_connection(server.address, timeout=5)
        try:
            sock.sendall(HEADER.pack(1 << 31))
            # The server drops the connection instead of allocating 2GiB.
            sock.settimeout(5)
            assert sock.recv(1) == b""
        finally:
            sock.close()

    def test_mismatched_response_id_detected(self):
        def misbehave(listener):
            conn, _peer = listener.accept()
            request = recv_frame(conn)
            send_frame(
                conn,
                {
                    "v": PROTOCOL_VERSION,
                    "id": request["id"] + 7,
                    "ok": True,
                    "pong": True,
                },
            )
            conn.close()

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        impostor = threading.Thread(target=misbehave, args=(listener,))
        impostor.start()
        try:
            client = ServiceClient(*listener.getsockname()[:2])
            with pytest.raises(ProtocolError):
                client.ping()
        finally:
            impostor.join(JOIN_TIMEOUT)
            listener.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:80") == ("127.0.0.1", 80)
        assert parse_address("[::1]:9999") == ("::1", 9999)
        with pytest.raises(ProtocolError):
            parse_address("no-port")
        with pytest.raises(ProtocolError):
            parse_address("host:abc")

    def test_struct_framing_is_big_endian_length_prefixed(self):
        assert HEADER.pack(1) == b"\x00\x00\x00\x01"
        assert struct.calcsize(">I") == HEADER.size == 4


class TestMetrics:
    def test_connection_gauge_and_request_counters_move(self):
        registry = get_registry()
        service = make_service()
        server = AsyncNetServer(service, own_service=True).start()
        requests_before = registry.counter("net.requests").value
        client = ServiceClient(*server.address)
        client.ping()
        assert registry.gauge("net.connections").value >= 1
        assert registry.counter("net.requests").value > requests_before
        histogram_count = registry.histogram("net.request_ms").count
        assert histogram_count > 0
        client.close()
        server.close()
