"""Regression tests for the framing/client bug sweep.

Each class pins one bug that failed before its fix:

* **Slow readers lost large responses mid-frame.**  A server that sent
  responses under a short idle-poll socket timeout timed out halfway
  through a multi-megabyte reply to a reader with a full receive
  window, and the connection died with the reply half-written (the
  client saw ``ProtocolError: connection closed mid-frame``).  The
  whole response must arrive, however slowly it is read.
* **A peer stalled mid-frame desynchronised the stream.**  A request
  frame that starts arriving and then stalls must be dropped as a
  protocol error (the connection closed), never retried as if the
  socket were idle — and the stall must not take the server down for
  other connections.
* **A shared client serialised the whole round trip under one lock.**
  A slow ``query`` on one thread blocked a concurrent ``submit_wait``
  on another for its full duration.  Response waits are id-matched and
  concurrent, and a timed-out request abandons only itself.
* **``close()`` relied on daemon threads dying with the interpreter.**
  Drain now waits for every connection against the deadline and
  reports the stragglers — return value and
  ``net.close.undrained_connections`` counter — mirroring
  ``batcher.close.undrained``.
"""

import socket
import threading
import time

import pytest

from repro.errors import ServiceTimeoutError
from repro.obs import get_registry
from repro.service import (
    AsyncNetServer,
    DeltaUpdate,
    ServiceClient,
    ServiceConfig,
    UpdateService,
)
from repro.service.net import (
    PROTOCOL_VERSION,
    ChunkAssembler,
    recv_frame,
    send_frame,
)
from repro.updates.delta import InsertNode
from repro.xmlmodel.parser import XmlParser

DOC = "doc.xml"
JOIN_TIMEOUT = 30


def fresh_doc():
    return XmlParser("<log></log>").parse()


def entry_op(index, payload=""):
    return DeltaUpdate(
        DOC, (InsertNode((), 1 << 30, xml=f'<e i="{index}"{payload}/>'),)
    )


def make_service(**overrides):
    config = dict(batch_size=8, coalesce_wait=0.002)
    config.update(overrides)
    service = UpdateService(ServiceConfig(**config))
    service.host_document(DOC, fresh_doc())
    return service.start()


class TestSlowReaderSurvivesLargeResponse:
    def test_large_response_to_sleeping_reader_arrives_intact(self):
        """Failing before: a ~4 MiB response to a client with a tiny
        receive buffer that does not read for a couple of seconds died
        mid-``sendall`` under the idle-poll timeout."""
        service = make_service()
        server = AsyncNetServer(service, own_service=True).start()
        try:
            with ServiceClient(*server.address, request_timeout=60.0) as seed:
                seed.submit_wait(
                    entry_op(0, payload=f' t="{"x" * (4 * 1024 * 1024)}"'),
                    timeout=60.0,
                )
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            # Shrink the receive window so the server's send genuinely
            # blocks while we sleep (must be set before connect).
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32768)
            sock.connect(server.address)
            sock.settimeout(JOIN_TIMEOUT)
            try:
                send_frame(
                    sock,
                    {
                        "v": PROTOCOL_VERSION,
                        "id": 1,
                        "op": "query",
                        "doc": DOC,
                        "timeout": JOIN_TIMEOUT,
                    },
                )
                # Sleep well past a short idle-poll interval while the
                # server is mid-write.
                time.sleep(2.0)
                assembler = ChunkAssembler()
                response = None
                while response is None:
                    response = assembler.feed(recv_frame(sock))
            finally:
                sock.close()
            assert response["ok"] is True
            assert "x" * (4 * 1024 * 1024) in response["text"]
        finally:
            server.close()


class TestMidFrameStall:
    @staticmethod
    def _stall_and_probe(address):
        """Send a torn frame, stall past the request timeout, and
        return what the server did with the connection."""
        wedged = socket.create_connection(address, timeout=JOIN_TIMEOUT)
        try:
            wedged.sendall(b"\x00\x00")  # half a length prefix, then silence
            # The server must declare the peer wedged and close — not
            # spin retrying the partial read as if the socket were idle.
            return wedged.recv(1)
        finally:
            wedged.close()

    def test_async_server_drops_stalled_peer_and_keeps_serving(self):
        service = make_service()
        server = AsyncNetServer(
            service, own_service=True, max_request_timeout=0.5
        ).start()
        try:
            assert self._stall_and_probe(server.address) == b""
            with ServiceClient(*server.address) as healthy:
                assert healthy.ping() == [DOC]
        finally:
            server.close()


class TestSharedClientConcurrency:
    def test_slow_query_does_not_block_concurrent_submit(self):
        """Failing before: with the round trip under ``self._mutex``, the
        submit below could not even *send* until the gated query's full
        round trip finished, so it timed out.  (The asyncio server
        pipelines requests on one connection, so the only serialisation
        left is the client's own.)"""
        service = make_service()
        query_started = threading.Event()
        gate = threading.Event()
        original_query = service.query

        def gated_query(doc, fn=None, timeout=None):
            query_started.set()
            assert gate.wait(JOIN_TIMEOUT)
            return original_query(doc, fn, timeout=timeout)

        service.query = gated_query
        server = AsyncNetServer(service, own_service=True).start()
        client = ServiceClient(*server.address)
        outcome = {}

        def slow_query():
            try:
                outcome["text"] = client.query(DOC, timeout=JOIN_TIMEOUT)
            except Exception as error:  # pragma: no cover - fail below
                outcome["error"] = error

        slow = threading.Thread(target=slow_query)
        slow.start()
        try:
            assert query_started.wait(JOIN_TIMEOUT)
            # The same shared client, a different thread: must complete
            # while the query is still gated server-side.
            started = time.monotonic()
            seq = client.submit_wait(entry_op(1), timeout=JOIN_TIMEOUT)
            elapsed = time.monotonic() - started
            assert seq == 1
            assert not gate.is_set()
            assert elapsed < JOIN_TIMEOUT / 2
        finally:
            gate.set()
            slow.join(JOIN_TIMEOUT)
            client.close()
            server.close()
        assert "error" not in outcome
        assert '<e i="1"/>' in outcome["text"]

    def test_timed_out_request_abandons_only_itself(self):
        """A deadline miss on one request must not poison the shared
        connection: the late response is discarded by id and the next
        request succeeds."""
        service = make_service()
        query_started = threading.Event()
        gate = threading.Event()
        original_query = service.query

        def gated_query(doc, fn=None, timeout=None):
            query_started.set()
            gate.wait(JOIN_TIMEOUT)
            return original_query(doc, fn, timeout=timeout)

        service.query = gated_query
        server = AsyncNetServer(service, own_service=True).start()
        client = ServiceClient(*server.address)
        try:
            with pytest.raises(ServiceTimeoutError):
                client.query(DOC, timeout=0.2)
            gate.set()
            # The connection survived; the stale response routes to the
            # abandoned id and is dropped, not mis-delivered.
            assert client.ping() == [DOC]
        finally:
            gate.set()
            client.close()
            server.close()


class TestCloseReportsUndrained:
    def test_wedged_connection_is_counted_and_returned(self):
        """Failing before: ``close()`` joined nothing and reported
        nothing — a handler wedged in dispatch just died with the
        interpreter.  Now the drain deadline passes, the straggler is
        cut loose, counted, and returned."""
        service = make_service()
        query_started = threading.Event()
        gate = threading.Event()
        original_query = service.query

        def gated_query(doc, fn=None, timeout=None):
            query_started.set()
            gate.wait(JOIN_TIMEOUT)
            return original_query(doc, fn, timeout=timeout)

        service.query = gated_query
        # own_service=False: the gated handler still holds a query-pool
        # thread, and service.close() would block on it until the gate
        # opens — the service is closed manually below.
        server = AsyncNetServer(service, own_service=False).start()
        client = ServiceClient(*server.address)
        counter = get_registry().counter("net.close.undrained_connections")
        before = counter.value

        def doomed_query():
            with pytest.raises(Exception):
                client.query(DOC, timeout=JOIN_TIMEOUT)

        doomed = threading.Thread(target=doomed_query)
        doomed.start()
        try:
            assert query_started.wait(JOIN_TIMEOUT)
            undrained = server.close(timeout=0.5)
            assert undrained == 1
            assert counter.value == before + 1
        finally:
            gate.set()
            doomed.join(JOIN_TIMEOUT)
            client.close()
            service.close()  # waits for the released query to finish

    def test_clean_close_reports_zero(self):
        """Acked async submits still queued at close are drained, not
        counted as stragglers."""
        service = make_service()
        server = AsyncNetServer(service).start()
        try:
            with ServiceClient(*server.address) as client:
                for index in range(10):
                    client.submit(entry_op(index))
                assert server.close() == 0
            text = service.query(DOC)
            assert all(f'i="{index}"' in text for index in range(10))
        finally:
            service.close()

    def test_async_clean_close_reports_zero(self):
        service = make_service()
        server = AsyncNetServer(service, own_service=True).start()
        with ServiceClient(*server.address) as client:
            client.ping()
        assert server.close() == 0
