"""Request dispatch for the network server.

A :class:`Dispatcher` owns everything about a request that does not
depend on the transport: version and shape validation, the
per-request monotonic deadline (clamped to the server's ceiling), the
per-connection in-flight admission bound, payload decoding through the
WAL codec, the per-document execute locks, and the handler for each
request kind.  ``dispatch(session, request)`` is a plain blocking call
returning the complete response frame — the asyncio server calls it on
its executor and sends whatever frames :func:`~repro.service.net.core.
split_response` derives from the result.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceBusyError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.obs import get_registry
from repro.service.net.core import PROTOCOL_VERSION, SUPPORTED_VERSIONS, error_frame
from repro.service.ops import (
    DeltaUpdate,
    ServiceOp,
    SubtreeCopy,
    SubtreeDelete,
    op_from_dict,
)
from repro.service.server import DocumentHost, StoreHost, UpdateService
from repro.service.session import Session


class Dispatcher:
    """Protocol-level request handling over one :class:`UpdateService`.

    ``net_info`` supplies the serving transport's section of the
    ``stats`` response (connection counts and limits live in the
    server, not here).
    """

    def __init__(
        self,
        service: UpdateService,
        *,
        max_inflight: int = 64,
        max_request_timeout: float = 30.0,
        net_info: Optional[Callable[[], dict]] = None,
    ) -> None:
        self.service = service
        self.max_inflight = max_inflight
        self.max_request_timeout = max_request_timeout
        self._net_info = net_info or (lambda: {})
        # Server-side statement execution is read-modify-write; one
        # mutex per document serialises concurrent `execute` requests
        # so each diff is computed against the state its delta will
        # apply to.
        self._execute_locks: dict[str, threading.Lock] = {}
        self._mutex = threading.Lock()

    # ------------------------------------------------------------------
    def dispatch(self, session: Session, request: dict) -> dict:
        """One request frame → its complete response frame."""
        request_id = request.get("id", 0)
        version = request.get("v")
        if version not in SUPPORTED_VERSIONS:
            return error_frame(
                request_id if isinstance(request_id, int) else 0,
                ProtocolError(
                    f"unsupported protocol version {version!r}; this server "
                    f"speaks v{PROTOCOL_VERSION}"
                ),
            )
        try:
            if not isinstance(request_id, int):
                raise ProtocolError("request id must be an integer")
            kind = request.get("op")
            handler = self._HANDLERS.get(kind)
            if handler is None:
                raise ProtocolError(f"unknown request kind {kind!r}")
            deadline = self._deadline(request)
            result = handler(self, session, request, deadline)
        except ReproError as error:
            return error_frame(request_id, error)
        except Exception as error:  # never leak a traceback over the wire
            return error_frame(request_id, ServiceError(f"internal error: {error}"))
        result.update({"v": PROTOCOL_VERSION, "id": request_id, "ok": True})
        return result

    def _deadline(self, request: dict) -> float:
        """The request's single monotonic deadline, clamped to the
        server's ceiling; every blocking step draws from it."""
        timeout = request.get("timeout")
        limit = self.max_request_timeout
        if not isinstance(timeout, (int, float)) or timeout <= 0:
            timeout = limit
        return time.monotonic() + min(float(timeout), limit)

    @staticmethod
    def _remaining(deadline: float) -> float:
        return max(0.0, deadline - time.monotonic())

    def _execute_lock(self, doc: str) -> threading.Lock:
        with self._mutex:
            lock = self._execute_locks.get(doc)
            if lock is None:
                lock = self._execute_locks[doc] = threading.Lock()
            return lock

    def _decode_payload(self, request: dict) -> ServiceOp:
        payload = request.get("payload")
        if not isinstance(payload, dict):
            raise ProtocolError("submit needs a 'payload' object")
        try:
            op = op_from_dict(payload)
        except ReproError as error:
            raise ProtocolError(f"bad operation payload: {error}") from None
        if not isinstance(op, (DeltaUpdate, SubtreeDelete, SubtreeCopy)):
            raise ProtocolError(
                f"{type(op).__name__} records cannot be submitted by clients"
            )
        return op

    def _admit(self, session: Session) -> None:
        if session.pending >= self.max_inflight:
            raise ServiceBusyError(
                f"connection has {session.pending} operations in flight "
                f"(limit {self.max_inflight}); retry after a flush"
            )

    # -- request kinds -------------------------------------------------
    def _op_ping(self, session: Session, request: dict, deadline: float) -> dict:
        return {"pong": True, "documents": self.service.documents}

    def _op_submit(self, session: Session, request: dict, deadline: float) -> dict:
        op = self._decode_payload(request)
        self._admit(session)
        try:
            # timeout=0: a full batcher queue rejects now (retryable
            # BUSY) instead of parking this connection's thread on it.
            session.submit(op.doc, op, timeout=0.0)
        except ServiceTimeoutError:
            raise ServiceBusyError(
                "submission queue is full; back off and retry"
            ) from None
        return {"queued": True, "pending": session.pending}

    def _op_submit_wait(
        self, session: Session, request: dict, deadline: float
    ) -> dict:
        op = self._decode_payload(request)
        self._admit(session)
        seq = self.service.submit_wait(op, timeout=self._remaining(deadline))
        return {"seq": seq}

    def _op_query(self, session: Session, request: dict, deadline: float) -> dict:
        doc = request.get("doc")
        if not isinstance(doc, str):
            raise ProtocolError("query needs a 'doc' string")
        statement = request.get("statement")
        if statement is None:
            text = self.service.query(doc, None, timeout=self._remaining(deadline))
            return {"text": text}
        if not isinstance(statement, str):
            raise ProtocolError("'statement' must be a string when present")
        results = self.service.query(
            doc,
            lambda host: run_statement_query(host, statement),
            timeout=self._remaining(deadline),
        )
        return {"results": results}

    def _op_execute(self, session: Session, request: dict, deadline: float) -> dict:
        doc = request.get("doc")
        statement = request.get("statement")
        if not isinstance(doc, str) or not isinstance(statement, str):
            raise ProtocolError("execute needs 'doc' and 'statement' strings")
        return self._execute_statement(session, doc, statement, deadline)

    def _op_flush(self, session: Session, request: dict, deadline: float) -> dict:
        self.service.flush(timeout=self._remaining(deadline))
        return {"flushed": True}

    def _op_checkpoint(
        self, session: Session, request: dict, deadline: float
    ) -> dict:
        report = self.service.checkpoint(timeout=self._remaining(deadline))
        return {
            "wal_seq": report.wal_seq,
            "documents": report.documents,
            "segments_retired": report.segments_retired,
            "bytes_retired": report.bytes_retired,
        }

    def _op_stats(self, session: Session, request: dict, deadline: float) -> dict:
        return {
            "service": self.service.stats(),
            "net": self._net_info(),
            "metrics": get_registry().snapshot(),
        }

    _HANDLERS: dict[str, Callable[["Dispatcher", Session, dict, float], dict]] = {
        "ping": _op_ping,
        "submit": _op_submit,
        "submit_wait": _op_submit_wait,
        "query": _op_query,
        "execute": _op_execute,
        "flush": _op_flush,
        "checkpoint": _op_checkpoint,
        "stats": _op_stats,
    }

    # ------------------------------------------------------------------
    def _execute_statement(
        self, session: Session, doc: str, statement: str, deadline: float
    ) -> dict:
        """Run an XQuery statement server-side.

        Reads answer directly (under the read lock).  Updates follow
        the ``serve`` loop's discipline — execute against a scratch
        copy, diff, submit the delta — so the WAL records the
        statement's *effect*.  The per-document execute lock serialises
        concurrent executes; raw deltas submitted concurrently by other
        clients can still interleave, exactly like any read-modify-write
        client could.
        """
        from repro.updates.delta import diff
        from repro.xmlmodel.parser import XmlParser
        from repro.xquery.engine import XQueryEngine

        service = self.service
        host = service.host(doc)
        remaining = max(0.0, deadline - time.monotonic())
        parsed = XQueryEngine({}, policy=getattr(host, "policy", None)).parse(
            statement
        )
        if not parsed.is_update:
            results = service.query(
                doc, lambda h: run_statement_query(h, statement), timeout=remaining
            )
            return {"results": results}
        if not isinstance(host, DocumentHost):
            raise ServiceError(
                f"{doc!r} is store-hosted; submit relational operations instead "
                "of update statements"
            )
        with self._execute_lock(doc):
            text = service.query(
                doc, None, timeout=max(0.0, deadline - time.monotonic())
            )
            base = XmlParser(text, policy=host.policy).parse()
            working = XmlParser(text, policy=host.policy).parse()
            XQueryEngine({doc: working}, policy=host.policy).execute(parsed)
            delta = diff(base, working)
            seq = session.submit_wait(
                doc, delta, timeout=max(0.0, deadline - time.monotonic())
            )
        return {"seq": seq, "delta_ops": len(delta)}


def run_statement_query(host: Any, statement: str) -> list[str]:
    """A read-only XQuery statement against either host kind, rendered
    to strings (runs under the document's read lock on the query pool)."""
    from repro.xmlmodel.model import Element
    from repro.xmlmodel.serializer import serialize
    from repro.xpath.evaluator import string_value
    from repro.xquery.engine import QueryResult, XQueryEngine

    if isinstance(host, StoreHost):
        nodes = host.store.query(statement)
    else:
        engine = XQueryEngine({host.name: host.document}, policy=host.policy)
        result = engine.execute(statement)
        if not isinstance(result, QueryResult):
            raise ServiceError(
                "query only runs read-only statements; use 'execute' for updates"
            )
        nodes = list(result)
    return [
        serialize(node) if isinstance(node, Element) else string_value(node)
        for node in nodes
    ]
