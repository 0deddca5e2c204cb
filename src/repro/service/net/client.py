"""The blocking client: a thread-safe façade over the async client.

Each :class:`ServiceClient` owns one private event-loop thread running
an :class:`~repro.service.net.aio.AsyncServiceClient`; every call is
``run_coroutine_threadsafe(...).result()``.  Id-matched responses (a
slow ``query`` does not block a concurrent ``submit``), per-request
timeouts, chunk reassembly and ``BUSY`` backoff all live in the async
client, so calls from many threads share the one connection safely.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Coroutine, Optional

from repro.errors import ServiceClosedError
from repro.service.net.aio import AsyncServiceClient
from repro.service.ops import ServiceOp


class ServiceClient:
    """A blocking client, safe to share across threads.

    Every failure is a typed :class:`~repro.errors.ServiceError`
    subclass: wire errors map by code (``BUSY`` →
    :class:`~repro.errors.ServiceBusyError`, ``TIMEOUT`` →
    :class:`~repro.errors.ServiceTimeoutError`, ...), a deadline miss
    raises :class:`~repro.errors.ServiceTimeoutError` (the connection
    survives; the late response is discarded by id), and a
    refused/reset/closed transport raises
    :class:`~repro.errors.ServiceConnectionError` — never a bare socket
    exception.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
    ) -> None:
        self._lock = threading.Lock()
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="net-client", daemon=True
        )
        self._thread.start()
        try:
            self._client: AsyncServiceClient = self._run(
                AsyncServiceClient.connect(
                    host,
                    port,
                    connect_timeout=connect_timeout,
                    request_timeout=request_timeout,
                )
            )
        except BaseException:
            self._stop_loop()
            raise

    def _run(self, coroutine: Coroutine) -> Any:
        """Run one coroutine on the client's loop and wait for it."""
        with self._lock:
            if self._closed:
                coroutine.close()
                raise ServiceClosedError("client is closed")
            future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        try:
            return future.result()
        except concurrent.futures.CancelledError:
            raise ServiceClosedError("client is closed") from None

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------
    def ping(self) -> list[str]:
        """Round-trip; returns the hosted document names."""
        return self._run(self._client.ping())

    def submit(
        self, op: ServiceOp, *, retries_busy: int = 0, backoff: float = 0.01
    ) -> int:
        """Enqueue without waiting for durability; returns the number of
        this connection's operations still in flight.  ``retries_busy``
        retries a ``BUSY`` rejection with jittered exponential backoff,
        never retrying past one request-timeout in total."""
        return self._run(
            self._client.submit(op, retries_busy=retries_busy, backoff=backoff)
        )

    def submit_wait(
        self,
        op: ServiceOp,
        timeout: Optional[float] = None,
        *,
        retries_busy: int = 0,
        backoff: float = 0.01,
    ) -> Optional[int]:
        """Submit and block until durable + applied; returns the WAL seq."""
        return self._run(
            self._client.submit_wait(
                op, timeout, retries_busy=retries_busy, backoff=backoff
            )
        )

    def query(
        self,
        doc: str,
        statement: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        """The serialised document (no statement) or rendered FLWR
        results (statement), read under the document's read lock."""
        return self._run(self._client.query(doc, statement, timeout))

    def execute(
        self, doc: str, statement: str, timeout: Optional[float] = None
    ) -> dict:
        """Run an XQuery statement server-side; update statements return
        ``{"seq", "delta_ops"}``, reads return ``{"results"}``."""
        return self._run(self._client.execute(doc, statement, timeout))

    def flush(self, timeout: Optional[float] = None) -> None:
        """Barrier: everything this server accepted before now is durable."""
        self._run(self._client.flush(timeout))

    def checkpoint(self, timeout: Optional[float] = None) -> dict:
        return self._run(self._client.checkpoint(timeout))

    def stats(self) -> dict:
        return self._run(self._client.stats())

    def close(self) -> None:
        """Close the connection and stop the loop thread; calls still
        waiting (from other threads) fail with ServiceClosedError."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop).result()
        self._stop_loop()

    async def _shutdown(self) -> None:
        await self._client.close()
        # Anything still running (a retry backing off) is cancelled so
        # no caller is left waiting on a loop that is about to stop.
        current = asyncio.current_task()
        others = [task for task in asyncio.all_tasks() if task is not current]
        for task in others:
            task.cancel()
        await asyncio.gather(*others, return_exceptions=True)

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._loop.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
