"""The asyncio front end: the event-loop server multiplexing thousands
of connections with pipelined frames, and the async client.

**Server shape.**  :class:`AsyncNetServer` hosts an asyncio event loop
on a background thread, so its lifecycle API (``start`` / ``address`` /
``close``) is synchronous — the CLI, tests, and benches drive it like
any blocking object.  Each connection is a coroutine that *only* parses
frames and writes responses; every dispatch (SQLite through the reader
pool, group-commit waits — all blocking by design) runs on a
thread-pool executor.  An idle connection therefore costs one task and
a few KiB, which is what lets one process hold 10k+ connections.

**Pipelining.**  Request ids permit out-of-order completion: the read
loop keeps parsing frames while earlier dispatches are still executing,
each response is written (under a per-connection write lock, so chunk
sequences stay contiguous) whenever its dispatch finishes, and
``max_inflight`` bounds the concurrently executing requests per
connection — the excess is shed with retryable ``BUSY`` frames instead
of buffered.

**Admission and drain.**  At most ``max_connections`` connections
(excess answered with one ``BUSY`` frame and closed).  ``close()``
stops accepting, lets in-flight dispatches finish against a deadline,
closes each session (waiting out its tickets — acked async submits are
durable before drain completes), counts stragglers into
``net.close.undrained_connections``, and finally closes the service
when it owns it.

**Streaming responses.**  A query result that exceeds the chunk
threshold is answered with bounded chunk frames
(:func:`~repro.service.net.core.split_response`), which the client
reassembles.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Any, Optional

from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceBusyError,
    ServiceClosedError,
    ServiceConnectionError,
    ServiceError,
    ServiceTimeoutError,
)
from repro.obs import get_registry
from repro.service.net.core import (
    DEFAULT_CHUNK_BYTES,
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ChunkAssembler,
    decode_frame_payload,
    encode_frame,
    error_frame,
    error_to_exception,
    split_response,
)
from repro.service.net.handlers import Dispatcher
from repro.service.ops import ServiceOp, op_to_dict
from repro.service.server import UpdateService


# ----------------------------------------------------------------------
# Async frame I/O
# ----------------------------------------------------------------------
async def read_frame_async(
    reader: asyncio.StreamReader, *, stall_timeout: Optional[float] = None
) -> Optional[dict]:
    """Read one frame; None on clean EOF between frames.

    Waiting for a frame to *begin* is untimed (idle connections are
    fine); once the first byte has arrived the remainder must land
    within ``stall_timeout`` or the peer is declared wedged with a
    :class:`ProtocolError` — a partial frame must never be retried as
    if the connection were idle.
    """
    first = await reader.read(1)
    if not first:
        return None

    async def rest() -> dict:
        header = first + await reader.readexactly(HEADER.size - 1)
        (length,) = HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
        payload = await reader.readexactly(length)
        return decode_frame_payload(payload)

    try:
        if stall_timeout is None:
            return await rest()
        return await asyncio.wait_for(rest(), stall_timeout)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    except asyncio.TimeoutError:
        raise ProtocolError("peer stalled mid-frame") from None


async def write_frame_async(writer: asyncio.StreamWriter, obj: dict) -> None:
    writer.write(encode_frame(obj))
    await writer.drain()


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class AsyncNetServer:
    """An asyncio TCP front end over one :class:`UpdateService`.

    The event loop runs on a background thread, so ``start()`` /
    ``close()`` are synchronous.  The server does not own the service
    unless ``own_service`` is set — with it set, :meth:`close` finishes
    the drain by calling ``service.close()``.
    """

    def __init__(
        self,
        service: UpdateService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 10_000,
        max_inflight: int = 64,
        max_request_timeout: float = 30.0,
        own_service: bool = False,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        executor_workers: int = 32,
    ) -> None:
        self.service = service
        self._host = host
        self._port = port
        self._max_connections = max_connections
        self._max_inflight = max_inflight
        self._max_request_timeout = max_request_timeout
        self._own_service = own_service
        self._chunk_bytes = chunk_bytes
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._address: Optional[tuple[str, int]] = None
        self._connections: dict[int, "_AsyncConnection"] = {}
        self._next_connection = 0
        self._draining = False
        self._closed = False
        self._startup_error: Optional[BaseException] = None
        # Dispatches block (reader pool, group-commit waits); the
        # worker count is the server-wide execution parallelism, sized
        # so a few deep pipelines can have every request in flight —
        # that is where group commit earns its fsync amortisation.
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="net-aio-exec"
        )
        self._dispatcher = Dispatcher(
            service,
            max_inflight=max_inflight,
            max_request_timeout=max_request_timeout,
            net_info=self._net_info,
        )

    def _net_info(self) -> dict:
        return {
            "connections": len(self._connections),
            "max_connections": self._max_connections,
            "max_inflight": self._max_inflight,
            "transport": "asyncio",
        }

    # ------------------------------------------------------------------
    # Lifecycle (synchronous API; the loop lives on its own thread)
    # ------------------------------------------------------------------
    def start(self) -> "AsyncNetServer":
        if self._thread is not None:
            raise ServiceError("server already started")
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, args=(started,), name="net-aio", daemon=True
        )
        self._thread.start()
        started.wait()
        if self._startup_error is not None:
            raise ServiceError(
                f"async server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def _run_loop(self, started: threading.Event) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._open_listener())
        except BaseException as error:
            self._startup_error = error
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    async def _open_listener(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, backlog=1024
        )
        self._address = self._server.sockets[0].getsockname()[:2]

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ``port=0`` requests."""
        if self._address is None:
            raise ServiceError("server not started")
        return self._address

    def __enter__(self) -> "AsyncNetServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def close(self, timeout: Optional[float] = 30.0) -> int:
        """Graceful drain (synchronous): stop accepting, finish
        in-flight dispatches, drain each session's tickets, then (when
        owned) close the service.  Returns the number of connections
        still undrained at the deadline (also counted into the
        ``net.close.undrained_connections`` counter)."""
        if self._closed:
            return 0
        self._closed = True
        undrained = 0
        if self._loop is not None and self._thread is not None:
            future = asyncio.run_coroutine_threadsafe(self._drain(timeout), self._loop)
            try:
                undrained = future.result(
                    None if timeout is None else timeout + 10.0
                )
            except Exception:
                undrained = len(self._connections)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10.0)
        self._executor.shutdown(wait=False, cancel_futures=True)
        if undrained:
            get_registry().counter("net.close.undrained_connections").inc(undrained)
        if self._own_service:
            self.service.close(drain=True, timeout=timeout)
        return undrained

    async def _drain(self, timeout: Optional[float]) -> int:
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        connections = list(self._connections.values())
        for connection in connections:
            connection.stopping.set()
        undrained = 0
        for connection in connections:
            remaining = (
                None if deadline is None else max(0.0, deadline - loop.time())
            )
            try:
                if remaining is None:
                    await connection.done.wait()
                else:
                    await asyncio.wait_for(connection.done.wait(), remaining)
            except asyncio.TimeoutError:
                undrained += 1
                connection.abort()
        return undrained

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        registry = get_registry()
        if self._draining or len(self._connections) >= self._max_connections:
            registry.counter("net.rejected").inc()
            try:
                await write_frame_async(
                    writer,
                    error_frame(
                        0,
                        ServiceBusyError(
                            f"connection limit ({self._max_connections}) reached"
                        ),
                    ),
                )
            except (OSError, ConnectionError):
                pass
            writer.close()
            return
        self._next_connection += 1
        connection = _AsyncConnection(
            self, self._next_connection, reader, writer
        )
        self._connections[connection.id] = connection
        registry.gauge("net.connections").inc()
        try:
            await connection.serve()
        finally:
            self._connections.pop(connection.id, None)
            registry.gauge("net.connections").dec()


class _AsyncConnection:
    """One client connection: a read loop that pipelines dispatches."""

    def __init__(
        self,
        server: AsyncNetServer,
        conn_id: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.id = conn_id
        self.reader = reader
        self.writer = writer
        self.session = server.service.open_session()
        self.stopping = asyncio.Event()
        self.done = asyncio.Event()
        self._write_lock = asyncio.Lock()
        self._inflight: set[asyncio.Task] = set()

    def abort(self) -> None:
        """Drain deadline passed: cut the connection loose."""
        for task in list(self._inflight):
            task.cancel()
        try:
            self.writer.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    async def serve(self) -> None:
        registry = get_registry()
        server = self.server
        loop = asyncio.get_running_loop()
        stop_task = asyncio.create_task(self.stopping.wait())
        try:
            while True:
                read_task = asyncio.create_task(
                    read_frame_async(
                        self.reader, stall_timeout=server._max_request_timeout
                    )
                )
                await asyncio.wait(
                    {read_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
                )
                if not read_task.done():
                    read_task.cancel()  # idle (or mid-frame) during drain
                    try:
                        await read_task
                    except (asyncio.CancelledError, Exception):
                        pass
                    break
                try:
                    request = read_task.result()
                except (ProtocolError, OSError, ConnectionError):
                    break  # malformed stream or dead peer: drop it
                if request is None:
                    break  # clean EOF
                if len(self._inflight) >= server._max_inflight:
                    # Shed instead of buffering: the pipeline is full.
                    registry.counter("net.rejected").inc()
                    request_id = request.get("id", 0)
                    await self._send_frames(
                        [
                            error_frame(
                                request_id if isinstance(request_id, int) else 0,
                                ServiceBusyError(
                                    f"connection has {len(self._inflight)} "
                                    f"requests executing (limit "
                                    f"{server._max_inflight}); slow down"
                                ),
                            )
                        ]
                    )
                    continue
                task = loop.create_task(self._process(request))
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
            # Drain: every accepted request still completes and its
            # response still goes out before the connection closes.
            if self._inflight:
                await asyncio.gather(*self._inflight, return_exceptions=True)
        finally:
            stop_task.cancel()
            # Session close waits out this connection's tickets —
            # acked async submits are durable before drain finishes.
            try:
                undrained = await loop.run_in_executor(
                    server._executor,
                    partial(
                        self.session.close, timeout=server._max_request_timeout
                    ),
                )
            except RuntimeError:  # executor already shut down
                undrained = self.session.close(timeout=0.0)
            if undrained:
                registry.counter("net.close.undrained").inc(undrained)
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except Exception:
                pass
            self.done.set()

    async def _process(self, request: dict) -> None:
        registry = get_registry()
        server = self.server
        loop = asyncio.get_running_loop()
        started = time.monotonic()
        registry.counter("net.requests").inc()
        try:
            response = await loop.run_in_executor(
                server._executor,
                server._dispatcher.dispatch,
                self.session,
                request,
            )
        except asyncio.CancelledError:
            raise
        except Exception as error:
            request_id = request.get("id", 0)
            response = error_frame(
                request_id if isinstance(request_id, int) else 0,
                ServiceError(f"internal error: {error}"),
            )
        registry.histogram("net.request_ms").observe(
            (time.monotonic() - started) * 1000.0
        )
        if not response.get("ok", False):
            registry.counter("net.rejected").inc()
        frames = split_response(response, server._chunk_bytes)
        if len(frames) > 1:
            registry.counter("net.chunks").inc(len(frames))
        await self._send_frames(frames)

    async def _send_frames(self, frames: list[dict]) -> None:
        # The write lock keeps a chunk sequence contiguous even while
        # other pipelined responses are completing.
        try:
            async with self._write_lock:
                for frame in frames:
                    self.writer.write(encode_frame(frame))
                    await self.writer.drain()
        except (OSError, ConnectionError):
            pass  # dead peer: the read loop will notice EOF and exit


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class AsyncServiceClient:
    """An async client with pipelined requests and streamed responses.

    Many coroutines may issue requests concurrently on one connection;
    a background receive task routes responses to futures by id, so
    completion order is independent of submission order (that is the
    pipelining the bench sweeps measure).  Large query results arrive
    as bounded chunks reassembled by :class:`ChunkAssembler`.

    Construct with :meth:`connect`::

        client = await AsyncServiceClient.connect(host, port)
        try:
            await client.submit_wait(op)
        finally:
            await client.close()

    (or ``async with await AsyncServiceClient.connect(...) as client:``).
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        request_timeout: float = 30.0,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._request_timeout = request_timeout
        self._write_lock = asyncio.Lock()
        self._pending: dict[int, tuple[asyncio.Future, ChunkAssembler]] = {}
        self._next_id = 0
        self._dead: Optional[ServiceError] = None
        self._closed = False
        self._receiver: Optional[asyncio.Task] = None

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
    ) -> "AsyncServiceClient":
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), connect_timeout
            )
        except asyncio.TimeoutError:
            raise ServiceTimeoutError(
                f"connect to {host}:{port} timed out after {connect_timeout}s"
            ) from None
        except OSError as error:
            raise ServiceConnectionError(
                f"cannot connect to {host}:{port}: {error}"
            ) from error
        client = cls(reader, writer, request_timeout=request_timeout)
        client._receiver = asyncio.create_task(client._receive_loop())
        return client

    # ------------------------------------------------------------------
    async def _receive_loop(self) -> None:
        try:
            while True:
                frame = await read_frame_async(self._reader)
                if frame is None:
                    raise ServiceConnectionError("server closed the connection")
                self._route(frame)
        except asyncio.CancelledError:
            raise
        except ReproError as error:
            self._fail(error)
        except Exception as error:
            self._fail(ServiceConnectionError(f"connection failed: {error}"))

    def _route(self, frame: dict) -> None:
        response_id = frame.get("id")
        if response_id == 0 and not frame.get("ok", True):
            raise error_to_exception(frame.get("error", {}))
        if (
            not isinstance(response_id, int)
            or response_id <= 0
            or response_id > self._next_id
        ):
            raise ProtocolError(
                f"response id {response_id!r} does not match any request id "
                "issued by this client"
            )
        entry = self._pending.get(response_id)
        if entry is None:
            return  # late response to a timed-out request: discard
        future, assembler = entry
        complete = assembler.feed(frame)
        if complete is not None:
            del self._pending[response_id]
            if not future.done():
                future.set_result(complete)

    def _fail(self, error: ServiceError) -> None:
        if self._dead is None:
            self._dead = error
        for future, _assembler in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
        try:
            self._writer.close()
        except Exception:
            pass

    async def _request(
        self, kind: str, timeout: Optional[float] = None, **fields
    ) -> dict:
        if self._closed:
            raise ServiceClosedError("client is closed")
        if self._dead is not None:
            raise self._dead  # the typed error that killed the connection
        effective = self._request_timeout if timeout is None else timeout
        self._next_id += 1
        request_id = self._next_id
        message = {
            "v": PROTOCOL_VERSION,
            "op": kind,
            "timeout": effective,
            "id": request_id,
        }
        message.update(fields)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = (future, ChunkAssembler())
        try:
            async with self._write_lock:
                self._writer.write(encode_frame(message))
                await self._writer.drain()
        except (OSError, ConnectionError) as error:
            self._pending.pop(request_id, None)
            raise ServiceConnectionError(
                f"connection failed during {kind!r}: {error}"
            ) from error
        try:
            # The server enforces the deadline; ours is a backstop
            # slightly past it so a hung server surfaces as a typed
            # timeout.  Only this request is abandoned — its late
            # response is discarded by id.
            response = await asyncio.wait_for(future, effective + 2.0)
        except asyncio.TimeoutError:
            self._pending.pop(request_id, None)
            raise ServiceTimeoutError(
                f"request {kind!r} timed out after {effective}s"
            ) from None
        if not response.get("ok", False):
            raise error_to_exception(response.get("error", {}))
        return response

    # ------------------------------------------------------------------
    # API (the blocking ServiceClient wraps these one to one)
    # ------------------------------------------------------------------
    async def ping(self) -> list[str]:
        return (await self._request("ping"))["documents"]

    async def request(self, kind: str, timeout: Optional[float] = None, **fields) -> dict:
        """One raw protocol request; returns the complete (reassembled)
        response frame.  This is the escape hatch the shard router's
        admin fan-out uses — the typed methods below cover normal use."""
        return await self._request(kind, timeout=timeout, **fields)

    async def submit(
        self, op: ServiceOp, *, retries_busy: int = 0, backoff: float = 0.01
    ) -> int:
        response = await self._retry_busy(
            lambda: self._request("submit", payload=op_to_dict(op)),
            retries_busy,
            backoff,
            time.monotonic() + self._request_timeout,
        )
        return response["pending"]

    async def submit_wait(
        self,
        op: ServiceOp,
        timeout: Optional[float] = None,
        *,
        retries_busy: int = 0,
        backoff: float = 0.01,
    ) -> Optional[int]:
        effective = self._request_timeout if timeout is None else timeout
        response = await self._retry_busy(
            lambda: self._request(
                "submit_wait", timeout=timeout, payload=op_to_dict(op)
            ),
            retries_busy,
            backoff,
            time.monotonic() + effective,
        )
        return response["seq"]

    async def _retry_busy(
        self, attempt, retries: int, backoff: float, deadline: float
    ) -> dict:
        # Jittered exponential backoff under a total-deadline cap: the
        # jitter de-synchronises N clients hammering one saturated
        # shard, and the cap guarantees the retry loop never outlives
        # the request deadline (unjittered 2**retry growth used to).
        for retry in range(retries + 1):
            try:
                return await attempt()
            except ServiceBusyError:
                remaining = deadline - time.monotonic()
                if retry == retries or remaining <= 0.0:
                    raise
                delay = backoff * (2**retry) * (0.5 + random.random() * 0.5)
                await asyncio.sleep(min(delay, remaining))
        raise AssertionError("unreachable")  # pragma: no cover

    async def query(
        self,
        doc: str,
        statement: Optional[str] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        response = await self._request(
            "query", timeout=timeout, doc=doc, statement=statement
        )
        return response["text"] if statement is None else response["results"]

    async def execute(
        self, doc: str, statement: str, timeout: Optional[float] = None
    ) -> dict:
        response = await self._request(
            "execute", timeout=timeout, doc=doc, statement=statement
        )
        return {
            key: response[key]
            for key in ("seq", "delta_ops", "results")
            if key in response
        }

    async def flush(self, timeout: Optional[float] = None) -> None:
        await self._request("flush", timeout=timeout)

    async def checkpoint(self, timeout: Optional[float] = None) -> dict:
        response = await self._request("checkpoint", timeout=timeout)
        return {
            key: response[key]
            for key in ("wal_seq", "documents", "segments_retired", "bytes_retired")
        }

    async def stats(self) -> dict:
        response = await self._request("stats")
        return {key: response[key] for key in ("service", "net", "metrics")}

    async def close(self) -> None:
        """Close the connection; requests still waiting on it fail with
        :class:`ServiceClosedError` instead of running out their
        timeouts."""
        if self._closed:
            return
        self._closed = True
        self._fail(ServiceClosedError("client is closed"))
        if self._receiver is not None:
            self._receiver.cancel()
            try:
                await self._receiver
            except (asyncio.CancelledError, Exception):
                pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, exc_type, exc_value, traceback) -> None:
        await self.close()
