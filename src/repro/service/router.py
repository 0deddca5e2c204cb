"""The shard router: multi-process write scaling over the framing core.

One Python process is GIL-bound, so a single :class:`UpdateService`
tops out at roughly one core of write throughput.  The router front end
splits the document space across N worker processes (spawned and
watched by :class:`~repro.service.supervise.ShardSupervisor` — each a
full service + async server over its own WAL under ``shard-<k>/``) and
speaks the unchanged wire protocol to clients, so ``connect``, both
client classes, and every existing tool work against it unmodified.

**The hot path forwards bytes, not objects.**  A routed request
(``submit`` / ``submit_wait`` / ``query`` / ``execute``) is JSON-parsed
once — to find the document name and hash it through the persisted
:class:`~repro.service.supervise.ShardMap` — and then the *original
payload bytes* are relayed to a per-(connection, shard) upstream
connection.  Response frames are pumped back verbatim under the client
connection's write lock; the router parses them only enough to retire
its pending-id table (which is what lets it synthesise retryable
``BUSY`` errors for requests a dying worker will never answer).
Request ids stay client-owned end to end, so pipelining and v2 chunked
responses pass straight through.

**Broadcast requests** fan out on per-shard admin clients: ``stats``
merges the worker registries through
:meth:`~repro.obs.metrics.MetricsRegistry.merge` (counters sum,
histograms pool, gauges tagged ``{shard-k}``), ``checkpoint`` and
``flush`` broadcast and aggregate, and ``ping`` is answered locally
from the supervisor's manifest.

**Supervision.**  A health loop pings each worker; a dead worker is
restarted off-loop (its recovery replays the shard WAL, so everything
the router acknowledged survives) while requests for its documents are
answered with retryable ``BUSY`` — the other shards keep serving.

What is and is not preserved: operations on *one document* keep the
per-document ordering and durability guarantees of the single-process
service (a document lives entirely on one shard).  Cross-document
operations issued through one client connection are no longer totally
ordered once the documents live on different shards, and ``flush`` is a
per-shard barrier executed on all shards, not a global snapshot point.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.errors import (
    ProtocolError,
    ReproError,
    ServiceBusyError,
    ServiceError,
)
from repro.obs import MetricsRegistry, get_registry
from repro.service.net.aio import AsyncServiceClient
from repro.service.net.core import (
    HEADER,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    decode_frame_payload,
    encode_frame,
    error_frame,
)
from repro.service.supervise import ShardMap, ShardSupervisor

__all__ = ["ShardCluster", "ShardMap", "ShardRouter"]

#: Request kinds routed by document name → where the name lives.
ROUTED_KINDS = {
    "submit": "payload",
    "submit_wait": "payload",
    "query": "doc",
    "execute": "doc",
}
#: Request kinds that fan out to every shard.
BROADCAST_KINDS = ("stats", "flush", "checkpoint")


async def _read_raw_frame(
    reader: asyncio.StreamReader, *, stall_timeout: Optional[float] = None
) -> Optional[bytes]:
    """One frame's raw payload bytes; None on clean EOF between frames.

    The raw-bytes twin of :func:`~repro.service.net.aio.read_frame_async`:
    the router forwards payloads verbatim, so it must never re-encode.
    """
    first = await reader.read(1)
    if not first:
        return None

    async def rest() -> bytes:
        header = first + await reader.readexactly(HEADER.size - 1)
        (length,) = HEADER.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds {MAX_FRAME_BYTES}")
        return await reader.readexactly(length)

    try:
        if stall_timeout is None:
            return await rest()
        return await asyncio.wait_for(rest(), stall_timeout)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    except asyncio.TimeoutError:
        raise ProtocolError("peer stalled mid-frame") from None


def _routed_doc(kind: str, request: dict) -> str:
    """The document name a routed request targets (raises if absent)."""
    if ROUTED_KINDS[kind] == "doc":
        doc = request.get("doc")
    else:
        payload = request.get("payload")
        doc = payload.get("doc") if isinstance(payload, dict) else None
    if not isinstance(doc, str) or not doc:
        raise ProtocolError(f"{kind} needs a routable document name")
    return doc


class _ShardLink:
    """The router's view of one shard: health and admin connection."""

    __slots__ = ("index", "up", "restarting", "generation", "admin")

    def __init__(self, index: int) -> None:
        self.index = index
        self.up = True
        self.restarting = False
        #: Bumped on every restart; upstreams built against an older
        #: generation reconnect (the old port/process is gone).
        self.generation = 0
        self.admin: Optional[AsyncServiceClient] = None


class ShardRouter:
    """The TCP front end that routes client frames to shard workers.

    Lifecycle mirrors :class:`~repro.service.net.aio.AsyncNetServer`:
    the event loop runs on a background thread, so ``start`` /
    ``address`` / ``close`` are synchronous and the CLI and tests drive
    either server interchangeably.
    """

    def __init__(
        self,
        supervisor: ShardSupervisor,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 10_000,
        max_inflight: int = 256,
        max_request_timeout: float = 30.0,
        health_interval: float = 0.5,
        own_supervisor: bool = False,
    ) -> None:
        self.supervisor = supervisor
        self.map = supervisor.map
        self._host = host
        self._port = port
        self._max_connections = max_connections
        self._max_inflight = max_inflight
        self._max_request_timeout = max_request_timeout
        self._health_interval = health_interval
        self._own_supervisor = own_supervisor
        self._links = [_ShardLink(k) for k in range(self.map.shards)]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._address: Optional[tuple[str, int]] = None
        self._connections: dict[int, "_RouterConnection"] = {}
        self._next_connection = 0
        self._tasks: set[asyncio.Task] = set()
        self._health_task: Optional[asyncio.Task] = None
        self._draining = False
        self._closed = False
        self._startup_error: Optional[BaseException] = None
        # Restarts block on process join + respawn + port wait; they run
        # off-loop so a dying shard never stalls the others' traffic.
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self.map.shards), thread_name_prefix="router-restart"
        )

    # ------------------------------------------------------------------
    # Lifecycle (synchronous API; the loop lives on its own thread)
    # ------------------------------------------------------------------
    def start(self) -> "ShardRouter":
        if self._thread is not None:
            raise ServiceError("router already started")
        started = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, args=(started,), name="shard-router", daemon=True
        )
        self._thread.start()
        started.wait()
        if self._startup_error is not None:
            raise ServiceError(
                f"router failed to start: {self._startup_error}"
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
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise ServiceError("router not started")
        return self._address

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.close()

    def close(self, timeout: Optional[float] = 30.0) -> int:
        """Graceful drain: stop accepting, let in-flight forwards
        finish, flush every shard, then (when owned) stop the worker
        fleet.  Returns the connections still undrained at the
        deadline."""
        if self._closed:
            return 0
        self._closed = True
        undrained = 0
        if self._loop is not None and self._thread is not None:
            future = asyncio.run_coroutine_threadsafe(self._drain(timeout), self._loop)
            try:
                undrained = future.result(None if timeout is None else timeout + 10.0)
            except Exception:
                undrained = len(self._connections)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(10.0)
        self._executor.shutdown(wait=False, cancel_futures=True)
        if undrained:
            get_registry().counter("router.close.undrained_connections").inc(undrained)
        if self._own_supervisor:
            self.supervisor.stop(30.0 if timeout is None else timeout)
        return undrained

    async def _drain(self, timeout: Optional[float]) -> int:
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        self._draining = True
        if self._health_task is not None:
            self._health_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        connections = list(self._connections.values())
        for connection in connections:
            connection.stopping.set()
        undrained = 0
        for connection in connections:
            remaining = None if deadline is None else max(0.0, deadline - loop.time())
            try:
                if remaining is None:
                    await connection.done.wait()
                else:
                    await asyncio.wait_for(connection.done.wait(), remaining)
            except asyncio.TimeoutError:
                undrained += 1
                connection.abort()
        # Broadcast one final flush: every shard makes everything it
        # acknowledged durable before the fleet is stopped.  (Worker
        # drain covers this again; the barrier here is belt-and-braces
        # for a supervisor that has to escalate to SIGKILL.)
        remaining = None if deadline is None else max(0.1, deadline - loop.time())
        try:
            await asyncio.wait_for(self._fanout("flush", {}), remaining)
        except Exception:
            pass
        for link in self._links:
            if link.admin is not None:
                try:
                    await link.admin.close()
                except Exception:
                    pass
                link.admin = None
        for task in list(self._tasks):
            task.cancel()
        return undrained

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        registry = get_registry()
        if self._draining or len(self._connections) >= self._max_connections:
            registry.counter("router.rejected").inc()
            try:
                writer.write(
                    encode_frame(
                        error_frame(
                            0,
                            ServiceBusyError(
                                f"connection limit ({self._max_connections}) reached"
                            ),
                        )
                    )
                )
                await writer.drain()
            except (OSError, ConnectionError):
                pass
            writer.close()
            return
        self._next_connection += 1
        connection = _RouterConnection(self, self._next_connection, reader, writer)
        self._connections[connection.id] = connection
        registry.gauge("router.connections").inc()
        try:
            await connection.serve()
        finally:
            self._connections.pop(connection.id, None)
            registry.gauge("router.connections").dec()

    # ------------------------------------------------------------------
    # Shard health
    # ------------------------------------------------------------------
    def _spawn_task(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self._health_interval)
            for link in self._links:
                if link.restarting:
                    continue
                if not self.supervisor.alive(link.index):
                    self._begin_restart(link)
                elif link.up:
                    self._spawn_task(self._ping_link(link))

    async def _ping_link(self, link: _ShardLink) -> None:
        try:
            admin = await self._admin(link)
            await asyncio.wait_for(
                admin.request("ping"), min(5.0, self._health_interval * 4 + 1.0)
            )
        except asyncio.CancelledError:
            raise
        except Exception:
            if link.admin is not None:
                try:
                    await link.admin.close()
                except Exception:
                    pass
                link.admin = None
            self._shard_trouble(link)

    def _shard_trouble(self, link: _ShardLink) -> None:
        """An upstream or admin connection to this shard failed."""
        if link.restarting or self._draining:
            return
        if self.supervisor.alive(link.index):
            return  # transient connection loss; callers just reconnect
        self._begin_restart(link)

    def _begin_restart(self, link: _ShardLink) -> None:
        if link.restarting or self._draining:
            return
        link.up = False
        link.restarting = True
        get_registry().counter("router.restarts").inc()
        self._spawn_task(self._restart(link))

    async def _restart(self, link: _ShardLink) -> None:
        loop = asyncio.get_running_loop()
        if link.admin is not None:
            try:
                await link.admin.close()
            except Exception:
                pass
            link.admin = None
        try:
            await loop.run_in_executor(
                self._executor, self.supervisor.restart, link.index
            )
        except asyncio.CancelledError:
            raise
        except Exception:
            # Leave the shard marked down; the next health tick tries
            # again.  Requests for its documents keep getting BUSY.
            get_registry().counter("router.restart_failures").inc()
            link.restarting = False
            return
        link.generation += 1
        link.restarting = False
        link.up = True

    # ------------------------------------------------------------------
    # Admin clients & broadcasts
    # ------------------------------------------------------------------
    async def _admin(self, link: _ShardLink) -> AsyncServiceClient:
        if link.admin is None:
            link.admin = await AsyncServiceClient.connect(
                self.supervisor.host,
                self.supervisor.port(link.index),
                connect_timeout=5.0,
                request_timeout=self._max_request_timeout,
            )
        return link.admin

    async def _fanout(self, kind: str, request: dict) -> dict[int, dict]:
        """Run one broadcast request on every shard; shard index → response.

        ``flush`` and ``checkpoint`` are barriers, so any down shard
        (or one that fails mid-request) makes the whole broadcast a
        retryable ``BUSY``.  ``stats`` degrades instead: down shards
        are reported, not fatal.
        """
        barrier = kind in ("flush", "checkpoint")
        down = [link.index for link in self._links if not link.up]
        if down and barrier:
            raise ServiceBusyError(
                f"shard(s) {down} restarting; retry the {kind}"
            )
        timeout = request.get("timeout")
        timeout = timeout if isinstance(timeout, (int, float)) and timeout > 0 else None

        async def one(link: _ShardLink) -> dict:
            admin = await self._admin(link)
            return await admin.request(kind, timeout=timeout)

        up_links = [link for link in self._links if link.up]
        results = await asyncio.gather(
            *(one(link) for link in up_links), return_exceptions=True
        )
        responses: dict[int, dict] = {}
        for link, result in zip(up_links, results):
            if isinstance(result, BaseException):
                if link.admin is not None:
                    try:
                        await link.admin.close()
                    except Exception:
                        pass
                    link.admin = None
                self._shard_trouble(link)
                if not barrier:
                    continue
                if isinstance(result, ReproError) and not isinstance(
                    result, (ServiceBusyError,)
                ):
                    raise result
                raise ServiceBusyError(
                    f"shard {link.index} failed during {kind} "
                    f"({result}); retry"
                ) from None
            responses[link.index] = result
        return responses

    def _merge_broadcast(self, kind: str, responses: dict[int, dict]) -> dict:
        if kind == "flush":
            return {"flushed": True, "shards": sorted(responses)}
        if kind == "checkpoint":
            per_shard = {
                f"shard-{index}": {
                    key: response.get(key, 0)
                    for key in (
                        "wal_seq",
                        "documents",
                        "segments_retired",
                        "bytes_retired",
                    )
                }
                for index, response in sorted(responses.items())
            }
            return {
                "wal_seq": max(
                    (response.get("wal_seq", 0) for response in responses.values()),
                    default=0,
                ),
                "documents": sum(
                    response.get("documents", 0) for response in responses.values()
                ),
                "segments_retired": sum(
                    response.get("segments_retired", 0)
                    for response in responses.values()
                ),
                "bytes_retired": sum(
                    response.get("bytes_retired", 0)
                    for response in responses.values()
                ),
                "shards": per_shard,
            }
        # stats: merge the worker registries; tag gauges by shard so
        # point-in-time levels stay distinguishable.
        merged = MetricsRegistry()
        per_shard_service: dict[str, dict] = {}
        for index, response in sorted(responses.items()):
            metrics = response.get("metrics")
            if isinstance(metrics, dict):
                merged.merge(metrics, gauge_tag=f"shard-{index}")
            per_shard_service[f"shard-{index}"] = response.get("service", {})
        merged.merge(get_registry().snapshot(), gauge_tag="router")
        down = [link.index for link in self._links if not link.up]
        return {
            "service": {
                "shards": self.map.shards,
                "down": down,
                "per_shard": per_shard_service,
            },
            "net": self._net_info(),
            "metrics": merged.snapshot(),
        }

    def _net_info(self) -> dict:
        return {
            "connections": len(self._connections),
            "max_connections": self._max_connections,
            "max_inflight": self._max_inflight,
            "transport": "router",
            "shards": {
                "total": self.map.shards,
                "up": [link.index for link in self._links if link.up],
                "down": [link.index for link in self._links if not link.up],
            },
        }

    def _ping_response(self, request: dict) -> dict:
        return {
            "v": PROTOCOL_VERSION,
            "id": request.get("id"),
            "ok": True,
            "pong": True,
            "documents": self.supervisor.documents,
            "shards": self._net_info()["shards"],
        }


class _Upstream:
    """One client connection's pipe to one shard worker.

    Forwards request bytes, pumps response bytes back, and tracks the
    ids in flight so a dead worker's unanswered requests can be failed
    with retryable ``BUSY`` instead of hanging until client timeout.
    """

    __slots__ = (
        "connection",
        "link",
        "generation",
        "reader",
        "writer",
        "pending",
        "dead",
        "_pump_task",
    )

    def __init__(
        self,
        connection: "_RouterConnection",
        link: _ShardLink,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.connection = connection
        self.link = link
        self.generation = link.generation
        self.reader = reader
        self.writer = writer
        #: request id → monotonic deadline
        self.pending: dict[int, float] = {}
        self.dead = False
        self._pump_task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._pump_task = asyncio.get_running_loop().create_task(self._pump())

    async def send(self, payload: bytes) -> None:
        if self.dead:
            raise ServiceBusyError(
                f"shard {self.link.index} connection lost; retry"
            )
        try:
            self.writer.write(HEADER.pack(len(payload)) + payload)
            await self.writer.drain()
        except (OSError, ConnectionError) as error:
            await self._fail()
            raise ServiceBusyError(
                f"shard {self.link.index} unreachable ({error}); retry"
            ) from None

    async def _pump(self) -> None:
        try:
            while True:
                payload = await _read_raw_frame(self.reader)
                if payload is None:
                    break  # worker closed (restart or drain)
                frame = decode_frame_payload(payload)
                if not frame.get("more", False):
                    self.pending.pop(frame.get("id"), None)
                await self.connection.send_raw(payload)
        except asyncio.CancelledError:
            raise
        except Exception:
            pass
        await self._fail()

    async def _fail(self) -> None:
        if self.dead:
            return
        self.dead = True
        # Fail every request the shard will never answer with a
        # retryable BUSY; the client's retries land after the restart.
        error = ServiceBusyError(
            f"shard {self.link.index} connection lost; retry"
        )
        abandoned = list(self.pending)
        self.pending.clear()
        for request_id in abandoned:
            await self.connection.send_frame(error_frame(request_id, error))
        if abandoned:
            get_registry().counter("router.abandoned_inflight").inc(len(abandoned))
        self.connection.router._shard_trouble(self.link)

    def sweep(self, now: float) -> None:
        """Drop pending entries whose deadline long passed (the client
        abandoned them; a response would be discarded by id anyway)."""
        expired = [
            request_id
            for request_id, deadline in self.pending.items()
            if now > deadline
        ]
        for request_id in expired:
            self.pending.pop(request_id, None)

    async def close(self) -> None:
        self.dead = True
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except (asyncio.CancelledError, Exception):
                pass
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except Exception:
            pass


class _RouterConnection:
    """One client connection: route frames, relay responses."""

    def __init__(
        self,
        router: ShardRouter,
        conn_id: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.router = router
        self.id = conn_id
        self.reader = reader
        self.writer = writer
        self.stopping = asyncio.Event()
        self.done = asyncio.Event()
        self._write_lock = asyncio.Lock()
        self._upstreams: dict[int, _Upstream] = {}
        self._broadcasts: set[asyncio.Task] = set()

    @property
    def inflight(self) -> int:
        return sum(
            len(upstream.pending) for upstream in self._upstreams.values()
        ) + len(self._broadcasts)

    def abort(self) -> None:
        for task in list(self._broadcasts):
            task.cancel()
        try:
            self.writer.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    async def serve(self) -> None:
        router = self.router
        stop_task = asyncio.create_task(self.stopping.wait())
        try:
            while True:
                read_task = asyncio.create_task(
                    _read_raw_frame(
                        self.reader, stall_timeout=router._max_request_timeout
                    )
                )
                await asyncio.wait(
                    {read_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
                )
                if not read_task.done():
                    read_task.cancel()
                    try:
                        await read_task
                    except (asyncio.CancelledError, Exception):
                        pass
                    break
                try:
                    payload = read_task.result()
                except (ProtocolError, OSError, ConnectionError):
                    break  # malformed stream or dead peer: drop it
                if payload is None:
                    break  # clean EOF
                try:
                    request = decode_frame_payload(payload)
                except ProtocolError:
                    break
                await self._handle(request, payload)
            await self._settle()
        finally:
            stop_task.cancel()
            for upstream in list(self._upstreams.values()):
                await upstream.close()
            self._upstreams.clear()
            for task in list(self._broadcasts):
                task.cancel()
            try:
                self.writer.close()
                await self.writer.wait_closed()
            except Exception:
                pass
            self.done.set()

    async def _settle(self) -> None:
        """Drain: wait (bounded) for forwarded requests and broadcasts
        still in flight, so their responses reach the client before the
        connection closes."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.router._max_request_timeout
        while self.inflight and loop.time() < deadline:
            now = time.monotonic()
            for upstream in self._upstreams.values():
                upstream.sweep(now)
            await asyncio.sleep(0.02)

    # ------------------------------------------------------------------
    async def _handle(self, request: dict, payload: bytes) -> None:
        registry = get_registry()
        registry.counter("router.requests").inc()
        version = request.get("v")
        request_id = request.get("id", 0)
        safe_id = request_id if isinstance(request_id, int) else 0
        if version not in SUPPORTED_VERSIONS:
            await self.send_frame(
                error_frame(
                    safe_id,
                    ProtocolError(
                        f"unsupported protocol version {version!r}; this router "
                        f"speaks v{PROTOCOL_VERSION}"
                    ),
                )
            )
            return
        try:
            if not isinstance(request_id, int):
                raise ProtocolError("request id must be an integer")
            kind = request.get("op")
            if kind == "ping":
                await self.send_frame(self.router._ping_response(request))
                return
            if kind in BROADCAST_KINDS:
                task = self.router._spawn_task(self._broadcast(kind, request))
                self._broadcasts.add(task)
                task.add_done_callback(self._broadcasts.discard)
                return
            if kind not in ROUTED_KINDS:
                raise ProtocolError(f"unknown request kind {kind!r}")
            doc = _routed_doc(kind, request)
            if self.inflight >= self.router._max_inflight:
                now = time.monotonic()
                for upstream in self._upstreams.values():
                    upstream.sweep(now)
            if self.inflight >= self.router._max_inflight:
                registry.counter("router.rejected").inc()
                raise ServiceBusyError(
                    f"connection has {self.inflight} requests in flight "
                    f"(limit {self.router._max_inflight}); slow down"
                )
            upstream = await self._upstream(self.router.map.shard_of(doc))
            timeout = request.get("timeout")
            if not isinstance(timeout, (int, float)) or timeout <= 0:
                timeout = self.router._max_request_timeout
            clamped = min(float(timeout), self.router._max_request_timeout)
            upstream.pending[request_id] = time.monotonic() + clamped + 5.0
            try:
                await upstream.send(payload)
            except ServiceBusyError:
                upstream.pending.pop(request_id, None)
                raise
            registry.counter("router.forwarded").inc()
        except ReproError as error:
            if isinstance(error, ServiceBusyError):
                registry.counter("router.busy").inc()
            await self.send_frame(error_frame(safe_id, error))
        except Exception as error:  # never leak a traceback over the wire
            await self.send_frame(
                error_frame(safe_id, ServiceError(f"internal error: {error}"))
            )

    async def _upstream(self, shard: int) -> _Upstream:
        link = self.router._links[shard]
        if not link.up:
            raise ServiceBusyError(f"shard {shard} is restarting; retry")
        upstream = self._upstreams.get(shard)
        if upstream is not None and (
            upstream.dead or upstream.generation != link.generation
        ):
            await upstream.close()
            self._upstreams.pop(shard, None)
            upstream = None
        if upstream is None:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(
                        self.router.supervisor.host,
                        self.router.supervisor.port(link.index),
                    ),
                    5.0,
                )
            except (OSError, ConnectionError, asyncio.TimeoutError, ReproError) as error:
                self.router._shard_trouble(link)
                raise ServiceBusyError(
                    f"shard {shard} unavailable ({error}); retry"
                ) from None
            upstream = _Upstream(self, link, reader, writer)
            self._upstreams[shard] = upstream
            upstream.start()
        return upstream

    async def _broadcast(self, kind: str, request: dict) -> None:
        request_id = request.get("id", 0)
        try:
            responses = await self.router._fanout(kind, request)
            merged = self.router._merge_broadcast(kind, responses)
            merged.update({"v": PROTOCOL_VERSION, "id": request_id, "ok": True})
            await self.send_frame(merged)
        except asyncio.CancelledError:
            raise
        except ReproError as error:
            await self.send_frame(error_frame(request_id, error))
        except Exception as error:
            await self.send_frame(
                error_frame(request_id, ServiceError(f"internal error: {error}"))
            )

    # ------------------------------------------------------------------
    async def send_raw(self, payload: bytes) -> None:
        try:
            async with self._write_lock:
                self.writer.write(HEADER.pack(len(payload)) + payload)
                await self.writer.drain()
        except (OSError, ConnectionError):
            pass  # dead client: the read loop will notice EOF

    async def send_frame(self, frame: dict) -> None:
        try:
            async with self._write_lock:
                self.writer.write(encode_frame(frame))
                await self.writer.drain()
        except (OSError, ConnectionError):
            pass


class ShardCluster:
    """Workers + router in one call — the shard-per-core deployment.

    ``documents`` maps name → serialised XML; each lands on the shard
    the persisted :class:`ShardMap` assigns it.  The cluster owns both
    halves: ``close()`` drains the router, then quits the workers
    (their own drains wait out session tickets, so everything
    acknowledged is durable on disk before this returns).

    ::

        with ShardCluster(directory, {"a.xml": "<log/>"}, shards=4) as cluster:
            host, port = cluster.address
            ...any protocol client...
    """

    def __init__(
        self,
        directory: str,
        documents: dict[str, str],
        shards: Optional[int] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        dtd_text: Optional[str] = None,
        start_timeout: float = 60.0,
        router_options: Optional[dict] = None,
        **worker_options,
    ) -> None:
        self.supervisor = ShardSupervisor(
            directory,
            documents,
            shards,
            dtd_text=dtd_text,
            start_timeout=start_timeout,
            **worker_options,
        )
        self.router = ShardRouter(
            self.supervisor,
            host,
            port,
            own_supervisor=True,
            **(router_options or {}),
        )

    def start(self) -> "ShardCluster":
        self.supervisor.start()
        self.router.start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        return self.router.address

    @property
    def shards(self) -> int:
        return self.supervisor.shards

    def close(self, timeout: Optional[float] = 30.0) -> int:
        return self.router.close(timeout)

    def __enter__(self) -> "ShardCluster":
        return self.start()

    def __exit__(self, exc_type, exc_value, tb) -> None:
        self.close()
