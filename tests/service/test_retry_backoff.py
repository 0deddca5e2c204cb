"""``retries_busy`` backoff: jittered, exponential, and capped by the
request deadline.

Regression target: the old loop slept ``backoff * 2**retry`` with no
jitter and no cap, so a client asked to retry a saturated shard could
sleep for minutes past its own request deadline (retry 12 at the
default 10ms backoff is already a 41s nap), and N clients retried in
lockstep."""

import asyncio
import socket
import threading
import time

import pytest

from repro.errors import ServiceBusyError
from repro.service import AsyncServiceClient, ServiceClient
from repro.service.net.core import error_frame, recv_frame, send_frame
from repro.service.ops import DeltaUpdate
from repro.updates.delta import InsertNode

JOIN_TIMEOUT = 30


def entry_op():
    return DeltaUpdate("doc.xml", (InsertNode((), 1 << 30, xml="<e/>"),))


# ----------------------------------------------------------------------
# A server whose only answer is BUSY
# ----------------------------------------------------------------------
@pytest.fixture()
def busy_server():
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.2)
    stop = threading.Event()
    workers = []

    def serve_one(conn):
        with conn:
            while not stop.is_set():
                try:
                    request = recv_frame(conn)
                except Exception:
                    return
                if request is None:
                    return
                send_frame(
                    conn, error_frame(request.get("id", 0), ServiceBusyError("saturated"))
                )

    def accept_loop():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            worker = threading.Thread(target=serve_one, args=(conn,), daemon=True)
            worker.start()
            workers.append(worker)

    acceptor = threading.Thread(target=accept_loop, daemon=True)
    acceptor.start()
    try:
        yield listener.getsockname()
    finally:
        stop.set()
        listener.close()
        acceptor.join(JOIN_TIMEOUT)


def test_threaded_retries_never_outlive_the_deadline(busy_server):
    """The blocking client (a façade driving the async client from its
    own loop thread) inherits the deadline cap."""
    host, port = busy_server
    with ServiceClient(host, port) as client:
        start = time.monotonic()
        with pytest.raises(ServiceBusyError):
            # Enough retries that the uncapped exponential schedule
            # would sleep for hours; the deadline must cut it off.
            client.submit_wait(entry_op(), timeout=0.6, retries_busy=1000, backoff=0.05)
        elapsed = time.monotonic() - start
    assert elapsed < 3.0, f"retry loop outlived its 0.6s deadline: {elapsed:.1f}s"


def test_async_retries_never_outlive_the_deadline(busy_server):
    host, port = busy_server

    async def drive():
        client = await AsyncServiceClient.connect(host, port)
        try:
            start = time.monotonic()
            with pytest.raises(ServiceBusyError):
                await client.submit_wait(
                    entry_op(), timeout=0.6, retries_busy=1000, backoff=0.05
                )
            return time.monotonic() - start
        finally:
            await client.close()

    elapsed = asyncio.run(drive())
    assert elapsed < 3.0, f"retry loop outlived its 0.6s deadline: {elapsed:.1f}s"


def test_zero_retries_surfaces_busy_immediately(busy_server):
    host, port = busy_server
    with ServiceClient(host, port) as client:
        start = time.monotonic()
        with pytest.raises(ServiceBusyError):
            client.submit_wait(entry_op())
        assert time.monotonic() - start < 2.0


# ----------------------------------------------------------------------
# The backoff schedule itself (no sockets: drive _retry_busy directly;
# the blocking client runs the same coroutine on its loop thread)
# ----------------------------------------------------------------------
async def always_busy():
    raise ServiceBusyError("saturated")


def retry(attempt, retries, backoff, deadline):
    async def drive():
        await AsyncServiceClient._retry_busy(None, attempt, retries, backoff, deadline)

    asyncio.run(drive())


def record_sleeps(monkeypatch, sleeps, *, real=False):
    real_sleep = asyncio.sleep

    async def fake_sleep(delay):
        sleeps.append(delay)
        if real:
            await real_sleep(delay)

    monkeypatch.setattr("repro.service.net.aio.asyncio.sleep", fake_sleep)


def test_backoff_is_exponential_and_jittered(monkeypatch):
    sleeps = []
    rolls = iter([0.0, 1.0, 0.5, 0.0, 1.0, 0.5, 0.0, 1.0])
    record_sleeps(monkeypatch, sleeps)
    monkeypatch.setattr("repro.service.net.aio.random.random", lambda: next(rolls))
    with pytest.raises(ServiceBusyError):
        retry(always_busy, 3, 0.1, time.monotonic() + 60.0)
    assert len(sleeps) == 3  # 4 attempts, no sleep after the last
    # delay = backoff * 2**retry * (0.5 + roll/2): the jitter factor
    # spans [0.5x, 1x] of the deterministic schedule.
    assert sleeps[0] == pytest.approx(0.1 * 1 * 0.5)
    assert sleeps[1] == pytest.approx(0.1 * 2 * 1.0)
    assert sleeps[2] == pytest.approx(0.1 * 4 * 0.75)


def test_backoff_sleep_is_clamped_to_remaining_time(monkeypatch):
    sleeps = []
    record_sleeps(monkeypatch, sleeps, real=True)
    monkeypatch.setattr("repro.service.net.aio.random.random", lambda: 1.0)
    deadline = time.monotonic() + 0.25
    with pytest.raises(ServiceBusyError):
        # backoff=10 wants a 10s first nap; remaining is ~0.25s.
        retry(always_busy, 50, 10.0, deadline)
    assert sleeps, "expected at least one clamped sleep"
    assert all(delay <= 0.26 for delay in sleeps)
    # Once past the deadline the loop re-raises instead of burning the
    # remaining retry budget.
    assert len(sleeps) < 5


def test_backoff_past_deadline_raises_without_sleeping(monkeypatch):
    sleeps = []
    record_sleeps(monkeypatch, sleeps)
    attempts = []

    async def attempt():
        attempts.append(1)
        raise ServiceBusyError("saturated")

    with pytest.raises(ServiceBusyError):
        retry(attempt, 50, 0.1, time.monotonic() - 1.0)
    assert len(attempts) == 1  # one try, then straight out
    assert sleeps == []


def test_async_backoff_schedule_matches_threaded(monkeypatch):
    """Without jitter the schedule is plain doubling; the blocking
    client runs this same coroutine on its loop thread."""
    sleeps = []
    record_sleeps(monkeypatch, sleeps)
    monkeypatch.setattr("repro.service.net.aio.random.random", lambda: 1.0)
    with pytest.raises(ServiceBusyError):
        retry(always_busy, 3, 0.1, time.monotonic() + 60.0)
    assert sleeps == pytest.approx([0.1, 0.2, 0.4])
