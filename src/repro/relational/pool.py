"""Snapshot-consistent read-only connection pool over an in-memory store.

The write path scales with group commit; before this module the read
path did not scale at all — every ``query`` serialised behind the one
per-store SQLite connection lock in
:class:`~repro.relational.database.Database`, so the network front
end gained nothing from concurrent clients on read-heavy workloads.

SQLite's in-memory databases are private to their connection, so the
pool cannot simply open N connections to the same ``:memory:`` store.
Instead each pooled reader holds its *own* connection carrying a
``Connection.deserialize``-loaded copy of the writer's last committed
image (the same page-level image checkpoints persist).  On acquisition
a reader compares its version stamp against the writer's commit
version and refreshes lazily — one ``serialize()`` per committed
version (cached and shared), one ``deserialize()`` per stale reader.
The C-level work (serialize, deserialize, and statement stepping) all
releases the GIL, so pooled readers execute genuinely in parallel on
separate connections, and every reader sees a *snapshot*: all writes
committed before its acquisition, none of the writer's uncommitted
in-flight state.

Quiesce (``pool.quiesce()``) blocks new acquisitions and waits for
in-flight readers to drain; recovery (``Database.load_bytes``) and
close run under it so an image swap never races an executing read.

Instrumentation: ``sql.pool.size`` / ``sql.pool.in_use`` gauges,
``sql.pool.wait_ms`` (time to get a reader) and ``sql.pool.refresh_ms``
(snapshot refresh cost) histograms, and ``sql.pool.reads`` /
``sql.pool.refreshes`` counters.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import Any, Optional, Sequence

from repro.errors import StorageError
from repro.obs import get_registry


class _Reader:
    """One pooled read-only connection plus its snapshot version stamp."""

    __slots__ = ("connection", "version")

    def __init__(self) -> None:
        self.connection = sqlite3.connect(":memory:", check_same_thread=False)
        self.version = -1  # never loaded; any writer version is newer

    def close(self) -> None:
        try:
            self.connection.close()
        except sqlite3.Error:
            pass


class ReaderPool:
    """A bounded pool of snapshot readers over one writer database.

    ``image_source`` is a callable returning ``(version, image_bytes)``
    for the writer's current committed state (the Database provides it;
    the image is cached per version so N stale readers cost one
    serialize).  The pool is created closed-over its size; ``close()``
    is idempotent and drains via quiesce.
    """

    def __init__(self, size: int, image_source) -> None:
        if size < 1:
            raise ValueError("reader pool size must be >= 1")
        self._size = size
        self._image_source = image_source
        self._cond = threading.Condition()
        self._idle: list[_Reader] = [_Reader() for _ in range(size)]
        self._in_use = 0
        self._quiesced = False
        self._closed = False
        self._waits = 0
        registry = get_registry()
        registry.gauge("sql.pool.size").set(size)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._size

    def acquire(self, timeout: Optional[float] = None) -> "_LeasedReader":
        """Lease a refreshed snapshot reader (a context manager).

        Blocks while the pool is exhausted or quiesced; raises
        :class:`StorageError` on timeout or once the pool is closed.
        """
        started = time.monotonic()
        deadline = None if timeout is None else started + timeout
        with self._cond:
            while True:
                if self._closed:
                    raise StorageError("reader pool is closed")
                if not self._quiesced and self._idle:
                    reader = self._idle.pop()
                    self._in_use += 1
                    # Publish while still holding the lock: each set is
                    # then serialised with the ±1 it reports, so the
                    # gauge walks the true lease count instead of
                    # racing a concurrent release's stale read.
                    get_registry().gauge("sql.pool.in_use").set(self._in_use)
                    break
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self._waits += 1
                        raise StorageError(
                            f"timed out waiting for a pooled reader "
                            f"({self._size} in use)"
                        )
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()
        registry = get_registry()
        registry.histogram("sql.pool.wait_ms").observe(
            (time.monotonic() - started) * 1000.0
        )
        registry.counter("sql.pool.reads").inc()
        try:
            self._refresh(reader)
        except BaseException:
            self._release(reader)
            raise
        return _LeasedReader(self, reader)

    def _refresh(self, reader: _Reader) -> None:
        """Load the writer's latest committed image if the reader is stale."""
        version, image = self._image_source()
        if reader.version == version:
            return
        started = time.monotonic()
        try:
            reader.connection.deserialize(image)
        except sqlite3.Error as error:
            raise StorageError(f"cannot refresh pooled reader: {error}") from error
        reader.version = version
        registry = get_registry()
        registry.counter("sql.pool.refreshes").inc()
        registry.histogram("sql.pool.refresh_ms").observe(
            (time.monotonic() - started) * 1000.0
        )

    def _release(self, reader: _Reader) -> None:
        with self._cond:
            self._in_use -= 1
            # Inside the lock, like acquire: re-reading `_in_use` after
            # releasing raced concurrent acquires into publishing stale
            # (negative-clamped) values out of order.
            get_registry().gauge("sql.pool.in_use").set(self._in_use)
            if self._closed:
                reader.close()
            else:
                self._idle.append(reader)
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def query(
        self, sql: str, params: Sequence[Any] = (), timeout: Optional[float] = None
    ) -> list[tuple]:
        """Run one read-only statement on a pooled snapshot reader."""
        with self.acquire(timeout) as connection:
            try:
                return connection.execute(sql, params).fetchall()
            except sqlite3.Error as error:
                raise StorageError(
                    f"SQL failed on pooled reader: {error}\n  statement: {sql}"
                ) from error

    # ------------------------------------------------------------------
    def quiesce(self, timeout: Optional[float] = None) -> "_Quiesce":
        """Block new acquisitions and wait for in-flight readers to drain.

        Returns a context manager; recovery image swaps run inside it.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._quiesced:
                # One quiescer at a time; later ones queue here.
                if not self._wait(deadline):
                    raise StorageError("timed out waiting to quiesce reader pool")
            self._quiesced = True
            while self._in_use:
                if not self._wait(deadline):
                    self._quiesced = False
                    self._cond.notify_all()
                    raise StorageError(
                        "timed out draining in-flight pooled readers"
                    )
        return _Quiesce(self)

    def _wait(self, deadline: Optional[float]) -> bool:
        if deadline is None:
            self._cond.wait()
            return True
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        self._cond.wait(remaining)
        return True

    def _unquiesce(self) -> None:
        with self._cond:
            self._quiesced = False
            self._cond.notify_all()

    def invalidate(self) -> None:
        """Force every idle reader to refresh on its next acquisition."""
        with self._cond:
            for reader in self._idle:
                reader.version = -1

    def close(self) -> None:
        with self._cond:
            if self._closed:
                return
            self._closed = True
            for reader in self._idle:
                reader.close()
            self._idle.clear()
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._cond:
            return {
                "size": self._size,
                "in_use": self._in_use,
                "idle": len(self._idle),
                "quiesced": self._quiesced,
                "closed": self._closed,
            }


class _LeasedReader:
    """Context manager handing out the leased connection."""

    __slots__ = ("_pool", "_reader")

    def __init__(self, pool: ReaderPool, reader: _Reader) -> None:
        self._pool = pool
        self._reader = reader

    def __enter__(self) -> sqlite3.Connection:
        return self._reader.connection

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self._pool._release(self._reader)


class _Quiesce:
    __slots__ = ("_pool",)

    def __init__(self, pool: ReaderPool) -> None:
        self._pool = pool

    def __enter__(self) -> "ReaderPool":
        return self._pool

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self._pool._unquiesce()
