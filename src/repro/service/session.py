"""Client sessions over an :class:`~repro.service.server.UpdateService`.

A session is a thin, connection-like handle: it remembers a default
timeout, tracks the tickets it issued that are still in flight so
``close()`` can wait for them, and offers typed helpers for the three
operation kinds::

    with service.open_session() as session:
        ticket = session.submit("doc.xml", delta_ops)   # async
        session.delete_subtrees("db.xml", "n1", [4, 9]) # queued
        session.flush()                                 # barrier
        text = session.query("doc.xml")                 # under read lock

Sessions are cheap; open one per client thread.  All durability and
ordering guarantees come from the service — a session adds bookkeeping,
not semantics.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence, Union

from repro.errors import ServiceClosedError, ServiceTimeoutError
from repro.obs import get_registry
from repro.service.batcher import Ticket
from repro.service.ops import DeltaUpdate, ServiceOp, SubtreeCopy, SubtreeDelete
from repro.updates.delta import DeltaOp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.server import UpdateService


class Session:
    """One client's handle on the update service."""

    def __init__(
        self, service: "UpdateService", default_timeout: Optional[float] = None
    ) -> None:
        self._service = service
        self._default_timeout = default_timeout
        # Unresolved tickets (plus any resolved since the last prune).
        # Pipelined requests submit on several threads at once.
        self._lock = threading.Lock()
        self._tickets: list[Ticket] = []
        self._closed = False
        get_registry().gauge("service.sessions.active").inc()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        doc: str,
        operation: Union[ServiceOp, Sequence[DeltaOp]],
        timeout: Optional[float] = None,
    ) -> Ticket:
        """Queue an operation: either a ready-made service op or a list
        of delta operations for a document host."""
        self._check_open()
        if not isinstance(operation, (DeltaUpdate, SubtreeDelete, SubtreeCopy)):
            operation = DeltaUpdate(doc, tuple(operation))
        ticket = self._service.submit(operation, timeout=self._effective(timeout))
        with self._lock:
            self._prune_locked()
            self._tickets.append(ticket)
        return ticket

    def submit_wait(
        self,
        doc: str,
        operation: Union[ServiceOp, Sequence[DeltaOp]],
        timeout: Optional[float] = None,
    ) -> Optional[int]:
        """Submit and block until durable + applied.

        The timeout bounds the *total* call: queue admission and the
        ticket wait draw down one monotonic deadline (previously each
        was granted the full budget, so a call could take 2x its
        timeout before failing — the same double-grant fixed earlier
        in ``UpdateService.query``).
        """
        effective = self._effective(timeout)
        deadline = None if effective is None else time.monotonic() + effective
        ticket = self.submit(doc, operation, timeout=effective)
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        return ticket.wait(remaining)

    def delete_subtrees(
        self, doc: str, relation: str, ids: Iterable[int],
        timeout: Optional[float] = None,
    ) -> Ticket:
        return self.submit(doc, SubtreeDelete(doc, relation, tuple(ids)), timeout)

    def copy_subtrees(
        self, doc: str, relation: str, ids: Iterable[int], new_parent_id: int,
        timeout: Optional[float] = None,
    ) -> Ticket:
        return self.submit(
            doc, SubtreeCopy(doc, relation, tuple(ids), new_parent_id), timeout
        )

    # ------------------------------------------------------------------
    # Reads and barriers
    # ------------------------------------------------------------------
    def query(
        self,
        doc: str,
        work: Optional[Union[str, Callable]] = None,
        timeout: Optional[float] = None,
    ) -> Any:
        self._check_open()
        return self._service.query(doc, work, timeout=self._effective(timeout))

    def flush(self, timeout: Optional[float] = None) -> None:
        self._check_open()
        self._service.flush(self._effective(timeout))

    def _effective(self, timeout: Optional[float]) -> Optional[float]:
        """An explicit timeout wins even when it is 0 (non-blocking);
        ``timeout or default`` would silently promote 0 to the default."""
        return self._default_timeout if timeout is None else timeout

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Tickets issued by this session that have not resolved yet."""
        return sum(1 for ticket in self._tickets if not ticket.done)

    def _prune_locked(self) -> None:
        """Drop resolved tickets so the list stays as short as what is in
        flight.  One that resolved with an apply error is counted into
        ``session.close.failed`` here, exactly as :meth:`close` would."""
        live: list[Ticket] = []
        failed = 0
        for ticket in self._tickets:
            if not ticket.done:
                live.append(ticket)
            elif ticket.failed:
                failed += 1
        if failed:
            get_registry().counter("session.close.failed").inc(failed)
        self._tickets = live

    def close(self, timeout: Optional[float] = None) -> int:
        """Wait for this session's outstanding tickets, then detach.

        Returns the number of tickets still *undrained* — not resolved
        within the timeout — so a close that gave up is distinguishable
        from a clean one (``session.close.undrained`` counts the same
        thing in the metrics registry).  Tickets that resolved with an
        apply error are drained: their outcome belongs to whoever holds
        the ticket, so close does not re-raise them, but it counts them
        in ``session.close.failed`` rather than swallowing them with no
        trace at all.
        """
        if self._closed:
            return 0
        self._closed = True
        registry = get_registry()
        registry.gauge("service.sessions.active").dec()
        deadline_timeout = self._effective(timeout)
        deadline = (
            None
            if deadline_timeout is None
            else time.monotonic() + deadline_timeout
        )
        with self._lock:
            tickets, self._tickets = self._tickets, []
        undrained = failed = 0
        for ticket in tickets:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                ticket.wait(remaining)
            except ServiceTimeoutError:
                undrained += 1
            except Exception:
                failed += 1  # resolved, with an error the holder owns
        if undrained:
            registry.counter("session.close.undrained").inc(undrained)
        if failed:
            registry.counter("session.close.failed").inc(failed)
        return undrained

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("session is closed")
