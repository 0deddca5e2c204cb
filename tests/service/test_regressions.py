"""Regression tests for the service-layer fixes that rode along with
the network front end:

* ``UpdateService.query_elements`` raises a typed :class:`ServiceError`
  on a non-list result (it used to ``assert``, which raises the wrong
  class and vanishes under ``python -O``);
* ``Session.close`` reports undrained and failed tickets through the
  metrics registry and its return value instead of swallowing every
  exception;
* a session prunes resolved tickets on ``submit`` instead of keeping
  every ticket until the connection closes;
* a failed (auto-)checkpoint records *why* in
  ``UpdateService.checkpoint_last_error`` / ``stats()`` instead of only
  bumping a counter;
* concurrent readers of one document overlap on the query pool while a
  writer blocks behind their read locks;
* ``submit_wait`` (service and session) and ``checkpoint`` bound their
  *total* time with one monotonic deadline instead of granting the
  timeout again to each internal stage.
"""

import sys
import threading
import time

import pytest

from repro.errors import CheckpointError, ServiceError, ServiceTimeoutError
from repro.obs import get_registry
from repro.service import DeltaUpdate, ServiceConfig, Session, UpdateService
from repro.updates.delta import InsertNode
from repro.xmlmodel.parser import XmlParser

DOC = "doc.xml"
JOIN_TIMEOUT = 30


def fresh_doc():
    return XmlParser("<log></log>").parse()


def entry_op(index):
    return DeltaUpdate(DOC, (InsertNode((), 1 << 30, xml=f'<e i="{index}"/>'),))


def make_service(**overrides):
    config = dict(batch_size=4, coalesce_wait=0.002)
    config.update(overrides)
    service = UpdateService(ServiceConfig(**config))
    service.host_document(DOC, fresh_doc())
    return service.start()


class TestQueryElementsTypedError:
    def test_non_list_result_raises_service_error(self, monkeypatch):
        """Before the fix this raised AssertionError — not a
        ServiceError subclass, and compiled away under ``python -O``."""
        service = make_service()
        try:
            monkeypatch.setattr(service, "query", lambda doc, statement: None)
            with pytest.raises(ServiceError, match="not a result list"):
                service.query_elements(DOC, "FOR $x IN ... RETURN $x")
        finally:
            service.close()

    def test_list_result_passes_through(self, monkeypatch):
        service = make_service()
        try:
            marker = [object()]
            monkeypatch.setattr(service, "query", lambda doc, statement: marker)
            assert service.query_elements(DOC, "whatever") is marker
        finally:
            service.close()


class TestSessionCloseAccounting:
    def test_undrained_tickets_counted_and_returned(self):
        service = make_service(batch_size=1, coalesce_wait=0.0)
        host = service.host(DOC)
        gate = threading.Event()
        original_apply = host.apply
        host.apply = lambda op: (gate.wait(JOIN_TIMEOUT), original_apply(op))
        registry = get_registry()
        before = registry.counter("session.close.undrained").value
        session = Session(service)
        try:
            session.submit(DOC, entry_op(0))
            session.submit(DOC, entry_op(1))
            undrained = session.close(timeout=0.1)
            # The committer is stalled in apply: neither ticket resolved.
            assert undrained == 2
            assert registry.counter("session.close.undrained").value == before + 2
        finally:
            gate.set()
            service.close()

    def test_failed_tickets_counted_not_swallowed_silently(self):
        service = make_service(batch_size=1, coalesce_wait=0.0)
        host = service.host(DOC)

        def explode(op):
            raise ValueError("apply rejected this operation")

        host.apply = explode
        registry = get_registry()
        before = registry.counter("session.close.failed").value
        session = Session(service)
        try:
            ticket = session.submit(DOC, entry_op(0))
            with pytest.raises(ValueError):
                ticket.wait(JOIN_TIMEOUT)  # resolve it (with the error)...
            # ...so close drains it as *failed*, not undrained: the
            # outcome belongs to the ticket holder, but it leaves a
            # metrics trace rather than disappearing into `pass`.
            assert session.close(timeout=JOIN_TIMEOUT) == 0
            assert registry.counter("session.close.failed").value == before + 1
        finally:
            service.close(drain=False)

    def test_failed_ticket_pruned_on_submit_is_counted_once(self):
        service = make_service(batch_size=1, coalesce_wait=0.0)
        host = service.host(DOC)

        def explode(op):
            raise ValueError("apply rejected this operation")

        host.apply = explode
        registry = get_registry()
        before = registry.counter("session.close.failed").value
        session = Session(service)
        try:
            for index in range(2):
                with pytest.raises(ValueError):
                    session.submit_wait(DOC, entry_op(index), timeout=JOIN_TIMEOUT)
            # The second submit pruned (and counted) the first ticket;
            # close counts the second.  Neither is counted twice.
            assert session.close(timeout=JOIN_TIMEOUT) == 0
            assert registry.counter("session.close.failed").value == before + 2
        finally:
            service.close(drain=False)

    def test_resolved_tickets_are_pruned_on_submit(self):
        """Failing before: every ticket stayed in the session's list until
        the session closed, so a long-lived connection's list — and the
        ``pending`` scan the dispatcher runs on every submit — grew
        without bound."""
        service = make_service(batch_size=1, coalesce_wait=0.0)
        host = service.host(DOC)
        gate = threading.Event()
        gate.set()
        original_apply = host.apply
        host.apply = lambda op: (gate.wait(JOIN_TIMEOUT), original_apply(op))
        session = Session(service)
        try:
            for index in range(1000):
                session.submit_wait(DOC, entry_op(index), timeout=JOIN_TIMEOUT)
            gate.clear()  # the next ticket stays unresolved
            blocked = session.submit(DOC, entry_op(1000))
            assert session._tickets == [blocked]
            assert session.pending == 1
        finally:
            gate.set()
            session.close(timeout=JOIN_TIMEOUT)
            service.close()

    def test_concurrent_submits_never_lose_an_unresolved_ticket(self):
        """Pipelined requests submit on one session from several threads
        while earlier tickets resolve and get pruned; a prune racing an
        append must not drop the appended ticket (close would then not
        wait for it)."""
        service = make_service(batch_size=1, coalesce_wait=0.0, queue_limit=4096)
        host = service.host(DOC)
        gate = threading.Event()
        original_apply = host.apply

        def apply(op):
            # The committer stalls at the first blocker, so everything
            # queued behind it stays unresolved.
            if "block" in op.ops[0].xml:
                gate.wait(JOIN_TIMEOUT)
            original_apply(op)

        host.apply = apply
        session = Session(service)
        issued = [[] for _ in range(8)]

        def submitter(slot):
            for index in range(150):
                marker = "block" if (slot, index) == (0, 75) else str(index)
                insert = InsertNode((), 1 << 30, xml=f'<e{slot} i="{marker}"/>')
                issued[slot].append(session.submit(DOC, DeltaUpdate(DOC, (insert,))))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submitter, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(JOIN_TIMEOUT)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        try:
            tracked = {id(ticket) for ticket in session._tickets}
            unresolved = [t for tickets in issued for t in tickets if not t.done]
            assert unresolved, "the blocker should hold tickets unresolved"
            assert all(id(ticket) in tracked for ticket in unresolved)
        finally:
            gate.set()
            assert session.close(timeout=JOIN_TIMEOUT) == 0
            service.close()

    def test_clean_close_is_zero(self):
        service = make_service()
        session = Session(service)
        session.submit_wait(DOC, entry_op(0), timeout=JOIN_TIMEOUT)
        assert session.close(timeout=JOIN_TIMEOUT) == 0
        service.close()


class TestCheckpointLastError:
    def test_explicit_checkpoint_failure_is_recorded(self, tmp_path, monkeypatch):
        service = make_service(wal_path=str(tmp_path / "doc.wal"))
        try:
            service.submit_wait(entry_op(0), timeout=JOIN_TIMEOUT)

            def refuse(states, covered, carry=None, default_floor=0):
                raise CheckpointError("snapshot volume is read-only")

            monkeypatch.setattr(service.snapshots, "write_checkpoint", refuse)
            with pytest.raises(CheckpointError):
                service.checkpoint(timeout=JOIN_TIMEOUT)
            assert (
                service.checkpoint_last_error
                == "CheckpointError: snapshot volume is read-only"
            )
            assert (
                service.stats()["checkpoint"]["last_error"]
                == service.checkpoint_last_error
            )
        finally:
            service.close()

    def test_success_clears_the_recorded_error(self, tmp_path, monkeypatch):
        service = make_service(wal_path=str(tmp_path / "doc.wal"))
        try:
            service.submit_wait(entry_op(0), timeout=JOIN_TIMEOUT)
            original = service.snapshots.write_checkpoint

            def refuse(states, covered, carry=None, default_floor=0):
                raise OSError("disk full")

            monkeypatch.setattr(service.snapshots, "write_checkpoint", refuse)
            with pytest.raises(OSError):
                service.checkpoint(timeout=JOIN_TIMEOUT)
            assert service.checkpoint_last_error == "OSError: disk full"
            monkeypatch.setattr(service.snapshots, "write_checkpoint", original)
            service.checkpoint(timeout=JOIN_TIMEOUT)
            assert service.checkpoint_last_error is None
        finally:
            service.close()

    def test_auto_checkpoint_failure_surfaces_in_stats(self, tmp_path, monkeypatch):
        """The committer-thread auto-checkpoint used to fail with only a
        counter bump; operators could see *that* checkpoints stopped but
        never *why*."""
        service = make_service(
            wal_path=str(tmp_path / "doc.wal"),
            batch_size=1,
            coalesce_wait=0.0,
            checkpoint_every_ops=1,
        )
        try:

            def refuse(states, covered, carry=None, default_floor=0):
                raise OSError("No space left on device")

            monkeypatch.setattr(service.snapshots, "write_checkpoint", refuse)
            failed_before = get_registry().counter("checkpoint.failed").value
            service.submit_wait(entry_op(0), timeout=JOIN_TIMEOUT)
            deadline = threading.Event()
            for _ in range(100):  # the hook runs just after the commit acks
                if service.checkpoint_last_error is not None:
                    break
                deadline.wait(0.05)
            assert (
                service.stats()["checkpoint"]["last_error"]
                == "OSError: No space left on device"
            )
            assert get_registry().counter("checkpoint.failed").value > failed_before
            # The committer survived: the service still accepts work.
            service.submit_wait(entry_op(1), timeout=JOIN_TIMEOUT)
        finally:
            service.close(drain=False)


class TestSubmitWaitSingleDeadline:
    """``submit_wait`` used to grant its timeout twice — the full
    budget to queue admission, then the full budget *again* to the
    ticket wait — so a call could take 2x its timeout before failing."""

    @pytest.mark.parametrize("via_session", [False, True], ids=["service", "session"])
    def test_timeout_bounds_the_total_call(self, via_session):
        service = make_service(batch_size=1, coalesce_wait=0.0, queue_limit=1)
        gates = [threading.Event(), threading.Event()]
        picked = []
        host = service.host(DOC)
        original_apply = host.apply

        def wedged(op):
            index = len(picked)
            picked.append(op)
            if index < len(gates):
                gates[index].wait(JOIN_TIMEOUT)
            return original_apply(op)

        host.apply = wedged
        session = Session(service) if via_session else None
        try:
            service.submit(entry_op(0))  # dequeued, wedges in apply
            service.submit(entry_op(1))  # fills the one-slot queue
            # Free the queue slot after ~0.5s: op 0 lands, the committer
            # dequeues op 1 (which wedges in turn) and the blocked
            # submission below is finally admitted — with half its
            # budget already spent.
            threading.Timer(0.5, gates[0].set).start()
            started = time.monotonic()
            with pytest.raises(ServiceTimeoutError):
                if via_session:
                    session.submit_wait(DOC, entry_op(2), timeout=1.0)
                else:
                    service.submit_wait(entry_op(2), timeout=1.0)
            elapsed = time.monotonic() - started
            # One deadline: ~0.5s queueing + ~0.5s ticket wait = ~1.0s.
            # The double-grant spent ~0.5s queueing and then gave the
            # ticket wait the full 1.0s again (~1.5s total).
            assert elapsed < 1.35, (
                f"submit_wait took {elapsed:.2f}s on a 1.0s timeout - "
                "was the budget granted to each stage separately?"
            )
        finally:
            for gate in gates:
                gate.set()
            if session is not None:
                session.close(timeout=JOIN_TIMEOUT)
            service.close(drain=False)


class TestCheckpointSingleDeadline:
    """``checkpoint`` used to grant its timeout independently to every
    stage (flush, quiesce, lock wait), so one call could take ~4x its
    budget before failing."""

    def test_timeout_bounds_the_total_call(self, tmp_path, monkeypatch):
        service = make_service(
            wal_path=str(tmp_path / "doc.wal"), batch_size=1, coalesce_wait=0.0
        )
        gate = threading.Event()
        picked = threading.Event()
        try:
            service.submit_wait(entry_op(0), timeout=JOIN_TIMEOUT)
            host = service.host(DOC)
            original_apply = host.apply

            def wedge(op):
                picked.set()
                gate.wait(JOIN_TIMEOUT)
                return original_apply(op)

            host.apply = wedge
            service.submit(entry_op(1))
            # The committer now holds DOC's write lock, wedged mid-apply,
            # so the checkpoint's per-document read lock cannot be taken.
            assert picked.wait(JOIN_TIMEOUT)
            # Stage 1 (the flush) eats most of the budget...
            monkeypatch.setattr(service, "flush", lambda timeout=None: time.sleep(0.5))
            started = time.monotonic()
            with pytest.raises(ServiceTimeoutError):
                service.checkpoint(timeout=0.8)
            elapsed = time.monotonic() - started
            # ...leaving ~0.3s for the lock wait under one deadline
            # (~0.8s total).  The per-stage grant gave the lock wait a
            # fresh 0.8s on top of the 0.5s flush (~1.3s total).
            assert elapsed < 1.15, (
                f"checkpoint took {elapsed:.2f}s on a 0.8s timeout - "
                "was the budget granted to each stage separately?"
            )
        finally:
            gate.set()
            service.close(drain=False)


class TestReadersOverlapWritersBlock:
    def test_two_readers_share_the_lock_while_a_writer_waits(self):
        """PR 3's single-deadline query fix has a saturation test; this
        covers the other half of the pool contract — readers of one
        document genuinely overlap, and a writer queued behind them only
        applies once they release."""
        service = make_service(query_workers=2, batch_size=1, coalesce_wait=0.0)
        try:
            entered = [threading.Event(), threading.Event()]
            release = threading.Event()

            def reader(index):
                def work(host):
                    entered[index].set()
                    release.wait(JOIN_TIMEOUT)
                    return index

                return work

            threads = [
                threading.Thread(
                    target=lambda i=i: service.query(
                        DOC, reader(i), timeout=JOIN_TIMEOUT
                    )
                )
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            # Both readers are inside the read lock at the same time —
            # they overlap rather than serialise.
            assert entered[0].wait(JOIN_TIMEOUT)
            assert entered[1].wait(JOIN_TIMEOUT)

            ticket = service.submit(entry_op(0))
            with pytest.raises(ServiceTimeoutError):
                ticket.wait(0.3)  # the writer is blocked behind them
            release.set()
            for thread in threads:
                thread.join(JOIN_TIMEOUT)
            assert ticket.wait(JOIN_TIMEOUT) == 1  # now it lands
            assert 'i="0"' in service.query(DOC, timeout=JOIN_TIMEOUT)
        finally:
            release.set()
            service.close()
