"""Crash recovery: replay the WAL against a snapshot of the hosted state.

Protocol, in order:

1. **Scan** the log segments and find the longest intact prefix;
   anything past it is a *torn tail* (a write the crash interrupted
   before its fsync) and is truncated.
2. **Collect commit markers.**  Only sequence numbers named by a commit
   marker ever took effect before the crash; operation records without
   one were logged but never acknowledged to a client, so they are
   skipped (counted, for observability).
3. **Replay** the committed operations, in sequence order, against the
   base each host was opened with.  When a checkpoint manifest was
   loaded first, the base is the checkpointed state and only records
   with ``seq > min_seq`` replay — records at or below it are already
   reflected in the snapshot (``covered`` in the report).

Because every acknowledged operation is covered by a durable commit
marker and every marker follows its operations in the log, the replayed
state is exactly the acknowledged state at the moment of the crash.

The ``apply`` callback may return ``False`` to signal that it *skipped*
the operation (an unknown document, or an operation kind it cannot
replay); skips are counted separately from applies, so the
``recovery.applied`` metric always equals the report's ``applied``
count — callers never subtract after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.errors import ReproError
from repro.obs import get_registry, span
from repro.service.ops import CommitMarker, ServiceOp, decode_op
from repro.service.wal import WriteAheadLog
from repro.updates.delta import apply_delta
from repro.xmlmodel.model import Document
from repro.xmlmodel.policy import RefPolicy


@dataclass
class RecoveryReport:
    """What a replay did, for logs and assertions."""

    applied: int = 0
    failed: int = 0
    uncommitted: int = 0
    unknown_docs: int = 0
    covered: int = 0  # records already reflected in the loaded snapshot
    snapshot_docs: int = 0  # documents restored from checkpoint state
    truncated_bytes: int = 0
    last_seq: int = 0
    errors: list[str] = field(default_factory=list)
    #: Last sequence number replayed per document — the service seeds
    #: its covered-seq tracking from this so the first post-recovery
    #: checkpoint sees accurate per-document positions.
    doc_last_applied: dict = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"replayed {self.applied} operation(s) "
            f"(snapshot covered {self.covered} across {self.snapshot_docs} "
            f"document(s); skipped {self.uncommitted} uncommitted, "
            f"{self.unknown_docs} for unknown documents, "
            f"{self.failed} failed; "
            f"truncated {self.truncated_bytes} torn byte(s); "
            f"last seq {self.last_seq})"
        )


def replay(
    wal: WriteAheadLog,
    apply: Callable[[ServiceOp], object],
    truncate: bool = True,
    min_seq: int = 0,
    doc_min_seq: Optional[Mapping[str, int]] = None,
) -> RecoveryReport:
    """Replay committed operations through ``apply`` (one op at a time,
    in log order).  ``apply`` returning ``False`` counts the operation
    as skipped (not applied); raising a :class:`ReproError` marks it
    failed and the replay continues; any other exception propagates (it
    is a bug, not a data problem).  Records with ``seq <= min_seq`` are
    not replayed — the caller's snapshot already reflects them.

    A fuzzy checkpoint covers each document at its own log position:
    ``doc_min_seq`` maps a document to its covered seq, overriding
    ``min_seq`` for that document's records — a record replays only
    past its *own* document's threshold.  Documents absent from the
    mapping (or every document, when it is None) fall back to
    ``min_seq``."""
    report = RecoveryReport()
    with span("recovery.scan"):
        records, torn = wal.scan()
    if torn and truncate:
        report.truncated_bytes = wal.truncate_torn_tail()
    elif torn:
        report.truncated_bytes = 0  # left in place; caller asked not to touch
    committed: set[int] = set()
    operations = []
    for record in records:
        payload = decode_op(record.payload)
        if isinstance(payload, CommitMarker):
            committed.update(payload.seqs)
        else:
            threshold = min_seq
            if doc_min_seq is not None:
                threshold = doc_min_seq.get(payload.doc, min_seq)
            if record.seq <= threshold:
                report.covered += 1
            else:
                operations.append((record.seq, payload))
        report.last_seq = record.seq
    with span("recovery.replay", records=len(operations)):
        for seq, op in operations:
            if seq not in committed:
                report.uncommitted += 1
                continue
            try:
                outcome = apply(op)
            except ReproError as error:
                report.failed += 1
                report.errors.append(f"seq {seq}: {error}")
                continue
            if outcome is False:
                report.unknown_docs += 1
            else:
                report.applied += 1
                report.doc_last_applied[op.doc] = seq
    registry = get_registry()
    registry.counter("recovery.applied").inc(report.applied)
    registry.counter("recovery.skipped").inc(report.unknown_docs)
    registry.counter("recovery.uncommitted").inc(report.uncommitted)
    if report.covered:
        registry.counter("recovery.covered").inc(report.covered)
    if report.truncated_bytes:
        registry.counter("recovery.truncated_bytes").inc(report.truncated_bytes)
    return report


def replay_into_documents(
    wal: WriteAheadLog,
    documents: Mapping[str, Document],
    policy: Optional[RefPolicy] = None,
    truncate: bool = True,
    min_seq: int = 0,
) -> RecoveryReport:
    """Standalone document-level recovery (the CLI ``replay`` command and
    mirror/replica catch-up): replay every committed delta onto the
    matching base document.  Relational operations in the log are
    skipped as unknown (they need a hosted store to replay against)."""

    def apply(op: ServiceOp) -> object:
        from repro.service.ops import DeltaUpdate

        if not isinstance(op, DeltaUpdate) or op.doc not in documents:
            return False
        apply_delta(documents[op.doc], list(op.ops), policy)
        return True

    return replay(wal, apply, truncate=truncate, min_seq=min_seq)
