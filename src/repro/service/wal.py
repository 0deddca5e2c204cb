"""Append-only write-ahead log of serialised update operations, stored
as rotated segments.

Layout: a WAL at base path ``doc.wal`` is a family of segment files
``doc.wal.000001``, ``doc.wal.000002``, … forming one logical record
stream.  Each segment::

    +-----------+   16 bytes  magic b"XRWAL002" + <Q base_seq>
    | header    |
    +-----------+
    | record 0  |   16-byte frame + payload
    | ...       |
    +-----------+

``base_seq`` is the sequence number the segment's first record will
carry — it is written when the segment is created, so the high-water
sequence number survives a checkpoint that retires every record-bearing
segment (reopening an empty post-checkpoint log resumes numbering from
the live segment's header instead of restarting at 1).  A plain file
at the base path itself is not a WAL: opening refuses it with
:class:`~repro.errors.WalError` rather than start a fresh log beside it.

Each record frame is ``<QII``: the record's sequence number (monotonic,
starting at 1, continuous across segments), the payload length, and the
CRC32 of the payload.  The payload is a canonical-JSON service
operation (:mod:`repro.service.ops`).

Durability protocol (group commit): :meth:`append` only buffers; the
batcher appends a whole batch plus its commit marker and then calls
:meth:`sync` **once**, paying a single ``fsync`` for the batch.  A
record is durable — and its submitter's ticket is resolved — only after
that sync returns.

Checkpointing rotates instead of truncating: :meth:`rotate` seals the
live segment and opens a fresh one so a checkpoint can later
:meth:`retire_old_segments` — whole-file unlinks, each crash-safe,
never an in-place truncate of bytes a concurrent reader might be
scanning.  Rotation itself is memory-cheap: it flushes (not fsyncs)
the sealed segment and defers every fsync — sealed bytes, the new
header, the directory entry — to the next :meth:`sync`, whose I/O runs
*outside* the append lock.  A fuzzy checkpoint rotating mid-commit
therefore never stalls the commit path behind the disk; durability is
unchanged because a record is only acknowledged after a ``sync`` that
covers the sealed files and the pending directory entry.

A crash can leave a *torn tail*: a partially written frame or payload,
a payload whose CRC does not match, or a segment whose header never
finished.  :meth:`scan` walks the segments in order and reads the
longest valid prefix of the logical stream; everything after the first
bad byte — including any later segments — is reported as torn.
:meth:`truncate_torn_tail` drops the torn bytes (truncating the
segment where the tear starts and unlinking any segments after it) so
the log can be appended to again.

All file operations go through a :class:`~repro.service.faults.Filesystem`
so the fault-injection harness can crash the log at every write/fsync
boundary.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import WalError
from repro.obs import get_registry, span
from repro.service.faults import Filesystem

#: Segment header: magic + little-endian uint64 base sequence number.
SEGMENT_MAGIC = b"XRWAL002"
_BASE = struct.Struct("<Q")
SEGMENT_HEADER_SIZE = len(SEGMENT_MAGIC) + _BASE.size
_FRAME = struct.Struct("<QII")  # seq, payload length, payload crc32


def segment_path(base: str, index: int) -> str:
    return f"{base}.{index:06d}"


def list_segments(base: str) -> list[tuple[int, str]]:
    """(index, path) of every segment of the WAL at ``base``, in order."""
    directory = os.path.dirname(base) or "."
    prefix = os.path.basename(base) + "."
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if len(suffix) == 6 and suffix.isdigit():
                found.append((int(suffix), os.path.join(directory, name)))
    return sorted(found)


def wal_exists(base: str) -> bool:
    """True if a WAL exists at ``base`` — any segment, or a file at the
    bare path (which opening then refuses loudly)."""
    return os.path.exists(base) or bool(list_segments(base))


@dataclass(frozen=True)
class WalRecord:
    """One intact log record."""

    seq: int
    payload: bytes


@dataclass
class _ScanState:
    """Where one full scan ended: the records, the tear, the live end."""

    records: list
    torn: int  # untrusted trailing bytes (across segments)
    tear_pos: Optional[int]  # index into self._segments where the tear starts
    tear_offset: int  # valid byte count within that segment
    active_end: int  # valid end offset of the *last* segment


class WriteAheadLog:
    """An append-only, checksummed, fsync-on-commit segmented log.

    ``sync_mode`` tunes durability:

    * ``"commit"`` (default) — :meth:`sync` flushes and ``fsync``\\ s;
    * ``"always"`` — every :meth:`append` syncs immediately (batch size
      1 semantics, for comparison benchmarks);
    * ``"never"`` — :meth:`sync` only flushes to the OS (fast tests).

    ``max_segment_bytes`` rotates automatically once the live segment
    grows past the limit (checkpoints also rotate explicitly).
    """

    def __init__(
        self,
        path: str,
        sync_mode: str = "commit",
        fs: Optional[Filesystem] = None,
        max_segment_bytes: Optional[int] = None,
    ) -> None:
        if sync_mode not in ("commit", "always", "never"):
            raise WalError(f"unknown sync mode {sync_mode!r}")
        self.path = path
        self.sync_mode = sync_mode
        self.fs = fs or Filesystem()
        self.max_segment_bytes = max_segment_bytes
        self._dir = os.path.dirname(os.path.abspath(path)) or "."
        self._lock = threading.RLock()
        # Serialises the I/O phase of sync() so its fsyncs can run
        # outside the append lock.  Lock order: _sync_mutex, then _lock.
        self._sync_mutex = threading.Lock()
        # Segment files sealed by a rotation but not yet fsynced+closed
        # by a sync, plus whether a new segment's directory entry still
        # needs an fsync before the next acknowledgement.
        self._sealing: list = []
        self._dirsync_pending = False
        self._rotation_epoch = 0
        # Buffered-write bookkeeping: the live segment is dirty (has
        # bytes no fsync has covered) exactly when the epochs differ.
        # Rotation seals a *clean* segment by simply closing it — every
        # byte was already covered by some commit's fsync — so a
        # checkpoint's rotation adds at most one tiny header fsync and
        # one directory fsync to the next sync.
        self._write_epoch = 0
        self._synced_epoch = 0
        self._closed = False
        if os.path.exists(path):
            raise WalError(
                f"{path} is a plain file; a WAL at this base path is the "
                f"segment family {segment_path(path, 1)}, ..."
            )
        self._segments = list_segments(path)
        if not self._segments:
            self._segments = [(1, segment_path(path, 1))]
            file = self.fs.open(segment_path(path, 1), "a+b")
            file.write(SEGMENT_MAGIC + _BASE.pack(1))
            self.fs.fsync(file)
            file.close()
            self.fs.fsync_dir(self._dir)
        self._file = self.fs.open(self._segments[-1][1], "a+b")
        try:
            state = self._scan_locked()
        except Exception:
            self._file.close()
            raise
        if state.records:
            self._next_seq = state.records[-1].seq + 1
        else:
            self._next_seq = self._segment_base(self._segments[-1][1])
        self._end_offset = state.active_end
        self._torn_bytes = state.torn

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def append(self, payload: bytes) -> int:
        """Buffer one record; returns its sequence number.

        The record is *not* durable until :meth:`sync` (unless
        ``sync_mode == "always"``).
        """
        with self._lock:
            self._check_open()
            if self._torn_bytes:
                raise WalError(
                    "log has a torn tail; call truncate_torn_tail() before appending"
                )
            if (
                self.max_segment_bytes is not None
                and self._end_offset >= self.max_segment_bytes
                and self._end_offset > SEGMENT_HEADER_SIZE
            ):
                self._rotate_locked()
            seq = self._next_seq
            self._next_seq += 1
            frame = _FRAME.pack(seq, len(payload), zlib.crc32(payload))
            self._file.seek(self._end_offset)
            self._file.write(frame + payload)
            self._end_offset += len(frame) + len(payload)
            self._write_epoch += 1
            registry = get_registry()
            registry.counter("wal.appends").inc()
            registry.counter("wal.bytes").inc(len(frame) + len(payload))
            if self.sync_mode == "always":
                self._sync_locked()
            return seq

    def sync(self) -> None:
        """Make everything appended so far durable (the commit point).

        The fsyncs run *outside* the append lock (serialised by a
        dedicated sync mutex), so a commit waiting on the disk never
        blocks concurrent appends — in particular, a fuzzy checkpoint's
        rotation never stalls the commit path.  One sync covers, in
        order: any segments sealed by a rotation since the last sync
        (a batch can straddle the rotation), the live segment, and —
        when a rotation created a new segment file — the directory
        entry, so a record is never acknowledged before the file
        holding it is findable after a crash.
        """
        with self._sync_mutex:
            with self._lock:
                self._check_open()
                sealing = list(self._sealing)
                file = self._file
                dirty = self._write_epoch != self._synced_epoch
                write_epoch = self._write_epoch
                dirsync = self._dirsync_pending
                rotation_epoch = self._rotation_epoch
            if not sealing and not dirty and not dirsync:
                return  # everything already durable
            for old in sealing:
                old.flush()
            if dirty:
                file.flush()
            if self.sync_mode != "never":
                for old in sealing:
                    self.fs.fsync(old)
                if dirty:
                    with span("wal.fsync"):
                        self.fs.fsync(file)
                if sealing or dirty:
                    get_registry().counter("wal.fsyncs").inc()
                if dirsync:
                    self.fs.fsync_dir(self._dir)
            with self._lock:
                for old in sealing:
                    if old in self._sealing:
                        old.close()
                        self._sealing.remove(old)
                if dirty and self._file is file:
                    # Appends made while we were fsyncing keep the live
                    # segment dirty; a racing rotation means `file` is
                    # sealed now and its residue is tracked there.
                    self._synced_epoch = max(self._synced_epoch, write_epoch)
                if dirsync and self._rotation_epoch == rotation_epoch:
                    # No rotation raced the fsync: the directory is
                    # caught up.  (A racing rotation re-arms the flag
                    # for a file our fsync may not have covered.)
                    self._dirsync_pending = False

    def _sync_locked(self) -> None:
        """Durability under the append lock — the ``sync_mode="always"``
        append path and ``close``.  Sealed segments are flushed and
        fsynced but stay open: :meth:`sync` (or :meth:`close`) retires
        them."""
        for old in self._sealing:
            old.flush()
        self._file.flush()
        if self.sync_mode != "never":
            for old in self._sealing:
                self.fs.fsync(old)
            with span("wal.fsync"):
                self.fs.fsync(self._file)
            get_registry().counter("wal.fsyncs").inc()
            if self._dirsync_pending:
                self.fs.fsync_dir(self._dir)
        self._dirsync_pending = False
        self._synced_epoch = self._write_epoch

    # ------------------------------------------------------------------
    # Rotation and retirement (the checkpoint path)
    # ------------------------------------------------------------------
    def rotate(self) -> str:
        """Seal the live segment and start a new one; returns its path.

        Cheap by design: the sealed segment is flushed (so scans and
        retirement see every appended byte) but its fsync — and the new
        segment's header and directory-entry fsyncs — are deferred to
        the next :meth:`sync`, whose I/O runs off the append lock.  A
        crash before that sync leaves, at worst, a missing or
        torn-header trailing segment, which recovery already drops
        (:meth:`truncate_torn_tail`); no acknowledged record is
        affected because acknowledgement waits for the sync.  The new
        segment's header records the current next sequence number, so
        the numbering survives even if every older segment is later
        retired.
        """
        with self._lock:
            self._check_open()
            if self._torn_bytes:
                raise WalError("truncate the torn tail before rotating")
            return self._rotate_locked()

    def _rotate_locked(self) -> str:
        self._file.flush()
        index = self._segments[-1][0] + 1
        path = segment_path(self.path, index)
        file = self.fs.open(path, "a+b")
        file.write(SEGMENT_MAGIC + _BASE.pack(self._next_seq))
        if self._write_epoch != self._synced_epoch:
            # Unsynced bytes (a batch straddling the rotation): the
            # next sync must cover this file before acknowledging.
            self._sealing.append(self._file)
        else:
            self._file.close()
        self._dirsync_pending = True
        self._rotation_epoch += 1
        self._write_epoch += 1  # the new header is buffered, not synced
        self._file = file
        self._segments.append((index, path))
        self._end_offset = SEGMENT_HEADER_SIZE
        get_registry().counter("wal.rotations").inc()
        return path

    def retire_old_segments(self) -> tuple[int, int]:
        """Unlink every segment but the live one (checkpoint: the caller
        has persisted a snapshot covering them).  Returns (segments,
        bytes) retired."""
        with self._lock:
            self._check_open()
            retired = self._segments[:-1]
            size = 0
            for _index, path in retired:
                size += os.path.getsize(path)
                self.fs.remove(path)
            self._segments = self._segments[-1:]
            if retired:
                self.fs.fsync_dir(self._dir)
                registry = get_registry()
                registry.counter("wal.segments_retired").inc(len(retired))
                registry.counter("wal.bytes_retired").inc(size)
            return len(retired), size

    def retire_covered_segments(self, max_seq: int) -> tuple[int, int]:
        """Unlink leading non-live segments whose records all have
        ``seq <= max_seq`` — a just-committed checkpoint's segments, or
        stale leftovers of one that crashed between writing its manifest
        and retiring.  Returns (segments, bytes) removed.

        With manifest v2 the caller passes the *minimum* covered seq
        across documents (the manifest's ``wal_seq`` floor): a segment
        is only removable once every document's snapshot reflects all
        of its records."""
        with self._lock:
            self._check_open()
            removed = 0
            size = 0
            while len(self._segments) > 1:
                path = self._segments[0][1]
                last = self._last_seq_in(path)
                if last is not None and last > max_seq:
                    break
                size += os.path.getsize(path)
                self.fs.remove(path)
                self._segments.pop(0)
                removed += 1
            if removed:
                self.fs.fsync_dir(self._dir)
                registry = get_registry()
                registry.counter("wal.segments_retired").inc(removed)
                registry.counter("wal.bytes_retired").inc(size)
            return removed, size

    def reset(self) -> None:
        """Drop all records (checkpoint: callers persist a snapshot of the
        hosted state first): rotate, then retire every older segment.
        Sequence numbers keep counting up — and, because the live
        segment's header carries the base sequence, they keep counting
        up across a close and reopen too, so a seq never names two
        different operations across a checkpoint."""
        with self._lock:
            self._check_open()
            self._rotate_locked()
            self.retire_old_segments()

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def scan(self) -> tuple[list[WalRecord], int]:
        """All intact records plus the number of torn trailing bytes."""
        with self._lock:
            self._check_open()
            self._file.flush()
            state = self._scan_locked()
            self._torn_bytes = state.torn
            return state.records, state.torn

    def records(self) -> list[WalRecord]:
        return self.scan()[0]

    def _segment_base(self, path: str) -> int:
        with open(path, "rb") as handle:
            head = handle.read(SEGMENT_HEADER_SIZE)
        if head[: len(SEGMENT_MAGIC)] == SEGMENT_MAGIC and len(head) >= SEGMENT_HEADER_SIZE:
            return _BASE.unpack_from(head, len(SEGMENT_MAGIC))[0]
        return 1

    def _last_seq_in(self, path: str) -> Optional[int]:
        """Last intact record seq in one segment (None if empty/unreadable)."""
        with open(path, "rb") as handle:
            data = handle.read()
        parsed = _parse_segment(data, expected=None, strict_magic=False)
        if parsed is None or not parsed[0]:
            return None
        return parsed[0][-1].seq

    def _scan_locked(self) -> _ScanState:
        """Walk all segments in order as one logical stream.

        The first invalid byte — torn frame, bad CRC, sequence
        discontinuity, or unreadable header — starts the torn tail;
        every byte after it (including whole later segments) is
        untrusted, because nothing past an unsynced write can be.
        """
        records: list[WalRecord] = []
        torn = 0
        tear_pos: Optional[int] = None
        tear_offset = 0
        active_end = 0
        expected: Optional[int] = None
        for position, (_index, path) in enumerate(self._segments):
            is_active = position == len(self._segments) - 1
            size = os.path.getsize(path)
            if tear_pos is not None:
                torn += size
                if is_active:
                    active_end = 0
                continue
            with open(path, "rb") as handle:
                data = handle.read()
            parsed = _parse_segment(data, expected, strict_magic=(position == 0))
            if parsed is None:
                # Unreadable or mismatched header: the stream ends here.
                tear_pos, tear_offset = position, 0
                torn += len(data)
                if is_active:
                    active_end = 0
                continue
            segment_records, offset = parsed
            records.extend(segment_records)
            if segment_records:
                expected = segment_records[-1].seq + 1
            elif data[: len(SEGMENT_MAGIC)] == SEGMENT_MAGIC:
                base = _BASE.unpack_from(data, len(SEGMENT_MAGIC))[0]
                expected = base if expected is None else expected
            if offset < len(data):
                tear_pos, tear_offset = position, offset
                torn += len(data) - offset
            if is_active:
                active_end = offset
        return _ScanState(records, torn, tear_pos, tear_offset, active_end)

    def truncate_torn_tail(self) -> int:
        """Drop any torn trailing bytes; returns how many were dropped.

        Truncates the segment where the tear starts and unlinks every
        segment after it (whole later segments are untrusted)."""
        with self._lock:
            self._check_open()
            self._file.flush()
            state = self._scan_locked()
            if not state.torn:
                self._torn_bytes = 0
                return 0
            assert state.tear_pos is not None
            for _index, path in self._segments[state.tear_pos + 1:]:
                self.fs.remove(path)
            self._segments = self._segments[: state.tear_pos + 1]
            index, path = self._segments[-1]
            self._file.close()
            keep = state.tear_offset
            if keep < SEGMENT_HEADER_SIZE and len(self._segments) > 1:
                # The segment's own header never finished (a crash during
                # rotation): drop the file and resume on the previous one.
                self.fs.remove(path)
                self._segments.pop()
                index, path = self._segments[-1]
                self._file = self.fs.open(path, "a+b")
                self.fs.fsync_dir(self._dir)
            else:
                self._file = self.fs.open(path, "a+b")
                if keep < SEGMENT_HEADER_SIZE and len(self._segments) == 1:
                    # Nothing recoverable at all: rewrite a fresh header.
                    self.fs.truncate(self._file, 0)
                    self._file.write(SEGMENT_MAGIC + _BASE.pack(self._next_seq))
                    keep = SEGMENT_HEADER_SIZE
                else:
                    self.fs.truncate(self._file, keep)
                self.fs.fsync(self._file)
                self.fs.fsync_dir(self._dir)
            state2 = self._scan_locked()
            self._end_offset = state2.active_end
            self._torn_bytes = 0
            self._synced_epoch = self._write_epoch
            if state2.records:
                self._next_seq = state2.records[-1].seq + 1
            else:
                self._next_seq = max(
                    self._next_seq, self._segment_base(self._segments[-1][1])
                )
            return state.torn

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def last_seq(self) -> int:
        """Highest sequence number assigned so far (0 before the first).

        A fuzzy checkpoint samples this *before* reading the batcher's
        in-flight document set: a document absent from the set can have
        its covered seq advanced to this sample even without new
        applies, because no logged-but-unapplied record at or below the
        sample can exist for it (see ``retire_covered_segments`` — idle
        documents must not pin the retirement floor forever)."""
        with self._lock:
            return self._next_seq - 1

    @property
    def segment_paths(self) -> list[str]:
        with self._lock:
            return [path for _index, path in self._segments]

    @property
    def current_segment_path(self) -> str:
        with self._lock:
            return self._segments[-1][1]

    @property
    def bytes_since_rotation(self) -> int:
        """Record bytes in the live segment (the auto-checkpoint gauge)."""
        with self._lock:
            return max(0, self._end_offset - SEGMENT_HEADER_SIZE)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        with self._sync_mutex:
            with self._lock:
                if self._closed:
                    return
                self._closed = True
                try:
                    self._sync_locked()
                finally:
                    for old in self._sealing:
                        old.close()
                    self._sealing.clear()
                    self._file.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise WalError("write-ahead log is closed")


def _parse_segment(
    data: bytes, expected: Optional[int], strict_magic: bool
) -> Optional[tuple[list[WalRecord], int]]:
    """Records of one segment plus the offset where validity ends.

    Returns None when the header is unreadable or inconsistent with the
    stream (``expected``); ``strict_magic`` makes a wrong magic an error
    (the first segment of a log must be a WAL) instead of a tear.
    """
    if data[: len(SEGMENT_MAGIC)] == SEGMENT_MAGIC:
        if len(data) < SEGMENT_HEADER_SIZE:
            return None  # header itself torn
        base = _BASE.unpack_from(data, len(SEGMENT_MAGIC))[0]
        if expected is not None and base != expected:
            return None  # stale or corrupt segment: not this stream's next
        offset = SEGMENT_HEADER_SIZE
    else:
        # A crash while the segment header itself was being written
        # leaves a *prefix* of the magic (possibly empty): a torn
        # header, recoverable.  Anything else under strict_magic is not
        # a WAL at all — that is caller error, not a crash artifact.
        if strict_magic and not SEGMENT_MAGIC.startswith(data[: len(SEGMENT_MAGIC)]):
            raise WalError("not a WAL segment (bad magic)")
        return None
    records: list[WalRecord] = []
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            break  # torn frame
        seq, length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        payload = data[start : start + length]
        if len(payload) < length:
            break  # torn payload
        if zlib.crc32(payload) != crc:
            break  # corrupt (unsynced) write — treat as tail
        if expected is not None and seq != expected:
            break  # sequence discontinuity: stale bytes past a crash
        records.append(WalRecord(seq, payload))
        expected = seq + 1
        offset = start + length
    return records, offset
