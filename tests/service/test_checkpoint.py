"""Service checkpointing: crash-consistent snapshots, bounded recovery,
the automatic policy, and the checkpoint/commit race regression."""

import os
import threading

import pytest

from repro.service import (
    DeltaUpdate,
    ServiceConfig,
    SubtreeDelete,
    UpdateService,
)
from repro.updates.delta import InsertNode
from repro.xmlmodel.parser import XmlParser
from repro.xmlmodel.serializer import serialize

DOC = "doc.xml"
JOIN_TIMEOUT = 30


def fresh_doc():
    return XmlParser("<log></log>").parse()


def entry_op(index):
    return InsertNode((), 1 << 30, xml=f'<entry i="{index}"/>')


def make_service(wal_path, **extra):
    service = UpdateService(ServiceConfig(wal_path=wal_path, batch_size=8, **extra))
    service.host_document(DOC, fresh_doc())
    return service


class TestCheckpointRecovery:
    def test_recovery_uses_snapshot_and_replays_the_rest(self, tmp_path):
        wal_path = str(tmp_path / "doc.wal")
        service = make_service(wal_path)
        service.start()
        for index in range(4):
            service.submit_wait(DeltaUpdate(DOC, (entry_op(index),)))
        report = service.checkpoint()
        assert report.wal_seq > 0
        assert report.documents == 1
        for index in range(4, 6):
            service.submit_wait(DeltaUpdate(DOC, (entry_op(index),)))
        expected = service.query(DOC)
        service.close()

        restarted = make_service(wal_path)
        recovery = restarted.recover()
        # The snapshot carries the first four ops; only the two
        # post-checkpoint records replay.
        assert recovery.snapshot_docs == 1
        assert recovery.applied == 2
        restarted.start()
        assert restarted.query(DOC) == expected
        restarted.close()

    def test_checkpoint_bounds_the_log(self, tmp_path):
        wal_path = str(tmp_path / "doc.wal")
        service = make_service(wal_path)
        service.start()
        for index in range(10):
            service.submit_wait(DeltaUpdate(DOC, (entry_op(index),)))
        report = service.checkpoint()
        assert report.segments_retired >= 1
        assert report.bytes_retired > 0
        service.close()

        restarted = make_service(wal_path)
        recovery = restarted.recover()
        assert recovery.applied == 0  # nothing left to replay
        assert recovery.covered == 0  # ...and nothing covered left either
        restarted.close()

    def test_store_host_checkpoint_preserves_tuple_ids(self, tmp_path):
        """A store snapshot must be a database image: replayed relational
        operations name tuple ids, which re-shredding would renumber."""
        from repro.bench.experiments import build_fixed_store
        from repro.workloads.synthetic import SyntheticParams

        wal_path = str(tmp_path / "store.wal")
        master = build_fixed_store(SyntheticParams(12, 2, 2))
        live = master.snapshot()
        ids = [row[0] for row in live.db.query('SELECT id FROM "n1" ORDER BY id')][:6]

        service = UpdateService(ServiceConfig(wal_path=wal_path, batch_size=4))
        service.host_store("db.xml", live)
        service.start()
        for subtree_id in ids[:3]:
            service.submit_wait(SubtreeDelete("db.xml", "n1", (subtree_id,)))
        service.checkpoint()
        for subtree_id in ids[3:]:
            service.submit_wait(SubtreeDelete("db.xml", "n1", (subtree_id,)))
        expected = serialize(live.to_document())
        service.close()
        live.close()

        restored = master.snapshot()
        restarted = UpdateService(ServiceConfig(wal_path=wal_path, batch_size=4))
        restarted.host_store("db.xml", restored)
        recovery = restarted.recover()
        assert recovery.snapshot_docs == 1
        assert recovery.applied == 3  # only the post-checkpoint deletes
        recovered = serialize(restored.to_document())
        restarted.close()
        restored.close()
        master.close()
        assert recovered == expected

    def test_wal_seq_survives_checkpoint_close_reopen(self, tmp_path):
        """Regression (seq restart): after a checkpoint retired every
        record-bearing segment, a service reopened on that WAL restarted
        numbering at 1, so recovery could match an old commit marker
        against a brand-new operation."""
        wal_path = str(tmp_path / "doc.wal")
        service = make_service(wal_path)
        service.start()
        last_seq = 0
        for index in range(3):
            last_seq = service.submit_wait(DeltaUpdate(DOC, (entry_op(index),)))
        service.checkpoint()
        service.close()

        restarted = make_service(wal_path)
        restarted.recover()
        restarted.start()
        new_seq = restarted.submit_wait(DeltaUpdate(DOC, (entry_op(99),)))
        restarted.close()
        assert new_seq > last_seq


class TestCheckpointCommitRace:
    def test_ops_committed_during_checkpoint_survive(self, tmp_path):
        """Regression: ``checkpoint()`` used to flush and then truncate
        the WAL with nothing keeping a new batch from committing in
        between — the batch's operations were acknowledged as durable,
        then their only trace was truncated without ever reaching a
        snapshot.  Submitters hammer the service while checkpoints run;
        afterwards every acknowledged op must be recoverable."""
        wal_path = str(tmp_path / "race.wal")
        service = make_service(wal_path)
        service.start()
        acked = []
        acked_lock = threading.Lock()
        failures = []
        stop = threading.Event()

        def submitter(worker):
            index = 0
            try:
                while not stop.is_set():
                    marker = worker * 100_000 + index
                    service.submit_wait(
                        DeltaUpdate(DOC, (entry_op(marker),)), timeout=JOIN_TIMEOUT
                    )
                    with acked_lock:
                        acked.append(marker)
                    index += 1
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [
            threading.Thread(target=submitter, args=(worker,), daemon=True)
            for worker in range(3)
        ]
        for thread in threads:
            thread.start()
        for _ in range(10):
            service.checkpoint()
        stop.set()
        for thread in threads:
            thread.join(JOIN_TIMEOUT)
            assert not thread.is_alive(), "submitter deadlocked"
        assert failures == []
        assert len(acked) > 0
        service.close()

        restarted = make_service(wal_path)
        restarted.recover()
        restarted.start()
        text = restarted.query(DOC)
        restarted.close()
        for marker in acked:
            assert f'i="{marker}"' in text, f"acknowledged op {marker} lost"


class TestAutoCheckpointPolicy:
    def test_every_n_ops_triggers_from_the_committer(self, tmp_path):
        wal_path = str(tmp_path / "auto.wal")
        service = make_service(wal_path, checkpoint_every_ops=5)
        service.start()
        for index in range(17):
            service.submit_wait(DeltaUpdate(DOC, (entry_op(index),)))
        service.flush()
        expected = service.query(DOC)
        service.close()

        assert os.path.exists(wal_path + ".ckpt")
        restarted = make_service(wal_path, checkpoint_every_ops=5)
        recovery = restarted.recover()
        assert recovery.snapshot_docs == 1
        # The snapshot absorbed at least the first three windows of five.
        assert recovery.applied <= 5
        restarted.start()
        assert restarted.query(DOC) == expected
        restarted.close()

    def test_every_n_bytes_triggers(self, tmp_path):
        wal_path = str(tmp_path / "autob.wal")
        service = make_service(wal_path, checkpoint_every_bytes=512)
        service.start()
        for index in range(30):
            service.submit_wait(DeltaUpdate(DOC, (entry_op(index),)))
        service.flush()
        service.close()
        assert os.path.exists(wal_path + ".ckpt")

        restarted = make_service(wal_path)
        recovery = restarted.recover()
        assert recovery.snapshot_docs == 1
        restarted.start()
        text = restarted.query(DOC)
        restarted.close()
        assert text.count("<entry") == 30


DOC_A = "a.xml"
DOC_B = "b.xml"


def make_two_doc_service(wal_path, **extra):
    service = UpdateService(ServiceConfig(wal_path=wal_path, batch_size=8, **extra))
    service.host_document(DOC_A, fresh_doc())
    service.host_document(DOC_B, fresh_doc())
    return service


def doc_op(doc, index):
    return DeltaUpdate(doc, (entry_op(index),))


class TestFuzzyCheckpoint:
    """The non-quiescent protocol: checkpoints snapshot one document at
    a time from committed images while the batcher keeps committing —
    no global pause, no all-documents write lock."""

    def test_checkpoint_does_not_block_other_documents(self, tmp_path):
        """While the checkpoint is busy capturing one document, commits
        to every *other* document proceed.  The old quiesced protocol
        paused the batcher for the whole checkpoint, so the submit below
        would stall until the capture finished."""
        service = make_two_doc_service(str(tmp_path / "doc.wal"))
        service.start()
        service.submit_wait(doc_op(DOC_A, 0), timeout=JOIN_TIMEOUT)
        service.submit_wait(doc_op(DOC_B, 0), timeout=JOIN_TIMEOUT)

        host_a = service.host(DOC_A)
        capturing = threading.Event()
        release = threading.Event()
        original = host_a.snapshot_state

        def wedged_capture():
            capturing.set()
            assert release.wait(JOIN_TIMEOUT)
            return original()

        host_a.snapshot_state = wedged_capture
        worker = threading.Thread(
            target=lambda: service.checkpoint(timeout=JOIN_TIMEOUT), daemon=True
        )
        worker.start()
        try:
            assert capturing.wait(JOIN_TIMEOUT)
            # The checkpoint is wedged inside a.xml's capture (holding
            # its read lock); b.xml still commits — and quickly.
            seq = service.submit_wait(doc_op(DOC_B, 1), timeout=5)
            assert seq is not None
        finally:
            release.set()
            worker.join(JOIN_TIMEOUT)
        assert not worker.is_alive()
        service.close()

    @pytest.mark.parametrize(
        ("wedge_doc", "commit_doc"),
        [(DOC_A, DOC_B), (DOC_B, DOC_A)],
        ids=["commit-before-capture", "commit-after-capture"],
    )
    def test_mid_checkpoint_commit_is_neither_lost_nor_double_applied(
        self, tmp_path, wedge_doc, commit_doc
    ):
        """A document committed while a checkpoint is in flight must
        recover exactly once.  Documents are captured in sorted order,
        so wedging a.xml's capture makes the concurrent commit land
        *before* its document's capture (it rides in the snapshot) and
        wedging b.xml's makes it land *after* (it rides in the WAL
        tail); both sides of the covered-seq accounting are exercised."""
        wal_path = str(tmp_path / "race.wal")
        service = make_two_doc_service(wal_path)
        service.start()
        service.submit_wait(doc_op(DOC_A, 0), timeout=JOIN_TIMEOUT)
        service.submit_wait(doc_op(DOC_B, 0), timeout=JOIN_TIMEOUT)

        host = service.host(wedge_doc)
        capturing = threading.Event()
        release = threading.Event()
        original = host.snapshot_state

        def wedged_capture():
            capturing.set()
            assert release.wait(JOIN_TIMEOUT)
            return original()

        host.snapshot_state = wedged_capture
        worker = threading.Thread(
            target=lambda: service.checkpoint(timeout=JOIN_TIMEOUT), daemon=True
        )
        worker.start()
        try:
            assert capturing.wait(JOIN_TIMEOUT)
            assert service.submit_wait(doc_op(commit_doc, 777), timeout=5) is not None
        finally:
            release.set()
            worker.join(JOIN_TIMEOUT)
        service.close()

        restarted = make_two_doc_service(wal_path)
        restarted.recover()
        restarted.start()
        text = restarted.query(commit_doc)
        restarted.close()
        assert text.count('i="777"') == 1, "mid-checkpoint commit lost or doubled"

    def test_incremental_checkpoint_recaptures_only_dirty_documents(self, tmp_path):
        wal_path = str(tmp_path / "incr.wal")
        service = make_two_doc_service(wal_path)
        service.start()
        service.submit_wait(doc_op(DOC_A, 0), timeout=JOIN_TIMEOUT)
        service.submit_wait(doc_op(DOC_B, 0), timeout=JOIN_TIMEOUT)
        first = service.checkpoint()
        assert (first.snapshotted, first.carried) == (2, 0)
        b_file = service.snapshots.load_manifest().documents[DOC_B].file

        # Only a.xml is dirty now: the next checkpoint re-captures it
        # and carries b.xml's file forward untouched.
        service.submit_wait(doc_op(DOC_A, 1), timeout=JOIN_TIMEOUT)
        second = service.checkpoint()
        assert (second.snapshotted, second.carried) == (1, 1)
        manifest = service.snapshots.load_manifest()
        assert manifest.documents[DOC_B].file == b_file
        assert manifest.documents[DOC_A].file != b_file

        # full=True is the operator escape hatch: every document is
        # re-captured even when clean.
        third = service.checkpoint(full=True)
        assert (third.snapshotted, third.carried) == (2, 0)
        service.close()

        # Incrementality survives a restart: recover() reloads the
        # manifest, and with nothing new applied everything carries.
        restarted = make_two_doc_service(wal_path)
        restarted.recover()
        restarted.start()
        fourth = restarted.checkpoint()
        assert (fourth.snapshotted, fourth.carried) == (0, 2)
        restarted.close()

    def test_idle_document_does_not_pin_the_retirement_floor(self, tmp_path):
        """Safe advance: a document nobody writes to is still covered at
        the sampled high-water mark, so the manifest floor — and with it
        WAL retirement — tracks the hot documents instead of being
        pinned at the idle document's last commit forever."""
        wal_path = str(tmp_path / "floor.wal")
        service = make_two_doc_service(wal_path, wal_segment_bytes=256)
        service.start()
        service.submit_wait(doc_op(DOC_B, 0), timeout=JOIN_TIMEOUT)
        service.checkpoint()
        # Hammer a.xml only; b.xml stays idle across several rotations.
        for index in range(20):
            service.submit_wait(doc_op(DOC_A, index), timeout=JOIN_TIMEOUT)
        report = service.checkpoint()
        assert report.wal_seq == service.wal.last_seq, (
            "the idle document pinned the covered floor below the high-water mark"
        )
        assert report.segments_retired >= 1
        manifest = service.snapshots.load_manifest()
        assert manifest.documents[DOC_B].covered_seq == report.wal_seq
        service.close()

    def test_v1_manifest_fails_recovery_loudly(self, tmp_path):
        """A checkpoint directory written by the old quiesced protocol
        (version-1 manifest, one global wal_seq) stops recovery with a
        CheckpointError instead of recovering from a guessed vector."""
        import json

        from repro.errors import CheckpointError
        from repro.service.snapshot import MANIFEST_NAME

        wal_path = str(tmp_path / "v1.wal")
        service = make_service(wal_path)
        service.start()
        for index in range(4):
            service.submit_wait(DeltaUpdate(DOC, (entry_op(index),)))
        service.checkpoint()
        service.close()

        manifest_path = os.path.join(wal_path + ".ckpt", MANIFEST_NAME)
        with open(manifest_path) as handle:
            payload = json.load(handle)
        payload["version"] = 1
        for entry in payload["documents"].values():
            del entry["covered_seq"]
        with open(manifest_path, "w") as handle:
            json.dump(payload, handle)

        restarted = make_service(wal_path)
        with pytest.raises(CheckpointError, match="version 1"):
            restarted.recover()
        restarted.close()


class TestSegmentRotationInService:
    def test_bounded_segments_replay_seamlessly(self, tmp_path):
        wal_path = str(tmp_path / "seg.wal")
        service = make_service(wal_path, wal_segment_bytes=256)
        service.start()
        for index in range(20):
            service.submit_wait(DeltaUpdate(DOC, (entry_op(index),)))
        expected = service.query(DOC)
        service.close()
        assert len(service.wal.segment_paths) > 1

        restarted = make_service(wal_path, wal_segment_bytes=256)
        recovery = restarted.recover()
        assert recovery.applied == 20
        restarted.start()
        assert restarted.query(DOC) == expected
        restarted.close()
