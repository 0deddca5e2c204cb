"""Property: recovery from any checkpoint + WAL tail is exact.

A random interleaving of acknowledged writes (across two documents) and
checkpoints — incremental, full, or none at all — followed by recovery
in a fresh process must reproduce state byte-identical to a synchronous
reference that applied the same operations directly, with no service,
log, or snapshot in between.  The checkpoint variants cover:

* **incremental** — some documents carried forward from earlier
  checkpoints, per-document covered seqs;
* **full** — every document re-captured.
"""

import os
import shutil
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import DeltaUpdate, ServiceConfig, UpdateService
from repro.updates.delta import InsertNode, apply_delta
from repro.xmlmodel.parser import XmlParser
from repro.xmlmodel.serializer import serialize

DOCS = ("a.xml", "b.xml")

# A step is either a write to one of the documents or a checkpoint
# (False = incremental, True = full).
steps = st.lists(
    st.one_of(
        st.tuples(st.just("op"), st.sampled_from(range(len(DOCS)))),
        st.tuples(st.just("ckpt"), st.booleans()),
    ),
    max_size=16,
)


def fresh_doc():
    return XmlParser("<log></log>").parse()


def entry_op(marker):
    return InsertNode((), 1 << 30, xml=f'<entry i="{marker}"/>')


def make_service(wal_path):
    service = UpdateService(ServiceConfig(wal_path=wal_path, batch_size=4))
    for doc in DOCS:
        service.host_document(doc, fresh_doc())
    return service


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(plan=steps)
def test_recovery_matches_the_synchronous_reference(plan):
    workdir = tempfile.mkdtemp(prefix="ckpt-prop-")
    try:
        wal_path = os.path.join(workdir, "doc.wal")
        reference = {doc: fresh_doc() for doc in DOCS}
        service = make_service(wal_path)
        service.start()
        try:
            for marker, (kind, arg) in enumerate(plan):
                if kind == "op":
                    doc = DOCS[arg]
                    service.submit_wait(
                        DeltaUpdate(doc, (entry_op(marker),)), timeout=30
                    )
                    apply_delta(reference[doc], [entry_op(marker)])
                else:
                    service.checkpoint(timeout=30, full=arg)
        finally:
            service.close()

        restarted = make_service(wal_path)
        restarted.recover()
        restarted.start()
        try:
            for doc in DOCS:
                assert restarted.query(doc) == serialize(reference[doc])
        finally:
            restarted.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
