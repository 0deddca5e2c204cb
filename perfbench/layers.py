"""Timing wrappers around each layer's public functions (traced runs only).

``install()`` replaces a fixed list of functions and methods with
wrappers that observe their wall time, in milliseconds, into the process
metrics registry under ``bench.<layer>.<call>_ms``.  The program's own
``stats`` request then carries these histograms out of every server
process, and the shard router merges the workers' registries with its
own, so the load generator reads one pooled view.

Attribution inside a request: ``Dispatcher.dispatch`` marks its thread;
a wrapped call made directly inside a dispatch (nesting depth one) also
adds its time to ``bench.dispatch.covered_ms``.  Dispatch time that no
such call covers is the request's unattributed time.

Nothing here is imported by an untraced run, so untraced end-to-end
numbers measure the unmodified program.
"""

from __future__ import annotations

import functools
import threading
import time

from repro.obs import get_registry

_local = threading.local()


def _timed(function, name: str):
    # ``_local.depth`` is 0 outside a dispatch and counts nesting inside
    # one, so only calls made directly by the dispatch count as covered.
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        depth = getattr(_local, "depth", 0)
        _local.depth = depth + 1 if depth else 0
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            _local.depth = depth
            elapsed = (time.perf_counter() - started) * 1000.0
            registry = get_registry()
            registry.histogram(name).observe(elapsed)
            if depth == 1:
                registry.histogram("bench.dispatch.covered_ms").observe(elapsed)

    return wrapper


def _timed_dispatch(function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        _local.depth = 1
        started = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            _local.depth = 0
            get_registry().histogram("bench.net.dispatch_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )

    return wrapper


def _router_decode(function):
    """The router decodes each client request and each worker response
    once; the time between the two for one id is the router's residence
    (forward hop to the worker, worker time, and the relay back).
    Request ids are unique across the generator's connections, and the
    router's event loop is a single thread, so a plain dict suffices."""
    arrivals: dict[int, float] = {}

    @functools.wraps(function)
    def wrapper(payload):
        started = time.perf_counter()
        frame = function(payload)
        now = time.perf_counter()
        registry = get_registry()
        registry.histogram("bench.net.codec_ms").observe((now - started) * 1000.0)
        request_id = frame.get("id")
        if "op" in frame:
            arrivals[request_id] = now
        elif not frame.get("more", False):
            arrived = arrivals.pop(request_id, None)
            if arrived is not None:
                registry.histogram("bench.router.residence_ms").observe(
                    (now - arrived) * 1000.0
                )
        return frame

    return wrapper


def install() -> None:
    """Wrap every measured call in this process (call once per process)."""
    from repro.relational import store as store_module
    from repro.relational.store import XmlStore
    from repro.service import router, server
    from repro.service.batcher import Ticket
    from repro.service.net import aio, core
    from repro.service.net.handlers import Dispatcher
    from repro.updates import delta
    from repro.xmlmodel import serializer
    from repro.xmlmodel.parser import XmlParser
    from repro.xquery import engine
    from repro.xquery.engine import XQueryEngine

    Dispatcher.dispatch = _timed_dispatch(Dispatcher.dispatch)
    for module in (core, aio, router):
        module.encode_frame = _timed(module.encode_frame, "bench.net.codec_ms")
    for module in (core, aio):
        module.decode_frame_payload = _timed(
            module.decode_frame_payload, "bench.net.codec_ms"
        )
    router.decode_frame_payload = _router_decode(router.decode_frame_payload)

    Ticket.wait = _timed(Ticket.wait, "bench.batcher.ticket_wait_ms")
    server.UpdateService.submit = _timed(
        server.UpdateService.submit, "bench.service.submit_ms"
    )
    server.UpdateService.query = _timed(
        server.UpdateService.query, "bench.service.query_call_ms"
    )

    server.apply_delta = _timed(delta.apply_delta, "bench.updates.apply_delta_ms")
    delta.diff = _timed(delta.diff, "bench.updates.diff_ms")

    XmlParser.parse = _timed(XmlParser.parse, "bench.xmlmodel.parse_ms")
    timed_serialize = _timed(serializer.serialize, "bench.xmlmodel.serialize_ms")
    serializer.serialize = timed_serialize
    server.serialize = timed_serialize

    timed_parse = _timed(engine.parse_cached, "bench.xquery.parse_ms")
    engine.parse_cached = timed_parse
    store_module.parse_cached = timed_parse
    XQueryEngine.execute = _timed(XQueryEngine.execute, "bench.xquery.execute_ms")

    XmlStore.query = _timed(XmlStore.query, "bench.store.query_ms")
    XmlStore.delete_subtrees = _timed(
        XmlStore.delete_subtrees, "bench.store.delete_ms"
    )
    XmlStore.copy_subtrees = _timed(XmlStore.copy_subtrees, "bench.store.copy_ms")


def traced_worker_main(spec, control) -> int:
    """Shard-worker entry point: install the wrappers, then serve."""
    from repro.service import supervise

    install()
    return supervise.worker_main(spec, control)
