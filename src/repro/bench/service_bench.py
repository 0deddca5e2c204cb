"""Group-commit throughput experiment for the durable update service.

The service amortizes two per-update costs across a batch: the WAL
fsync (one per group commit instead of one per update) and the SQL
statement count (adjacent single-subtree deletes coalesce into one
``DELETE ... WHERE id IN (...)``, so a per-statement trigger sweeps
once per batch instead of once per update).  This experiment submits a
fixed stream of single-subtree deletes through the service at several
batch sizes and reports updates/second plus the statement counters.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import asdict, dataclass

from repro.bench.harness import Measurement
from repro.obs import counter_delta, get_registry
from repro.relational.store import XmlStore
from repro.service import DeltaUpdate, ServiceConfig, SubtreeDelete, UpdateService
from repro.service.wal import list_segments
from repro.updates.delta import InsertNode, SetAttribute
from repro.xmlmodel.parser import XmlParser

#: Group-commit windows compared by the experiment (and BENCH_service.json).
DEFAULT_BATCH_SIZES = (1, 8, 64)
#: Deletes submitted per point; a multiple of every batch size above.
DEFAULT_UPDATES = 192
#: Log lengths (operations) compared by the recovery experiment.
DEFAULT_RECOVERY_OPS = (64, 128, 256)
#: Synchronous round-trips per transport in the network experiment.
DEFAULT_NET_OPS = 160
#: Pipeline depths compared by the async pipelining experiment.
DEFAULT_PIPELINE_DEPTHS = (1, 4, 16)
#: Durable appends per pipeline point (identical work at every depth).
DEFAULT_PIPELINE_OPS = 192
#: Concurrent idle connection counts for the connection-scaling curve.
DEFAULT_CONNECTION_COUNTS = (100, 500, 1000)
#: Round-trips measured per connection point (with the idle fleet up).
DEFAULT_CONNECTION_PINGS = 50
#: Appends per phase of the checkpoint-interference experiment.
DEFAULT_CHECKPOINT_OPS = 160
#: Documents hosted by the checkpoint experiment (one hot, rest idle).
DEFAULT_CHECKPOINT_DOCS = 4
#: Client-thread counts compared by the read experiment.
DEFAULT_READ_THREADS = (1, 2, 4, 8)
#: Total read/write cycles per read point (split across the clients, so
#: every point performs identical total work).
DEFAULT_READ_CYCLES = 32
#: Queries per cycle; one durable write follows each run of reads.
DEFAULT_READS_PER_CYCLE = 8
#: Distinct statement texts the read workload cycles through — small on
#: purpose: production statement vocabularies repeat, which is what the
#: statement/plan caches exploit (hit rates are part of the measurement).
DEFAULT_READ_STATEMENTS = 4
#: Shard counts compared by the shard-per-core scaling experiment.
DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)
#: Durable appends per shard point (identical total work at every count).
DEFAULT_SHARD_OPS = 256
#: Documents hosted by the shard experiment (spread across the shards).
DEFAULT_SHARD_DOCS = 16
#: In-flight appends per shard the driving client keeps pipelined.
DEFAULT_SHARD_DEPTH = 4


@dataclass
class ServicePoint:
    """Throughput and per-phase cost of one batch-size configuration.

    All counters are sourced from the process metrics registry
    (``repro.obs``) by diffing snapshots around the run — the same
    numbers ``python -m repro stats`` reports — rather than from
    per-connection ``Database`` fields.
    """

    batch_size: int
    updates: int
    seconds: float
    updates_per_second: float
    client_statements: int
    trigger_statements: int
    client_statements_per_update: float
    fsyncs: int = 0
    batches: int = 0
    mean_batch_size: float = 0.0

    def as_measurement(self) -> Measurement:
        return Measurement(
            method="group_commit",
            x=self.batch_size,
            seconds=self.seconds,
            client_statements=self.client_statements,
            trigger_statements=self.trigger_statements,
            runs=1,
        )


def _delete_targets(store: XmlStore, count: int) -> list[int]:
    rows = store.db.query('SELECT id FROM "n1" ORDER BY id')
    if len(rows) < count:
        raise ValueError(
            f"workload has {len(rows)} n1 subtrees; {count} needed "
            "(increase the scaling factor)"
        )
    return [row[0] for row in rows[:count]]


def run_point(
    master: XmlStore,
    batch_size: int,
    updates: int = DEFAULT_UPDATES,
    wal_dir: str | None = None,
) -> ServicePoint:
    """Push ``updates`` single-subtree deletes through one service."""
    registry = get_registry()
    with master.snapshot() as store:
        ids = _delete_targets(store, updates)
        wal_path = None
        if wal_dir is not None:
            wal_path = os.path.join(wal_dir, f"service-batch{batch_size}.wal")
        # A short coalesce window keeps batches full (and the statement
        # counts reproducible) without dominating the measured time.
        service = UpdateService(
            ServiceConfig(
                wal_path=wal_path,
                batch_size=batch_size,
                coalesce_wait=0.01 if batch_size > 1 else 0.0,
            )
        )
        service.host_store("bench.xml", store)
        service.start()
        before = registry.snapshot()
        start = time.perf_counter()
        tickets = [
            service.submit(SubtreeDelete("bench.xml", "n1", (subtree_id,)))
            for subtree_id in ids
        ]
        service.flush(timeout=120)
        for ticket in tickets:
            ticket.wait(120)
        elapsed = time.perf_counter() - start
        after = registry.snapshot()
        service.close()
    client = counter_delta(before, after, "sql.statements.client")
    trigger = counter_delta(before, after, "sql.statements.trigger")
    fsyncs = counter_delta(before, after, "wal.fsyncs")
    batches = counter_delta(before, after, "batcher.batches")
    batch_count = counter_delta(before, after, "batcher.ops.applied")
    return ServicePoint(
        batch_size=batch_size,
        updates=updates,
        seconds=elapsed,
        updates_per_second=updates / elapsed if elapsed else float("inf"),
        client_statements=client,
        trigger_statements=trigger,
        client_statements_per_update=client / updates,
        fsyncs=fsyncs,
        batches=batches,
        mean_batch_size=batch_count / batches if batches else 0.0,
    )


def run_service_benchmark(
    master: XmlStore,
    batch_sizes: tuple[int, ...] = DEFAULT_BATCH_SIZES,
    updates: int = DEFAULT_UPDATES,
    wal_dir: str | None = None,
) -> list[ServicePoint]:
    return [
        run_point(master, batch_size, updates=updates, wal_dir=wal_dir)
        for batch_size in batch_sizes
    ]


@dataclass
class RecoveryPoint:
    """Cold-start recovery cost for one log length.

    ``checkpointed`` marks the variant where a checkpoint ran after the
    last operation: the snapshot absorbs the whole log, the covered
    segments are retired, and recovery cost stops tracking the total
    operation count — it is bounded by the post-checkpoint log length.
    """

    ops: int
    checkpointed: bool
    wal_bytes: int
    recovery_seconds: float
    applied: int
    snapshot_docs: int

    def as_measurement(self) -> Measurement:
        return Measurement(
            method="recover+ckpt" if self.checkpointed else "recover",
            x=self.ops,
            seconds=self.recovery_seconds,
            client_statements=0,
            trigger_statements=0,
            runs=1,
        )


def run_recovery_point(
    wal_dir: str, ops: int, checkpoint: bool = False
) -> RecoveryPoint:
    """Log ``ops`` document appends (checkpointing at the end when asked),
    then time a cold ``recover()`` on a fresh service over the same WAL."""
    suffix = "-ckpt" if checkpoint else ""
    wal_path = os.path.join(wal_dir, f"recovery-{ops}{suffix}.wal")
    service = UpdateService(
        ServiceConfig(wal_path=wal_path, batch_size=16, coalesce_wait=0.002)
    )
    service.host_document("bench.xml", XmlParser("<log></log>").parse())
    service.start()
    for index in range(ops):
        service.submit_wait(
            DeltaUpdate(
                "bench.xml", (InsertNode((), 1 << 30, xml=f'<e i="{index}"/>'),)
            ),
            timeout=120,
        )
    if checkpoint:
        service.checkpoint(timeout=120)
    service.close()
    wal_bytes = sum(
        os.path.getsize(path) for _index, path in list_segments(wal_path)
    )

    fresh = UpdateService(ServiceConfig(wal_path=wal_path))
    fresh.host_document("bench.xml", XmlParser("<log></log>").parse())
    start = time.perf_counter()
    report = fresh.recover()
    elapsed = time.perf_counter() - start
    fresh.close()
    return RecoveryPoint(
        ops=ops,
        checkpointed=checkpoint,
        wal_bytes=wal_bytes,
        recovery_seconds=elapsed,
        applied=report.applied,
        snapshot_docs=report.snapshot_docs,
    )


def run_recovery_benchmark(
    wal_dir: str | None = None,
    ops_series: tuple[int, ...] = DEFAULT_RECOVERY_OPS,
) -> list[RecoveryPoint]:
    """Recovery time at several log lengths, plus the checkpointed variant
    of the longest one showing the bounded-recovery property."""

    def run_all(directory: str) -> list[RecoveryPoint]:
        points = [
            run_recovery_point(directory, ops, checkpoint=False)
            for ops in ops_series
        ]
        points.append(
            run_recovery_point(directory, ops_series[-1], checkpoint=True)
        )
        return points

    if wal_dir is not None:
        return run_all(wal_dir)
    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as directory:
        return run_all(directory)


@dataclass
class NetPoint:
    """Round-trip cost of one transport: in-process calls vs loopback TCP.

    One client thread issues ``ops`` synchronous ``submit_wait`` calls
    (document appends through the WAL), so the series isolates the
    protocol boundary's per-operation overhead — framing, the extra
    copies, and the connection thread handoff — against an identical
    service configuration.
    """

    transport: str  # "inproc" | "tcp"
    ops: int
    seconds: float
    ops_per_second: float
    mean_ms: float
    p50_ms: float
    p99_ms: float

    def as_measurement(self) -> Measurement:
        return Measurement(
            method=self.transport,
            x=self.ops,
            seconds=self.seconds,
            client_statements=0,
            trigger_statements=0,
            runs=1,
        )


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def run_net_point(
    transport: str, ops: int = DEFAULT_NET_OPS, wal_dir: str | None = None
) -> NetPoint:
    """Time ``ops`` synchronous durable appends over one transport."""
    from repro.service.net import AsyncNetServer, ServiceClient

    wal_path = None
    if wal_dir is not None:
        wal_path = os.path.join(wal_dir, f"net-{transport}.wal")
    service = UpdateService(ServiceConfig(wal_path=wal_path, batch_size=8))
    service.host_document("bench.xml", XmlParser("<log></log>").parse())
    service.start()
    server = client = None
    try:
        if transport == "tcp":
            server = AsyncNetServer(service).start()
            host, port = server.address
            client = ServiceClient(host, port)
            submit_wait = client.submit_wait
        elif transport == "inproc":
            submit_wait = service.submit_wait
        else:
            raise ValueError(f"unknown transport {transport!r}")
        latencies: list[float] = []
        start = time.perf_counter()
        for index in range(ops):
            op = DeltaUpdate(
                "bench.xml", (InsertNode((), 1 << 30, xml=f'<e i="{index}"/>'),)
            )
            began = time.perf_counter()
            submit_wait(op, 120)
            latencies.append((time.perf_counter() - began) * 1000.0)
        elapsed = time.perf_counter() - start
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.close()
        service.close()
    latencies.sort()
    return NetPoint(
        transport=transport,
        ops=ops,
        seconds=elapsed,
        ops_per_second=ops / elapsed if elapsed else float("inf"),
        mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        p50_ms=_quantile(latencies, 0.50),
        p99_ms=_quantile(latencies, 0.99),
    )


def run_net_benchmark(
    ops: int = DEFAULT_NET_OPS, wal_dir: str | None = None
) -> list[NetPoint]:
    """The loopback-vs-in-process pair (``net`` series)."""

    def run_all(directory: str) -> list[NetPoint]:
        return [
            run_net_point(transport, ops=ops, wal_dir=directory)
            for transport in ("inproc", "tcp")
        ]

    if wal_dir is not None:
        return run_all(wal_dir)
    with tempfile.TemporaryDirectory(prefix="repro-net-") as directory:
        return run_all(directory)


@dataclass
class PipelinePoint:
    """Throughput of one pipeline depth on the asyncio front end.

    One connection keeps ``depth`` durable ``submit_wait`` appends in
    flight (an :class:`asyncio.Semaphore` refills the window as
    responses land).  Depth 1 reproduces the blocking client's
    request/response lockstep; deeper pipelines expose concurrent
    requests to the group-commit batcher, which amortises the WAL fsync
    across them — the throughput win the series records.
    """

    depth: int
    ops: int
    seconds: float
    ops_per_second: float
    mean_ms: float
    p50_ms: float
    p99_ms: float

    def as_measurement(self) -> Measurement:
        return Measurement(
            method="pipeline",
            x=self.depth,
            seconds=self.seconds,
            client_statements=0,
            trigger_statements=0,
            runs=1,
        )


@dataclass
class ConnectionPoint:
    """Latency with ``connections`` concurrent idle connections attached.

    The fleet is opened (bounded concurrency), then one member measures
    ``pings`` round trips while the rest sit idle — the curve shows what
    an idle connection costs the event loop: the asyncio server pays
    one task per member, not a thread.
    """

    connections: int
    pings: int
    connect_seconds: float
    seconds: float
    ping_mean_ms: float
    ping_p50_ms: float
    ping_p99_ms: float

    def as_measurement(self) -> Measurement:
        return Measurement(
            method="connections",
            x=self.connections,
            seconds=self.seconds,
            client_statements=0,
            trigger_statements=0,
            runs=1,
        )


def run_pipeline_point(
    depth: int, ops: int = DEFAULT_PIPELINE_OPS, wal_dir: str | None = None
) -> PipelinePoint:
    """``ops`` durable appends through one async connection holding
    ``depth`` requests in flight."""
    import asyncio

    from repro.service.net import AsyncNetServer, AsyncServiceClient

    wal_path = None
    if wal_dir is not None:
        wal_path = os.path.join(wal_dir, f"pipeline-{depth}.wal")
    service = UpdateService(ServiceConfig(wal_path=wal_path, batch_size=32))
    service.host_document("bench.xml", XmlParser("<log></log>").parse())
    service.start()
    server = AsyncNetServer(service, max_inflight=max(64, depth)).start()
    host, port = server.address
    latencies: list[float] = []

    async def run() -> float:
        client = await AsyncServiceClient.connect(host, port)
        window = asyncio.Semaphore(depth)

        async def one(index: int) -> None:
            op = DeltaUpdate(
                "bench.xml", (InsertNode((), 1 << 30, xml=f'<e i="{index}"/>'),)
            )
            async with window:
                began = time.perf_counter()
                await client.submit_wait(op, 120)
                latencies.append((time.perf_counter() - began) * 1000.0)

        try:
            start = time.perf_counter()
            await asyncio.gather(*(one(index) for index in range(ops)))
            return time.perf_counter() - start
        finally:
            await client.close()

    try:
        elapsed = asyncio.run(run())
    finally:
        server.close()
        service.close()
    latencies.sort()
    return PipelinePoint(
        depth=depth,
        ops=ops,
        seconds=elapsed,
        ops_per_second=ops / elapsed if elapsed else float("inf"),
        mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        p50_ms=_quantile(latencies, 0.50),
        p99_ms=_quantile(latencies, 0.99),
    )


def run_connection_point(
    connections: int, pings: int = DEFAULT_CONNECTION_PINGS
) -> ConnectionPoint:
    """Ping latency with a fleet of ``connections`` idle connections
    held open on the asyncio server."""
    import asyncio

    from repro.service.net import AsyncNetServer, AsyncServiceClient

    service = UpdateService(ServiceConfig(batch_size=8))
    service.host_document("bench.xml", XmlParser("<log></log>").parse())
    service.start()
    server = AsyncNetServer(
        service, max_connections=max(connections + 16, 10_000)
    ).start()
    host, port = server.address
    latencies: list[float] = []

    async def run() -> tuple[float, float]:
        opener = asyncio.Semaphore(64)

        async def open_one() -> AsyncServiceClient:
            async with opener:
                return await AsyncServiceClient.connect(
                    host, port, connect_timeout=60
                )

        began_connect = time.perf_counter()
        fleet = await asyncio.gather(*(open_one() for _ in range(connections)))
        connect_seconds = time.perf_counter() - began_connect
        try:
            prober = fleet[0]
            await prober.ping()  # warm
            start = time.perf_counter()
            for _ in range(pings):
                began = time.perf_counter()
                await prober.ping()
                latencies.append((time.perf_counter() - began) * 1000.0)
            elapsed = time.perf_counter() - start
        finally:
            closer = asyncio.Semaphore(64)

            async def close_one(client: AsyncServiceClient) -> None:
                async with closer:
                    await client.close()

            await asyncio.gather(*(close_one(client) for client in fleet))
        return connect_seconds, elapsed

    try:
        connect_seconds, elapsed = asyncio.run(run())
    finally:
        server.close()
        service.close()
    latencies.sort()
    return ConnectionPoint(
        connections=connections,
        pings=pings,
        connect_seconds=connect_seconds,
        seconds=elapsed,
        ping_mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        ping_p50_ms=_quantile(latencies, 0.50),
        ping_p99_ms=_quantile(latencies, 0.99),
    )


def run_async_net_benchmark(
    depths: tuple[int, ...] = DEFAULT_PIPELINE_DEPTHS,
    pipeline_ops: int = DEFAULT_PIPELINE_OPS,
    connection_counts: tuple[int, ...] = DEFAULT_CONNECTION_COUNTS,
    pings: int = DEFAULT_CONNECTION_PINGS,
    wal_dir: str | None = None,
) -> tuple[list[PipelinePoint], list[ConnectionPoint]]:
    """The asyncio additions to the ``net`` series: pipeline-depth
    throughput and connection-count-vs-latency curves."""

    def run_all(directory: str | None) -> tuple[list, list]:
        pipeline = [
            run_pipeline_point(depth, ops=pipeline_ops, wal_dir=directory)
            for depth in depths
        ]
        connection = [
            run_connection_point(count, pings=pings)
            for count in connection_counts
        ]
        return pipeline, connection

    if wal_dir is not None:
        return run_all(wal_dir)
    with tempfile.TemporaryDirectory(prefix="repro-aionet-") as directory:
        return run_all(directory)


@dataclass
class CheckpointPoint:
    """Submit latency of one phase: with or without concurrent checkpoints.

    The fuzzy protocol's claim is that a checkpoint is not a stall: a
    client committing to one document while a background thread
    checkpoints continuously should see submit latency comparable to an
    idle service (the old protocol paused the batcher and took every
    write lock for the duration).  ``docs_snapshotted`` /
    ``docs_carried`` record the incremental property alongside: after
    the first full pass only the hot document is re-captured; the idle
    ones carry their state files forward.
    """

    mode: str  # "baseline" | "during_checkpoints"
    ops: int
    seconds: float
    ops_per_second: float
    mean_ms: float
    p50_ms: float
    p99_ms: float
    checkpoints: int = 0
    docs_snapshotted: int = 0
    docs_carried: int = 0

    def as_measurement(self) -> Measurement:
        return Measurement(
            method=self.mode,
            x=self.ops,
            seconds=self.seconds,
            client_statements=0,
            trigger_statements=0,
            runs=1,
        )


def run_checkpoint_point(
    mode: str,
    ops: int = DEFAULT_CHECKPOINT_OPS,
    wal_dir: str | None = None,
    docs: int = DEFAULT_CHECKPOINT_DOCS,
) -> CheckpointPoint:
    """Time ``ops`` synchronous attribute writes to one hot document
    while a background thread checkpoints continuously (``mode`` =
    ``"during_checkpoints"``) or not at all (``"baseline"``).

    The writes overwrite one attribute instead of appending, so the
    document — and with it each checkpoint's capture cost — stays a
    constant size across the run: the series then isolates the
    protocol's interference with the commit path rather than the cost
    of serializing an ever-growing document."""
    wal_path = os.path.join(wal_dir, f"checkpoint-{mode}.wal")
    service = UpdateService(ServiceConfig(wal_path=wal_path, batch_size=8))
    names = [f"bench-{index}.xml" for index in range(docs)]
    for name in names:
        service.host_document(name, XmlParser("<log></log>").parse())
    service.start()
    hot = names[0]
    reports: list = []
    stop = threading.Event()

    def checkpointer():
        # A short gap between checkpoints, as the automatic policy's
        # duty cycle would leave: checkpoints still overlap most of the
        # measured window, but a zero-gap busy loop would measure raw
        # fsync starvation of the shared disk, not the protocol.
        while not stop.is_set():
            reports.append(service.checkpoint(timeout=120))
            stop.wait(0.01)

    worker = None
    try:
        # Seed every document and take one full pass, so the measured
        # checkpoints run incrementally (hot doc fresh, idle carried).
        for name in names:
            service.submit_wait(
                DeltaUpdate(name, (InsertNode((), 1 << 30, xml="<seed/>"),)),
                timeout=120,
            )
        service.checkpoint(timeout=120)
        if mode == "during_checkpoints":
            worker = threading.Thread(target=checkpointer, daemon=True)
            worker.start()
        elif mode != "baseline":
            raise ValueError(f"unknown mode {mode!r}")
        latencies: list[float] = []
        start = time.perf_counter()
        for index in range(ops):
            op = DeltaUpdate(hot, (SetAttribute((0,), "i", str(index)),))
            began = time.perf_counter()
            service.submit_wait(op, timeout=120)
            latencies.append((time.perf_counter() - began) * 1000.0)
        elapsed = time.perf_counter() - start
        stop.set()
        if worker is not None:
            worker.join(120)
    finally:
        stop.set()
        service.close()
    latencies.sort()
    return CheckpointPoint(
        mode=mode,
        ops=ops,
        seconds=elapsed,
        ops_per_second=ops / elapsed if elapsed else float("inf"),
        mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
        p50_ms=_quantile(latencies, 0.50),
        p99_ms=_quantile(latencies, 0.99),
        checkpoints=len(reports),
        docs_snapshotted=sum(report.snapshotted for report in reports),
        docs_carried=sum(report.carried for report in reports),
    )


def run_checkpoint_benchmark(
    ops: int = DEFAULT_CHECKPOINT_OPS, wal_dir: str | None = None
) -> list[CheckpointPoint]:
    """The checkpoint-interference pair (``checkpoint`` series)."""

    def run_all(directory: str) -> list[CheckpointPoint]:
        return [
            run_checkpoint_point("baseline", ops=ops, wal_dir=directory),
            run_checkpoint_point("during_checkpoints", ops=ops, wal_dir=directory),
        ]

    if wal_dir is not None:
        return run_all(wal_dir)
    with tempfile.TemporaryDirectory(prefix="repro-checkpoint-") as directory:
        return run_all(directory)


@dataclass
class ReadPoint:
    """Read throughput of one (transport, client-thread-count) pair.

    The workload is mixed: each client loops «``reads_per_cycle``
    cached-statement queries, then one synchronous durable write».  The
    total cycle count is fixed, so every point does identical work and
    the series isolates what concurrency buys.  Reads execute on the
    query thread pool over the per-store snapshot reader pool; writes
    group-commit through the WAL.  Scaling comes from two overlaps the
    read-path work enables: concurrent readers no longer serialise
    behind the store's single connection lock, and reads proceed while
    other clients sit in the group-commit window / fsync (on multi-core
    hosts the pooled readers additionally scan in true parallel).

    ``parse_hit_rate`` / ``plan_hit_rate`` are measured over the timed
    window (caches warmed by one pass first — steady-state rates);
    ``pool_reads`` proves the pooled path actually served the queries.
    """

    transport: str  # "inproc" | "tcp"
    threads: int
    reads: int
    writes: int
    seconds: float
    read_ops_per_second: float
    mean_ms: float
    p50_ms: float
    p99_ms: float
    parse_hit_rate: float
    plan_hit_rate: float
    pool_reads: int

    def as_measurement(self) -> Measurement:
        return Measurement(
            method=f"read-{self.transport}",
            x=self.threads,
            seconds=self.seconds,
            client_statements=0,
            trigger_statements=0,
            runs=1,
        )


def read_statements(count: int = DEFAULT_READ_STATEMENTS) -> list[str]:
    """The repeated statement vocabulary: full scans of ``n1`` for a
    string value that never occurs, so SQLite does the row-stepping work
    while reconstruction stays constant across the run."""
    return [
        f'FOR $x IN document("synthetic.xml")/root/n1[str="absent-{index}"] '
        "RETURN $x"
        for index in range(count)
    ]


def _hit_rate(before: dict, after: dict, prefix: str) -> float:
    hits = counter_delta(before, after, f"cache.{prefix}.hits")
    misses = counter_delta(before, after, f"cache.{prefix}.misses")
    total = hits + misses
    return hits / total if total else 1.0


def run_read_point(
    master: XmlStore,
    transport: str,
    threads: int,
    cycles: int = DEFAULT_READ_CYCLES,
    reads_per_cycle: int = DEFAULT_READS_PER_CYCLE,
    wal_dir: str | None = None,
) -> ReadPoint:
    """Run the mixed read/write workload with ``threads`` clients."""
    import threading

    from repro.service.net import AsyncNetServer, ServiceClient

    registry = get_registry()
    statements = read_statements()
    with master.snapshot() as store:
        wal_path = None
        if wal_dir is not None:
            wal_path = os.path.join(wal_dir, f"read-{transport}-{threads}.wal")
        # One fixed configuration for every point: the group-commit
        # window and coalesce wait are what multiple clients amortise.
        service = UpdateService(
            ServiceConfig(
                wal_path=wal_path,
                batch_size=8,
                coalesce_wait=0.006,
                query_workers=8,
                readers=8,
            )
        )
        service.host_store("synthetic.xml", store)
        service.start()
        server = None
        clients: list[ServiceClient] = []
        try:
            if transport == "tcp":
                server = AsyncNetServer(service).start()
                host, port = server.address
                clients = [ServiceClient(host, port) for _ in range(threads)]

                def reader(index: int, statement: str) -> None:
                    clients[index].query("synthetic.xml", statement, timeout=60)

                def writer(index: int, op) -> None:
                    clients[index].submit_wait(op, 60)

            elif transport == "inproc":

                def reader(index: int, statement: str) -> None:
                    service.query_elements("synthetic.xml", statement)

                def writer(index: int, op) -> None:
                    service.submit_wait(op, timeout=60)

            else:
                raise ValueError(f"unknown transport {transport!r}")

            ids = [
                row[0] for row in store.db.query('SELECT id FROM "n1" ORDER BY id')
            ]
            if len(ids) < cycles:
                raise ValueError(
                    f"workload has {len(ids)} n1 subtrees; {cycles} needed"
                )
            # Split the fixed cycle budget across the clients (first
            # clients absorb any remainder).
            base, extra = divmod(cycles, threads)
            shares = [base + (1 if index < extra else 0) for index in range(threads)]
            offsets = [sum(shares[:index]) for index in range(threads)]

            # Warm the caches and every pooled reader outside the timed
            # window so the point measures steady-state serving.
            for statement in statements:
                service.query_elements("synthetic.xml", statement)

            latencies_per_thread: list[list[float]] = [[] for _ in range(threads)]
            failures: list[BaseException] = []

            def client_loop(index: int) -> None:
                my_latencies = latencies_per_thread[index]
                my_ids = ids[offsets[index] : offsets[index] + shares[index]]
                try:
                    for cycle, subtree_id in enumerate(my_ids):
                        for read in range(reads_per_cycle):
                            statement = statements[
                                (cycle * reads_per_cycle + read) % len(statements)
                            ]
                            began = time.perf_counter()
                            reader(index, statement)
                            my_latencies.append(
                                (time.perf_counter() - began) * 1000.0
                            )
                        writer(
                            index, SubtreeDelete("synthetic.xml", "n1", (subtree_id,))
                        )
                except BaseException as error:  # surfaced after join
                    failures.append(error)

            workers = [
                threading.Thread(target=client_loop, args=(index,), daemon=True)
                for index in range(threads)
            ]
            before = registry.snapshot()
            start = time.perf_counter()
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            elapsed = time.perf_counter() - start
            after = registry.snapshot()
            if failures:
                raise failures[0]
        finally:
            for client in clients:
                client.close()
            if server is not None:
                server.close()
            service.close()
    latencies = sorted(
        latency for bucket in latencies_per_thread for latency in bucket
    )
    reads = len(latencies)
    return ReadPoint(
        transport=transport,
        threads=threads,
        reads=reads,
        writes=cycles,
        seconds=elapsed,
        read_ops_per_second=reads / elapsed if elapsed else float("inf"),
        mean_ms=sum(latencies) / reads if reads else 0.0,
        p50_ms=_quantile(latencies, 0.50),
        p99_ms=_quantile(latencies, 0.99),
        parse_hit_rate=_hit_rate(before, after, "parse"),
        plan_hit_rate=_hit_rate(before, after, "plan"),
        pool_reads=counter_delta(before, after, "sql.pool.reads"),
    )


def run_read_benchmark(
    master: XmlStore,
    threads_series: tuple[int, ...] = DEFAULT_READ_THREADS,
    transports: tuple[str, ...] = ("inproc", "tcp"),
    cycles: int = DEFAULT_READ_CYCLES,
    reads_per_cycle: int = DEFAULT_READS_PER_CYCLE,
    wal_dir: str | None = None,
) -> list[ReadPoint]:
    """The ``read`` series: thread scaling per transport."""

    def run_all(directory: str) -> list[ReadPoint]:
        return [
            run_read_point(
                master,
                transport,
                threads,
                cycles=cycles,
                reads_per_cycle=reads_per_cycle,
                wal_dir=directory,
            )
            for transport in transports
            for threads in threads_series
        ]

    if wal_dir is not None:
        return run_all(wal_dir)
    with tempfile.TemporaryDirectory(prefix="repro-read-") as directory:
        return run_all(directory)


@dataclass
class ShardPoint:
    """Aggregate durable-append throughput at one shard count.

    One async client drives a fixed stream of ``submit_wait`` appends
    (round-robin over ``docs`` documents) through the router, keeping
    ``depth`` requests in flight per shard.  Workers are real processes,
    so on a multi-core host the WAL fsyncs and SQL application run in
    true parallel; ``cpus`` records how many cores the measurement
    actually had — on a single-core box the series measures router
    overhead, not scaling, and says so in the data.
    """

    shards: int
    docs: int
    ops: int
    depth: int
    cpus: int
    seconds: float
    ops_per_second: float
    mean_ms: float
    p50_ms: float
    p99_ms: float

    def as_measurement(self) -> Measurement:
        return Measurement(
            method="shards",
            x=self.shards,
            seconds=self.seconds,
            client_statements=0,
            trigger_statements=0,
            runs=1,
        )


def run_shard_point(
    shards: int,
    ops: int = DEFAULT_SHARD_OPS,
    docs: int = DEFAULT_SHARD_DOCS,
    depth: int = DEFAULT_SHARD_DEPTH,
    base_dir: str | None = None,
) -> ShardPoint:
    """``ops`` durable appends through a ``shards``-worker cluster."""
    import asyncio

    from repro.service.router import ShardCluster

    def run_in(directory: str) -> ShardPoint:
        names = [f"bench-{index}.xml" for index in range(docs)]
        documents = {name: "<log></log>" for name in names}
        cluster = ShardCluster(
            os.path.join(directory, f"cluster-{shards}"),
            documents,
            shards,
            batch_size=32,
        ).start()
        host, port = cluster.address
        latencies: list[float] = []

        async def run() -> float:
            from repro.service.net import AsyncServiceClient

            client = await AsyncServiceClient.connect(host, port)
            window = asyncio.Semaphore(depth * shards)

            async def one(index: int) -> None:
                op = DeltaUpdate(
                    names[index % docs],
                    (InsertNode((), 1 << 30, xml=f'<e i="{index}"/>'),),
                )
                async with window:
                    began = time.perf_counter()
                    await client.submit_wait(op, 120)
                    latencies.append((time.perf_counter() - began) * 1000.0)

            try:
                start = time.perf_counter()
                await asyncio.gather(*(one(index) for index in range(ops)))
                return time.perf_counter() - start
            finally:
                await client.close()

        try:
            elapsed = asyncio.run(run())
        finally:
            cluster.close()
        latencies.sort()
        return ShardPoint(
            shards=shards,
            docs=docs,
            ops=ops,
            depth=depth,
            cpus=os.cpu_count() or 1,
            seconds=elapsed,
            ops_per_second=ops / elapsed if elapsed else float("inf"),
            mean_ms=sum(latencies) / len(latencies) if latencies else 0.0,
            p50_ms=_quantile(latencies, 0.50),
            p99_ms=_quantile(latencies, 0.99),
        )

    if base_dir is not None:
        return run_in(base_dir)
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as directory:
        return run_in(directory)


def run_shards_benchmark(
    shard_counts: tuple[int, ...] = DEFAULT_SHARD_COUNTS,
    ops: int = DEFAULT_SHARD_OPS,
    docs: int = DEFAULT_SHARD_DOCS,
    depth: int = DEFAULT_SHARD_DEPTH,
    base_dir: str | None = None,
) -> list[ShardPoint]:
    """The ``shards`` series: aggregate write throughput vs shard count."""

    def run_all(directory: str) -> list[ShardPoint]:
        return [
            run_shard_point(
                shards, ops=ops, docs=docs, depth=depth, base_dir=directory
            )
            for shards in shard_counts
        ]

    if base_dir is not None:
        return run_all(base_dir)
    with tempfile.TemporaryDirectory(prefix="repro-shards-") as directory:
        return run_all(directory)


def save_shards_results(path: str, points: list[ShardPoint]) -> None:
    """Merge the ``shards`` series into ``BENCH_service.json`` without
    disturbing the other experiments' entries."""
    payload: dict = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except ValueError:
                payload = {}
        if not isinstance(payload, dict):
            payload = {}
    payload["shards"] = {
        "experiment": "shard-per-core router: write scaling vs shard count",
        "workload": (
            "durable document appends round-robin over the hosted "
            "documents, pipelined through the router"
        ),
        "cpus": os.cpu_count() or 1,
        "points": [asdict(point) for point in points],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def save_service_results(
    path: str,
    points: list[ServicePoint],
    recovery: list[RecoveryPoint] | None = None,
    net: list[NetPoint] | None = None,
    read: list[ReadPoint] | None = None,
    checkpoint: list[CheckpointPoint] | None = None,
    pipeline: list[PipelinePoint] | None = None,
    connections: list[ConnectionPoint] | None = None,
) -> None:
    """Write ``BENCH_service.json``: one entry per batch size, plus the
    recovery-time-vs-log-length, network-transport, and read-scaling
    series when measured."""
    payload = {
        "experiment": "group-commit service throughput",
        "workload": "single-subtree deletes, per_statement_trigger",
        "points": [asdict(point) for point in points],
    }
    # The mapping ablation and the shard-scaling series write into the
    # same file under their own keys; keep them when regenerating the
    # service series.
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            try:
                existing = json.load(handle)
            except ValueError:
                existing = {}
        for key in ("mapping", "shards"):
            if key in existing:
                payload[key] = existing[key]
    if recovery is not None:
        payload["recovery"] = {
            "experiment": "cold recovery time vs WAL length",
            "workload": "document appends; checkpointed variant retires the log",
            "points": [asdict(point) for point in recovery],
        }
    if net is not None or pipeline is not None or connections is not None:
        net_entry = payload.setdefault(
            "net",
            {
                "experiment": "transport overhead: loopback TCP vs in-process",
                "workload": "synchronous durable document appends, one client",
            },
        )
        if net is not None:
            net_entry["points"] = [asdict(point) for point in net]
        if pipeline is not None:
            net_entry["pipeline"] = {
                "experiment": "async pipeline depth vs durable-append throughput",
                "workload": (
                    "one async connection holding N submit_wait appends in "
                    "flight; group commit amortises the fsync across the "
                    "window"
                ),
                "points": [asdict(point) for point in pipeline],
            }
        if connections is not None:
            net_entry["connections"] = {
                "experiment": "connection count vs round-trip latency (asyncio)",
                "workload": (
                    "a fleet of idle connections held open while one member "
                    "measures ping round trips"
                ),
                "points": [asdict(point) for point in connections],
            }
    if read is not None:
        payload["read"] = {
            "experiment": "read-path thread scaling: caches + reader pool",
            "workload": (
                "mixed: repeated cached statements + durable subtree deletes, "
                "fixed total work split across client threads"
            ),
            "points": [asdict(point) for point in read],
        }
    if checkpoint is not None:
        payload["checkpoint"] = {
            "experiment": "submit latency during fuzzy checkpoints",
            "workload": (
                "synchronous appends to one hot document; the contended "
                "phase checkpoints continuously (incremental) in the "
                "background"
            ),
            "points": [asdict(point) for point in checkpoint],
        }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
