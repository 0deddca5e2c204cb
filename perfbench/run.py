"""The repository benchmark: one workload, one run, one JSON result.

    python3 perfbench/run.py --workload {feed,store,statements} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The server topology runs in its own
processes (``perfbench/server.py``); this process is the single load
generator: one asyncio thread, two connections, no worker threads.

``--trace 0`` measures the unmodified program and reports the end-to-end
metrics.  ``--trace 1`` runs the same traffic twice, untraced and then
with the timing wrappers of ``perfbench/layers.py`` installed in every
server process, and reports the per-layer metrics.  Every run checks
every response and the final state, prints a human-readable table and a
provenance stamp, and ends with one JSON line.  A failed output check
makes the exit code 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.getcwd()

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("goodput_ops_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("net.server_ms", "ms"),
    ("net.client_wire_ms", "ms"),
    ("net.dispatch_ms", "ms"),
    ("net.handoff_ms", "ms"),
    ("net.codec_ms", "ms"),
    ("net.busy_rejects", "count"),
    ("router.hop_ms", "ms"),
    ("router.forwarded", "count"),
    ("router.busy", "count"),
    ("batcher.ops_per_commit", "ops"),
    ("batcher.commit_ms", "ms"),
    ("batcher.queue_wait_ms", "ms"),
    ("batcher.coalesced_frac", "frac"),
    ("wal.fsyncs_per_op", "1/op"),
    ("wal.fsync_ms", "ms"),
    ("wal.append_ms", "ms"),
    ("wal.bytes_per_op", "B/op"),
    ("service.apply_ms", "ms"),
    ("service.query_ms", "ms"),
    ("lock.read_wait_ms", "ms"),
    ("lock.write_wait_ms", "ms"),
    ("checkpoint.count", "count"),
    ("checkpoint.ms", "ms"),
    ("checkpoint.bytes_per_op", "B/op"),
    ("recovery.replay_ms", "ms"),
    ("updates.apply_delta_ms", "ms"),
    ("updates.diff_ms", "ms"),
    ("xmlmodel.parse_ms", "ms"),
    ("xmlmodel.serialize_ms", "ms"),
    ("xquery.parse_ms", "ms"),
    ("xquery.execute_ms", "ms"),
    ("cache.parse.hit_frac", "frac"),
    ("sql.statements_per_write", "1/op"),
    ("sql.translate_ms", "ms"),
    ("cache.plan.hit_frac", "frac"),
    ("store.query_ms", "ms"),
    ("store.reconstruct_ms", "ms"),
    ("store.delete_ms", "ms"),
    ("store.copy_ms", "ms"),
    ("sql.pool.refresh_ms", "ms"),
    ("sql.pool.refreshes_per_commit", "1/commit"),
    ("sql.pool.wait_ms", "ms"),
    ("gen.lateness_p99_ms", "ms"),
    ("gen.cpu_frac", "frac"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_frac", "frac"),
]

#: Cold starts per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Requests run before the window, after the last start, to warm caches.
WARMUP_SECONDS = 1.5
CONNECTIONS = 2
START_TIMEOUT = 120.0


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(os.path.join(ROOT, "src")):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "host": platform.node(),
    }


# ----------------------------------------------------------------------
# One server topology in its own processes
# ----------------------------------------------------------------------
class Deployment:
    def __init__(self, workload, directory: str, trace: bool, label: str) -> None:
        self.workload = workload
        self.directory = directory
        self.trace = trace
        self.label = label
        self.process = None
        self.ready: dict = {}
        self.clients: list = []

    async def start(self) -> float:
        """Spawn the server, wait until every probe request is answered;
        returns the set-up time in seconds."""
        from repro.service import AsyncServiceClient

        os.makedirs(self.directory, exist_ok=True)
        config_path = os.path.join(self.directory, f"{self.label}.config.json")
        ready_path = os.path.join(self.directory, f"{self.label}.ready.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": self.workload.name,
                    "inputs": self.workload.server_config(),
                    "directory": os.path.join(self.directory, "data"),
                    "trace": self.trace,
                    "ready": ready_path,
                },
                handle,
            )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
        self.log = open(os.path.join(self.directory, f"{self.label}.log"), "wb")
        began = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "server.py"), config_path],
            stdin=subprocess.PIPE,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=ROOT,
        )
        try:
            while not os.path.exists(ready_path):
                if self.process.poll() is not None:
                    raise RuntimeError(f"server exited with {self.process.returncode}")
                if time.perf_counter() - began > START_TIMEOUT:
                    raise RuntimeError("server did not become ready")
                await asyncio.sleep(0.005)
            with open(ready_path, "r", encoding="utf-8") as handle:
                self.ready = json.load(handle)
            self.clients = [
                await AsyncServiceClient.connect(self.ready["host"], self.ready["port"])
                for _ in range(CONNECTIONS)
            ]
            # Request ids must not collide across connections: the traced
            # router pairs requests with responses by id.
            for index, client in enumerate(self.clients):
                client._next_id = index * 1_000_000_000
            for request in self.workload.probes():
                await getattr(self.clients[0], request.call)(*request.args)
        except Exception as error:
            await self.stop(kill=True)
            raise RuntimeError(f"{error}; server log:\n{self.log_tail()}") from error
        return time.perf_counter() - began

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for pid in self.ready.get("pids", []):
            with open(f"/proc/{pid}/status", "r", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        return total_kb / 1024.0

    async def stats(self) -> dict:
        return (await self.clients[0].stats())["metrics"]

    async def stop(self, kill: bool = False) -> None:
        """Close the connections, ask the server to drain and exit, and
        wait for it (killing it when ``kill`` is set or it hangs)."""
        for client in self.clients:
            await client.close()
        self.clients = []
        process, self.process = self.process, None
        if process is None:
            return
        if kill:
            process.kill()
        try:
            process.stdin.write(b"quit\n")
            process.stdin.close()
        except OSError:
            pass
        try:
            process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        self.log.close()
        if process.returncode != 0 and not kill:
            raise RuntimeError(
                f"server exited with {process.returncode}; server log:\n{self.log_tail()}"
            )

    def log_tail(self) -> str:
        with open(self.log.name, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read()[-4000:]


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------
@dataclass
class Sample:
    kind: str
    sent: float  # when it was due (open loop) or sent (closed loop)
    done: float
    status: str  # ok | busy | failed | wrong

    @property
    def ms(self) -> float:
        return (self.done - self.sent) * 1000.0


@dataclass
class Phase:
    samples: list = field(default_factory=list)
    lateness_ms: list = field(default_factory=list)
    started: float = 0.0
    seconds: float = 0.0
    cpu_seconds: float = 0.0
    steal_frac: float = 0.0  # host CPU time stolen by other guests


def _cpu_ticks() -> list[int]:
    with open("/proc/stat", "r", encoding="utf-8") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


async def _send(client, traffic, request, outcome, phase, sent) -> None:
    from repro.errors import ReproError, ServiceBusyError

    try:
        response = await getattr(client, request.call)(*request.args)
    except ServiceBusyError:
        status = "busy"
    except ReproError:
        status = "failed"
    else:
        status = "ok" if traffic.check_response(request, response) else "wrong"
        if request.kind == "write":
            outcome.acked.append((request, response))
    if status in ("busy", "failed") and request.kind == "write":
        outcome.unknown += 1
    phase.samples.append(Sample(request.kind, sent, time.perf_counter(), status))


async def run_phase(deployment, traffic, outcome, *, seconds=None, ops=None) -> Phase:
    """Drive the workload for ``seconds`` (or until ``ops`` requests)."""
    workload = deployment.workload
    clients = deployment.clients
    phase = Phase()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    cpu_before = usage.ru_utime + usage.ru_stime
    ticks_before = _cpu_ticks()
    phase.started = start = time.perf_counter()
    end = start + seconds if seconds is not None else float("inf")
    budget = [ops if ops is not None else float("inf")]

    def take() -> bool:
        if budget[0] <= 0 or time.perf_counter() >= end:
            return False
        budget[0] -= 1
        return True

    if workload.loop == "closed":

        async def stream(index: int) -> None:
            client = clients[index % CONNECTIONS]
            while take():
                request = traffic.next(index)
                await _send(
                    client, traffic, request, outcome, phase, time.perf_counter()
                )

        await asyncio.gather(*(stream(index) for index in range(workload.streams)))
    else:
        tasks = set()
        index = 0
        while take():
            due = start + index / workload.rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if time.perf_counter() >= end:
                break
            phase.lateness_ms.append((time.perf_counter() - due) * 1000.0)
            request = traffic.next(0)
            task = asyncio.ensure_future(
                _send(clients[index % CONNECTIONS], traffic, request, outcome, phase, due)
            )
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            index += 1
        if tasks:
            await asyncio.gather(*tasks)
    phase.seconds = (seconds if seconds is not None else time.perf_counter() - start)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    phase.cpu_seconds = usage.ru_utime + usage.ru_stime - cpu_before
    ticks = [after - before for before, after in zip(ticks_before, _cpu_ticks())]
    phase.steal_frac = _ratio(ticks[7], sum(ticks[:8]))
    return phase


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def quantile(values: list, q: float) -> float:
    """Nearest-rank quantile of an unsorted list (0.0 when empty)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered))) - 1))
    return ordered[rank]


def end_to_end(workload, phase: Phase) -> dict:
    """Throughput counts requests answered OK, over the time from the
    window's start to the last answer; goodput counts only those within
    the workload's latency limit."""
    samples = phase.samples
    ok = [s for s in samples if s.status == "ok"]
    elapsed = max((s.done for s in samples), default=phase.started) - phase.started
    writes = [s.ms for s in ok if s.kind == "write"]
    reads = [s.ms for s in ok if s.kind == "read"]
    return {
        "ops_per_s": _ratio(len(ok), elapsed),
        "goodput_ops_per_s": _ratio(
            sum(1 for s in ok if s.ms <= workload.limit_ms), elapsed
        ),
        "write_p50_ms": quantile(writes, 0.50),
        "write_p99_ms": quantile(writes, 0.99),
        "read_p50_ms": quantile(reads, 0.50),
        "read_p99_ms": quantile(reads, 0.99),
    }


def _counter(delta: dict, name: str) -> float:
    return float(delta.get(name, {}).get("value", 0))


def _sum(delta: dict, name: str) -> float:
    return float(delta.get(name, {}).get("sum", 0.0))


def _mean(delta: dict, name: str, scale: float = 1.0) -> float:
    entry = delta.get(name, {})
    count = entry.get("count", 0)
    return entry.get("sum", 0.0) * scale / count if count else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(delta: dict, startup: dict, traced: Phase, untraced: Phase) -> dict:
    """The per-layer table from a traced window's registry delta.

    Histograms give means (count and sum are all the registry keeps);
    ``span.*`` and ``lock.wait.*`` histograms hold seconds, the others
    milliseconds.  "Per op" divides by operations the committer applied.
    """
    ok = [s for s in traced.samples if s.status == "ok"]
    client_ms = statistics.fmean(s.ms for s in ok) if ok else 0.0
    baseline = [s.ms for s in untraced.samples if s.status == "ok"]
    applied = _counter(delta, "batcher.ops.applied")
    batches = _counter(delta, "batcher.batches")
    server_ms = _mean(delta, "net.request_ms")
    dispatch_ms = _mean(delta, "bench.net.dispatch_ms")
    residence_ms = _mean(delta, "bench.router.residence_ms")
    commit_ms = _mean(delta, "span.service.commit", 1000.0)
    parse_hits = _counter(delta, "cache.parse.hits")
    plan_hits = _counter(delta, "cache.plan.hits")
    dispatches = delta.get("bench.net.dispatch_ms", {}).get("count", 0)
    return {
        "net.server_ms": server_ms,
        "net.client_wire_ms": client_ms - (residence_ms or server_ms),
        "net.dispatch_ms": dispatch_ms,
        "net.handoff_ms": server_ms - dispatch_ms,
        "net.codec_ms": _ratio(
            _sum(delta, "bench.net.codec_ms"), _counter(delta, "net.requests")
        ),
        "net.busy_rejects": _counter(delta, "net.rejected")
        + _counter(delta, "router.busy"),
        "router.hop_ms": residence_ms - server_ms if residence_ms else 0.0,
        "router.forwarded": _counter(delta, "router.forwarded"),
        "router.busy": _counter(delta, "router.busy"),
        "batcher.ops_per_commit": _ratio(applied, batches),
        "batcher.commit_ms": commit_ms,
        "batcher.queue_wait_ms": _mean(delta, "bench.batcher.ticket_wait_ms")
        - commit_ms,
        "batcher.coalesced_frac": _ratio(
            _counter(delta, "batcher.ops_coalesced"), applied
        ),
        "wal.fsyncs_per_op": _ratio(_counter(delta, "wal.fsyncs"), applied),
        "wal.fsync_ms": _mean(delta, "span.wal.fsync", 1000.0),
        "wal.append_ms": _mean(delta, "span.wal.append", 1000.0),
        "wal.bytes_per_op": _ratio(_counter(delta, "wal.bytes"), applied),
        "service.apply_ms": _ratio(_sum(delta, "span.service.apply") * 1000.0, applied),
        "service.query_ms": _mean(delta, "span.service.query", 1000.0),
        "lock.read_wait_ms": _mean(delta, "lock.wait.read", 1000.0),
        "lock.write_wait_ms": _mean(delta, "lock.wait.write", 1000.0),
        "checkpoint.count": _counter(delta, "checkpoint.count"),
        "checkpoint.ms": _mean(delta, "span.service.checkpoint", 1000.0),
        "checkpoint.bytes_per_op": _ratio(
            _counter(delta, "checkpoint.snapshot_bytes"), applied
        ),
        "recovery.replay_ms": _mean(startup, "span.recovery.replay", 1000.0),
        "updates.apply_delta_ms": _mean(delta, "bench.updates.apply_delta_ms"),
        "updates.diff_ms": _mean(delta, "bench.updates.diff_ms"),
        "xmlmodel.parse_ms": _mean(delta, "bench.xmlmodel.parse_ms"),
        "xmlmodel.serialize_ms": _mean(delta, "bench.xmlmodel.serialize_ms"),
        "xquery.parse_ms": _mean(delta, "bench.xquery.parse_ms"),
        "xquery.execute_ms": _mean(delta, "bench.xquery.execute_ms"),
        "cache.parse.hit_frac": _ratio(
            parse_hits, parse_hits + _counter(delta, "cache.parse.misses")
        ),
        "sql.statements_per_write": _ratio(
            _counter(delta, "sql.statements.client")
            + _counter(delta, "sql.statements.trigger"),
            applied,
        ),
        "sql.translate_ms": _mean(delta, "span.sql.translate", 1000.0),
        "cache.plan.hit_frac": _ratio(
            plan_hits, plan_hits + _counter(delta, "cache.plan.misses")
        ),
        "store.query_ms": _mean(delta, "bench.store.query_ms"),
        "store.reconstruct_ms": _mean(delta, "span.store.reconstruct", 1000.0),
        "store.delete_ms": _mean(delta, "bench.store.delete_ms"),
        "store.copy_ms": _mean(delta, "bench.store.copy_ms"),
        "sql.pool.refresh_ms": _mean(delta, "sql.pool.refresh_ms"),
        "sql.pool.refreshes_per_commit": _ratio(
            _counter(delta, "sql.pool.refreshes"), batches
        ),
        "sql.pool.wait_ms": _mean(delta, "sql.pool.wait_ms"),
        "gen.lateness_p99_ms": quantile(traced.lateness_ms, 0.99),
        "gen.cpu_frac": _ratio(traced.cpu_seconds, traced.seconds),
        "unattributed_ms": dispatch_ms
        - _ratio(_sum(delta, "bench.dispatch.covered_ms"), dispatches),
        "trace.overhead_frac": _ratio(client_ms, statistics.fmean(baseline)) - 1.0
        if baseline
        else 0.0,
    }


# ----------------------------------------------------------------------
# One measured deployment
# ----------------------------------------------------------------------
@dataclass
class Measured:
    window: Phase
    setups: list
    peak_rss_mb: float
    problems: list
    delta: dict = field(default_factory=dict)
    startup: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0


async def measure(workload, directory: str, seconds: float, trace: bool, starts: int):
    """Prepare a data directory, restart on it ``starts`` times (each a
    timed cold start that loads, shreds and recovers), warm up, measure
    one window, then check every output."""
    from perfbench.workloads import Outcome
    from repro.obs import delta as registry_delta

    outcome = Outcome()
    prep = Deployment(workload, directory, trace, "prep")
    await prep.start()
    try:
        traffic = workload.traffic(prep.ready)
        await run_phase(prep, traffic, outcome, ops=workload.prep_ops)
    finally:
        await prep.stop()
    setups = []
    deployment = None
    for index in range(starts):
        deployment = Deployment(workload, directory, trace, f"start{index}")
        setups.append(await deployment.start())
        if index < starts - 1:
            await deployment.stop()
    try:
        startup = await deployment.stats() if trace else {}
        # The generator's own collections would pause every stream at
        # once, for longer as its list of samples grows (~200 ms late in
        # a 40 s feed window).  Reference counting frees nearly all the
        # garbage it makes, so collect now and not again until after.
        gc.collect()
        gc.disable()
        await run_phase(deployment, traffic, outcome, seconds=WARMUP_SECONDS)
        before = await deployment.stats() if trace else {}
        window = await run_phase(deployment, traffic, outcome, seconds=seconds)
        after = await deployment.stats() if trace else {}
        gc.enable()
        live = {}
        for name in sorted({request.doc for request in workload.probes()}):
            live[name] = await deployment.clients[0].query(name)
        rss = deployment.peak_rss_mb()
    finally:
        gc.enable()
        await deployment.stop()
    wrong = sum(1 for sample in window.samples if sample.status == "wrong")
    problems = [f"{wrong} responses disagree with the model"] if wrong else []
    problems += traffic.check_final(outcome, live)
    recovered = traffic.recover_offline(os.path.join(directory, "data"))
    problems += [
        f"{name}: offline recovery differs from the live text"
        for name in sorted(live)
        if recovered.get(name) != live[name]
    ]
    return Measured(
        window=window,
        setups=setups,
        peak_rss_mb=rss,
        problems=problems,
        delta=registry_delta(before, after) if trace else {},
        startup=startup,
        attempted=len(window.samples),
        failed=sum(1 for sample in window.samples if sample.status != "ok"),
    )


def print_table(title: str, rows: dict, units: dict) -> None:
    print(f"-- {title}")
    for name, value in rows.items():
        print(f"   {name:32s} {value:14.4f} {units.get(name, '')}")


async def main_async(args) -> int:
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    work = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    stamp = provenance()
    print(
        f"-- perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} loop={workload.loop} {json.dumps(stamp, sort_keys=True)}"
    )
    try:
        if args.trace:
            untraced = await measure(
                workload, os.path.join(work, "untraced"), args.seconds, False, 1
            )
            result = await measure(
                workload, os.path.join(work, "traced"), args.seconds, True, 1
            )
            problems = untraced.problems + result.problems
            metrics = per_layer(result.delta, result.startup, result.window, untraced.window)
            units = dict(PER_LAYER)
        else:
            result = await measure(
                workload, os.path.join(work, "run"), args.seconds, False, SETUP_REPEATS
            )
            problems = result.problems
            metrics = end_to_end(workload, result.window)
            metrics["setup_s"] = statistics.median(result.setups)
            metrics["peak_rss_mb"] = result.peak_rss_mb
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    window = result.window
    counts = {
        kind: sum(1 for s in window.samples if s.kind == kind and s.status == "ok")
        for kind in ("write", "read")
    }
    error_frac = _ratio(result.failed, result.attempted)
    print(
        f"-- window: {result.attempted} attempted, {counts['write']} writes ok, "
        f"{counts['read']} reads ok, error_frac={error_frac:.6f}, "
        f"latency limit {workload.limit_ms} ms, "
        f"setups {[round(s, 4) for s in result.setups]}, "
        f"host steal {window.steal_frac:.3f}"
    )
    print_table("metrics", metrics, units)
    for problem in problems:
        print(f"-- CHECK FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace else END_TO_END)
                },
            }
        )
    )
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["feed", "store", "statements"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    return asyncio.run(main_async(args))


if __name__ == "__main__":
    sys.exit(main())
