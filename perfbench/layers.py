"""Per-layer metrics from the span files of one traced run.

Layers are named by module.  Within a process a span's self time is its
duration minus its children's; across processes, a worker's
``worker.handle`` span lies inside the router's send/receive on that
worker's socket (the router holds a per-shard lock around each round
trip, so the match is unambiguous).  A router call's round trips form
*groups* — the sends to one or more shards, then the receives — and a
group's blocking child is its slowest worker.

Only spans that start inside a timed window count, except the
``store.open`` spans of the restart that follows each window.
"""

from __future__ import annotations

import bisect
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROUTER_CALLS = ("router.query", "router.insert", "router.apply_batch")
STORE_WRITES = (
    "store.insert",
    "store.delete",
    "store.apply_batch",
    "store.commit_batch",
    "store.log_reject",
)
WORKER_OPS = ("query", "fetch", "insert", "prepare", "commit", "abort")
#: How far a worker span may poke out of its round trip: the two ends
#: are read in different processes.
_SLACK_S = 50e-6


class Process:
    """The spans of one process, with the children of each span."""

    def __init__(self, role: str, shard, spans: list) -> None:
        self.role = role
        self.shard = shard
        self.spans = spans
        self.children: dict[int, list[int]] = defaultdict(list)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for index, span in enumerate(spans):
            self.by_name[span[0]].append(index)
            if span[3] >= 0:
                self.children[span[3]].append(index)

    def named(self, name: str, ranges) -> list[int]:
        """The spans called ``name`` that start inside one of ``ranges``."""
        return [
            index
            for index in self.by_name.get(name, ())
            if any(low <= self.spans[index][1] <= high for low, high in ranges)
        ]

    def duration(self, index: int) -> float:
        span = self.spans[index]
        return span[2] - span[1]

    def self_time(self, index: int, exclude=None) -> float:
        """Duration minus the children's (or only the children named in
        ``exclude``, when given)."""
        return self.duration(index) - sum(
            self.duration(child)
            for child in self.children.get(index, ())
            if exclude is None or self.spans[child][0] in exclude
        )


def load(spans_dir: Path) -> list[Process]:
    processes = []
    for path in sorted(spans_dir.glob("*.json")):
        payload = json.loads(path.read_text())
        processes.append(Process(payload["role"], payload["shard"], payload["spans"]))
    return processes


def _total(process: Process, indices) -> float:
    return sum(process.duration(index) for index in indices)


def _groups(router: Process, call: int) -> list[dict]:
    """The round-trip groups under one router call, in order: each is
    a run of sends followed by the receives of the same shards."""
    groups: list[dict] = []
    current = None
    for child in sorted(router.children.get(call, ()), key=lambda i: router.spans[i][1]):
        name, start, end, _, _, extra = router.spans[child]
        if name not in ("wire.send", "wire.recv"):
            continue
        shard = extra[0]
        if name == "wire.send":
            if current is None or current["received"]:
                current = {"start": start, "end": end, "shards": {}, "received": False}
                groups.append(current)
            current["shards"][shard] = [start, end]
        else:
            current["received"] = True
            current["shards"][shard][1] = end
            current["end"] = end
    return groups


def per_layer(spans_dir: Path, *, summary: dict, windows: list, untraced_rates: list, shards: int) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``, aggregated
    over the traced run's timed ``windows``."""
    processes = load(spans_dir)
    ranges = [w["window"] for w in windows]
    wall = sum(window["wall"] for window in windows)
    routers = [p for p in processes if p.role == "router"]
    workers = [p for p in processes if p.role == "worker"]
    logs = [log for window in windows for log in window["logs"]]
    requests = sum(len(log.kinds) for log in logs)
    queries = sum(log.kinds.count("read") for log in logs)
    client_latency = sum(sum(log.latencies) for log in logs)

    # -- shard.frontend and shard.router (router process) ---------------------
    router_time = front_time = router_self = gather_eval = 0.0
    gathered = rpcs = wire_bytes = 0
    groups = []
    # The router's own time excludes its round trips.  On the inline
    # one-shard path everything under a router call is the in-process
    # server's work, so there the router keeps only its call overhead.
    not_router = ("wire.send", "wire.recv") if shards > 1 else None
    for router in routers:
        front_time += _total(router, router.named("front.request", ranges))
        for name in ROUTER_CALLS:
            for call in router.named(name, ranges):
                router_time += router.duration(call)
                router_self += router.self_time(call, exclude=not_router)
                for child in router.children.get(call, ()):
                    child_name = router.spans[child][0]
                    if child_name == "wire.send":
                        rpcs += 1
                        wire_bytes += router.spans[child][5][1]
                    if shards > 1 and name == "router.query" and child_name == "engine.query":
                        gathered += 1
                        gather_eval += router.duration(child)
                groups.extend(_groups(router, call))

    # -- shard.worker, matched into the router's round-trip groups ------------
    by_shard: dict[int, list] = defaultdict(list)
    for group in groups:
        for shard, (start, end) in group["shards"].items():
            by_shard[shard].append((start, end, group))
    for intervals in by_shard.values():
        intervals.sort(key=lambda item: item[0])
    handle_time: dict[str, list[float]] = defaultdict(list)
    busy: dict[int, float] = defaultdict(float)
    for worker in workers:
        handles = worker.named("worker.handle", ranges)
        busy[worker.shard] += _total(worker, handles)
        starts = [item[0] for item in by_shard.get(worker.shard, [])]
        for index in handles:
            op = worker.spans[index][5]
            handle_time[op].append(worker.duration(index))
            position = bisect.bisect_right(starts, worker.spans[index][1] + _SLACK_S) - 1
            if position >= 0:
                start, end, group = by_shard[worker.shard][position]
                if worker.spans[index][2] <= end + _SLACK_S:
                    group["blocking"] = max(group.get("blocking", 0.0), worker.duration(index))
        wire_bytes += sum(worker.spans[i][5] for i in worker.named("wire.reply", ranges))
    wire_wait = sum(
        (group["end"] - group["start"]) - group.get("blocking", 0.0) for group in groups
    )
    blocking = sum(group.get("blocking", 0.0) for group in groups)

    # -- service.store, service.wal, core.*, compile (every process) ----------
    store_self = 0.0
    store_writes = 0
    append_time = fsync_time = 0.0
    appends = fsyncs = 0
    engine_query_self = 0.0
    engine_queries = 0
    plan_time = 0.0
    plans = plan_misses = 0
    insert_time = []
    batch_time = 0.0
    batch_updates = 0
    block_time = 0.0
    block_ops = 0
    cache_gets = cache_hits = 0
    cache_time = 0.0
    built = 0
    build_time = run_time = 0.0
    for process in processes:
        spans = process.spans
        for name in STORE_WRITES:
            for index in process.named(name, ranges):
                store_writes += 1
                store_self += process.self_time(index)
        for index in process.named("wal.append", ranges):
            appends += 1
            append_time += process.self_time(index, exclude=("wal.sync",))
        for index in process.named("os.fsync", ranges):
            fsyncs += 1
            fsync_time += process.duration(index)
        for index in process.named("engine.query", ranges):
            engine_queries += 1
            engine_query_self += process.self_time(index)
        for index in process.named("engine.plan", ranges):
            plans += 1
            plan_time += process.duration(index)
        plan_misses += len(process.named("engine.plan_miss", ranges))
        insert_time.extend(process.duration(i) for i in process.named("engine.insert", ranges))
        for index in process.named("engine.batch", ranges):
            batch_time += process.duration(index)
            batch_updates += spans[index][5]
        for index in process.named("ctm.block_batch", ranges):
            block_time += process.duration(index)
            block_ops += spans[index][5]
        for index in process.named("readcache.get", ranges):
            cache_gets += 1
            cache_hits += 1 if spans[index][5] else 0
            cache_time += process.duration(index)
        for index in process.named("compile.build", ranges):
            built += 1
            build_time += process.duration(index)
        for index in process.named("compile.run", ranges):
            if spans[index][3] >= 0 and spans[spans[index][3]][0] == "engine.query":
                run_time += process.duration(index)

    # -- recovery: per restart, the slowest store to open (shards open in
    # parallel), and the records every store of that restart replayed.
    recovery, replayed = [], []
    for window in windows:
        opens = [
            (process, index)
            for process in processes
            for index in process.named("store.open", [window["restart"]])
        ]
        if opens:
            recovery.append(max(process.duration(index) for process, index in opens))
            replayed.append(sum(process.spans[index][5] for process, index in opens))

    # -- reconciliation --------------------------------------------------------
    # Exclusive times along each request's blocking path: the frontend's
    # own share, the router's own share (with its round trips replaced
    # by their wall time), the wire's share of each round trip, and the
    # blocking worker's whole handle.  Whatever client-seen latency is
    # left over (socket transfer and the client's own time) is the
    # reconciliation error.
    front_self = front_time - router_time
    router_self_blocking = router_time - sum(group["end"] - group["start"] for group in groups)
    exclusive = front_self + router_self_blocking + wire_wait + blocking
    accepted_updates = summary["accepted_updates"]

    def per(value, count):
        return value / count if count else 0.0

    ms = 1e3
    metrics = {
        "frontend.self_ms_per_req": (per(client_latency - router_time, requests) * ms, "ms"),
        "frontend.coalesced_reads": (sum(w["coalesced_reads"] for w in windows), "count"),
        "router.self_ms_per_req": (per(router_self, requests) * ms, "ms"),
        "router.gather_eval_ms_per_query": (per(gather_eval, gathered) * ms, "ms"),
        "router.gather_frac": (per(gathered, queries), "ratio"),
        "router.rpcs_per_req": (per(rpcs, requests), "count"),
        "wire.bytes_per_req": (per(wire_bytes, requests), "bytes"),
        "wire.wait_ms_per_req": (per(wire_wait, requests) * ms, "ms"),
    }
    for op in WORKER_OPS:
        samples = handle_time.get(op, [])
        metrics[f"worker.handle_ms.{op}"] = (per(sum(samples), len(samples)) * ms, "ms")
    metrics["worker.busy_frac_max"] = (max(busy.values(), default=0.0) / wall, "ratio")
    metrics.update(
        {
            "store.self_ms_per_write": (per(store_self, store_writes) * ms, "ms"),
            "store.recovery_ms": (statistics.median(recovery) * ms if recovery else 0.0, "ms"),
            "store.replayed_records": (statistics.median(replayed) if replayed else 0, "count"),
            "wal.appends_per_update": (per(appends, accepted_updates), "count"),
            "wal.fsyncs_per_req": (per(fsyncs, requests), "count"),
            "wal.append_ms_per_update": (per(append_time, accepted_updates) * ms, "ms"),
            "wal.fsync_ms_per_req": (per(fsync_time, requests) * ms, "ms"),
            "engine.query_self_ms": (per(engine_query_self, engine_queries) * ms, "ms"),
            "engine.plan_ms_per_req": (per(plan_time, requests) * ms, "ms"),
            "engine.plan_miss_rate": (per(plan_misses, plans), "ratio"),
            "engine.insert_ms": (per(sum(insert_time), len(insert_time)) * ms, "ms"),
            "engine.batch_ms_per_update": (per(batch_time, batch_updates) * ms, "ms"),
            "ctm.block_batch_ms_per_update": (per(block_time, block_ops) * ms, "ms"),
            "readcache.hit_rate": (per(cache_hits, cache_gets), "ratio"),
            "readcache.get_ms_per_call": (per(cache_time, cache_gets) * ms, "ms"),
            "compile.programs_built": (built, "count"),
            "compile.build_ms": (build_time * ms, "ms"),
            "compile.run_ms_per_query": (per(run_time, queries) * ms, "ms"),
            "client.cpu_frac": (sum(w["client_cpu_s"] for w in windows) / wall, "ratio"),
            "trace.overhead_frac": (
                1.0 - per(statistics.median(summary["rates"]), statistics.median(untraced_rates)),
                "ratio",
            ),
            "trace.reconcile_err_frac": (
                abs(exclusive - client_latency) / client_latency if client_latency else 0.0,
                "ratio",
            ),
        }
    )
    return metrics
