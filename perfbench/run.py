"""End-to-end benchmark of the sharded TCP server, with per-layer tracing.

Run from the root of a checkout::

    python3 perfbench/run.py --workload write_mix_s2 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the workload once untraced and once under the traced
launcher and reports the per-layer metrics.  ``--steady N`` runs every
named workload N times (seeds ``seed .. seed+N-1``) as separate
processes and prints each end-to-end metric's median, quartiles and
spread next to its bound in ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; every line
before it is a human-readable account of the run (its record).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh servers per run.  A run starts one server after another, each
#: on a fresh store, and each serves one window of the workload's fixed
#: request count, until the windows add up to ``--seconds`` (but at
#: least ``MIN_LIFETIMES``, so every tail keeps its samples).  Each is
#: then killed and restarted on its store.  ``setup_s`` and
#: ``recovery_s`` are the medians of those set-ups and restarts, and
#: every other timing is pooled or a median over the windows, so one
#: run's figures span several process lifetimes instead of resting on
#: one.
MIN_LIFETIMES = 4
MAX_LIFETIMES = 20
FSYNC_EVERY = 1  # the CLI default; recorded, never passed


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no repro package under {SRC}; run from the root of a "
            "full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# -- one server's life --------------------------------------------------------
class _Deployment:
    """Builds the servers of one run inside its work directory and
    makes sure none outlives the run.  With a ``launcher`` (the traced
    one) servers are stopped cleanly, so that they write their spans."""

    def __init__(self, work: Path, shards: int, launcher=None) -> None:
        import server as server_mod
        import workload as workload_mod
        from repro.io import dump_scheme

        work.mkdir(parents=True, exist_ok=True)
        self.work = work
        self.shards = shards
        self.launcher = launcher
        self.scheme_path = work / "scheme.json"
        dump_scheme(workload_mod.scheme(), self.scheme_path)
        self._server_mod = server_mod
        self.live: list = []

    def server(self, store: Path):
        server = self._server_mod.Server(
            ROOT,
            self.scheme_path,
            store,
            self.shards,
            self.work / f"server{len(self.live)}.log",
            launcher=self.launcher,
        )
        self.live.append(server)
        return server

    def end(self, server) -> None:
        if self.launcher is None:
            server.kill()
        else:
            server.stop()

    def close(self) -> None:
        for server in self.live:
            server.kill()
        self.live = []


def _setup(deployment: _Deployment, store: Path):
    """Spawn a server on a fresh store, load the seed state and get a
    first answer.  Returns ``(server, socket, seconds)``."""
    import client
    import workload as workload_mod

    began = time.perf_counter()
    server = deployment.server(store)
    server.start()
    sock = server.connect()
    seeded = client.call(
        sock,
        {"op": "batch", "updates": [list(u) for u in workload_mod.seed_updates()]},
    )
    if not seeded.get("ok") or not seeded["outcome"]["committed"]:
        raise RuntimeError(f"seed load failed: {seeded}")
    first = client.call(
        sock, {"op": "query", "target": workload_mod.cross_block_target(0)}
    )
    if not first.get("ok") or not first["rows"]:
        raise RuntimeError(f"first query failed: {first}")
    return server, sock, time.perf_counter() - began


def _wal_bytes(stats: dict) -> float:
    """Bytes appended to every WAL of the deployment so far, from the
    server's own ``wal.append`` span counters."""
    total = stats.get("span_counters", {}).get("wal.append.bytes", 0)
    for shard in stats.get("shards", {}).values():
        total += shard.get("span_counters", {}).get("wal.append.bytes", 0)
    return total


def _snapshots(metrics: dict) -> int:
    """Snapshots written so far, summed over the deployment's stores."""
    return sum(
        value for name, value in metrics.items()
        if name.split("{")[0] == "store.snapshots"
    )


def _window(server, socks, workload, seed, requests) -> dict:
    """One timed closed-loop window of ``requests`` per connection,
    plus the server-side counters around it."""
    import client
    import server as server_mod
    import workload as workload_mod

    before = client.call(socks[0], {"op": "stats"})["stats"]
    snapshots = _snapshots(client.call(socks[0], {"op": "metrics"})["metrics"])
    streams = [
        workload_mod.request_stream(workload, seed, connection)
        for connection in range(workload_mod.CONNECTIONS)
    ]
    cpu_before = time.process_time()
    window_start = time.perf_counter()
    logs, wall = client.closed_loop(socks, streams, requests)
    window_end = time.perf_counter()
    client_cpu = time.process_time() - cpu_before
    rss = server_mod.peak_rss_mb(server.pids())
    after = client.call(socks[0], {"op": "stats"})["stats"]
    metrics = client.call(socks[0], {"op": "metrics"})["metrics"]
    return {
        "logs": logs,
        "wall": wall,
        "window": (window_start, window_end),
        "client_cpu_s": client_cpu,
        "rss_mb": rss,
        "wal_bytes": _wal_bytes(after) - _wal_bytes(before),
        "coalesced_reads": metrics.get("front.coalesced_reads", 0),
        "auto_snapshots": _snapshots(metrics) - snapshots,
    }


def _recover(deployment: _Deployment, server, window: dict) -> None:
    """End ``server`` (a SIGKILL, or a clean stop under the traced
    launcher) and restart ``serve`` on its store.  Records in
    ``window`` the time from the kill to the first ok reply, when the
    restart ran, and the answers to the durability check's queries.
    The store replays the whole window's log: a fixed amount, because
    every window sends the same requests and none reaches the automatic
    snapshot."""
    import client

    began = time.perf_counter()
    deployment.end(server)
    restarted = deployment.server(server.store)
    restarted.start()
    sock = restarted.connect()
    try:
        pong = client.call(sock, {"op": "ping"})
        if not pong.get("ok"):
            raise RuntimeError(f"restarted server is not answering: {pong}")
        window["recovery_s"] = time.perf_counter() - began
        window["restart"] = (began, time.perf_counter())
        window["answers"] = {
            ",".join(target): client.call(sock, {"op": "query", "target": target})
            for target in _final_targets()
        }
    finally:
        sock.close()
        deployment.end(restarted)


def _final_targets() -> list[list[str]]:
    import workload as workload_mod

    scheme = workload_mod.scheme()
    return [
        sorted(scheme[f"T{tile}{relation}"].attributes)
        for tile in range(workload_mod.TILES)
        for relation in ("R1", "R4", "R5")
    ]


def _measure(workload, seed, seconds, work: Path, recover: bool, launcher=None, requests=None):
    """Fresh servers one after another, each on a fresh store and
    serving one window of ``requests`` per connection (the workload's
    count by default), until the windows' wall time reaches ``seconds``
    and there are at least ``MIN_LIFETIMES`` of them.  With ``recover``
    each server is killed after its window and restarted on its store,
    so set-ups and restarts are both spread over the whole run."""
    import workload as workload_mod

    requests = requests or workload.requests
    deployment = _Deployment(work, workload.shards, launcher)
    windows = []
    socks = []
    try:
        while len(windows) < MAX_LIFETIMES and (
            len(windows) < MIN_LIFETIMES
            or sum(window["wall"] for window in windows) < seconds
        ):
            server, sock, setup = _setup(deployment, work / f"store{len(windows)}")
            socks = [sock] + [
                server.connect() for _ in range(workload_mod.CONNECTIONS - 1)
            ]
            window = _window(server, socks, workload, seed, requests)
            window["setup_s"] = setup
            for open_sock in socks:
                open_sock.close()
            socks = []
            if recover:
                _recover(deployment, server, window)
            else:
                deployment.end(server)
            windows.append(window)
    finally:
        for open_sock in socks:
            open_sock.close()
        deployment.close()
    return windows


# -- checking ------------------------------------------------------------------
def _verify(workload_name, seed, windows):
    """Check every response of every window against the oracle, one
    process per connection.  All windows of a run share the seed, so
    one replay serves them all."""
    import workload as workload_mod

    jobs = [
        (
            workload_name,
            seed,
            connection,
            [
                [
                    workload_mod.body_digest(body) if body is not None else b""
                    for body in window["logs"][connection].bodies
                ]
                for window in windows
            ],
        )
        for connection in range(workload_mod.CONNECTIONS)
    ]
    # Forked, not spawned: spawning starts multiprocessing's resource
    # tracker, a process that outlives this one for a moment.
    context = multiprocessing.get_context("fork")
    with context.Pool(len(jobs)) as pool:
        return pool.starmap(workload_mod.verify, jobs)


def _summarise(workload, windows, verdicts, first=0):
    """Latencies and throughput of ``windows`` (verdict phases
    ``first`` on), and every failure.  A request fails when its
    connection broke, the server answered with an error, or the answer
    differs from the oracle's."""
    import stats

    latencies: dict[str, list[list[float]]] = {"read": [], "write": [], "batch": []}
    attempted = 0
    failures = []
    rates = []
    accepted = 0
    for offset, window in enumerate(windows):
        phase = first + offset
        window_failures = 0
        for samples in latencies.values():
            samples.append([])
        for connection, log in enumerate(window["logs"]):
            expected = {
                index: body
                for phase_no, index, body in verdicts[connection]["mismatches"]
                if phase_no == phase
            }
            for index, (kind, payload, body, latency) in enumerate(
                zip(log.kinds, log.payloads, log.bodies, log.latencies)
            ):
                attempted += 1
                latencies[kind][-1].append(latency)
                if body is None or index in expected:
                    window_failures += 1
                    failures.append(
                        {
                            "window": offset,
                            "connection": connection,
                            "index": index,
                            "request": payload,
                            "response": None if body is None else body.decode(),
                            "expected": expected.get(index),
                        }
                    )
        sent = sum(len(log.kinds) for log in window["logs"])
        rates.append((sent - window_failures) / window["wall"])
        accepted += sum(verdict["accepted_updates"][phase] for verdict in verdicts)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "rates": rates,
        "accepted_updates": accepted,
        "timings": {
            kind: stats.timing(samples, workload.tails[kind])
            for kind, samples in latencies.items()
        },
        "failures": failures,
    }


def _durability_failures(verdicts, windows):
    """Every answer a restarted server gave that differs from the
    oracle's final state (an acknowledged write that was lost, or one
    that appeared from nowhere)."""
    failures = []
    for offset, window in enumerate(windows):
        for verdict in verdicts:
            for target, rows in verdict["final_answers"].items():
                got = window["answers"].get(target)
                if got is None or not got.get("ok") or got["rows"] != rows:
                    failures.append(
                        {"window": offset, "target": target, "expected_rows": len(rows), "got": got}
                    )
    return failures


def _end_to_end(summary, windows) -> dict:
    timings = summary["timings"]
    metrics = {
        "setup_s": (statistics.median(w["setup_s"] for w in windows), "s"),
        "ops_per_s": (statistics.median(summary["rates"]), "1/s"),
    }
    for kind in ("read", "write", "batch"):
        metrics[f"{kind}_p50_ms"] = (timings[kind].get("p50_ms", 0.0), "ms")
        metrics[f"{kind}_tail_ms"] = (timings[kind].get("tail_ms", 0.0), "ms")
    metrics["recovery_s"] = (statistics.median(w["recovery_s"] for w in windows), "s")
    metrics["wal_bytes_per_update"] = (
        sum(window["wal_bytes"] for window in windows)
        / max(1, summary["accepted_updates"]),
        "bytes",
    )
    metrics["rss_mb"] = (statistics.median(w["rss_mb"] for w in windows), "MB")
    return metrics


def _run_record(workload, seed, seconds, trace) -> dict:
    import workload as workload_mod
    from repro.core.partition import scheme_fingerprint

    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "shards": workload.shards,
        "connections": workload_mod.CONNECTIONS,
        "loop": "closed",
        "fsync_every": FSYNC_EVERY,
        "scheme": f"tiled_university({workload_mod.TILES})",
        "scheme_fingerprint": scheme_fingerprint(workload_mod.scheme()),
        "unmeasured": {
            "service.replica": (
                "no TCP entry point: followers are reachable only through "
                "the line protocol (serve --replicas), not serve --port"
            ),
            "frontend.coalescing": (
                "needs many concurrent identical reads; 2 connections "
                "owning disjoint tiles never send the same target at once"
            ),
        },
    }


# -- the two run modes -----------------------------------------------------------
def run_untraced(workload, seed, seconds, work: Path, requests=None) -> dict:
    """The end-to-end metrics, measured with tracing off."""
    windows = _measure(workload, seed, seconds, work, True, requests=requests)
    verdicts = _verify(workload.name, seed, windows)
    summary = _summarise(workload, windows, verdicts)
    durability = _durability_failures(verdicts, windows)
    record = _run_record(workload, seed, seconds, 0)
    record.update(
        {
            "samples": summary["timings"],
            "requests_per_window": sum(len(log.kinds) for log in windows[0]["logs"]),
            "ops_per_s_each": summary["rates"],
            "auto_snapshots_each": [w["auto_snapshots"] for w in windows],
            "setup_s_each": [w["setup_s"] for w in windows],
            "recovery_s_each": [w["recovery_s"] for w in windows],
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "failed_frac": summary["failed"] / max(1, summary["attempted"]),
            "accepted_updates": summary["accepted_updates"],
            "client_cpu_frac": sum(w["client_cpu_s"] for w in windows)
            / sum(w["wall"] for w in windows),
            "durability_failures": durability,
        }
    )
    return {
        "record": record,
        "failures": summary["failures"],
        "correct": not summary["failures"] and not durability,
        "attempted": summary["attempted"],
        "failed": summary["failed"] + len(durability),
        "metrics": _end_to_end(summary, windows),
    }


def run_traced(workload, seed, seconds, work: Path, requests=None) -> dict:
    """The per-layer metrics: the workload untraced (for the tracing
    overhead), then under the traced launcher with a restart after each
    window (for the recovery spans), each for half of ``seconds``."""
    import layers

    seconds = seconds / 2
    untraced = _measure(workload, seed, seconds, work / "untraced", False, requests=requests)
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True)
    launcher = [str(HERE / "traced_serve.py"), "--spans", str(spans_dir), "--"]
    traced = _measure(
        workload, seed, seconds, work / "traced", True, launcher=launcher, requests=requests
    )
    verdicts = _verify(workload.name, seed, untraced + traced)
    plain = _summarise(workload, untraced, verdicts)
    summary = _summarise(workload, traced, verdicts, first=len(untraced))
    durability = _durability_failures(verdicts, traced)
    metrics = layers.per_layer(
        spans_dir,
        summary=summary,
        windows=traced,
        untraced_rates=plain["rates"],
        shards=workload.shards,
    )
    record = _run_record(workload, seed, seconds, 1)
    record.update(
        {
            "samples": summary["timings"],
            "untraced_samples": plain["timings"],
            "durability_failures": durability,
        }
    )
    failures = plain["failures"] + summary["failures"]
    return {
        "record": record,
        "failures": failures,
        "correct": not failures and not durability,
        "attempted": plain["attempted"] + summary["attempted"],
        "failed": len(failures) + len(durability),
        "metrics": metrics,
    }


# -- steadiness mode -------------------------------------------------------------
def steadiness(workloads, seed, seconds, runs) -> int:
    """Run each workload ``runs`` times as separate processes, the way
    the benchmark is meant to be run, and print every end-to-end
    metric's median, quartiles and spread (quartile distance over
    median) next to its bound.  Exits non-zero when any run fails or
    is incorrect, or when any spread, ``setup_s``'s included, reaches
    its bound."""
    import stats

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    worst = 0.0
    bad_runs = 0
    for name in workloads:
        values: dict[str, list[float]] = {}
        for offset in range(runs):
            done = subprocess.run(
                [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name,
                    "--seed", str(seed + offset),
                    "--seconds", str(seconds),
                    "--trace", "0",
                ],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
            if done.returncode != 0 or not result.get("correct"):
                bad_runs += 1
                print(f"{name} seed {seed + offset} FAILED (exit {done.returncode})")
                print(done.stdout[-4000:] + done.stderr[-4000:], flush=True)
                continue
            figures = {k: v["value"] for k, v in result["metrics"].items()}
            for metric, value in figures.items():
                values.setdefault(metric, []).append(value)
            print(f"{name} seed {seed + offset} correct: {json.dumps(figures)}", flush=True)
        for metric, series in values.items():
            if len(series) < 2:
                continue
            figure = stats.spread(series)
            share = figure["spread"] / bounds[metric]
            worst = max(worst, share)
            print(
                f"{name:13s} {metric:21s} median {figure['median']:11.4f} "
                f"q1 {figure['q1']:11.4f} q3 {figure['q3']:11.4f} "
                f"spread {figure['spread']:.4f} bound {bounds[metric]} "
                f"({share:.2f} of bound)",
                flush=True,
            )
    return 0 if worst < 1.0 and not bad_runs else 1


# -- entry point -------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name (a comma-separated list with --steady)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="steadiness mode: N runs per workload")
    args = parser.parse_args(argv)
    _require_source()
    import server as server_mod
    import workload as workload_mod

    names = args.workload.split(",")
    unknown = sorted(set(names) - set(workload_mod.WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; pick from {sorted(workload_mod.WORKLOADS)}")
    if args.steady:
        return steadiness(names, args.seed, args.seconds, args.steady)
    if len(names) != 1:
        parser.error("name one workload (several only with --steady)")
    workload = workload_mod.WORKLOADS[names[0]]
    server_mod.become_subreaper()
    # A terminated run still tears its servers down on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    work = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = run_traced if args.trace else run_untraced
        result = runner(workload, args.seed, args.seconds, work)
    except Exception:  # noqa: BLE001 - report, and fail without a result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result["record"], sort_keys=True))
    for failure in result["failures"][:20]:
        print("FAILED " + json.dumps(failure, sort_keys=True))
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    import server as _server

    try:
        code = main()
    finally:
        _server.reap_children()
    sys.exit(code)
