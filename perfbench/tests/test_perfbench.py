"""The benchmark's own checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The served-run tests start the real server and take some seconds each.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import server
import workload

ROOT = Path(__file__).resolve().parents[2]
#: The largest share of client-seen latency the traced spans may leave
#: unaccounted for (socket transfer and the client's own time).
RECONCILE_TOLERANCE = 0.35


def _take(name: str, seed: int, connection: int, count: int = 400) -> list:
    stream = workload.request_stream(workload.WORKLOADS[name], seed, connection)
    return list(itertools.islice(stream, count))


def _tiles_touched(payload: dict) -> set[int]:
    """Every tile a request names, through relations or attributes."""
    if payload["op"] == "query":
        return {int(attribute[1:]) for attribute in payload["target"]}
    if payload["op"] == "insert":
        updates = [("insert", payload["relation"], payload["values"])]
    else:
        updates = payload["updates"]
    tiles = set()
    for _, relation, values in updates:
        tiles.add(int(relation[1:].split("R")[0]))
        tiles.update(int(attribute[1:]) for attribute in values)
    return tiles


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert _take(name, 7, 0) == _take(name, 7, 0)
    assert _take(name, 7, 0) != _take(name, 8, 0)
    assert _take(name, 7, 0) != _take(name, 7, 1)


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_connections_own_disjoint_tiles(name):
    owned = [set(workload.connection_tiles(c)) for c in range(workload.CONNECTIONS)]
    assert not owned[0] & owned[1]
    assert owned[0] | owned[1] == set(range(workload.TILES))
    for connection in range(workload.CONNECTIONS):
        for _, payload in _take(name, 3, connection):
            assert _tiles_touched(payload) <= owned[connection], payload


def test_mixed_s1_reaches_every_coverable_target():
    targets = {
        tuple(payload["target"])
        for connection in range(workload.CONNECTIONS)
        for _, payload in _take("mixed_s1", 1, connection, 20000)
        if payload["op"] == "query"
    }
    assert len(targets) == 6 * 63


def test_batches_span_both_shards():
    from repro.shard.router import shard_map_for

    shard_map = shard_map_for(workload.scheme(), 2)
    for connection in range(workload.CONNECTIONS):
        batches = [
            p for _, p in _take("write_mix_s2", 5, connection, 2000) if p["op"] == "batch"
        ]
        assert batches
        for payload in batches:
            shards = {shard_map.relation_shard[r] for _, r, _ in payload["updates"]}
            assert shards == {0, 1}, payload


@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_oracle_agrees_with_a_short_served_run(name, tmp_path):
    result = run.run_untraced(workload.WORKLOADS[name], 3, 1.0, tmp_path, requests=60)
    assert result["correct"], result["failures"][:3] or result["record"]["durability_failures"]
    assert result["failed"] == 0
    assert result["attempted"] >= run.MIN_LIFETIMES * 60 * workload.CONNECTIONS
    assert all(value > 0 for value, _ in result["metrics"].values())
    record = result["record"]
    assert record["requests_per_window"] == 60 * workload.CONNECTIONS
    assert len(record["ops_per_s_each"]) >= run.MIN_LIFETIMES


def test_a_wrong_answer_fails_the_run(monkeypatch, capsys):
    """An incorrect run prints its result but exits non-zero."""
    result = {
        "record": {}, "failures": [], "correct": False, "attempted": 1, "failed": 1,
        "metrics": {"setup_s": (1.0, "s")},
    }
    monkeypatch.setattr(run, "run_untraced", lambda *args: result)
    monkeypatch.setattr(run.signal, "signal", lambda *args: None)
    monkeypatch.setattr(server, "become_subreaper", lambda: None)
    assert run.main(["--workload", "mixed_s1", "--seconds", "1"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_oracle_flags_a_wrong_answer(tmp_path):
    """A response that differs from the oracle's is a failure."""
    digests = [[workload.body_digest(b"{}")]]
    verdict = workload.verify("write_mix_s2", 1, 0, digests)
    assert [index for _, index, _ in verdict["mismatches"]] == [0]


def test_a_short_traced_run_reconciles(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = run.run_traced(workload.WORKLOADS["write_mix_s2"], 4, 3.0, tmp_path, requests=100)
    assert result["correct"]
    metrics = result["metrics"]
    assert {m["name"] for m in spec["per_layer"]} <= set(metrics)
    assert metrics["trace.reconcile_err_frac"][0] < RECONCILE_TOLERANCE
    assert metrics["router.rpcs_per_req"][0] > 0
    assert metrics["worker.handle_ms.prepare"][0] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mixed_s1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_bytes()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2 :].split()[0] != b"Z"


def test_a_killed_server_leaves_no_process(tmp_path):
    deployment = run._Deployment(tmp_path, 2)
    served = deployment.server(tmp_path / "store")
    served.start()
    pids = served.pids()
    assert len(pids) == 3  # the router and its two shard workers
    served.kill()
    # Without a subreaper the orphaned workers may stay zombies of init
    # for a moment; none may still run.
    assert not [pid for pid in pids if _running(pid)]


def test_reap_children_stops_every_child():
    script = (
        "import subprocess, server\n"
        "child = subprocess.Popen(['sleep', '60'])\n"
        "print(child.pid, flush=True)\n"
        "server.reap_children()\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT / "perfbench",
        capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 0, done.stderr
    assert not _running(int(done.stdout))


def test_layer_groups_pair_sends_with_receives():
    spans = [
        ["router.apply_batch", 0.0, 10.0, -1, 1, None],
        ["wire.send", 1.0, 1.1, 0, 1, [0, 10]],
        ["wire.send", 1.2, 1.3, 0, 1, [1, 10]],
        ["wire.recv", 1.4, 3.0, 0, 1, [0, 0]],
        ["wire.recv", 3.1, 3.2, 0, 1, [1, 0]],
        ["wire.send", 4.0, 4.1, 0, 1, [0, 10]],
        ["wire.recv", 4.2, 5.0, 0, 1, [0, 0]],
    ]
    groups = layers._groups(layers.Process("router", None, spans), 0)
    assert [(g["start"], g["end"], sorted(g["shards"])) for g in groups] == [
        (1.0, 3.2, [0, 1]),
        (4.0, 5.0, [0]),
    ]
