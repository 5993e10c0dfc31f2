"""Workload definitions, the seeded request generator and the oracle.

Every workload runs over ``tiled_university(6)``: 18 independent blocks,
three per tile.  Connection ``c`` owns tiles ``3c .. 3c+2``; tiles are
independent components of the scheme, so the answer to every request
depends only on the initial state and on earlier requests of the same
connection.  That is what lets :func:`verify` replay each
connection's stream through one in-process engine and predict every
response exactly, even though the two connections run concurrently
against the server.

The seed passed on the command line reaches only :func:`request_stream`;
the scheme and the initial state are the same for every seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Iterator

TILES = 6
CONNECTIONS = 2
TILES_PER_CONNECTION = TILES // CONNECTIONS
SEED_ROWS = 120  # matched R1/R5 rows per tile
SEED_R4_ROWS = 15  # R4 rows per tile; rejects re-use their keys
REJECT_EVERY = 25  # about one write in this many is a key conflict
BATCH_SIZE = 8  # inserts per batch request


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  Fractions are of requests; what is left after
    ``query`` and ``insert`` is batches of ``BATCH_SIZE`` inserts."""

    name: str
    shards: int
    query: float
    insert: float
    query_targets: str  # "single_block" | "all"
    #: Requests per connection in one timed window.  A fixed count, not
    #: a fixed time, so every build grows the same state and stays in
    #: the same compaction regime.  Sized so that at the window's end
    #: every WAL holds at most about 60% of the automatic snapshot
    #: threshold (four times the snapshot).
    requests: int
    #: Tail percentile per op kind, fixed so that two runs (and two
    #: commits) always compare the same percentile: the highest of
    #: p99/p95/p90 that keeps at least 10 samples beyond it in the
    #: pooled samples of the fewest windows a run makes, unless noted.
    tails: dict
    why: str


WORKLOADS = {
    "write_mix_s2": Workload(
        name="write_mix_s2",
        shards=2,
        query=0.10,
        insert=0.60,
        query_targets="single_block",
        requests=450,
        # Writes would keep 21 samples beyond p99, but on a 2-vCPU host
        # their p99 spread 0.25 from run to run, against 0.15-0.18 for
        # the p95 tails: it follows every scheduling hiccup of the four
        # busy processes.
        tails={"read": 95, "write": 95, "batch": 95},
        why=(
            "2 shards, 60% inserts and 30% batches of 8 spanning both shards: two-phase fan-out, "
            "block_batch, commit_batch and one WAL fsync per record; the read cache rarely hits"
        ),
    ),
    "mixed_s1": Workload(
        name="mixed_s1",
        shards=1,
        query=0.70,
        insert=0.20,
        query_targets="all",
        requests=1000,
        tails={"read": 99, "write": 99, "batch": 95},
        why=(
            "1 shard, the inline single-process server: 70% reads over all 378 targets overflow the "
            "256-entry plan and kernel caches; serial batches; no router, wire or worker work"
        ),
    ),
}


def scheme():
    from repro.workloads.scaling import tiled_university

    return tiled_university(TILES)


def connection_tiles(connection: int) -> tuple[int, ...]:
    first = connection * TILES_PER_CONNECTION
    return tuple(range(first, first + TILES_PER_CONNECTION))


def seed_updates() -> list[tuple[str, str, dict]]:
    """The initial state, as one batch: per tile ``SEED_ROWS`` matched
    R1/R5 rows (the ``(C, S)`` plan joins them) and ``SEED_R4_ROWS``
    R4 rows.  The same for every workload and every seed."""
    updates: list[tuple[str, str, dict]] = []
    for tile in range(TILES):
        h, r, c, s, g = (f"{x}{tile}" for x in "HRCSG")
        for i in range(SEED_ROWS):
            updates.append(
                ("insert", f"T{tile}R5", {h: f"h{i}", s: f"s{i}", r: f"r{i}"})
            )
            updates.append(
                ("insert", f"T{tile}R1", {h: f"h{i}", r: f"r{i}", c: f"c{i}"})
            )
        for i in range(SEED_R4_ROWS):
            updates.append(
                ("insert", f"T{tile}R4", {c: f"c{i}", s: f"s{i}", g: "A"})
            )
    return updates


def tile_targets(tile: int) -> list[list[str]]:
    """Every non-empty attribute subset of one tile — all of them have
    a predetermined plan, so the 6 tiles give the scheme's 378
    coverable targets."""
    attributes = [f"{x}{tile}" for x in "CGHRST"]
    return [
        sorted(combo)
        for size in range(1, len(attributes) + 1)
        for combo in itertools.combinations(attributes, size)
    ]


def single_block_target(tile: int) -> list[str]:
    """``(C, S, G)``: R4's own attributes, whose plan reads one block."""
    return sorted([f"C{tile}", f"S{tile}", f"G{tile}"])


def cross_block_target(tile: int) -> list[str]:
    """``(C, S)``: its plan unions every block of the tile."""
    return sorted([f"C{tile}", f"S{tile}"])


class _Writes:
    """Fresh insert values for one connection: every accepted insert
    uses a key no earlier request used; a reject re-uses a seeded R4
    key with a different grade, which the ``CS -> G`` dependency
    refuses whatever else the connection did."""

    def __init__(self, rng: random.Random, connection: int) -> None:
        self.rng = rng
        self.connection = connection
        self.serial = 0

    def accepted(self, tile: int) -> tuple[str, str, dict]:
        """An R4 row with a seeded course and a fresh student."""
        self.serial += 1
        return (
            "insert",
            f"T{tile}R4",
            {
                f"C{tile}": f"c{self.rng.randrange(SEED_ROWS)}",
                f"S{tile}": f"n{self.connection}_{self.serial}",
                f"G{tile}": self.rng.choice("ABCDF"),
            },
        )

    def reject(self, tile: int) -> tuple[str, str, dict]:
        i = self.rng.randrange(SEED_R4_ROWS)
        return (
            "insert",
            f"T{tile}R4",
            {f"C{tile}": f"c{i}", f"S{tile}": f"s{i}", f"G{tile}": "F"},
        )

    def one(self, tile: int) -> tuple[str, str, dict]:
        if self.rng.randrange(REJECT_EVERY) == 0:
            return self.reject(tile)
        return self.accepted(tile)


def request_stream(
    workload: Workload, seed: int, connection: int
) -> Iterator[tuple[str, dict]]:
    """The endless, seeded request stream of one connection, as
    ``(kind, wire payload)`` pairs with ``kind`` one of ``read``,
    ``write`` and ``batch``."""
    rng = random.Random(f"{workload.name}:{seed}:{connection}")
    tiles = connection_tiles(connection)
    writes = _Writes(rng, connection)
    zigzag = tiles + tiles[-2:0:-1]
    if workload.query_targets == "all":
        targets = [t for tile in tiles for t in tile_targets(tile)]
    else:
        targets = [single_block_target(tile) for tile in tiles]
    while True:
        draw = rng.random()
        if draw < workload.query:
            yield "read", {"op": "query", "target": rng.choice(targets)}
        elif draw < workload.query + workload.insert:
            _, relation, values = writes.one(rng.choice(tiles))
            yield "write", {"op": "insert", "relation": relation, "values": values}
        else:
            # Walk the tiles back and forth (t0 t1 t2 t1 t0 ...) from a
            # random point: the R4 relations of neighbouring tiles sit
            # on different shards, so every batch of two or more spans
            # both.
            start = rng.randrange(len(zigzag))
            batch_tiles = [
                zigzag[(start + i) % len(zigzag)] for i in range(BATCH_SIZE)
            ]
            updates = [writes.accepted(tile) for tile in batch_tiles]
            if rng.randrange(REJECT_EVERY) == 0:
                index = rng.randrange(len(updates))
                updates[index] = writes.reject(batch_tiles[index])
            yield "batch", {"op": "batch", "updates": [list(u) for u in updates]}


def _wire(value: Any) -> Any:
    """What ``value`` looks like after a trip through a JSON frame."""
    return json.loads(json.dumps(value))


def _rows(rows) -> list:
    return sorted(list(row) for row in rows)


class Oracle:
    """A single-process replay of one connection's requests.

    ``expect`` returns the exact response payload the server must send
    for the next request of the stream and advances the oracle state."""

    def __init__(self, engine, state) -> None:
        self.engine = engine
        self.state = state

    def expect(self, payload: dict) -> dict:
        op = payload["op"]
        engine = self.engine
        if op == "query":
            rows = engine.query(self.state, payload["target"])
            return {"ok": True, "rows": _wire(_rows(rows))}
        if op == "insert":
            outcome = engine.insert(self.state, payload["relation"], payload["values"])
            if outcome.consistent:
                self.state = outcome.state
            return {"ok": True, "outcome": _wire(outcome.to_dict())}
        updates = [(o, r, dict(v)) for o, r, v in payload["updates"]]
        outcome = engine.batch(self.state, updates)
        if outcome:
            self.state = outcome.state
        return {"ok": True, "outcome": _wire(outcome.to_dict())}

    def final_answers(self, connection: int) -> dict[str, list]:
        """The answers the durability check re-asks after a restart:
        every relation's own attribute set, per owned tile, which
        together show every accepted write."""
        answers = {}
        for tile in connection_tiles(connection):
            for relation in ("R1", "R4", "R5"):
                member = self.engine.scheme[f"T{tile}{relation}"]
                target = sorted(member.attributes)
                answers[",".join(target)] = _wire(
                    _rows(self.engine.query(self.state, target))
                )
        return answers


def seeded_state(engine):
    outcome = engine.batch(engine.empty_state(), seed_updates())
    if not outcome:
        raise RuntimeError("the seed batch was rejected")
    return outcome.state


def body_digest(body: bytes) -> bytes:
    return hashlib.blake2b(body, digest_size=16).digest()


def expected_body(expected: dict) -> bytes:
    """The exact frame body the server sends for ``expected``."""
    from repro.shard.protocol import HEADER, encode_frame

    return encode_frame(expected)[HEADER.size:]


def verify(workload_name: str, seed: int, connection: int, phases: list[list[bytes]]) -> dict:
    """Check one connection's responses against the oracle.

    ``phases`` holds, per window run with this seed, the digests of the
    response bodies in request order.  Every window sends the same
    stream from the same initial state, so one replay through a fresh
    in-process engine serves them all.  Returns the mismatches as
    ``(phase, index, expected body)``, the accepted updates of each
    phase, and the final answers after the whole stream, which every
    restarted store must give.  Runs after the timed windows, in its
    own process per connection, so the replay neither competes with
    the server for CPU while it is timed nor caps how many requests a
    run may send."""
    from repro.core.engine import WeakInstanceEngine

    engine = WeakInstanceEngine(scheme())
    try:
        oracle = Oracle(engine, seeded_state(engine))
        stream = request_stream(WORKLOADS[workload_name], seed, connection)
        length = max(len(digests) for digests in phases)
        mismatches = []
        accepted = [0] * len(phases)
        for index, (_, payload) in enumerate(itertools.islice(stream, length)):
            expected = oracle.expect(payload)
            body = expected_body(expected)
            digest = body_digest(body)
            updates = _accepted_updates(payload, expected)
            for phase, digests in enumerate(phases):
                if index < len(digests):
                    accepted[phase] += updates
                    if digests[index] != digest:
                        mismatches.append((phase, index, body.decode()))
        return {
            "mismatches": mismatches,
            "accepted_updates": accepted,
            "final_answers": oracle.final_answers(connection),
        }
    finally:
        engine.close()


def _accepted_updates(payload: dict, expected: dict) -> int:
    outcome = expected.get("outcome")
    if outcome is None:
        return 0
    if payload["op"] == "insert":
        return 1 if outcome["consistent"] else 0
    return len(payload["updates"]) if outcome["committed"] else 0
