"""Differential tests for the engine's block batch path.

The independence decomposition says blocks are share-nothing, so a
batch routed per block (``engine.batch`` on an accepted partition) must
be observationally identical to the per-insert loop
(``engine._batch_serial``, the oracle): same final relations, same
``applied`` count, same first-failure index and full rejection
diagnostics, same raised errors.  These tests pin that equivalence over
random, adversarial and paper-scheme workloads, check which path each
kind of scheme takes, and cover the per-block representative-instance
cache.
"""

import json
import random

import pytest

from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import StateError
from repro.obs.spans import Tracer, tracing
from repro.state.database_state import DatabaseState
from repro.workloads.adversarial import (
    example2_chain_state,
    example2_killer_insert,
    example5_chain_state,
    example5_killer_insert,
)
from repro.workloads.paper import ALL_SCHEMES
from repro.workloads.scaling import tiled_university
from repro.workloads.states import (
    conflicting_insert_candidate,
    consistent_insert_candidate,
    random_consistent_state,
)

N_RANDOM_BATCHES = 25


def _run(call):
    """``(outcome, None)`` or ``(None, (error type, message))``."""
    try:
        return call(), None
    except Exception as error:  # noqa: BLE001 — compared, not handled
        return None, (type(error).__name__, str(error))


def assert_batch_matches_serial(engine, state, updates):
    """``engine.batch`` agrees with ``engine._batch_serial`` on verdict,
    ``applied``, failed index, rejection diagnostics, the final state's
    relations and any raised error."""
    block, block_error = _run(lambda: engine.batch(state, updates))
    serial, serial_error = _run(lambda: engine._batch_serial(state, updates))
    assert block_error == serial_error
    if serial is None:
        return None
    assert json.dumps(block.to_dict(), sort_keys=True) == json.dumps(
        serial.to_dict(), sort_keys=True
    )
    assert block.applied == serial.applied
    assert block.failed_index == serial.failed_index
    if serial.state is None:
        assert block.state is None
    else:
        assert {
            name: relation.row_vectors for name, relation in block.state
        } == {name: relation.row_vectors for name, relation in serial.state}
    return serial


def _random_batch(scheme, state, rng, n_entities):
    """Consistent inserts, key conflicts, duplicates and deletes."""
    updates = []
    for _ in range(rng.randint(4, 12)):
        roll = rng.random()
        if roll < 0.5:
            name, values = consistent_insert_candidate(
                scheme, rng, n_entities
            )
            updates.append(("insert", name, values))
        elif roll < 0.75:
            name, values = conflicting_insert_candidate(
                scheme, rng, n_entities
            )
            updates.append(("insert", name, values))
        else:
            name = rng.choice(scheme.names)
            stored = list(state[name])
            if stored:
                updates.append(("delete", name, rng.choice(stored)))
    rng.shuffle(updates)
    return updates


def _block_spans(engine, state, updates) -> int:
    """How many ``engine.block`` spans one ``engine.batch`` records."""
    tracer = Tracer()
    with tracing(tracer):
        engine.batch(state, updates)
    return tracer.span_summaries().get("engine.block", {}).get("count", 0)


class TestRandomWorkloads:
    def test_random_batches_match_serial(self):
        """Random mixed batches on the tiled scheme: the block outcome
        (including every rejection's diagnostics) equals the serial
        one."""
        rng = random.Random(20260806)
        scheme = tiled_university(3)
        engine = WeakInstanceEngine(scheme)
        for _ in range(N_RANDOM_BATCHES):
            n_entities = rng.randint(2, 4)
            state = random_consistent_state(scheme, rng, n_entities)
            updates = _random_batch(scheme, state, rng, n_entities)
            assert_batch_matches_serial(engine, state, updates)

    @pytest.mark.parametrize("label", sorted(ALL_SCHEMES))
    def test_paper_scheme_batches_match_serial(self, label):
        """Every paper scheme — multi-block, single-block and
        non-reducible alike — under random mixed batches."""
        rng = random.Random(f"batch-{label}")
        scheme = ALL_SCHEMES[label]()
        engine = WeakInstanceEngine(scheme)
        for _ in range(8):
            n_entities = rng.randint(2, 4)
            state = random_consistent_state(scheme, rng, n_entities)
            updates = _random_batch(scheme, state, rng, n_entities)
            assert_batch_matches_serial(engine, state, updates)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: (example2_chain_state(8), example2_killer_insert(8)),
            lambda: (example5_chain_state(8), example5_killer_insert()),
        ],
        ids=["example2_chain", "example5_chain"],
    )
    def test_adversarial_batches_match_serial(self, build):
        """The adversarial chains: the killer insert rejects after an
        accepted prefix, and alone."""
        state, (name, values) = build()
        engine = WeakInstanceEngine(state.scheme)
        member = state.scheme[name]
        fresh = {a: f"{a.lower()}_fresh" for a in member.attributes}
        outcome = assert_batch_matches_serial(
            engine,
            state,
            [("insert", name, fresh), ("insert", name, values)],
        )
        assert outcome is not None and outcome.failed_index == 1
        assert_batch_matches_serial(engine, state, [("insert", name, values)])


class TestPathChoice:
    def test_single_block_scheme_takes_the_block_path(self):
        """A one-block accepted scheme (Example 4) no longer falls back
        to the serial loop."""
        state = example5_chain_state(4)
        engine = WeakInstanceEngine(state.scheme)
        assert engine.partition.accepted
        assert len(engine.partition.blocks) == 1
        updates = [("insert", "R4", {"E": "e_new", "B": "b"})]
        assert _block_spans(engine, state, updates) == 1
        assert_batch_matches_serial(engine, state, updates)

    def test_non_reducible_scheme_takes_the_serial_path(self):
        state, (name, values) = (
            example2_chain_state(4),
            example2_killer_insert(4),
        )
        engine = WeakInstanceEngine(state.scheme)
        assert not engine.partition.accepted
        updates = [("insert", name, values)]
        assert _block_spans(engine, state, updates) == 0
        assert_batch_matches_serial(engine, state, updates)

    def test_unroutable_batch_takes_the_serial_path(self):
        """An insert into an unknown relation raises from the serial
        loop before any block runs."""
        scheme = tiled_university(2)
        engine = WeakInstanceEngine(scheme)
        tracer = Tracer()
        with tracing(tracer), pytest.raises(Exception, match="NOPE"):
            engine.batch(
                DatabaseState(scheme), [("insert", "NOPE", {"A": "a"})]
            )
        assert "engine.block" not in tracer.span_summaries()


class TestFailureOrdering:
    def test_earliest_rejection_across_blocks_wins(self):
        """Index 1 rejects in one block while index 2 rejects in
        another: index 1 must win."""
        scheme = tiled_university(2)
        state = DatabaseState(
            scheme,
            {"T0R4": [{"C0": "c0", "S0": "s0", "G0": "A"}]},
        )
        updates = [
            ("insert", "T1R4", {"C1": "cx", "S1": "sx", "G1": "A"}),
            ("insert", "T0R4", {"C0": "c0", "S0": "s0", "G0": "CLASH"}),
            ("insert", "T1R4", {"C1": "cx", "S1": "sx", "G1": "B"}),
        ]
        outcome = assert_batch_matches_serial(
            WeakInstanceEngine(scheme), state, updates
        )
        assert outcome.failed_index == 1

    def test_error_after_earlier_rejection_is_not_raised(self):
        """Index 1 rejects in block A; index 2 would raise (malformed
        tuple) in block B.  The serial loop never reaches index 2, so
        the block path must report the rejection, not the error."""
        scheme = tiled_university(2)
        state = DatabaseState(
            scheme,
            {"T0R4": [{"C0": "c0", "S0": "s0", "G0": "A"}]},
        )
        updates = [
            ("insert", "T1R4", {"C1": "c", "S1": "s", "G1": "A"}),
            ("insert", "T0R4", {"C0": "c0", "S0": "s0", "G0": "CLASH"}),
            ("insert", "T1R4", {"WRONG": "attrs"}),
        ]
        engine = WeakInstanceEngine(scheme)
        with pytest.raises(StateError):
            # Sanity: the malformed tuple does raise when reached.
            engine.batch(state, updates[2:])
        outcome = assert_batch_matches_serial(engine, state, updates)
        assert outcome.failed_index == 1

    def test_earliest_error_is_raised(self):
        """When the malformed tuple precedes every rejection, both
        paths raise it."""
        scheme = tiled_university(2)
        updates = [
            ("insert", "T1R4", {"WRONG": "attrs"}),
            ("insert", "T0R4", {"C0": "c", "S0": "s", "G0": "A"}),
        ]
        engine = WeakInstanceEngine(scheme)
        with pytest.raises(StateError):
            engine.batch(DatabaseState(scheme), updates)
        assert (
            assert_batch_matches_serial(engine, DatabaseState(scheme), updates)
            is None
        )

    def test_unknown_operation_falls_back_to_serial_semantics(self):
        """An unroutable batch (unknown op) takes the serial path, so
        an earlier rejection still wins over the later bad op."""
        scheme = tiled_university(2)
        state = DatabaseState(
            scheme,
            {"T0R4": [{"C0": "c0", "S0": "s0", "G0": "A"}]},
        )
        updates = [
            ("insert", "T0R4", {"C0": "c0", "S0": "s0", "G0": "CLASH"}),
            ("upsert", "T1R4", {"C1": "c", "S1": "s", "G1": "A"}),
        ]
        outcome = assert_batch_matches_serial(
            WeakInstanceEngine(scheme), state, updates
        )
        assert outcome.failed_index == 0


class TestBlockChaseCache:
    def test_block_local_insert_keeps_other_blocks_cached(self):
        """An insert touching one block must not evict the other
        blocks' memoized representative fragments: re-assembling the
        representative instance after the insert re-chases exactly one
        block."""
        scheme = tiled_university(2)
        engine = WeakInstanceEngine(scheme)
        state = DatabaseState(
            scheme,
            {
                "T0R4": [{"C0": "c0", "S0": "s0", "G0": "A"}],
                "T1R4": [{"C1": "c1", "S1": "s1", "G1": "B"}],
            },
        )
        engine.representative(state)
        blocks = len(engine.partition.blocks)
        info = engine.cache_info()["block_chase"]
        assert info.misses == blocks

        outcome = engine.insert(
            state, "T0R4", {"C0": "c9", "S0": "s9", "G0": "A"}
        )
        assert outcome.consistent
        engine.representative(outcome.state)
        info = engine.cache_info()["block_chase"]
        # Only the written block re-chased; every other block hit.
        assert info.misses == blocks + 1
        assert info.hits == blocks - 1

    def test_assembled_representative_matches_whole_state_chase(self):
        """The per-block assembly is just a memo layout: its total
        projections equal the single global chase's."""
        from repro.state.consistency import chase_state

        scheme = tiled_university(2)
        engine = WeakInstanceEngine(scheme)
        state = random_consistent_state(scheme, random.Random(11), 3)
        assembled = engine.representative(state)
        global_chase = chase_state(state)
        assert global_chase.consistent
        for member in scheme.relations:
            assert assembled.total_projection(
                member.attributes
            ) == global_chase.tableau.total_projection(member.attributes)
