"""A weak-instance engine: the library's batteries-included façade.

:class:`WeakInstanceEngine` wraps a database scheme with everything a
downstream application needs:

* cached recognition (Algorithm 6) and per-relation maintenance
  strategies;
* cached total-projection plans per target attribute set (the paper's
  predetermined expressions), with ``explain`` output;
* insert / delete / batch-update against immutable states —
  deletions are always consistency-preserving in the weak-instance
  model (the old weak instance still witnesses the smaller state), so
  only insertions need validation;
* query evaluation routed to the cheapest correct method for the
  scheme's class.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Hashable, Iterable, Mapping, Optional, Sequence

from repro.compile import KernelSpace
from repro.core.ctm import InsertMaintainer
from repro.core.partition import RoutedUpdate, SchemePartition, partition_scheme
from repro.core.query import (
    QueryPlan,
    total_projection_plan,
    total_projection_reducible,
)
from repro.core.readcache import ReadCache
from repro.foundations.attrs import AttrsLike, attrs, fmt_attrs, sorted_attrs
from repro.foundations.cache import MISSING, CacheInfo, LRUCache
from repro.foundations.errors import (
    InconsistentStateError,
    SchemaError,
    StateError,
)
from repro.obs.spans import span
from repro.schema.database_scheme import DatabaseScheme
from repro.state.consistency import (
    ChaseResult,
    MaintenanceOutcome,
    chase_state,
)
from repro.state.database_state import DatabaseState
from repro.tableau.chase import chase_relations
from repro.tableau.symbols import KIND_NDV
from repro.tableau.tableau import Row, Tableau

#: One batch operation: ("insert" | "delete", relation name, tuple).
Update = tuple[str, str, Mapping[str, Hashable]]


@dataclass(frozen=True)
class BatchOutcome:
    """Result of a batch of updates: the final state when every insert
    validated, or the index and outcome of the first rejection."""

    state: Optional[DatabaseState]
    applied: int
    failed_index: Optional[int] = None
    failure: Optional[MaintenanceOutcome] = None

    def __bool__(self) -> bool:
        return self.state is not None

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready rendering: whether the batch committed, how many
        updates were applied before the verdict, and — on rejection —
        the failing index with the full
        :meth:`~repro.state.consistency.MaintenanceOutcome.to_dict`
        diagnostics.  Used by the CLI and the WAL's ``reject`` records."""
        return {
            "committed": self.state is not None,
            "applied": self.applied,
            "failed_index": self.failed_index,
            "failure": None if self.failure is None else self.failure.to_dict(),
        }


@dataclass(frozen=True)
class BatchEvent:
    """The update a batch stops at, by global index: a rejected insert
    (``failure``, its diagnostics intact) or a raised ``error``."""

    index: int
    failure: Optional[MaintenanceOutcome] = None
    error: Optional[BaseException] = None


#: ``(final state, None)`` or ``(None, the event the batch stopped at)``.
BatchResult = tuple[Optional[DatabaseState], Optional[BatchEvent]]


class WeakInstanceEngine:
    """Scheme-bound query/update engine with plan and chase caching.

    The memo layers are bounded LRU caches (see
    :class:`repro.foundations.cache.LRUCache`): ``plan_cache_size``
    bounds the predetermined-plan cache per target attribute set *and*
    the compiled-kernel program cache (keyed by
    ``(scheme fingerprint, plan fingerprint)``), and
    ``chase_cache_size`` bounds the representative-instance cache per
    state.  Chase results are keyed by state *identity* — a
    :class:`DatabaseState` is immutable, so the chase of one particular
    object never changes; the cache entry keeps a strong reference to
    the state so the ``id`` cannot be recycled while the entry lives.

    Reducible queries and the Algorithm-2 insert validations run on the
    columnar kernels of :mod:`repro.compile`.  ``compiled=False`` keeps
    every evaluation on the interpreted expression walk; it exists only
    to build the differential oracle for tests and benchmarks, and no
    serving layer exposes it.

    ``read_cache=True`` (the default) keeps a block-versioned
    query-result cache in front of both query routes (see
    :mod:`repro.core.readcache`): a repeated ``[X]`` against a state
    whose touched blocks are unchanged is a dict probe, and a write
    only stops queries overlapping the written block from hitting.
    ``read_cache_size`` bounds the number of cached answers.
    """

    def __init__(
        self,
        scheme: DatabaseScheme,
        plan_cache_size: int = 256,
        chase_cache_size: int = 64,
        compiled: bool = True,
        read_cache: bool = True,
        read_cache_size: int = 1024,
    ) -> None:
        self.scheme = scheme
        self.partition: SchemePartition = partition_scheme(scheme)
        self._compiled: LRUCache = LRUCache(plan_cache_size)
        self.kernels: Optional[KernelSpace] = (
            KernelSpace(programs=self._compiled) if compiled else None
        )
        self.maintainer = InsertMaintainer(
            scheme,
            partition=self.partition,
            kernels=self.kernels,
            compiled=compiled,
        )
        self.recognition = self.maintainer.recognition
        self._plans: LRUCache = LRUCache(plan_cache_size)
        self._chase: LRUCache = LRUCache(chase_cache_size)
        # Representative-instance fragments memoized per (block,
        # relation identities): an insert into one block leaves every
        # other block's Relation objects — hence its cached chase —
        # untouched, so only the written block re-chases.
        self._block_chase: LRUCache = LRUCache(
            max(chase_cache_size, 4 * max(1, len(self.partition.blocks)))
        )
        self.read_cache: Optional[ReadCache] = (
            ReadCache(self.partition, maxsize=read_cache_size)
            if read_cache
            else None
        )

    def close(self) -> None:
        """Release nothing: the engine holds no threads, processes or
        files.  Kept so code that closes what it opens stays valid."""

    # -- classification -------------------------------------------------------
    @property
    def reducible(self) -> bool:
        return self.recognition.accepted

    def strategy_report(self) -> str:
        return str(self.maintainer.report())

    # -- states ----------------------------------------------------------------
    def empty_state(self) -> DatabaseState:
        return DatabaseState(self.scheme)

    def load(
        self, relations: Mapping[str, Iterable[Mapping[str, Hashable]]]
    ) -> DatabaseState:
        """Bulk-load a state and verify it is consistent.

        The chase this runs is memoized, so a ``query`` on the loaded
        state reuses the representative instance computed here."""
        state = DatabaseState(self.scheme, relations)
        self.representative(state)  # raises when inconsistent
        return state

    def representative(self, state: DatabaseState) -> Tableau:
        """The representative instance ``CHASE_F(T_r)``, memoized per
        state object.

        Raises :class:`InconsistentStateError` when the state has no
        weak instance (the rejection is memoized too)."""
        key = id(state)
        # Sentinel lookup: the stored entry is a tuple, never None, but
        # the sentinel keeps presence and value strictly separate (see
        # repro.foundations.cache.MISSING).
        entry = self._chase.get(key, MISSING)
        if entry is MISSING or entry[0] is not state:
            if self.partition.parallelizable:
                entry = (state, self._assembled_chase(state))
            else:
                entry = (state, chase_state(state))
            self._chase.put(key, entry)
        result = entry[1]
        if not result.consistent:
            raise InconsistentStateError("state admits no weak instance")
        return result.tableau

    def _block_chase_result(
        self, state: DatabaseState, block_index: int
    ) -> ChaseResult:
        """The chase of one block's substate, memoized per relation
        identities — updates to other blocks reuse this entry."""
        names = self.partition.block_names[block_index]
        relations = tuple(state[name] for name in names)
        key = (block_index,) + tuple(id(relation) for relation in relations)
        entry = self._block_chase.get(key, MISSING)
        if entry is not MISSING and all(
            cached is live for cached, live in zip(entry[0], relations)
        ):
            return entry[1]
        block = self.partition.blocks[block_index]
        result = chase_relations(
            block.universe,
            (
                (name, relation.columns, relation.row_vectors)
                for name, relation in zip(names, relations)
            ),
            block.fds,
        )
        self._block_chase.put(key, (relations, result))
        return result

    def _assembled_chase(self, state: DatabaseState) -> ChaseResult:
        """``CHASE_F(T_r)`` assembled from per-block chases.

        Sound because an accepted partition admits no cross-block rule
        firing: a key of block ``P`` embedded in block ``Q``'s
        attributes would violate the uniqueness condition Algorithm 6
        checks, so chase rules only ever equate symbols within one
        block's rows.  Block-local ndvs are renumbered during assembly
        to keep them distinct across blocks; the padding columns outside
        a block's universe get fresh ndvs, exactly as the global state
        tableau would."""
        results = [
            self._block_chase_result(state, index)
            for index in range(len(self.partition.blocks))
        ]
        steps = sum(result.steps for result in results)
        passes = max((result.passes for result in results), default=1)
        universe = self.scheme.universe
        if not all(result.consistent for result in results):
            return ChaseResult(
                Tableau(universe),
                consistent=False,
                steps=steps,
                passes=passes,
            )
        fresh = count()
        rows: list[Row] = []
        for block, result in zip(self.partition.blocks, results):
            remap: dict = {}
            padding = sorted_attrs(universe - block.universe)
            for row in result.tableau.rows:
                cells: dict = {}
                for attribute, symbol in row.cells.items():
                    if symbol[0] == KIND_NDV:
                        renamed = remap.get(symbol)
                        if renamed is None:
                            renamed = remap[symbol] = (KIND_NDV, next(fresh))
                        cells[attribute] = renamed
                    else:
                        cells[attribute] = symbol
                for attribute in padding:
                    cells[attribute] = (KIND_NDV, next(fresh))
                rows.append(Row(cells, tag=row.tag))
        return ChaseResult(
            Tableau(universe, rows),
            consistent=True,
            steps=steps,
            passes=passes,
        )

    def cache_info(self) -> dict[str, CacheInfo]:
        """Hit/miss/eviction accounting for the engine's memo layers."""
        info = {
            "plans": self._plans.info(),
            "compiled": self._compiled.info(),
            "chase": self._chase.info(),
            "block_chase": self._block_chase.info(),
        }
        if self.read_cache is not None:
            info["read"] = self.read_cache.info()
        return info

    def _note_write(self, state: DatabaseState, relation_name: str) -> None:
        """Stamp a fresh read-cache version on the written relation's
        block of a just-produced state."""
        if self.read_cache is None:
            return
        self.read_cache.note_write(
            state, self.partition.block_index_of(relation_name)
        )

    # -- updates -----------------------------------------------------------------
    def insert(
        self,
        state: DatabaseState,
        relation_name: str,
        values: Mapping[str, Hashable],
    ) -> MaintenanceOutcome:
        """Validate and apply one insertion (Algorithm 5 / 2 / chase)."""
        with span("engine.insert") as sp:
            outcome = self.maintainer.insert(state, relation_name, values)
            if outcome.consistent and outcome.state is not None:
                self._note_write(outcome.state, relation_name)
            if sp:
                sp.add("tuples_examined", outcome.tuples_examined)
                sp.add("chase_steps", outcome.chase_steps)
                sp.add("accepted", 1 if outcome.consistent else 0)
                sp.add("rejected", 0 if outcome.consistent else 1)
            return outcome

    def delete(
        self,
        state: DatabaseState,
        relation_name: str,
        values: Mapping[str, Hashable],
    ) -> DatabaseState:
        """Apply a deletion — always consistency-preserving."""
        with span("engine.delete") as sp:
            result = state.delete(relation_name, values)
            self._note_write(result, relation_name)
            if sp:
                sp.add("deleted", 1)
            return result

    def modify(
        self,
        state: DatabaseState,
        relation_name: str,
        old_values: Mapping[str, Hashable],
        new_values: Mapping[str, Hashable],
    ) -> MaintenanceOutcome:
        """Replace one tuple: delete ``old_values`` then validate the
        insertion of ``new_values``.  When the new tuple would be
        inconsistent, the rejecting outcome of the insertion is returned
        as-is — ``witness``, ``chase_steps`` and ``tuples_examined`` all
        survive for diagnostics — and the original state is untouched
        (a rejecting outcome always carries ``state=None``)."""
        if old_values not in state[relation_name]:
            raise StateError(
                f"{dict(old_values)} is not stored in {relation_name}"
            )
        without = state.delete(relation_name, old_values)
        return self.insert(without, relation_name, new_values)

    def batch(
        self, state: DatabaseState, updates: Sequence[Update]
    ) -> BatchOutcome:
        """Apply updates atomically: on the first rejected insert the
        original state is kept and the failure reported (see
        :meth:`apply_indexed` for the route a batch takes)."""
        with span("engine.batch") as sp:
            if sp:
                sp.add("updates", len(updates))
            return _batch_outcome(
                self.apply_indexed(state, _indexed(updates)), len(updates)
            )

    def apply_batch(
        self, state: DatabaseState, updates: Sequence[Update]
    ) -> BatchOutcome:
        """Alias of :meth:`batch` (the historical name)."""
        return self.batch(state, updates)

    def _batch_serial(
        self, state: DatabaseState, updates: Sequence[Update]
    ) -> BatchOutcome:
        """:meth:`batch` through the per-insert loop alone — the oracle
        the block path is tested against."""
        return _batch_outcome(
            self._apply_serial(state, _indexed(updates)), len(updates)
        )

    def _apply_serial(
        self, state: DatabaseState, operations: Sequence[RoutedUpdate]
    ) -> BatchResult:
        """Apply operations one at a time through :meth:`insert` /
        :meth:`delete`, stopping at the first rejection or raised
        error."""
        current = state
        for global_index, operation, relation_name, values in operations:
            try:
                if operation == "insert":
                    outcome = self.insert(current, relation_name, values)
                    if not outcome.consistent:
                        return None, BatchEvent(global_index, failure=outcome)
                    assert outcome.state is not None
                    current = outcome.state
                elif operation == "delete":
                    current = self.delete(current, relation_name, values)
                else:
                    raise StateError(
                        f"unknown batch operation {operation!r}"
                    )
            except Exception as error:  # noqa: BLE001 — raised by rank
                return None, BatchEvent(global_index, error=error)
        return current, None

    def apply_indexed(
        self, state: DatabaseState, operations: Sequence[RoutedUpdate]
    ) -> BatchResult:
        """Apply globally-indexed operations; the batch path of
        :meth:`batch` and of the shard worker's slices.

        On an accepted partition the operations are routed per block and
        each block's slice runs through
        :meth:`~repro.core.ctm.InsertMaintainer.block_batch` (Section
        4.2: an insert into block ``Tp`` is checked against ``Tp``'s
        substate only).  Non-reducible schemes and operations that
        cannot be routed (an unknown operation or relation) take the
        per-insert loop.

        Returns ``(state, None)`` when every operation succeeded, with
        the written blocks' read-cache versions stamped, or ``(None,
        event)`` for the earliest rejection or error by global index.
        Blocks share nothing, so that is exactly where the serial loop
        stops, with the same diagnostics."""
        routed = (
            self.partition.route_indexed(operations)
            if self.partition.accepted
            else None
        )
        if routed is None:
            return self._apply_serial(state, operations)
        outcomes = []
        for block_index, block_operations in sorted(routed.items()):
            with span("engine.block") as sp:
                outcome = self.maintainer.block_batch(
                    self.partition.substate(state, block_index),
                    block_index,
                    block_operations,
                )
                if sp:
                    sp.add("ops", outcome.ops)
                    sp.add("applied", outcome.applied)
                    sp.add(
                        "rejected", 0 if outcome.failed_index is None else 1
                    )
            outcomes.append(outcome)
        events = [
            outcome for outcome in outcomes if outcome.event_index is not None
        ]
        if events:
            first = min(events, key=lambda outcome: outcome.event_index)
            assert first.event_index is not None
            return None, BatchEvent(
                first.event_index, failure=first.failure, error=first.error
            )
        merged: dict[str, object] = {}
        for outcome in outcomes:
            assert outcome.substate is not None
            for name in self.partition.block_names[outcome.block_index]:
                merged[name] = outcome.substate[name]
        relations = {
            name: merged.get(name, state[name]) for name in self.scheme.names
        }
        merged_state = DatabaseState(self.scheme, relations)
        if self.read_cache is not None:
            for block_index in routed:
                self.read_cache.note_write(merged_state, block_index)
        return merged_state, None

    def streaming(self, state: DatabaseState):
        """Per-block materialized views over ``state`` — the insert-heavy
        companion API (see :class:`repro.core.views.BlockMaterializedViews`).
        Only available for independence-reducible schemes."""
        from repro.core.views import BlockMaterializedViews

        return BlockMaterializedViews(state, self.recognition)

    # -- queries ------------------------------------------------------------------
    def plan(self, attributes: AttrsLike) -> QueryPlan:
        """The cached predetermined plan for ``[X]`` (reducible schemes
        only)."""
        target = attrs(attributes)
        cached = self._plans.get(target, MISSING)
        if cached is MISSING:
            with span("engine.plan") as sp:
                cached = total_projection_plan(
                    self.scheme, target, self.recognition
                )
                if sp:
                    sp.add("branches", len(cached.branches))
            self._plans.put(target, cached)
        return cached

    def explain(self, attributes: AttrsLike) -> str:
        """Human-readable account of how ``[X]`` will be evaluated."""
        target = attrs(attributes)
        if self.reducible:
            return str(self.plan(target))
        return (
            f"[{fmt_attrs(target)}] = π!_{fmt_attrs(target)}(CHASE_F(T_r)) "
            "(scheme outside the independence-reducible class; "
            "no predetermined expression is available)"
        )

    def _query_compiled(
        self, state: DatabaseState, target: frozenset[str]
    ) -> Optional[set[tuple[Hashable, ...]]]:
        """``[X]`` through the compiled kernel program for the cached
        plan, or ``None`` when the target has no predetermined plan (a
        ``SchemaError`` target falls back to the block route, which
        answers uncoverable targets with the empty set).  Every plan
        expression compiles: plan builders emit only scans, joins,
        projections and unions."""
        kernels = self.kernels
        assert kernels is not None
        try:
            plan = self.plan(target)
        except SchemaError:
            return None
        program = kernels.expression_program(
            self.partition.fingerprint, plan.expression
        )
        with span("engine.query.compiled") as sp:
            rows = program.run_decoded(kernels.store, state)
            if sp:
                sp.add("rows_out", len(rows))
        return rows

    def _query_cached(
        self, key: tuple
    ) -> Optional[set[tuple[Hashable, ...]]]:
        """Probe the block-versioned result cache for a prior answer
        under ``key``, or ``None`` on a miss (the caller evaluates and
        fills the entry)."""
        assert self.read_cache is not None
        with span("engine.query.cached") as sp:
            rows = self.read_cache.get(key)
            if sp:
                sp.add("hit", 0 if rows is None else 1)
                if rows is not None:
                    sp.add("rows_out", len(rows))
        return rows

    def query(
        self, state: DatabaseState, attributes: AttrsLike
    ) -> set[tuple[Hashable, ...]]:
        """``[X]`` evaluated by the cheapest correct route: the
        block-versioned result cache first, then the compiled kernels,
        then the interpreted expression walk (or the full chase outside
        the reducible class)."""
        target = attrs(attributes)
        with span("engine.query") as sp:
            rows = None
            key = None
            if self.read_cache is not None:
                key = self.read_cache.key(state, target, self.plan)
                rows = self._query_cached(key)
            if rows is None:
                if self.reducible:
                    if self.kernels is not None:
                        rows = self._query_compiled(state, target)
                    if rows is None:
                        rows = total_projection_reducible(
                            state, target, self.recognition
                        )
                else:
                    rows = self.representative(state).total_projection(target)
                if key is not None:
                    self.read_cache.put(key, rows)
            if sp:
                sp.add("rows_out", len(rows))
            return rows


def _indexed(updates: Sequence[Update]) -> list[RoutedUpdate]:
    return [
        (index, operation, relation_name, values)
        for index, (operation, relation_name, values) in enumerate(updates)
    ]


def _batch_outcome(result: BatchResult, updates: int) -> BatchOutcome:
    """A batch's verdict from an ``apply_*`` result: the final state, or
    the rejection at the event's index, or the event's error raised —
    the serial loop raises there because every earlier update
    succeeded."""
    state, event = result
    if event is None:
        return BatchOutcome(state=state, applied=updates)
    if event.error is not None:
        raise event.error
    return BatchOutcome(
        state=None,
        applied=event.index,
        failed_index=event.index,
        failure=event.failure,
    )
