"""Compiled columnar kernels for the maintenance hot path.

The paper's bounded/algebraic-maintainable results say the maintenance
expressions are *predetermined* — fixed by the scheme, independent of
the state.  That makes them worth compiling: this package flattens each
cached plan / RI-lookup expression into a straight-line program of
columnar kernel ops over interned integer columns
(:mod:`repro.compile.program`), with per-engine storage caches
(:mod:`repro.compile.columns`), including the compiled branch
selections behind the representative-instance lookup
(:meth:`KernelSpace.ri_selections`).

:class:`KernelSpace` bundles what one engine (or standalone
maintainer) shares across all compiled evaluations: the program memo —
an :class:`~repro.foundations.cache.LRUCache` keyed by
``(scheme_fingerprint, plan_fingerprint)`` — and the
:class:`~repro.compile.columns.ColumnStore`.  The interpreted
``Expression.evaluate`` walk stays the differential oracle.  Every
expression a plan builder emits (scans, joins, projections, unions,
selections) compiles; anything else raises
:class:`~repro.foundations.errors.CompileError`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Hashable, Iterator, Mapping, Optional

from repro.algebra.expressions import Expression
from repro.foundations.cache import MISSING, LRUCache
from repro.foundations.errors import CompileError
from repro.schema.database_scheme import DatabaseScheme
from repro.state.database_state import DatabaseState

from repro.compile.columns import ColumnarRelation, ColumnStore
from repro.compile.program import (
    CompiledProgram,
    compile_expression,
    plan_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.maintenance import Selections

__all__ = [
    "ColumnStore",
    "ColumnarRelation",
    "CompileError",
    "CompiledProgram",
    "KernelSpace",
    "compile_expression",
    "plan_fingerprint",
]


class KernelSpace:
    """One engine's compiled-kernel state: program memo + column store.

    ``programs`` is the engine-level LRU keyed by
    ``(scheme_fingerprint, plan_fingerprint)`` (surfacing in
    ``WeakInstanceEngine.cache_info()["compiled"]``); ``store`` holds
    the interner and per-relation columnar/index caches.  A second,
    smaller memo keeps the *branch lists* of the RI lookup per
    ``(scheme_fingerprint, key)`` so repeated inserts skip rebuilding
    the Corollary 3.1(b) expressions.
    """

    def __init__(
        self,
        programs: Optional[LRUCache] = None,
        store: Optional[ColumnStore] = None,
        program_cache_size: int = 256,
    ) -> None:
        self.programs = (
            programs if programs is not None else LRUCache(program_cache_size)
        )
        self.store = store if store is not None else ColumnStore()
        self._selections: LRUCache = LRUCache(program_cache_size)
        self._scheme_fps: dict[int, tuple[DatabaseScheme, str]] = {}
        # Identity fast path over `programs`: plan expressions are
        # cached (hence identity-stable) in the engine's plan LRU, so a
        # repeated query should not re-render and re-hash the tree just
        # to probe the fingerprint-keyed cache.  Entries pin their
        # expression, keeping the id unrecyclable while cached.
        self._by_identity: dict = {}

    def scheme_fp(self, scheme: DatabaseScheme) -> str:
        """:func:`repro.core.partition.scheme_fingerprint`, memoized by
        scheme identity (schemes are immutable and long-lived; the
        entry's strong reference pins the ``id``)."""
        entry = self._scheme_fps.get(id(scheme))
        if entry is not None and entry[0] is scheme:
            return entry[1]
        from repro.core.partition import scheme_fingerprint

        fingerprint = scheme_fingerprint(scheme)
        if len(self._scheme_fps) > 64:
            self._scheme_fps.clear()
        self._scheme_fps[id(scheme)] = (scheme, fingerprint)
        return fingerprint

    def expression_program(
        self,
        scheme_fingerprint: str,
        expression: Expression,
        params=(),
    ) -> CompiledProgram:
        """The compiled form of one (possibly parameterized) expression,
        memoized under ``(scheme_fingerprint, plan_fingerprint)``."""
        identity = (scheme_fingerprint, id(expression), tuple(sorted(params)))
        entry = self._by_identity.get(identity)
        if entry is not None and entry[0] is expression:
            return entry[1]
        key = (scheme_fingerprint, plan_fingerprint(expression, params))
        program = self.programs.get(key, MISSING)
        if program is MISSING:
            program = compile_expression(expression, params=params)
            self.programs.put(key, program)
        if len(self._by_identity) > 512:
            self._by_identity.clear()
        self._by_identity[identity] = (expression, program)
        return program

    def selection_programs(
        self,
        scheme_fingerprint: str,
        scheme: DatabaseScheme,
        key: frozenset[str],
    ) -> tuple[CompiledProgram, ...]:
        """The compiled ``σ_{K=?}`` programs for one probe key — one per
        lossless-join branch, in branch order."""
        memo_key = (scheme_fingerprint, key)
        entry = self._selections.get(memo_key, MISSING)
        if entry is MISSING:
            from repro.core.maintenance import ri_branches

            entry = tuple(
                self.expression_program(scheme_fingerprint, branch, params=key)
                for branch in ri_branches(scheme, key)
            )
            self._selections.put(memo_key, entry)
        return entry

    def ri_selections(self, state: DatabaseState) -> "Selections":
        """The compiled branch evaluator for
        :class:`~repro.core.maintenance.ExpressionRILookup` over
        ``state``: each branch's ``σ_{K=?}`` program bound to the probe
        condition, yielding its decoded rows."""
        scheme = state.scheme
        fingerprint = self.scheme_fp(scheme)

        def selections(
            key: frozenset[str], condition: Mapping[str, Hashable]
        ) -> Iterator[Collection[Mapping[str, Hashable]]]:
            for program in self.selection_programs(fingerprint, scheme, key):
                yield [
                    dict(zip(program.out_columns, vector))
                    for vector in program.run_decoded(
                        self.store, state, condition
                    )
                ]

        return selections
