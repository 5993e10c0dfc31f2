"""Every predetermined plan compiles.

The engine's compiled query route has no interpreted fallback for a
plan the kernel compiler cannot flatten: plan builders emit only scans,
joins, projections and unions.  These tests compile ``plan(X).expression``
for every coverable target ``X`` of every reducible paper scheme and of
``tiled_university(6)`` — whose 378 per-tile targets are the ones the
end-to-end benchmark's ``mixed_s1`` workload queries.
"""

import itertools

import pytest

from repro.compile import compile_expression
from repro.core.engine import WeakInstanceEngine
from repro.foundations.errors import SchemaError
from repro.workloads.paper import ALL_SCHEMES
from repro.workloads.scaling import tiled_university


def _subsets(attributes):
    ordered = sorted(attributes)
    return [
        frozenset(combo)
        for size in range(1, len(ordered) + 1)
        for combo in itertools.combinations(ordered, size)
    ]


def _compile_coverable(engine, targets) -> int:
    """Compile the plan of every target that has one; the count."""
    covered = 0
    for target in targets:
        try:
            plan = engine.plan(target)
        except SchemaError:
            continue
        compile_expression(plan.expression)
        covered += 1
    return covered


@pytest.mark.parametrize(
    "label",
    sorted(
        label
        for label, build in ALL_SCHEMES.items()
        if WeakInstanceEngine(build()).reducible
    ),
)
def test_every_paper_plan_compiles(label):
    scheme = ALL_SCHEMES[label]()
    engine = WeakInstanceEngine(scheme)
    assert _compile_coverable(engine, _subsets(scheme.universe)) > 0


def test_every_tiled_university_plan_compiles():
    tiles = 6
    engine = WeakInstanceEngine(tiled_university(tiles))
    per_tile = [
        target
        for tile in range(tiles)
        for target in _subsets(f"{x}{tile}" for x in "CGHRST")
    ]
    assert _compile_coverable(engine, per_tile) == len(per_tile) == 378
    # Tiles share no attribute, so no extension join crosses one: a
    # target spanning two tiles has no plan, and these are all of them.
    for target in (["C0", "C1"], ["C0", "S0", "H5"], ["G2", "T3"]):
        with pytest.raises(SchemaError):
            engine.plan(target)
