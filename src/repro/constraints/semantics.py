"""Constraint-aware semantics: restrict ``[[D]]`` to consistent worlds.

``[[D]]_Σ = { E ∈ [[D]] | E ⊨ Σ }`` for a set of FDs/keys ``Σ``.  Since
the intersection defining certain answers now ranges over fewer worlds,
certain answers can only grow — the classic effect the paper's future
work points at (e.g. a key can force two tuples to merge, turning a
possible answer into a certain one).

If no world over the pool satisfies the constraints, the incomplete
database is *inconsistent with Σ* and certain answers are vacuously
everything; this implementation surfaces the situation as an error.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

from repro.constraints.deps import FunctionalDependency, satisfies
from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.logic.queries import Query
from repro.semantics.base import Semantics

__all__ = ["ConstrainedSemantics", "certain_answers_under"]


class ConstrainedSemantics(Semantics):
    """A base semantics filtered by integrity constraints."""

    saturated = False  # constraints can rule out the isomorphic copy

    def __init__(self, base: Semantics, constraints: Iterable[FunctionalDependency]):
        self.base = base
        self.constraints = tuple(constraints)
        self.key = f"{base.key}+fd"
        self.name = f"{base.name} under {len(self.constraints)} constraint(s)"
        self.notation = f"{base.notation}|Σ"
        self.hom_class = base.hom_class
        self.sound_fragment = base.sound_fragment

    def expand(
        self,
        instance: Instance,
        pool: Sequence[Hashable],
        schema: Schema | None = None,
        extra_facts: int | None = None,
        limit: int = 500_000,
    ) -> Iterator[Instance]:
        for world in self.base.expand(
            instance, pool, schema=schema, extra_facts=extra_facts, limit=limit
        ):
            if satisfies(world, self.constraints):
                yield world

    def contains(self, instance: Instance, complete: Instance) -> bool:
        return satisfies(complete, self.constraints) and self.base.contains(
            instance, complete
        )


def certain_answers_under(
    query: Query,
    instance: Instance,
    base: Semantics,
    constraints: Iterable[FunctionalDependency],
    pool: Sequence[Hashable] | None = None,
    extra_facts: int | None = None,
    limit: int = 500_000,
) -> frozenset[tuple[Hashable, ...]]:
    """Certain answers over the consistent worlds only.

    Raises ``ValueError`` when no world over the pool is consistent —
    the incomplete database contradicts the constraints.
    """
    from repro.core.certain import certain_over_expansion, default_pool

    if pool is None:
        pool = default_pool(instance, query)
    sem = ConstrainedSemantics(base, constraints)
    result = certain_over_expansion(query, instance, sem, pool, extra_facts, limit)
    if result is None:
        raise ValueError(
            "no consistent world over the pool: the database violates the constraints"
        )
    return result
