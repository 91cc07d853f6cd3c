"""Cores of relational instances (Hell & Nešetřil; paper Section 10.1).

The *core* of ``D`` is a subinstance ``D' ⊆ D`` that is a homomorphic
image of ``D`` but none of whose proper subinstances is.  It is unique
up to isomorphism.  The paper uses cores with the database notion of
homomorphism (identity on constants), for which all the classical facts
remain true [Fagin, Kolaitis & Popa 2005]; the ``fix_constants`` switch
also enables the pure graph-homomorphism variant used in the ``C4+C6``
example.

Cores are the representative set of the minimal-valuation semantics
(Theorem 10.2): naive evaluation results for those semantics hold *over
cores*.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.data.instance import Instance
from repro.data.values import Null, sort_key
from repro.homs.search import find_homomorphism

__all__ = ["retract_step", "core", "is_core", "shrinking_homomorphism"]


def shrinking_homomorphism(
    source: Instance,
    target: Instance,
    fix_constants: bool = True,
    pinned: Mapping[Hashable, Hashable] | None = None,
) -> dict | None:
    """A homomorphism of ``source`` into a *proper* subinstance of ``target``.

    ``None`` when there is none.  Any proper subinstance is contained in
    ``target`` minus one fact, so it suffices to search for
    homomorphisms into the maximal proper subinstances.

    A database homomorphism maps every null-free fact of ``source`` to
    itself (Fagin, Kolaitis & Popa 2005).  So with ``fix_constants`` and
    no ``pinned`` map, those facts must all be in ``target`` and are
    never the fact left out; the search then starts from the facts of
    ``source`` that hold a null, and the map it returns leaves every
    other value where it is.
    """
    if not fix_constants or pinned:
        for name, row in target.facts():
            hom = find_homomorphism(
                source, target.remove_fact(name, row), fix_constants=fix_constants, pinned=pinned
            )
            if hom is not None:
                return hom
        return None
    null_rows: dict[str, list[tuple]] = {}
    fixed_rows: dict[str, frozenset[tuple]] = {}
    for name in source.relations:
        rows = source.tuples(name)
        null_rows[name] = [row for row in rows if any(isinstance(v, Null) for v in row)]
        fixed_rows[name] = rows.difference(null_rows[name])
        if not fixed_rows[name] <= target.tuples(name):
            return None
    null_facts = Instance(null_rows)
    for name in sorted(target.relations):
        left_out = target.tuples(name) - fixed_rows.get(name, frozenset())
        for row in sorted(left_out, key=lambda t: tuple(map(sort_key, t))):
            hom = find_homomorphism(null_facts, target.remove_fact(name, row))
            if hom is not None:
                return hom
    return None


def retract_step(instance: Instance, fix_constants: bool = True) -> Instance | None:
    """One retraction: an endomorphic image ``h(D) ⊊ D``, or ``None``."""
    hom = shrinking_homomorphism(instance, instance, fix_constants)
    return None if hom is None else instance.apply(hom)


def core(instance: Instance, fix_constants: bool = True) -> Instance:
    """The core of ``instance`` (a specific representative of the iso class).

    Computed by repeated retraction; each step strictly decreases the
    number of facts, so the loop terminates.
    """
    current = instance
    while True:
        smaller = retract_step(current, fix_constants=fix_constants)
        if smaller is None:
            return current
        current = smaller


def is_core(instance: Instance, fix_constants: bool = True) -> bool:
    """True iff no proper subinstance of ``instance`` is an endomorphic image."""
    return retract_step(instance, fix_constants=fix_constants) is None
