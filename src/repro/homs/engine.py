"""CSP-grade homomorphism search over per-fact candidate tables.

The legacy extender (:mod:`repro.homs.search`) matches source facts one
by one against *every* tuple of the target relation, re-sorting the
candidates at each node.  This module treats homomorphism search as the
constraint-satisfaction problem it is:

* **candidate tables** — each source fact gets the list of target
  tuples it can map onto *in isolation*, probed from the target's
  memoised hash indexes (:meth:`~repro.data.instance.Instance.index`): constant
  positions key the probe under ``fix_constants``, repeated-value
  patterns filter, complete-image mode drops null-carrying candidates.
  Tables are memoised per ``(source, target, flags)`` value — instances
  are immutable, so the session layer's generation bump naturally keys
  the cache;
* **most-constrained-first ordering** — the next fact to assign is
  always one with the fewest *currently consistent* candidates (dynamic
  MRV), so sparse relations and constant-rich facts are decided first;
* **forward checking** — assigning a fact filters the candidate lists
  of every unassigned fact sharing one of the newly bound values; a
  wiped-out list terminates the branch immediately (conflict-driven
  early termination), long before the legacy extender would notice;
* **structural pre-checks** — strong-onto needs matching relation sets
  with ``|target_R| ≤ |source_R|``, onto needs
  ``|adom(target)| ≤ |adom(source)|``, injective the reverse; violations
  fail in O(1) without any search.

The engine yields exactly the homomorphisms the legacy extender yields
(as dicts on the source active domain, constants included) — the
differential property suite in ``tests/test_homs_engine.py`` pins the
sets equal — but possibly in a different order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Iterator, Mapping

from repro.data.instance import Instance
from repro.data.values import Null, sort_key

__all__ = ["candidate_tables", "iter_homomorphisms_csp", "clear_candidate_cache"]

Assignment = dict[Hashable, Hashable]

_MISS = object()


@lru_cache(maxsize=512)
def candidate_tables(
    source: Instance,
    target: Instance,
    fix_constants: bool,
    complete_image: bool,
) -> tuple[tuple[tuple[str, tuple], tuple[tuple, ...]], ...]:
    """``((fact, candidates), ...)`` — the unary consistency tables.

    A candidate of fact ``(name, row)`` is a target tuple of ``name``
    that agrees with the row's constants (under ``fix_constants``),
    respects its repeated-value pattern, and is null-free when
    ``complete_image`` demands valuations.  Probed from the target's
    hash indexes so constant-rich facts cost one bucket lookup, not a
    relation scan.  Memoised on the instance values.
    """
    out = []
    for name, row in source.facts():
        first_pos: dict[Hashable, int] = {}
        const_positions: list[int] = []
        const_key: list[Hashable] = []
        eq_checks: list[tuple[int, int]] = []
        for i, value in enumerate(row):
            if fix_constants and not isinstance(value, Null):
                const_positions.append(i)
                const_key.append(value)
            elif value in first_pos:
                eq_checks.append((i, first_pos[value]))
            else:
                first_pos[value] = i
        rows = target.tuples(name)
        if rows and const_positions:
            rows = target.index(name, tuple(const_positions)).get(tuple(const_key), ())
        cands = [
            cand
            for cand in rows
            if all(cand[i] == cand[j] for i, j in eq_checks)
            and not (complete_image and any(isinstance(v, Null) for v in cand))
        ]
        cands.sort(key=lambda t: tuple(map(sort_key, t)))
        out.append(((name, row), tuple(cands)))
    return tuple(out)


def clear_candidate_cache() -> None:
    """Drop memoised candidate tables (tests and long-lived deployments)."""
    candidate_tables.cache_clear()


def _consistent(row: tuple, cand: tuple, assignment: Assignment) -> bool:
    for value, image in zip(row, cand):
        bound = assignment.get(value, _MISS)
        if bound is not _MISS and bound != image:
            return False
    return True


def iter_homomorphisms_csp(
    source: Instance,
    target: Instance,
    fix_constants: bool = True,
    onto: bool = False,
    strong_onto: bool = False,
    injective: bool = False,
    require_complete_image: bool = False,
    pinned: Mapping[Hashable, Hashable] | None = None,
) -> Iterator[Assignment]:
    """Yield every homomorphism ``h : source → target`` (as a dict on adom).

    Parameter semantics are identical to
    :func:`repro.homs.search.iter_homomorphisms`; only the search
    strategy differs (candidate tables + MRV + forward checking).
    """
    source_adom = source.adom()
    initial: Assignment = {
        k: v for k, v in (pinned or {}).items() if k in source_adom
    }

    def accept(assignment: Assignment, chosen_ok: bool) -> bool:
        if injective and len(set(assignment.values())) != len(assignment):
            return False
        if require_complete_image and any(
            isinstance(v, Null) for v in assignment.values()
        ):
            return False
        if onto and set(assignment.values()) != set(target.adom()):
            return False
        if strong_onto and not chosen_ok:
            return False
        return True

    if not source_adom:
        # The empty instance maps anywhere via the empty map, except
        # when ontoness demands hitting a non-empty active domain.
        empty: Assignment = {}
        if accept(empty, chosen_ok=target.is_empty()):
            yield empty
        return

    # structural pre-checks: fail whole families of branches in O(1)
    if strong_onto:
        if set(source.relations) != set(target.relations):
            return
        if any(
            len(target.tuples(name)) > len(source.tuples(name))
            for name in source.relations
        ):
            return
    if onto and len(target.adom()) > len(source_adom):
        return
    if injective and len(target.adom()) < len(source_adom):
        return
    if injective and len(set(initial.values())) != len(initial):
        return

    table = candidate_tables(source, target, fix_constants, require_complete_image)
    facts = [fact for fact, _ in table]
    n_facts = len(facts)
    cands: list[tuple[tuple, ...] | list[tuple]] = [list(c) for _, c in table]
    #: initial candidate sets: a row consistent with the (only-growing)
    #: assignment is in the current list iff it is in the initial table,
    #: so index-probed buckets can be filtered against these
    cand_sets = [frozenset(c) for _, c in table]
    if initial:
        for i, (name, row) in enumerate(facts):
            cands[i] = [c for c in cands[i] if _consistent(row, c, initial)]
    if any(not c for c in cands):
        return

    # which facts mention which source value (forward-check fan-out)
    value_facts: dict[Hashable, list[int]] = {}
    for i, (_, row) in enumerate(facts):
        for value in row:
            value_facts.setdefault(value, []).append(i)

    assignment: Assignment = dict(initial)
    used: set[Hashable] = set(assignment.values())
    #: target row each assigned fact maps onto — ``h(D)`` incrementally
    chosen: dict[str, dict[tuple, int]] = {}
    unassigned = set(range(n_facts))

    def strong_onto_holds() -> bool:
        # h(D) = target exactly: the chosen images cover every target
        # tuple (they are target tuples by construction)
        for name in target.relations:
            images = chosen.get(name)
            if images is None or len(images) != len(target.tuples(name)):
                return False
        return True

    def search() -> Iterator[Assignment]:
        if not unassigned:
            if accept(assignment, strong_onto_holds()):
                yield dict(assignment)
            return
        # dynamic MRV: the unassigned fact with the fewest live candidates
        pick = min(unassigned, key=lambda i: (len(cands[i]), i))
        name, row = facts[pick]
        unassigned.discard(pick)
        rel_chosen = chosen.setdefault(name, {})
        for cand in list(cands[pick]):
            extension: Assignment = {}
            ok = True
            for value, image in zip(row, cand):
                bound = assignment.get(value, _MISS)
                if bound is _MISS:
                    bound = extension.get(value, _MISS)
                if bound is _MISS:
                    extension[value] = image
                elif bound != image:
                    ok = False
                    break
            if not ok:
                continue
            if injective and extension:
                images = list(extension.values())
                if len(set(images)) != len(images) or used.intersection(images):
                    continue
                # injectivity makes image removal on undo unambiguous,
                # so ``used`` is maintained only in this mode
                used.update(images)
            assignment.update(extension)
            rel_chosen[cand] = rel_chosen.get(cand, 0) + 1
            saved: dict[int, list[tuple] | tuple[tuple, ...]] = {}
            wipeout = False
            if extension:
                touched: set[int] = set()
                for value in extension:
                    touched.update(value_facts.get(value, ()))
                for g in touched:
                    if g not in unassigned:
                        continue
                    g_name, g_row = facts[g]
                    current = cands[g]
                    # probe the target index on the bound positions when
                    # the bucket is likely smaller than the current list
                    if len(current) > 8:
                        bound_pos = tuple(
                            i for i, v in enumerate(g_row) if v in assignment
                        )
                        if bound_pos:
                            key = tuple(assignment[g_row[i]] for i in bound_pos)
                            bucket = target.index(g_name, bound_pos).get(key, ())
                            if len(bucket) < len(current):
                                members = cand_sets[g]
                                filtered = [
                                    c
                                    for c in bucket
                                    if c in members
                                    and _consistent(g_row, c, assignment)
                                ]
                                saved[g] = current
                                cands[g] = filtered
                                if not filtered:
                                    wipeout = True
                                    break
                                continue
                    filtered = [
                        c for c in current if _consistent(g_row, c, assignment)
                    ]
                    saved[g] = current
                    cands[g] = filtered
                    if not filtered:
                        wipeout = True  # conflict: some fact lost every image
                        break
            if not wipeout:
                yield from search()
            for g, old in saved.items():
                cands[g] = old
            if rel_chosen[cand] == 1:
                del rel_chosen[cand]
            else:
                rel_chosen[cand] -= 1
            for key in extension:
                del assignment[key]
            if injective:
                used.difference_update(extension.values())
        unassigned.add(pick)

    yield from search()
