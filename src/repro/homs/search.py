"""Homomorphism search between relational instances.

Homomorphisms serve two roles in the paper (Section 2.2): they define
the semantics of incompleteness (valuations are homomorphisms whose
image lies in ``Const``) and the preservation conditions under which
naive evaluation is sound.  :func:`iter_homomorphisms` is the one
search, with switches covering every variant the paper needs:

* *database* homomorphisms — identity on constants (``fix_constants``),
* plain homomorphisms — constants may move (used for the "pure graph"
  examples of Section 10),
* onto homomorphisms — ``h(adom(D)) = adom(D')`` (WCWA, Cor. 4.9),
* strong onto homomorphisms — ``h(D) = D'`` (CWA, Cor. 4.9),
* injective maps and full isomorphisms (the ``≈`` relation).

It solves the search as the constraint-satisfaction problem it is:

* **candidate tables** — each source fact gets the list of target
  tuples it can map onto *in isolation*, probed from the target's
  memoised hash indexes (:meth:`~repro.data.instance.Instance.index`):
  constant positions key the probe under ``fix_constants``,
  repeated-value patterns filter, complete-image mode drops
  null-carrying candidates;
* **most-constrained-first ordering** — the next fact to assign is
  always one with the fewest *currently consistent* candidates (dynamic
  MRV), so sparse relations and constant-rich facts are decided first;
* **forward checking** — assigning a fact filters the candidate lists
  of every unassigned fact sharing one of the newly bound values; a
  wiped-out list ends the branch at once;
* **structural pre-checks** — strong-onto needs matching relation sets
  with ``|target_R| ≤ |source_R|``, onto needs
  ``|adom(target)| ≤ |adom(source)|``, injective the reverse; violations
  fail in O(1) without any search.

:func:`reference_homomorphisms`, the plain fact-by-fact extender, yields
the same set of homomorphisms in possibly another order.  Nothing in the
library calls it: it is the reference the differential suite
(``tests/test_homs_engine.py``) and the benchmark harness compare the
search against.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, Sequence

from repro.data.instance import Instance
from repro.data.values import Null, sort_key

__all__ = [
    "candidate_tables",
    "iter_homomorphisms",
    "find_homomorphism",
    "has_homomorphism",
    "find_isomorphism",
    "iter_mappings",
]

Assignment = dict[Hashable, Hashable]

_MISS = object()


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
    relation scan.
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


def _consistent(row: tuple, cand: tuple, assignment: Assignment) -> bool:
    for value, image in zip(row, cand):
        bound = assignment.get(value, _MISS)
        if bound is not _MISS and bound != image:
            return False
    return True


def iter_homomorphisms(
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

    Parameters mirror the paper's vocabulary:

    ``fix_constants``
        database homomorphisms: ``h(c) = c`` for every constant.
    ``onto``
        ``h(adom(source)) = adom(target)`` (Rsem-homomorphisms of WCWA).
    ``strong_onto``
        ``h(source) = target`` exactly (Rsem-homomorphisms of CWA).
    ``injective``
        ``h`` is injective on ``adom(source)``.
    ``require_complete_image``
        ``h`` maps every value to a constant — combined with
        ``fix_constants`` this makes ``h`` a *valuation*.
    ``pinned``
        pre-assigned images for selected values (e.g. "identity on the
        fix set" in the minimality tests of Section 10.2).
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


def _candidate_count(
    row: Sequence[Hashable],
    candidates,
    fix_constants: bool,
) -> int:
    """How many target tuples this fact can map onto in isolation."""
    count = 0
    for cand in candidates:
        bound: dict[Hashable, Hashable] = {}
        for value, image in zip(row, cand):
            if fix_constants and not isinstance(value, Null):
                if value != image:
                    break
            seen = bound.get(value)
            if seen is None:
                bound[value] = image
            elif seen != image:
                break
        else:
            count += 1
    return count


def _ordered_facts(
    source: Instance, target: Instance, fix_constants: bool = True
) -> list[tuple[str, tuple]]:
    """Source facts ordered most-constrained-first.

    Ordering by the per-fact *candidate-set size* — how many target
    tuples actually match the fact's constants and repeated-value
    pattern — rather than by raw target relation size: a fact over a
    large relation may still be maximally constrained (one candidate)
    when its constants pin the probe, and deciding it first prunes the
    search exponentially earlier.
    """
    facts = list(source.facts())
    facts.sort(
        key=lambda fact: (
            _candidate_count(fact[1], target.tuples(fact[0]), fix_constants),
            fact[0],
            tuple(map(sort_key, fact[1])),
        )
    )
    return facts


def _match_fact(
    row: Sequence[Hashable],
    candidate: Sequence[Hashable],
    assignment: Assignment,
    fix_constants: bool,
) -> Assignment | None:
    """Try to extend ``assignment`` so the fact maps onto ``candidate``."""
    extension: Assignment = {}
    for value, image in zip(row, candidate):
        if fix_constants and not isinstance(value, Null) and value != image:
            return None
        bound = assignment.get(value, extension.get(value))
        if bound is None:
            extension[value] = image
        elif bound != image:
            return None
    return extension


def reference_homomorphisms(
    source: Instance,
    target: Instance,
    fix_constants: bool = True,
    onto: bool = False,
    strong_onto: bool = False,
    injective: bool = False,
    require_complete_image: bool = False,
    pinned: Mapping[Hashable, Hashable] | None = None,
) -> Iterator[Assignment]:
    """:func:`iter_homomorphisms` by the plain fact-by-fact extender.

    Source facts are matched in a fixed most-constrained-first order
    against every tuple of the target relation.  The reference for the
    differential suite and the benchmark harness; the library never
    calls it.
    """
    facts = _ordered_facts(source, target, fix_constants)
    source_adom = source.adom()
    initial: Assignment = {k: v for k, v in (pinned or {}).items() if k in source_adom}

    # Values that occur in no fact cannot exist (adom is fact-defined),
    # so matching all facts assigns every value of the active domain.

    def accept(assignment: Assignment) -> bool:
        if injective and len(set(assignment.values())) != len(assignment):
            return False
        if require_complete_image and any(isinstance(v, Null) for v in assignment.values()):
            return False
        if onto and set(assignment.values()) != set(target.adom()):
            return False
        if strong_onto and source.apply(assignment) != target:
            return False
        return True

    # candidates sorted once per relation, not once per search node
    sorted_tuples = {
        name: sorted(target.tuples(name), key=lambda t: tuple(map(sort_key, t)))
        for name in {fact[0] for fact in facts}
    }

    def extend(index: int, assignment: Assignment) -> Iterator[Assignment]:
        if index == len(facts):
            if accept(assignment):
                yield dict(assignment)
            return
        name, row = facts[index]
        for candidate in sorted_tuples[name]:
            extension = _match_fact(row, candidate, assignment, fix_constants)
            if extension is None:
                continue
            if injective:
                taken = set(assignment.values())
                images = list(extension.values())
                if len(set(images)) != len(images) or taken & set(images):
                    continue
            assignment.update(extension)
            yield from extend(index + 1, assignment)
            for key in extension:
                del assignment[key]

    if not source_adom:
        # The empty instance maps anywhere via the empty map, except
        # when ontoness demands hitting a non-empty active domain.
        empty: Assignment = {}
        if accept(empty):
            yield empty
        return

    yield from extend(0, dict(initial))


def find_homomorphism(
    source: Instance,
    target: Instance,
    **options,
) -> Assignment | None:
    """First homomorphism found, or ``None``.  Options as in :func:`iter_homomorphisms`."""
    for hom in iter_homomorphisms(source, target, **options):
        return hom
    return None


def has_homomorphism(source: Instance, target: Instance, **options) -> bool:
    """True iff some homomorphism ``source → target`` exists."""
    return find_homomorphism(source, target, **options) is not None


def find_isomorphism(
    source: Instance,
    target: Instance,
    fix_constants: bool = True,
) -> Assignment | None:
    """A bijection ``π`` on data values with ``π(source) = target``, or ``None``.

    This is the paper's structural equivalence ``≈`` (Section 3.1);
    with ``fix_constants`` it is the database version used for naive
    databases, without it the purely structural one.
    """
    if source.fact_count() != target.fact_count():
        return None
    if len(source.adom()) != len(target.adom()):
        return None
    return find_homomorphism(
        source,
        target,
        fix_constants=fix_constants,
        injective=True,
        strong_onto=True,
    )


def iter_mappings(
    domain: Sequence[Hashable],
    pool: Sequence[Hashable],
    base: Mapping[Hashable, Hashable] | None = None,
) -> Iterator[Assignment]:
    """All functions from ``domain`` into ``pool``, extended over ``base``.

    The brute-force engine behind valuation enumeration: for an
    instance with nulls ``⊥1..⊥n`` and a finite constant pool, the
    valuations are exactly ``iter_mappings(nulls, pool)``.
    """
    domain = sorted(domain, key=sort_key)
    base = dict(base or {})

    def extend(index: int, assignment: Assignment) -> Iterator[Assignment]:
        if index == len(domain):
            yield dict(assignment)
            return
        value = domain[index]
        for image in pool:
            assignment[value] = image
            yield from extend(index + 1, assignment)
        assignment.pop(value, None)  # pool may be empty: nothing assigned

    yield from extend(0, base)
