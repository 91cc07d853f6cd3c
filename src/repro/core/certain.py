"""Certain answers by bounded enumeration of ``[[D]]``.

``certain(Q, D) = ⋂ { Q(E) | E ∈ [[D]] }`` (Section 2.4).  ``[[D]]`` is
infinite, so the oracle enumerates its members over a finite constant
pool.  For every CWA-flavoured semantics this is *exact* for generic
queries when the pool contains ``Const(D)``, the query's constants, and
``|Null(D)| + 1`` fresh constants: any valuation factors through a pool
valuation composed with an isomorphism fixing those constants, and
generic queries cannot distinguish the two (the saturation argument of
Sections 3.1/8; the ``+1`` spare fresh constant rules fresh values out
of the intersection).

For OWA the extensions are unbounded; ``extra_facts`` truncates them.
The computed set then *over-approximates* the certain answers (we
intersect over fewer instances), so:

* a naive answer **outside** the computed set genuinely refutes
  soundness of naive evaluation, and
* computed ⊆ naive genuinely establishes ``certain ⊆ naive``.

This is exactly the direction needed to validate Figure 1 empirically.

Execution is **incremental**.  The query is compiled once per batch
(:func:`repro.logic.columnar.compiled_query`, memoised on the formula
and answer variables) and the same set-at-a-time plan is re-executed
across all worlds by the columnar executor
(:mod:`repro.logic.columnar`), intersecting encoded rows.  For
substitution-only semantics (CWA) the oracle works in dictionary codes
end to end and never materialises an
:class:`~repro.data.instance.Instance` per world; instead it

* reads each relation's null-free rows, null rows and cell codes from
  its encoded form
  (:meth:`~repro.data.dictionary.EncodedRelation.null_split`, cached
  per relation version),
* substitutes the codes of pool values into the null slots (odd codes)
  of the null rows only, each world a
  :meth:`~repro.data.dictionary.ColumnarContext.layer` over the
  instance's columnar context, whose null-free relations — and their
  indexes — and null-free rows every world shares,
* enumerates only one valuation per orbit of the interchangeable
  fresh-constant tail (restricted-growth canonical form),
* restricts enumeration to the *plan-relevant* nulls — those occurring
  in relations the compiled plan actually reads — whenever the plan is
  domain-independent (``CompiledQuery.adom_dependent`` is false), since
  two worlds agreeing on the read relations then yield identical
  answers,
* evaluates a handful of *seed worlds* first (the constant
  collapses), whose extremes tend to empty the running intersection
  immediately, and stops as soon as it is empty,
* and keeps its answers as an encoded
  :class:`~repro.data.answers.AnswerSet`, fresh-value rows dropped by
  code: :func:`certain_answers` returns the decoded rows carrying that
  set, and the ``enumeration`` backend hands the set on, so the server
  renders it from per-code memos.

Orbit skipping is sound because the skipped worlds are permutation
images of enumerated ones: a genuine certain answer contains no fresh
constant (some enumerated world's active domain avoids it), and
fresh-free answers survive a world iff they survive its permutation
images, by genericity.

Under CWA the enumeration is **bracketed** first:
``lower ⊆ certain ⊆ upper``.

* ``lower`` is the null-free part of the plan's Guagliardo–Libkin lower
  bound (:attr:`~repro.logic.columnar.CompiledQuery.lower_plan`, run on
  the instance itself, with negation as a null-unifying anti-join).
  Its rows hold in every world, so they are answered directly.
* ``upper`` is the null-free naive answer set.  Naive evaluation
  treats every null as a fresh constant, so it is the answer of the
  all-fresh world, a world of the pool whenever the pool's fresh tail
  has a value per relevant null; otherwise the bracket stays off.

Only the gap ``upper − lower`` is enumerated, with the running
intersection seeded at the gap, so a small gap takes the per-row
residual path from the first world on.  The all-fresh world holds
every ``upper`` row, so it can never remove a gap row: it is marked
seen and never evaluated.  A read with no relevant null therefore
needs no world at all.

A bracketed result keeps both bounds as witness-counted sets
(:attr:`~repro.data.answers.AnswerSet.bracket`) and the
:class:`WorldSpec` it enumerated over
(:attr:`~repro.data.answers.AnswerSet.spec`).  Given such a result and
a write to one read relation (``prior``), :func:`certain_answers`
carries all of it across the write instead of rebuilding it from the
instance:

* the bounds are patched by the write's delta
  (:func:`~repro.logic.columnar.maintained_answers`), and worlds are
  enumerated for the new gap alone;
* the world spec is patched too (:func:`_carried_spec`): a null-free
  delta swaps in the written relation's null-free rows — derived from
  its ancestor's encoding, not re-encoded
  (:func:`~repro.data.dictionary.derive_columnar`) — and moves only the
  codes that entered or left it; a delta holding a null, a value that
  appeared in or vanished from the instance, or another pool rebuilds
  the spec (:func:`_build_spec`);
* the answer set starts from the prior one
  (:meth:`~repro.data.answers.AnswerSet.succeeded_by`): its wire text
  and decoded rows are patched by the rows that entered or left.

The instance's active domain, and so the pool check, is carried
across writes as well (:meth:`~repro.data.instance.Instance.with_delta`).
So a maintained read scans no cell of the instance; what still grows
with it is copying the written relation's row sets (C-level set
operations) and the answer rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Hashable, Iterable, Iterator, Sequence

from repro.data.answers import AnswerSet
from repro.data.dictionary import (
    ColumnarContext,
    Dictionary,
    EncodedRelation,
    columnar_context,
)
from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.data.values import Null, sort_key
from repro.logic.ast import RelAtom
from repro.logic.columnar import CompiledQuery, compiled_query, maintained_answers
from repro.logic.queries import Query
from repro.logic.transform import subformulas, substitute
from repro.semantics.base import Semantics, guard_limit

__all__ = [
    "default_pool",
    "query_schema",
    "certain_answers",
    "certain_holds",
    "certain_over_expansion",
    "WorldSpec",
]


def _pool_parts(
    instance: Instance,
    query: Query | None = None,
    n_fresh: int | None = None,
) -> tuple[list[Hashable], list[str]]:
    """``(sorted base constants, fresh tail)`` of the default pool.

    Split out of :func:`default_pool` so the oracle knows which suffix
    of the pool is the interchangeable fresh-constant tail (the orbit
    structure its incremental enumerator exploits).
    """
    base: frozenset[Hashable] = instance.constants()
    if query is not None:
        base |= query.constants()
    if n_fresh is None:
        n_fresh = len(instance.nulls()) + 1
    fresh: list[str] = []
    index = 1
    while len(fresh) < n_fresh:
        candidate = f"_f{index}"
        if candidate not in base:
            fresh.append(candidate)
        index += 1
    return sorted(base, key=sort_key), fresh


def default_pool(
    instance: Instance,
    query: Query | None = None,
    n_fresh: int | None = None,
) -> list[Hashable]:
    """The constant pool making bounded enumeration exact (see module doc).

    The pool is ordered deterministically and *type-stably* — constants
    are grouped by type name before value (via
    :func:`repro.data.values.sort_key`), never by raw ``repr``, so
    instances mixing ``int`` and ``str`` cells always enumerate in the
    same order regardless of construction order, and limit truncation
    is reproducible.
    """
    base, fresh = _pool_parts(instance, query, n_fresh)
    return base + fresh


@lru_cache(maxsize=1024)
def query_schema(query: Query) -> Schema:
    """The schema mentioned by the query's relational atoms.

    Memoised: queries are immutable values and the oracle consults the
    schema on every call, so repeated evaluation of a prepared query
    walks the formula once, not once per evaluation.
    """
    arities: dict[str, int] = {}
    for sub in subformulas(query.formula):
        if isinstance(sub, RelAtom):
            existing = arities.setdefault(sub.name, len(sub.terms))
            if existing != len(sub.terms):
                raise ValueError(
                    f"relation {sub.name!r} used with arities {existing} and {len(sub.terms)}"
                )
    return Schema(arities)


# ----------------------------------------------------------------------
# incremental world enumeration (substitution-only semantics)
# ----------------------------------------------------------------------

def _canonical_valuations(
    n_nulls: int,
    base_choices: Sequence[Hashable],
    fresh_tail: Sequence[Hashable],
) -> Iterator[tuple[Hashable, ...]]:
    """One valuation per orbit of the fresh-tail permutation group.

    Values are drawn from ``base_choices`` freely; fresh constants enter
    in restricted-growth order (the i-th *distinct* fresh value used is
    ``fresh_tail[i]``), the standard transversal of the action of
    ``Sym(fresh_tail)`` on valuation tuples.  With an empty tail this
    degenerates to the full product — no skipping.
    """
    vals: list[Hashable] = [None] * n_nulls

    def rec(i: int, n_used: int) -> Iterator[tuple[Hashable, ...]]:
        if i == n_nulls:
            yield tuple(vals)
            return
        for v in base_choices:
            vals[i] = v
            yield from rec(i + 1, n_used)
        for j in range(n_used):
            vals[i] = fresh_tail[j]
            yield from rec(i + 1, n_used)
        if n_used < len(fresh_tail):
            vals[i] = fresh_tail[n_used]
            yield from rec(i + 1, n_used + 1)

    return rec(0, 0)


#: above this many surviving candidate rows, per-row residual probing
#: costs more than one full set-at-a-time execution per world
_RESIDUAL_MAX = 8


@lru_cache(maxsize=8192)
def _residual_query(cq: CompiledQuery, row) -> CompiledQuery | None:
    """``φ(ā)`` compiled as a Boolean probe, or ``None`` when unusable.

    Substituting the answer constants turns the output join into an
    index-probing sentence check — the oracle's fast path once the
    running intersection is down to a handful of candidate rows.  Only
    domain-independent residuals qualify: their truth is a pure function
    of the relations read, so it transfers between a restricted world
    context and the full world.  Keyed on the compiled query object (the
    memoised :func:`compiled_query`), so a lookup hashes no formula.
    """
    probe = CompiledQuery(substitute(cq.formula, dict(zip(cq.answer_vars, row))), ())
    return None if probe.adom_dependent else probe


class WorldSpec:
    """The payload of one incremental world enumeration.

    Everything the oracle needs to enumerate and evaluate the valuation
    space: the plan, the instance's columnar context (the parent of
    every world), the code-space row templates of the null-carrying
    relations the plan reads, and the orbit structure (base choices vs
    fresh tail).  Valuations are tuples of codes, one per slot, and
    every intersection runs on encoded rows.
    """

    __slots__ = (
        "plan",
        "parent",
        "templates",
        "slot_codes",
        "base_adom",
        "read_base_cells",
        "n_slots",
        "base_choices",
        "collapse_order",
        "fresh_tail",
        "source",
        "splits",
        "held_by",
    )

    def __init__(self, plan, parent, templates, slot_codes, base_adom,
                 read_base_cells, base_choices, collapse_order, fresh_tail,
                 source, splits, held_by):
        self.plan = plan
        self.parent = parent
        #: ``{name: (arity, null-free rows, null rows)}``; every world
        #: shares the null-free rows, and an odd code in a null row is a
        #: valuation slot
        self.templates = templates
        #: the null code of each valuation slot
        self.slot_codes = slot_codes
        #: the codes every world's domain holds beside the valuation image
        self.base_adom = base_adom
        #: codes of the plan-read relations' cells that every world
        #: shares (static rows + template constants) — the valuation
        #: image is the only world-varying part of the read cells
        self.read_base_cells = read_base_cells
        self.n_slots = len(slot_codes)
        #: the codes of the pool's non-fresh values
        self.base_choices = base_choices
        #: ``base_choices`` in the order the total-collapse seed worlds
        #: try them (see :meth:`seed_valuations`)
        self.collapse_order = collapse_order
        #: the codes of the pool's interchangeable fresh values
        self.fresh_tail = fresh_tail
        #: ``(pool, instance constants)``: the objects the spec was built
        #: for, which a carried spec must be given again (the same
        #: objects, so the check costs nothing)
        self.source = source
        #: the :class:`~repro.data.dictionary.NullSplit` of each relation
        #: the spec was built from
        self.splits = splits
        #: per constant code, the number of plan-read relations holding it
        self.held_by = held_by

    def seed_valuations(self) -> Iterator[tuple[int, ...]]:
        """Per-constant total collapses, whose worlds tend to kill the intersection.

        They are canonical valuations, so re-encountering them during
        the main sweep is caught by the content dedup.

        The collapses try first the values held by the most plan-read
        relations: collapsing every null onto a value that the query
        also meets elsewhere (a joined or negated relation) is what
        falsifies a candidate row.  Ranking by that count rather than by
        the values themselves makes the number of seed worlds a run
        needs independent of how the constants happen to be named.
        """
        n = self.n_slots
        if n == 0:
            return
        for c in self.collapse_order:
            yield (c,) * n

    def all_fresh(self) -> tuple[int, ...]:
        """The all-distinct-fresh valuation: the world naive evaluation sees.

        Only defined when the fresh tail has a value per slot.
        """
        return self.fresh_tail[: self.n_slots]

    def world_key(self, vals: tuple[int, ...]) -> tuple[frozenset, ...]:
        """The content key of the world of ``vals``.

        Per template relation, the substituted null rows that are not
        among its null-free rows: the world's relation is the null-free
        rows plus these, so two worlds are equal iff their keys are.
        """
        image = dict(zip(self.slot_codes, vals))
        return tuple(
            frozenset(tuple(image[c] if c & 1 else c for c in row) for row in null_rows)
            - free
            for _, free, null_rows in self.templates.values()
        )

    def worlds(
        self, valuations: Iterable[tuple[int, ...]], seen: set
    ) -> Iterator[tuple[tuple[int, ...], ColumnarContext]]:
        """``(valuation, world context)`` per valuation with a new world.

        A world is a layer over the instance's context holding the
        substituted template relations; ``seen`` (:meth:`world_key`
        values) skips a world an earlier valuation already built.
        """
        templates, base_adom = self.templates, self.base_adom
        for vals in valuations:
            key = self.world_key(vals)
            if key in seen:
                continue
            seen.add(key)
            # every relevant null occurs in some template row, so the
            # world's query-visible domain is the static/constant part
            # plus the valuation's image
            yield vals, ColumnarContext.layer(
                self.parent,
                {
                    name: EncodedRelation.from_codes(arity, free | extra if extra else free)
                    for (name, (arity, free, _)), extra in zip(templates.items(), key)
                },
                base_adom | frozenset(vals),
            )

    def _residual_candidates(self, running: frozenset):
        """Per-candidate Boolean probes, or ``None`` when ineligible.

        Eligible when the plan is domain-independent, the query is
        non-Boolean, the running intersection is small, and every
        residual compiles domain-independent.  Each entry is
        ``(row, probe, needed)`` where ``needed`` lists the row's codes
        that only a valuation image can put among the read cells.
        """
        plan = self.plan
        if plan.adom_dependent or not plan.answer_vars:
            return None
        if not running or len(running) > _RESIDUAL_MAX:
            return None
        decode = self.parent.dictionary.decode_row
        out = []
        for codes in running:
            probe = _residual_query(plan, decode(codes))
            if probe is None:
                return None
            needed = tuple(c for c in set(codes) if c not in self.read_base_cells)
            out.append((codes, probe, needed))
        return out

    def _verify(
        self,
        candidates: list,
        valuations: Iterable[tuple[int, ...]],
        seen: set,
    ) -> tuple[frozenset, int, bool]:
        """Drop candidates falsified by some world (the residual fast path).

        ``row ∈ Q(world)`` iff the residual ``φ(row)`` holds *and* every
        code of ``row`` is among the world's read cells — which differ
        from :attr:`read_base_cells` only by the valuation's image.
        """
        alive = list(candidates)
        worlds = 0
        for vals, world in self.worlds(valuations, seen):
            worlds += 1
            survivors = []
            for row, probe, needed in alive:
                if needed and not all(c in vals for c in needed):
                    continue
                if probe.raw_codes(world):
                    survivors.append((row, probe, needed))
            alive = survivors
            if not alive:
                return frozenset(), worlds, True
        return frozenset(row for row, _, _ in alive), worlds, False

    def run(
        self,
        valuations: Iterable[tuple[int, ...]],
        running: frozenset | None,
        seen: set,
    ) -> tuple[frozenset | None, int, bool]:
        """``running ∩ ⋂ Q(v(D))`` over ``valuations``, on encoded rows.

        Returns ``(intersection, worlds_evaluated, stopped_early)``;
        the intersection is ``None`` only when it never started (no
        worlds and ``running is None``).  Stops as soon as the running
        intersection is empty (``stopped_early``).  When the running
        intersection is already down to a few rows, switches to
        per-candidate residual probing (:meth:`_verify`) instead of full
        set-at-a-time evaluation.

        ``seen`` (world content keys) dedups across calls: passing the
        set mutated by the seed-world run makes the main sweep skip the
        seeds instead of re-evaluating them.
        """
        if running is not None:
            candidates = self._residual_candidates(running)
            if candidates is not None:
                return self._verify(candidates, valuations, seen)
        result = running
        worlds = 0
        for _, world in self.worlds(valuations, seen):
            rows = self.plan.raw_codes(world)
            worlds += 1
            result = rows if result is None else result & rows
            if not result:
                return result, worlds, True
        return result, worlds, False


def _build_spec(
    cq: CompiledQuery,
    instance: Instance,
    semantics: Semantics,
    pool: Sequence[Hashable],
    fresh_tail: Sequence[Hashable],
    limit: int,
) -> tuple[WorldSpec, dict]:
    """Split the instance into a :class:`WorldSpec` plus oracle metadata.

    Reads the null/constant split of each encoded relation
    (:meth:`~repro.data.dictionary.EncodedRelation.null_split`, cached
    per relation version) instead of scanning cells.  Performs the
    plan-relevance restriction: when the compiled plan is
    domain-independent, only nulls occurring in relations the plan reads
    are enumerated (worlds agreeing on those relations answer alike, so
    the intersection over the full valuation space equals the one over
    the restricted space).
    """
    parent = columnar_context(instance)
    dictionary = parent.dictionary
    read = cq.relations
    restrict = not cq.adom_dependent
    # a restricted plan never reads the domain, so only the relations it
    # reads matter (and are encoded)
    splits = {
        name: parent.encoded(name).null_split()
        for name in instance.relations
        if name in read or not restrict
    }
    slots: set[int] = set()
    for split in splits.values():
        slots |= split.null_codes
    relevant = sorted(slots, key=lambda c: sort_key(dictionary.decode(c)))

    guard_limit(len(pool) ** len(relevant), limit, f"{semantics.name} expansion")

    fresh_set = frozenset(fresh_tail)
    base_choices = [v for v in pool if v not in fresh_set]
    if relevant and not base_choices and len(fresh_set) == 1:
        # a single interchangeable value that every valuation must use is
        # not a skippable tail: no world's active domain avoids it, so
        # rows mentioning it can be genuinely certain — enumerate plainly
        fresh_tail = ()
        base_choices = list(pool)

    templates = {}
    base_adom: set[int] = set()
    read_cells: set[int] = set()
    # per constant code, the number of plan-read relations holding it
    held_by: dict[int, int] = {}
    for name, split in splits.items():
        if split.null_codes:
            templates[name] = (parent.encoded(name).arity, split.free_rows, split.null_rows)
        base_adom |= split.const_codes
        if split.null_codes or name in read:
            read_cells |= split.const_codes
            for c in split.const_codes:
                held_by[c] = held_by.get(c, 0) + 1

    encode = dictionary.encode
    choices = tuple(map(encode, base_choices))
    spec = WorldSpec(
        plan=cq,
        parent=parent,
        templates=templates,
        slot_codes=tuple(relevant),
        base_adom=frozenset(base_adom),
        read_base_cells=frozenset(read_cells),
        base_choices=choices,
        collapse_order=_collapse_order(choices, held_by),
        fresh_tail=tuple(map(encode, fresh_tail)),
        source=(pool, instance.constants()),
        splits=splits,
        held_by=held_by,
    )
    return spec, _spec_info(spec, instance)


def _spec_info(spec: WorldSpec, instance: Instance) -> dict:
    """The plan-relevance restriction's null counts, for ``stats_out``."""
    total = len(instance.nulls())
    return {
        "total_nulls": total,
        "relevant_nulls": spec.n_slots,
        "restricted": not spec.plan.adom_dependent and spec.n_slots < total,
    }


def _collapse_order(choices: tuple[int, ...], held_by: dict[int, int]) -> tuple[int, ...]:
    """``choices`` by falling ``held_by`` count (a stable sort: ties keep the pool order)."""
    return tuple(sorted(choices, key=lambda c: -held_by.get(c, 0)))


def _carried_spec(
    cq: CompiledQuery,
    instance: Instance,
    semantics: Semantics,
    pool: Sequence[Hashable],
    limit: int,
    prior: tuple,
) -> tuple[WorldSpec, dict] | None:
    """The spec of ``prior``'s answers carried across its write, or ``None``.

    Equal to :func:`_build_spec` on ``instance``, at the cost of the
    write: the written relation's null split is derived from its
    ancestor's (:func:`~repro.data.dictionary.derive_columnar`), its
    template takes the new null-free rows, and only the constant codes
    that entered or left it move ``held_by``, the read cells, the base
    domain and the collapse order.  ``None`` (build afresh) when the
    prior answers carry no spec of this plan, the plan reads the
    domain, the delta holds a null (which moves the valuation slots),
    or ``pool`` and the instance's constants are not the very objects
    the spec was built for.  The session's pool and a write that makes
    no value appear or vanish keep both
    (:meth:`~repro.data.instance.Instance.with_delta`), so that check
    costs nothing.
    """
    answers, relation, added, removed = prior
    # taken, not shared: only the newest answers of a query hold a spec
    # (and the relation versions it references)
    old, answers.spec = answers.spec, None
    parent = columnar_context(instance)
    if (
        old is None
        or old.plan is not cq
        or cq.adom_dependent
        or old.parent.dictionary is not parent.dictionary
        or old.source[0] is not pool
        or old.source[1] is not instance.constants()
    ):
        return None
    for row in chain(added, removed):
        for value in row:
            if isinstance(value, Null):
                return None
    guard_limit(len(pool) ** old.n_slots, limit, f"{semantics.name} expansion")
    splits, templates, held_by = old.splits, old.templates, old.held_by
    base_adom, collapse_order = old.base_adom, old.collapse_order
    if relation in cq.relations:
        rel = parent.encoded(relation)
        split = rel.null_split() if rel is not None else None
        before = splits.get(relation)
        if relation in templates:
            # its null rows are untouched, so it is not empty
            templates = dict(templates)
            templates[relation] = (rel.arity, split.free_rows, split.null_rows)
        splits = dict(splits)
        if split is None:
            splits.pop(relation, None)
        else:
            splits[relation] = split
        was = before.const_codes if before is not None else frozenset()
        now = split.const_codes if split is not None else frozenset()
        if was is not now and was != now:
            held_by = dict(held_by)
            for c in was - now:
                left = held_by[c] - 1
                if left:
                    held_by[c] = left
                else:
                    del held_by[c]
            for c in now - was:
                held_by[c] = held_by.get(c, 0) + 1
            # the plan reads no domain, so every split is a read
            # relation's: the read cells are the base domain
            base_adom = frozenset(held_by)
            collapse_order = _collapse_order(old.base_choices, held_by)
    spec = WorldSpec(
        plan=cq,
        parent=parent,
        templates=templates,
        slot_codes=old.slot_codes,
        base_adom=base_adom,
        read_base_cells=base_adom,
        base_choices=old.base_choices,
        collapse_order=collapse_order,
        fresh_tail=old.fresh_tail,
        source=old.source,
        splits=splits,
        held_by=held_by,
    )
    return spec, _spec_info(spec, instance)


def _certain_by_valuations(
    cq: CompiledQuery,
    instance: Instance,
    semantics: Semantics,
    pool: tuple[Hashable, ...],
    q_consts: frozenset[Hashable],
    limit: int,
    stats_out: dict | None = None,
    prior: tuple | None = None,
) -> tuple[AnswerSet, bool]:
    """``⋂ Q(v(D))`` over valuations, without building an Instance per world.

    Each world is a layer over the instance's columnar context: the
    null-free relations (and their indexes) are the instance's own,
    the null-carrying relations the plan reads are substituted per
    valuation from code-space templates.  ``q_consts`` are the query's
    constants.  The answers stay encoded; a bracketed run's set carries
    its bounds and its spec.  With ``prior``, the spec is carried across
    the write when it allows (:func:`_carried_spec`), and the answer set
    starts from the prior one.  Returns ``(answers, bounds patched from
    prior)``.
    """
    carried = None
    if prior is not None:
        carried = _carried_spec(cq, instance, semantics, pool, limit, prior)
    if carried is None:
        # the interchangeable tail of *any* pool: values mentioned by
        # neither the instance nor the query are anonymous to both, so
        # permuting them fixes D and Q while permuting worlds — exactly
        # the genericity the orbit transversal needs.  (For the default
        # pool this recovers the |Null(D)|+1 fresh constants; an empty
        # tail enumerates the full product.)
        consts = instance.constants()
        fresh_tail = tuple(v for v in pool if v not in consts and v not in q_consts)
        carried = _build_spec(cq, instance, semantics, pool, fresh_tail, limit)
    spec, info = carried

    if stats_out is not None:
        stats_out.update(info)

    codes: frozenset | None
    bracket, maintained = None, False
    if len(spec.fresh_tail) >= spec.n_slots:
        # the bounds are runs on the instance, whose cells hold no
        # fresh value, so neither do these rows
        codes, bracket, maintained = _bracketed(spec, stats_out, prior)
    else:
        codes = _enumerated(spec, stats_out)
        if codes is None:
            raise RuntimeError(
                f"[[D]] came out empty over the pool — {semantics!r} violated totality"
            )
        if codes and spec.fresh_tail:
            # a certain answer never mentions a fresh constant (some
            # world's active domain avoids it); dropping such rows here
            # replays what the skipped permutation-image worlds would do
            fresh = frozenset(spec.fresh_tail)
            codes = frozenset(row for row in codes if fresh.isdisjoint(row))
    arity, dictionary = len(cq.answer_vars), spec.parent.dictionary
    before = prior[0] if prior is not None else None
    if before is not None and before._dictionary is dictionary and before.arity == arity:
        out = before.succeeded_by(codes)
    else:
        out = AnswerSet.encoded(codes, arity, dictionary)
    out.bracket = bracket
    if bracket is not None:
        out.spec = spec
    return out, maintained


def _patched_bounds(spec: WorldSpec, prior: tuple) -> tuple[AnswerSet | None, AnswerSet] | None:
    """The bounds of ``prior`` patched by its write, or ``None``.

    ``prior`` is ``(answers, relation, added, removed)``: an earlier
    answer set of this query carrying its bracket, and the net rows
    ``relation`` gained and lost since.  ``None`` when ``answers``
    carries no bracket of this plan or a bound cannot be maintained
    under writes to ``relation`` (:func:`~repro.logic.columnar.maintained_answers`).
    """
    answers, relation, added, removed = prior
    if answers.bracket is None:
        return None
    lower, upper = answers.bracket
    if upper.plan is not spec.plan.root:
        return None
    upper = maintained_answers(upper, spec.parent, relation, added, removed)
    if upper is None:
        return None
    if lower is not None:
        lower = maintained_answers(lower, spec.parent, relation, added, removed)
        if lower is None:
            return None
    return lower, upper


def _bracketed(
    spec: WorldSpec, stats_out: dict | None, prior: tuple | None
) -> tuple[frozenset, tuple | None, bool]:
    """``lower ∪ (the gap rows that survive every world)``, encoded.

    ``lower`` (the null-free rows of the plan's lower bound) holds in
    every world.  ``upper`` (the null-free naive answers) is the answer
    of the all-fresh world, which the pool's fresh tail can build: that
    world holds every ``upper`` row, so it can never remove a gap row
    and is marked seen instead of evaluated.  So only ``upper − lower``
    needs worlds: the sweep starts from the gap and stops once no gap
    row is left.

    The bounds are patched from ``prior`` (:func:`_patched_bounds`) when
    it allows, else computed on the instance, counted where they can be
    (``lower`` is ``None`` when the query has no lower-bound plan).
    Returns ``(rows, bounds, patched)``; ``bounds`` is ``None`` unless
    ``upper`` is counted, so that a later read can patch them.
    """
    bounds = _patched_bounds(spec, prior) if prior is not None else None
    patched = bounds is not None
    if not patched:
        bounds = spec.plan.lower_answers(spec.parent), spec.plan.naive_answers(spec.parent)
    lower_set, upper_set = bounds
    lower = lower_set.code_rows() if lower_set is not None else frozenset()
    upper = upper_set.code_rows()
    gap = upper - lower
    survivors: frozenset = frozenset()
    worlds = 0
    if gap:
        seen = {spec.world_key(spec.all_fresh())}
        survivors, _, worlds, _ = _sweep(spec, gap, seen)
    if stats_out is not None:
        stats_out.update(
            mode="bracket", worlds=worlds, lower=len(lower), upper=len(upper), gap=len(gap)
        )
    return lower | survivors, bounds if upper_set.plan is not None else None, patched


def _enumerated(spec: WorldSpec, stats_out: dict | None) -> frozenset | None:
    """``⋂ Q(v(D))`` over every world, encoded."""
    result, seed_worlds, worlds, in_seeds = _sweep(spec, None, set())
    if stats_out is not None:
        stats_out.update(
            seed_worlds=seed_worlds, mode="seed" if in_seeds else "serial", worlds=worlds
        )
    return result


def _sweep(
    spec: WorldSpec, running: frozenset | None, seen: set
) -> tuple[frozenset | None, int, int, bool]:
    """``running ∩ ⋂ Q(v(D))`` over the seed worlds, then the canonical sweep.

    Returns ``(intersection, seed_worlds, worlds, emptied_by_seeds)``.
    Extreme seed worlds often empty the intersection at once; when they
    do not, the sweep restarts from their intersection (so it can switch
    to residual probing) and skips them through the shared ``seen``,
    which also holds any world the caller already accounts for.
    """
    result, seed_worlds, stopped = spec.run(spec.seed_valuations(), running, seen)
    if stopped:
        return result, seed_worlds, seed_worlds, True
    result, worlds, _ = spec.run(
        _canonical_valuations(spec.n_slots, spec.base_choices, spec.fresh_tail),
        result,
        seen,
    )
    return result, seed_worlds, seed_worlds + worlds, False


class _EncodedRows(frozenset):
    """Decoded certain answers that also carry their encoded form.

    A plain frozenset to every caller of :func:`certain_answers`; the
    ``enumeration`` backend hands on :attr:`encoded`, an encoded
    :class:`~repro.data.answers.AnswerSet` over the instance's
    dictionary, so a served answer renders from the dictionary's
    per-code memos.  :attr:`maintained` says whether the bracket's
    bounds were patched from a ``prior`` result.
    """

    __slots__ = ("encoded", "maintained")

    def __repr__(self) -> str:
        return repr(frozenset(self))


def certain_answers(
    query: Query,
    instance: Instance,
    semantics: Semantics,
    pool: Sequence[Hashable] | None = None,
    extra_facts: int | None = None,
    limit: int = 500_000,
    stats_out: dict | None = None,
    prior: tuple | None = None,
) -> frozenset[tuple[Hashable, ...]]:
    """``⋂ { Q(E) : E ∈ [[instance]] }`` over the (defaulted) pool.

    Boolean queries yield ``{()}`` for certainly-true and ``frozenset()``
    otherwise, matching :meth:`Query.eval_raw`.  The query is compiled
    once (memoised across calls) and the same set-at-a-time plan runs on
    every world; enumeration stops as soon as the running intersection
    is empty.  Under a substitution-only semantics the rows also carry
    the oracle's encoded answers as ``.encoded``.

    ``stats_out``, when given, is filled in place with enumeration
    metadata: ``mode`` (``bracket``/``seed``/``serial``/``expand``),
    ``worlds`` evaluated, and for substitution-only semantics the null
    counts of the plan-relevance restriction.  A ``bracket`` run also
    reports the sizes of ``lower``, ``upper`` and their ``gap``.

    ``prior`` maintains a bracketed read under a write:
    ``(answers, relation, added, removed)`` is an earlier result's
    ``.encoded`` set of the same query (it carries the bracket's
    counted bounds) and the net rows ``relation`` gained and lost since.
    The bounds are then patched by witness counting and only the new
    gap is enumerated; ``stats_out`` reads as for a full run.  The full
    oracle runs instead when the bracket does not apply, the prior set
    carries no bounds, or a bound cannot be maintained under writes to
    ``relation`` (a negated side, a self-join).  Under a
    substitution-only semantics the rows' ``.maintained`` says which
    happened.
    """
    if pool is None:
        base, fresh = _pool_parts(instance, query)
        pool = base + fresh
    cq = compiled_query(query)
    if semantics.substitution_only:
        # a tuple is its own tuple(), so a caller's tuple pool arrives
        # as the same object on every read (see _carried_spec)
        encoded, maintained = _certain_by_valuations(
            cq, instance, semantics, tuple(pool), query.constants(), limit, stats_out, prior
        )
        rows = _EncodedRows(encoded.decode())
        rows.encoded = encoded
        rows.maintained = maintained
        return rows
    result = certain_over_expansion(query, instance, semantics, pool, extra_facts, limit, stats_out)
    if result is None:
        raise RuntimeError(
            f"[[D]] came out empty over the pool — {semantics!r} violated totality"
        )
    return result


def certain_over_expansion(
    query: Query,
    instance: Instance,
    semantics: Semantics,
    pool: Sequence[Hashable],
    extra_facts: int | None = None,
    limit: int = 500_000,
    stats_out: dict | None = None,
) -> frozenset[tuple[Hashable, ...]] | None:
    """``⋂ Q(E)`` over the worlds ``semantics.expand`` yields; ``None`` if none.

    Stops at the first world that empties the intersection.
    """
    schema = instance.schema().union(query_schema(query))
    # the worlds share one dictionary, so they intersect on encoded rows
    dictionary = Dictionary()
    plan = compiled_query(query)
    result: frozenset[tuple[int, ...]] | None = None
    worlds = 0
    for complete in semantics.expand(
        instance, list(pool), schema=schema, extra_facts=extra_facts, limit=limit
    ):
        rows = plan.raw_codes(ColumnarContext(complete, dictionary))
        worlds += 1
        result = rows if result is None else result & rows
        if not result:
            break
    if stats_out is not None:
        stats_out.update(mode="expand", worlds=worlds)
    return None if result is None else frozenset(map(dictionary.decode_row, result))


def certain_holds(
    query: Query,
    instance: Instance,
    semantics: Semantics,
    pool: Sequence[Hashable] | None = None,
    extra_facts: int | None = None,
    limit: int = 500_000,
) -> bool:
    """Certain truth of a Boolean query."""
    if not query.is_boolean:
        raise ValueError(f"query {query.name!r} is {query.arity}-ary; use certain_answers()")
    return bool(
        certain_answers(query, instance, semantics, pool, extra_facts, limit)
    )
