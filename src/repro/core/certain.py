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
(:func:`repro.logic.compile.compiled_query`, memoised on the query
value) and the same set-at-a-time plan is re-executed across all worlds.
For substitution-only semantics (CWA) the oracle never materialises an
:class:`~repro.data.instance.Instance` per world; instead it

* substitutes pool values into the null positions of pre-split row
  templates over lightweight :class:`~repro.data.indexes.TableContext`
  layers that share the hash indexes of the null-free relations,
* enumerates only one valuation per orbit of the interchangeable
  fresh-constant tail (restricted-growth canonical form),
* restricts enumeration to the *plan-relevant* nulls — those occurring
  in relations the compiled plan actually reads — whenever the plan is
  domain-independent (``CompiledQuery.adom_dependent`` is false), since
  two worlds agreeing on the read relations then yield identical
  answers,
* and evaluates a handful of *seed worlds* first (the all-fresh
  valuation and the constant collapses), whose extremes tend to empty
  the running intersection immediately, and stops as soon as it is
  empty.

Orbit skipping is sound because the skipped worlds are permutation
images of enumerated ones: a genuine certain answer contains no fresh
constant (some enumerated world's active domain avoids it), and
fresh-free answers survive a world iff they survive its permutation
images, by genericity.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Iterable, Iterator, Sequence

from repro.data.indexes import TableContext
from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.data.values import Null, sort_key
from repro.logic.ast import RelAtom
from repro.logic.compile import CompiledQuery, compiled_query
from repro.logic.queries import Query
from repro.logic.transform import subformulas, substitute
from repro.semantics.base import Semantics, guard_limit

__all__ = [
    "default_pool",
    "query_schema",
    "certain_answers",
    "certain_holds",
    "WorldSpec",
]


def _pool_parts(
    instance: Instance,
    query: Query | None = None,
    n_fresh: int | None = None,
    extra_constants: Iterable[Hashable] = (),
) -> tuple[list[Hashable], list[str]]:
    """``(sorted base constants, fresh tail)`` of the default pool.

    Split out of :func:`default_pool` so the oracle knows which suffix
    of the pool is the interchangeable fresh-constant tail (the orbit
    structure its incremental enumerator exploits).
    """
    base: set[Hashable] = set(instance.constants())
    if query is not None:
        base |= set(query.constants())
    base.update(extra_constants)
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
    extra_constants: Iterable[Hashable] = (),
) -> list[Hashable]:
    """The constant pool making bounded enumeration exact (see module doc).

    The pool is ordered deterministically and *type-stably* — constants
    are grouped by type name before value (via
    :func:`repro.data.values.sort_key`), never by raw ``repr``, so
    instances mixing ``int`` and ``str`` cells always enumerate in the
    same order regardless of construction order, and limit truncation
    is reproducible.  ``extra_constants`` widens the pool (e.g. with
    the constants of a whole query batch) without changing the scheme.
    """
    base, fresh = _pool_parts(instance, query, n_fresh, extra_constants)
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
def _residual_query(formula, answer_vars, row) -> CompiledQuery | None:
    """``φ(ā)`` compiled as a Boolean probe, or ``None`` when unusable.

    Substituting the answer constants turns the output join into an
    index-probing sentence check — the oracle's fast path once the
    running intersection is down to a handful of candidate rows.  Only
    domain-independent residuals qualify: their truth is a pure function
    of the relations read, so it transfers between a restricted world
    context and the full world.
    """
    cq = CompiledQuery(substitute(formula, dict(zip(answer_vars, row))), ())
    return None if cq.adom_dependent else cq


class WorldSpec:
    """The payload of one incremental world enumeration.

    Everything the oracle needs to enumerate and evaluate the valuation
    space: the compiled plan, the pre-split row templates of the
    null-carrying relations the plan reads, the shared null-free
    relations, and the orbit structure (base choices vs fresh tail).
    """

    __slots__ = (
        "cq",
        "templates",
        "dyn_names",
        "static",
        "base_adom",
        "read_base_cells",
        "n_slots",
        "base_choices",
        "fresh_tail",
    )

    def __init__(self, cq, templates, dyn_names, static, base_adom,
                 read_base_cells, n_slots, base_choices, fresh_tail):
        self.cq = cq
        self.templates = templates
        self.dyn_names = dyn_names
        self.static = static
        self.base_adom = base_adom
        #: cells of the plan-read relations that every world shares
        #: (static rows + template constants) — the valuation image is
        #: the only world-varying part of the read cells
        self.read_base_cells = read_base_cells
        self.n_slots = n_slots
        self.base_choices = base_choices
        self.fresh_tail = fresh_tail

    def base_context(self) -> TableContext | None:
        return TableContext(self.static) if self.static else None

    def seed_valuations(self) -> Iterator[tuple[Hashable, ...]]:
        """Extreme worlds whose evaluation tends to kill the intersection.

        The all-distinct-fresh valuation (the "most generic" world) and
        the per-constant total collapses are canonical valuations, so
        re-encountering them during the main sweep is caught by the
        content dedup.
        """
        n = self.n_slots
        if n == 0:
            return
        if len(self.fresh_tail) >= n:
            yield tuple(self.fresh_tail[:n])
        for c in self.base_choices:
            yield (c,) * n

    def _residual_candidates(self, running: frozenset):
        """Per-candidate Boolean probes, or ``None`` when ineligible.

        Eligible when the plan is domain-independent, the query is
        non-Boolean, the running intersection is small, and every
        residual compiles domain-independent.  Each entry is
        ``(row, probe, needed)`` where ``needed`` lists the row's values
        that only a valuation image can put among the read cells.
        """
        if self.cq.adom_dependent or not self.cq.answer_vars:
            return None
        if not running or len(running) > _RESIDUAL_MAX:
            return None
        out = []
        for row in running:
            probe = _residual_query(self.cq.formula, self.cq.answer_vars, row)
            if probe is None:
                return None
            needed = tuple(v for v in set(row) if v not in self.read_base_cells)
            out.append((row, probe, needed))
        return out

    def _verify(
        self,
        candidates: list,
        valuations: Iterable[tuple[Hashable, ...]],
        base_ctx: TableContext | None,
        seen: set | None = None,
    ) -> tuple[frozenset, int, bool]:
        """Drop candidates falsified by some world (the residual fast path).

        ``row ∈ Q(world)`` iff the residual ``φ(row)`` holds *and* every
        value of ``row`` is among the world's read cells — which differ
        from :attr:`read_base_cells` only by the valuation's image.
        """
        templates, dyn_names = self.templates, self.dyn_names
        base_adom = self.base_adom
        if seen is None:
            seen = set()
        alive = list(candidates)
        worlds = 0
        for vals in valuations:
            rels = {
                name: frozenset(
                    tuple(vals[payload] if is_null else payload
                          for is_null, payload in spec)
                    for spec in specs
                )
                for name, specs in templates.items()
            }
            key = tuple(rels[name] for name in dyn_names)
            if key in seen:
                continue
            seen.add(key)
            worlds += 1
            ctx = TableContext(rels, adom=base_adom | frozenset(vals), base=base_ctx)
            vset: set | None = None
            survivors = []
            for row, probe, needed in alive:
                if needed:
                    if vset is None:
                        vset = set(vals)
                    if not all(v in vset for v in needed):
                        continue
                if probe.answers(ctx):
                    survivors.append((row, probe, needed))
            alive = survivors
            if not alive:
                return frozenset(), worlds, True
        return frozenset(row for row, _, _ in alive), worlds, False

    def run(
        self,
        valuations: Iterable[tuple[Hashable, ...]],
        running: frozenset | None = None,
        base_ctx: TableContext | None = None,
        seen: set | None = None,
    ) -> tuple[frozenset | None, int, bool]:
        """``running ∩ ⋂ Q(v(D))`` over ``valuations``.

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
        if base_ctx is None:
            base_ctx = self.base_context()
        if running is not None:
            candidates = self._residual_candidates(running)
            if candidates is not None:
                return self._verify(candidates, valuations, base_ctx, seen)
        templates, dyn_names = self.templates, self.dyn_names
        base_adom, cq = self.base_adom, self.cq
        if seen is None:
            seen = set()
        result = running
        worlds = 0
        for vals in valuations:
            rels = {
                name: frozenset(
                    tuple(vals[payload] if is_null else payload
                          for is_null, payload in spec)
                    for spec in specs
                )
                for name, specs in templates.items()
            }
            key = tuple(rels[name] for name in dyn_names)
            if key in seen:
                continue
            seen.add(key)
            # every relevant null occurs in some template row, so the
            # world's query-visible domain is the static/constant part
            # plus the valuation's image
            ctx = TableContext(rels, adom=base_adom | frozenset(vals), base=base_ctx)
            rows = cq.answers(ctx)
            worlds += 1
            result = rows if result is None else result & rows
            if result is not None and not result:
                return result, worlds, True
        return result, worlds, False


def _build_spec(
    cq: CompiledQuery,
    instance: Instance,
    semantics: Semantics,
    pool: Sequence[Hashable],
    fresh_tail: Sequence[Hashable],
    limit: int,
) -> tuple[WorldSpec, frozenset, dict]:
    """Split the instance into a :class:`WorldSpec` plus oracle metadata.

    Performs the plan-relevance restriction: when the compiled plan is
    domain-independent, only nulls occurring in relations the plan reads
    are enumerated (worlds agreeing on those relations answer alike, so
    the intersection over the full valuation space equals the one over
    the restricted space).
    """
    nulls = sorted(instance.nulls(), key=sort_key)
    read = cq.relations
    restrict = not cq.adom_dependent
    null_rows: dict[str, frozenset] = {}
    static: dict[str, frozenset] = {}
    for name in instance.relations:
        rows = instance.tuples(name)
        if any(isinstance(v, Null) for row in rows for v in row):
            null_rows[name] = rows
        else:
            static[name] = rows

    if restrict:
        relevant_set = {
            v
            for name in null_rows
            if name in read
            for row in null_rows[name]
            for v in row
            if isinstance(v, Null)
        }
        relevant = [n for n in nulls if n in relevant_set]
        template_names = [name for name in null_rows if name in read]
    else:
        relevant = list(nulls)
        template_names = list(null_rows)

    guard_limit(len(pool) ** len(relevant), limit, f"{semantics.name} expansion")

    fresh_set = frozenset(fresh_tail)
    base_choices = [v for v in pool if v not in fresh_set]
    if relevant and not base_choices and len(fresh_set) == 1:
        # a single interchangeable value that every valuation must use is
        # not a skippable tail: no world's active domain avoids it, so
        # rows mentioning it can be genuinely certain — enumerate plainly
        fresh_tail, fresh_set = (), frozenset()
        base_choices = list(pool)

    null_index = {n: i for i, n in enumerate(relevant)}
    # per relation: rows as ((is_null, payload), ...) — payload is the
    # null's valuation slot when is_null, the constant cell otherwise
    base_constants: set[Hashable] = set()
    read_cells: set[Hashable] = set()
    templates: dict[str, list[tuple[tuple[bool, object], ...]]] = {
        name: [
            tuple(
                (True, null_index[v]) if isinstance(v, Null) else (False, v)
                for v in row
            )
            for row in null_rows[name]
        ]
        for name in template_names
    }
    for name in template_names:
        cells = {
            v for row in null_rows[name] for v in row if not isinstance(v, Null)
        }
        base_constants |= cells
        read_cells |= cells
    for name, rows in static.items():
        for row in rows:
            base_constants.update(row)
            if name in read:
                read_cells.update(row)

    spec = WorldSpec(
        cq=cq,
        templates=templates,
        dyn_names=tuple(sorted(templates)),
        static=static,
        base_adom=frozenset(base_constants),
        read_base_cells=frozenset(read_cells),
        n_slots=len(relevant),
        base_choices=tuple(base_choices),
        fresh_tail=tuple(fresh_tail),
    )
    info = {
        "total_nulls": len(nulls),
        "relevant_nulls": len(relevant),
        "restricted": restrict and len(relevant) < len(nulls),
    }
    return spec, fresh_set, info


def _certain_by_valuations(
    cq: CompiledQuery,
    instance: Instance,
    semantics: Semantics,
    pool: Sequence[Hashable],
    fresh_tail: Sequence[Hashable],
    limit: int,
    stats_out: dict | None = None,
) -> frozenset[tuple[Hashable, ...]]:
    """``⋂ Q(v(D))`` over valuations, without building an Instance per world.

    The relations are split once: null-free relations live in a shared
    base context (their hash indexes are built at most once for the
    whole enumeration); null-carrying relations are pre-compiled into
    row templates and substituted per valuation.  ``fresh_tail`` lists
    the interchangeable pool values — those mentioned by neither the
    instance nor the query (empty = enumerate the full product).
    """
    spec, fresh_set, info = _build_spec(cq, instance, semantics, pool, fresh_tail, limit)

    if stats_out is not None:
        stats_out.update(info)

    base_ctx = spec.base_context()
    seen: set[tuple] = set()
    # seed worlds: extreme worlds often empty the intersection at once
    seed_result, seed_worlds, stopped = spec.run(
        spec.seed_valuations(), None, base_ctx, seen=seen
    )
    if stats_out is not None:
        stats_out["seed_worlds"] = seed_worlds

    result: frozenset | None
    if stopped:
        result = seed_result
        if stats_out is not None:
            stats_out.update(mode="seed", worlds=seed_worlds)
    else:
        result, worlds, _ = spec.run(
            _canonical_valuations(spec.n_slots, spec.base_choices, spec.fresh_tail),
            seed_result,
            base_ctx,
            seen=seen,  # seed worlds are not re-evaluated by the sweep
        )
        if stats_out is not None:
            stats_out.update(mode="serial", worlds=seed_worlds + worlds)

    if result is None:
        raise RuntimeError(
            f"[[D]] came out empty over the pool — {semantics!r} violated totality"
        )
    if result and fresh_set:
        # a certain answer never mentions a fresh constant (some world's
        # active domain avoids it); dropping such rows here replays what
        # the skipped permutation-image worlds would have done
        result = frozenset(row for row in result if fresh_set.isdisjoint(row))
    return result


def certain_answers(
    query: Query,
    instance: Instance,
    semantics: Semantics,
    pool: Sequence[Hashable] | None = None,
    extra_facts: int | None = None,
    limit: int = 500_000,
    stats_out: dict | None = None,
) -> frozenset[tuple[Hashable, ...]]:
    """``⋂ { Q(E) : E ∈ [[instance]] }`` over the (defaulted) pool.

    Boolean queries yield ``{()}`` for certainly-true and ``frozenset()``
    otherwise, matching :meth:`Query.eval_raw`.  The query is compiled
    once (memoised across calls) and the same set-at-a-time plan runs on
    every world; enumeration stops as soon as the running intersection
    is empty.

    ``stats_out``, when given, is filled in place with enumeration
    metadata: ``mode`` (``seed``/``serial``/``expand``), ``worlds``
    evaluated, and for substitution-only semantics the null counts of
    the plan-relevance restriction.
    """
    if pool is None:
        base, fresh = _pool_parts(instance, query)
        pool = base + fresh
    cq = compiled_query(query)
    if semantics.substitution_only:
        # the interchangeable tail of *any* pool: values mentioned by
        # neither the instance nor the query are anonymous to both, so
        # permuting them fixes D and Q while permuting worlds — exactly
        # the genericity the orbit transversal needs.  (For the default
        # pool this recovers the |Null(D)|+1 fresh constants; for a
        # session's batch pool it also covers the other queries'
        # constants, which are fresh with respect to *this* query.)
        known = instance.constants() | set(query.constants())
        fresh_tail = tuple(v for v in pool if v not in known)
        return _certain_by_valuations(
            cq, instance, semantics, list(pool), fresh_tail, limit, stats_out=stats_out
        )
    schema = instance.schema().union(query_schema(query))
    result: frozenset[tuple[Hashable, ...]] | None = None
    worlds = 0
    for complete in semantics.expand(
        instance, list(pool), schema=schema, extra_facts=extra_facts, limit=limit
    ):
        rows = cq.answers(complete)
        worlds += 1
        result = rows if result is None else result & rows
        if not result:
            break
    if stats_out is not None:
        stats_out.update(mode="expand", worlds=worlds)
    if result is None:
        raise RuntimeError(
            f"[[D]] came out empty over the pool — {semantics!r} violated totality"
        )
    return result


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
