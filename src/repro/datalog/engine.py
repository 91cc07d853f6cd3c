"""Bottom-up datalog evaluation over naive databases.

Semi-naive fixpoint computation with nulls treated as ordinary values —
i.e., *naive evaluation* in the paper's sense, for datalog.  Because
datalog programs are monotone and generic, naive evaluation computes
certain answers under both OWA and CWA (the observation of Section 12,
validated in the tests against the brute-force oracle).

Rule bodies are matched **set-at-a-time**: each body (with the delta
atom of semi-naive evaluation renamed to a shadow relation) is compiled
once into the hash-join plan of :mod:`repro.logic.compile` and run by
the columnar executor (:mod:`repro.logic.columnar`) on one context per
round — a :meth:`~repro.data.dictionary.ColumnarContext.layer` holding
the round's relations and ``Δ`` shadows over the EDB's context, which
serves the EDB relations no rule derives into — so every rule of the
round shares the indexes it probes.  The tuple-at-a-time matcher
(:func:`_match_atom` / :func:`_apply_rule_interp`) is retained as the
differential baseline; it probes the instance's memoised hash index
(:meth:`~repro.data.instance.Instance.index`) on the positions its
binding determines instead of scanning every tuple.  Atoms whose
declared arity disagrees with the stored relation match nothing in
either engine.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Hashable, Iterator

from repro.data.dictionary import ColumnarContext, EncodedRelation, columnar_context
from repro.data.instance import Instance
from repro.data.values import Null
from repro.datalog.program import Atom, Program, Rule
from repro.logic.ast import And, Exists, RelAtom, Var
from repro.logic.columnar import CompiledQuery, compile_formula

__all__ = ["evaluate_program", "datalog_naive_answers", "datalog_certain_answers"]

#: shadow-relation prefix for the semi-naive delta copy of a relation
#: (relation names are arbitrary, so pick one no sane schema uses)
_DELTA = "Δ∂·"


def _match_atom(
    atom: Atom,
    source: Instance,
    binding: dict[Var, Hashable],
) -> Iterator[dict[Var, Hashable]]:
    """Extensions of ``binding`` matching ``atom`` against ``source``.

    The candidate rows are narrowed by probing the instance's hash index
    on the positions the binding already determines (constants and
    bound variables) instead of scanning the whole relation.
    """
    facts = source.tuples(atom.name)
    # probe only when the stored arity matches the atom's — an index
    # keyed on positions a shorter row lacks cannot even be built
    if facts and len(next(iter(facts))) == len(atom.terms):
        bound_positions: list[int] = []
        bound_key: list[Hashable] = []
        for i, term in enumerate(atom.terms):
            if isinstance(term, Var):
                if term in binding:
                    bound_positions.append(i)
                    bound_key.append(binding[term])
            else:
                bound_positions.append(i)
                bound_key.append(term)
        if bound_positions:
            facts = source.index(atom.name, tuple(bound_positions)).get(tuple(bound_key), ())
    for row in facts:
        if len(row) != len(atom.terms):
            continue
        extension: dict[Var, Hashable] = {}
        ok = True
        for term, value in zip(atom.terms, row):
            if isinstance(term, Var):
                bound = binding.get(term, extension.get(term))
                if bound is None:
                    extension[term] = value
                elif bound != value:
                    ok = False
                    break
            elif term != value:
                ok = False
                break
        if ok:
            yield {**binding, **extension}


@lru_cache(maxsize=4096)
def _rule_plan(
    rule: Rule, delta_position: int
) -> tuple[CompiledQuery, tuple[tuple[bool, object], ...]]:
    """``(plan, head spec)`` for one rule body as a compiled join.

    ``delta_position`` names the body atom redirected to the shadow
    delta relation (``-1`` = none; plain naive evaluation).  The head
    spec rebuilds the head row from an answer tuple: ``(True, i)`` takes
    answer column ``i``, ``(False, c)`` the constant ``c``.
    """
    atoms = []
    for i, atom in enumerate(rule.body):
        name = _DELTA + atom.name if i == delta_position else atom.name
        atoms.append(RelAtom(name, atom.terms))
    head_vars: list[Var] = []
    for term in rule.head.terms:
        if isinstance(term, Var) and term not in head_vars:
            head_vars.append(term)
    body = atoms[0] if len(atoms) == 1 else And(tuple(atoms))
    bound = frozenset(v for atom in rule.body for v in atom.variables())
    inner = tuple(sorted(bound - set(head_vars), key=lambda v: v.name))
    if inner:
        body = Exists(inner, body)
    plan = compile_formula(body, tuple(head_vars))
    head_spec = tuple(
        (True, head_vars.index(term)) if isinstance(term, Var) else (False, term)
        for term in rule.head.terms
    )
    return plan, head_spec


def _round_context(
    total: Instance,
    delta: Instance | None,
    static: ColumnarContext | None = None,
    static_names: frozenset[str] = frozenset(),
) -> ColumnarContext:
    """One execution context per fixpoint round, shared by every rule.

    A layer holding the ``total`` relations plus shadow ``Δ`` copies of
    the delta, so all (rule, delta-position) plans of the round probe
    the same lazily built indexes.  Relations in ``static_names`` (EDB
    relations no rule ever derives into, identical in every round) are
    served — rows and indexes — by ``static``, the EDB's context, so
    they are encoded once per fixpoint instead of once per round.
    Without ``static`` the round layers over ``total``'s own context.
    """
    if static is None:
        static, static_names = columnar_context(total), frozenset(total.relations)
    dictionary = static.dictionary
    rels = {
        name: EncodedRelation.from_rows(total.tuples(name), dictionary)
        for name in total.relations
        if name not in static_names
    }
    if delta is not None:
        for name in delta.relations:
            rels[_DELTA + name] = EncodedRelation.from_rows(delta.tuples(name), dictionary)
    return ColumnarContext.layer(static, rels, frozenset(map(dictionary.encode, total.adom())))


def _apply_rule_interp(
    rule: Rule,
    total: Instance,
    delta: Instance | None,
) -> set[tuple[str, tuple]]:
    """Tuple-at-a-time fallback matcher (index-probing, but row-by-row)."""
    derived: set[tuple[str, tuple]] = set()
    positions = range(len(rule.body)) if delta is not None else [None]
    for delta_position in positions:
        bindings: list[dict[Var, Hashable]] = [{}]
        dead = False
        for index, atom in enumerate(rule.body):
            source = delta if delta is not None and index == delta_position else total
            next_bindings: list[dict[Var, Hashable]] = []
            for binding in bindings:
                next_bindings.extend(_match_atom(atom, source, binding))
            bindings = next_bindings
            if not bindings:
                dead = True
                break
        if dead:
            continue
        for binding in bindings:
            row = tuple(
                binding[t] if isinstance(t, Var) else t for t in rule.head.terms
            )
            derived.add((rule.head.name, row))
    return derived


def _apply_rule(
    rule: Rule,
    total: Instance,
    delta: Instance | None,
    ctx: ColumnarContext | None = None,
) -> set[tuple[str, tuple]]:
    """Join the rule body against ``total`` via the compiled join plan.

    Semi-naive mode: when ``delta`` is given, at least one body atom
    must match a delta fact (classic differential evaluation); joins
    still read the full ``total`` for the remaining atoms.  ``ctx`` lets
    the fixpoint driver share one per-round context (and its indexes)
    across all rules; omitted, a private one is built.
    """
    if ctx is None:
        ctx = _round_context(total, delta)
    decode = ctx.dictionary.decode_row
    derived: set[tuple[str, tuple]] = set()
    positions = range(len(rule.body)) if delta is not None else [-1]
    head_name = rule.head.name
    for delta_position in positions:
        plan, head_spec = _rule_plan(rule, delta_position)
        for answer in map(decode, plan.raw_codes(ctx)):
            derived.add(
                (
                    head_name,
                    tuple(
                        answer[payload] if is_var else payload
                        for is_var, payload in head_spec
                    ),
                )
            )
    return derived


def evaluate_program(program: Program, edb: Instance, semi_naive: bool = True) -> Instance:
    """The least fixpoint: EDB plus all derivable IDB facts.

    Nulls participate exactly like constants (naive equality), so this
    is stage one of naive evaluation for datalog queries.

    ``semi_naive=False`` switches to full re-derivation per round (the
    textbook naive fixpoint) — same result, used as an ablation baseline
    in ``benchmarks/bench_ablation.py``.
    """
    total = edb
    delta = edb
    # relations no rule head derives into never change across rounds:
    # the EDB's context serves them (and their lazily built indexes)
    # under every round's layer
    static_names = frozenset(edb.relations) - program.idb
    static_ctx = columnar_context(edb)
    while True:
        ctx = _round_context(
            total, delta if semi_naive else None, static_ctx, static_names
        )
        new_facts: set[tuple[str, tuple]] = set()
        for rule in program.rules:
            derived = _apply_rule(rule, total, delta if semi_naive else None, ctx)
            for name, row in derived:
                if row not in total.tuples(name):
                    new_facts.add((name, row))
        if not new_facts:
            return total
        delta = Instance.from_facts(new_facts)
        total = total.union(delta)


def datalog_naive_answers(
    program: Program, edb: Instance, predicate: str
) -> frozenset[tuple[Hashable, ...]]:
    """Naive evaluation of a datalog query: fixpoint, project, drop nulls."""
    fixpoint = evaluate_program(program, edb)
    return frozenset(
        row
        for row in fixpoint.tuples(predicate)
        if not any(isinstance(v, Null) for v in row)
    )


def datalog_certain_answers(
    program: Program,
    edb: Instance,
    predicate: str,
    semantics,
    pool=None,
    extra_facts: int | None = None,
    limit: int = 500_000,
) -> frozenset[tuple[Hashable, ...]]:
    """Brute-force certain answers: intersect over ``[[edb]]``.

    The oracle for validating that naive datalog evaluation computes
    certain answers (it must, by monotonicity + genericity).
    """
    from repro.core.certain import default_pool

    if pool is None:
        pool = default_pool(edb)
    result: frozenset[tuple[Hashable, ...]] | None = None
    schema = edb.schema()
    for complete in semantics.expand(
        edb, list(pool), schema=schema, extra_facts=extra_facts, limit=limit
    ):
        rows = frozenset(evaluate_program(program, complete).tuples(predicate))
        result = rows if result is None else result & rows
        if not result:
            break
    if result is None:
        raise RuntimeError("[[edb]] came out empty over the pool")
    return result
