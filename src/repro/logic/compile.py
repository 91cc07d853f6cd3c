"""Compilation of FO formulas into set-at-a-time relational plans.

The tree-walking evaluator (:mod:`repro.logic.eval`) computes
``answers(φ)`` by testing every candidate tuple in ``adom^k`` — correct,
and the right *baseline* for the paper's polynomial-data-complexity
claim, but with constants that hide it: a join ``∃z (R(x,z) ∧ R(z,y))``
costs ``O(|adom|² · |R|)`` regardless of join selectivity.

This module translates formulas **bottom-up into relational-algebra
operators** in the classic set-at-a-time discipline:

* relational atoms become index-assisted scans;
* conjunctions become chains of **hash joins** on the shared variables,
  degenerating to **semi-joins** when the right side contributes no new
  columns (the ``∃``-heavy case) and probing the per-instance hash
  indexes of :mod:`repro.data.indexes` when the right side is a plain
  scan;
* negated conjuncts whose variables are already bound become
  **anti-joins**;
* universal quantifiers compile through the dual ``∀x̄ φ ≡ ¬∃x̄ ¬φ``, so
  guarded formulas (``Pos+∀G``) stay join-shaped;
* only *genuinely unsafe* subtrees (a bare ``¬R(x,y)``, a disjunct that
  does not bind a variable) fall back to the **active-domain
  complement/extension** — exactly the semantics the interpreter
  implements, so the compiled evaluator is **equivalent on every
  formula**, not just the safe fragment.

Every operator maintains the invariant that its output rows range over
the active domain of the execution context, which makes the compiled
result bit-for-bit equal to :func:`repro.logic.eval.answers` (the
differential property suite in ``tests/test_compile.py`` asserts this
over random instances and queries in all fragments).

Compilation is instance-independent: a :class:`CompiledQuery` is built
once (``compiled_query`` memoises per :class:`~repro.logic.queries.Query`)
and executed against any :class:`~repro.data.instance.Instance` or raw
:class:`~repro.data.indexes.TableContext` — the certain-answer oracle
re-executes one compiled plan across thousands of pool-valuation worlds.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Hashable, Iterable, Sequence

from repro.data.indexes import TableContext, as_context
from repro.logic.ast import (
    And,
    EqAtom,
    Exists,
    FalseF,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    RelAtom,
    TrueF,
    Var,
)
from repro.logic.transform import free_vars, nnf

__all__ = ["CompiledQuery", "compile_formula", "compiled_query", "clear_compile_cache"]

_EMPTY: frozenset[tuple] = frozenset()
_UNIT: frozenset[tuple] = frozenset([()])


# ----------------------------------------------------------------------
# operator nodes
# ----------------------------------------------------------------------

class Node:
    """One relational operator; ``columns`` names its output schema.

    Invariant: ``evaluate`` returns a frozenset of tuples aligned with
    ``columns`` whose values all lie in the context's active domain.
    Results are memoised per run so shared subplans (hash-consed by
    subformula) execute once per world.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Iterable[Var]):
        self.columns: tuple[Var, ...] = tuple(columns)

    def evaluate(self, ctx: TableContext, memo: dict) -> frozenset[tuple]:
        key = id(self)
        if key not in memo:
            memo[key] = self._run(ctx, memo)
        return memo[key]

    def _run(self, ctx: TableContext, memo: dict) -> frozenset[tuple]:
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__

    def children(self) -> tuple["Node", ...]:
        return ()

    def describe(self, indent: int = 0) -> str:
        """An EXPLAIN-style rendering of the operator tree."""
        cols = ", ".join(c.name for c in self.columns)
        lines = ["  " * indent + f"{self.label()} [{cols}]"]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


class ConstNode(Node):
    """``true`` / ``false``: the nullary unit / empty relation."""

    __slots__ = ("truth",)

    def __init__(self, truth: bool):
        super().__init__(())
        self.truth = truth

    def _run(self, ctx, memo):
        return _UNIT if self.truth else _EMPTY

    def label(self):
        return "true" if self.truth else "false"


class ScanNode(Node):
    """Index-assisted scan of one relational atom.

    Constant positions probe the per-relation hash index; repeated
    variables filter; the output projects to the distinct variables in
    first-occurrence order.
    """

    __slots__ = (
        "name",
        "arity",
        "_const_positions",
        "_const_key",
        "_eq_checks",
        "_var_positions",
        "is_plain",
    )

    def __init__(self, atom: RelAtom):
        seen: dict[Var, int] = {}
        const_positions: list[int] = []
        const_key: list[Hashable] = []
        eq_checks: list[tuple[int, int]] = []
        for i, term in enumerate(atom.terms):
            if isinstance(term, Var):
                if term in seen:
                    eq_checks.append((i, seen[term]))
                else:
                    seen[term] = i
            else:
                const_positions.append(i)
                const_key.append(term)
        super().__init__(seen)
        self.name = atom.name
        self.arity = len(atom.terms)
        self._const_positions = tuple(const_positions)
        self._const_key = tuple(const_key)
        self._eq_checks = tuple(eq_checks)
        self._var_positions = tuple(seen.values())
        self.is_plain = not const_positions and not eq_checks

    def _run(self, ctx, memo):
        rows = ctx.rows(self.name)
        if not rows or len(next(iter(rows))) != self.arity:
            # absent relation, or one stored under a different arity: the
            # atom matches nothing (the interpreter's tuple-membership
            # test likewise never succeeds), and probing would build an
            # index over rows the key positions may not even reach
            return _EMPTY
        if self._const_positions:
            rows = ctx.index(self.name, self._const_positions).get(self._const_key, ())
        if self.is_plain:
            return frozenset(rows)
        eq, keep = self._eq_checks, self._var_positions
        out = set()
        for row in rows:
            if all(row[i] == row[j] for i, j in eq):
                out.add(tuple(row[p] for p in keep))
        return frozenset(out)

    def label(self):
        if self.is_plain:
            sel = ""
        else:
            sel = f" σ={len(self._const_positions) + len(self._eq_checks)}"
        return f"scan {self.name}/{self.arity}{sel}"


class DomainNode(Node):
    """The active domain as a unary relation (unsafe-variable fallback)."""

    __slots__ = ()

    def __init__(self, var: Var):
        super().__init__((var,))

    def _run(self, ctx, memo):
        return frozenset((a,) for a in ctx.adom())

    def label(self):
        return "adom"


class DiagonalNode(Node):
    """``x = y`` over the active domain: ``{(a, a) | a ∈ adom}``."""

    __slots__ = ()

    def __init__(self, left: Var, right: Var):
        super().__init__((left, right))

    def _run(self, ctx, memo):
        return frozenset((a, a) for a in ctx.adom())

    def label(self):
        return "adom-diagonal"


class SingletonNode(Node):
    """``x = c``: the singleton ``{(c,)}`` when ``c`` is active, else ∅."""

    __slots__ = ("value",)

    def __init__(self, var: Var, value: Hashable):
        super().__init__((var,))
        self.value = value

    def _run(self, ctx, memo):
        return frozenset([(self.value,)]) if self.value in ctx.adom() else _EMPTY

    def label(self):
        return f"singleton {self.value!r}"


class DomainGuardNode(Node):
    """Gate on a non-empty active domain (dummy quantified variables)."""

    __slots__ = ("child",)

    def __init__(self, child: Node):
        super().__init__(child.columns)
        self.child = child

    def _run(self, ctx, memo):
        if not ctx.adom():
            return _EMPTY
        return self.child.evaluate(ctx, memo)

    def label(self):
        return "adom-guard"

    def children(self):
        return (self.child,)


class JoinNode(Node):
    """Hash join on the shared columns.

    Degenerates to a semi-join when the right side adds no columns, to a
    cross product when no columns are shared, and probes the context's
    cached per-relation hash index when the right side is a plain scan
    (so repeated executions over one instance share the build side).
    """

    __slots__ = ("left", "right", "_l_key", "_r_key", "_r_extra", "_probe")

    def __init__(self, left: Node, right: Node):
        shared = [c for c in left.columns if c in right.columns]
        self.left, self.right = left, right
        self._l_key = tuple(left.columns.index(c) for c in shared)
        self._r_key = tuple(right.columns.index(c) for c in shared)
        self._r_extra = tuple(
            i for i, c in enumerate(right.columns) if c not in left.columns
        )
        super().__init__(left.columns + tuple(right.columns[i] for i in self._r_extra))
        # plain scans expose position == column-index, so the shared key
        # maps directly onto an index over the stored rows
        self._probe = (
            isinstance(right, ScanNode) and right.is_plain and bool(shared)
        )

    def _run(self, ctx, memo):
        left_rows = self.left.evaluate(ctx, memo)
        if not left_rows:
            return _EMPTY
        lk, rk, extra = self._l_key, self._r_key, self._r_extra

        if self._probe:
            stored = ctx.rows(self.right.name)
            if not stored or len(next(iter(stored))) != self.right.arity:
                return _EMPTY  # same arity guard as the scan itself
            idx = ctx.index(self.right.name, rk)
            if not extra:  # semi-join straight off the index
                return frozenset(
                    lr for lr in left_rows if tuple(lr[i] for i in lk) in idx
                )
            out = set()
            for lr in left_rows:
                bucket = idx.get(tuple(lr[i] for i in lk))
                if bucket:
                    for row in bucket:
                        out.add(lr + tuple(row[i] for i in extra))
            return frozenset(out)

        right_rows = self.right.evaluate(ctx, memo)
        if not right_rows:
            return _EMPTY
        if not extra:  # semi-join on materialised keys
            keys = {tuple(r[i] for i in rk) for r in right_rows}
            return frozenset(
                lr for lr in left_rows if tuple(lr[i] for i in lk) in keys
            )
        out = set()
        if len(right_rows) <= len(left_rows):
            table: dict[tuple, list[tuple]] = {}
            for r in right_rows:
                table.setdefault(tuple(r[i] for i in rk), []).append(
                    tuple(r[i] for i in extra)
                )
            for lr in left_rows:
                bucket = table.get(tuple(lr[i] for i in lk))
                if bucket:
                    for tail in bucket:
                        out.add(lr + tail)
        else:
            ltable: dict[tuple, list[tuple]] = {}
            for lr in left_rows:
                ltable.setdefault(tuple(lr[i] for i in lk), []).append(lr)
            for r in right_rows:
                bucket = ltable.get(tuple(r[i] for i in rk))
                if bucket:
                    tail = tuple(r[i] for i in extra)
                    for lr in bucket:
                        out.add(lr + tail)
        return frozenset(out)

    def label(self):
        if not self._r_extra:
            kind = "semi-join"
        elif not self._l_key:
            kind = "product"
        else:
            kind = "hash-join"
        if self._probe:
            kind += " (index probe)"
        return kind

    def children(self):
        return (self.left, self.right)


class AntiJoinNode(Node):
    """Rows of ``left`` with **no** partner in ``right`` (negation)."""

    __slots__ = ("left", "right", "_l_key")

    def __init__(self, left: Node, right: Node):
        missing = [c for c in right.columns if c not in left.columns]
        if missing:
            raise ValueError(f"anti-join needs bound columns; unbound: {missing}")
        super().__init__(left.columns)
        self.left, self.right = left, right
        self._l_key = tuple(left.columns.index(c) for c in right.columns)

    def _run(self, ctx, memo):
        left_rows = self.left.evaluate(ctx, memo)
        if not left_rows:
            return _EMPTY
        right_rows = self.right.evaluate(ctx, memo)
        if not right_rows:
            return left_rows
        lk = self._l_key
        # the right side's full rows are the probe keys
        return frozenset(
            lr for lr in left_rows if tuple(lr[i] for i in lk) not in right_rows
        )

    def label(self):
        return "anti-join"

    def children(self):
        return (self.left, self.right)


class UnifyAntiJoinNode(Node):
    """Rows of ``left`` that **unify** with no row of ``right``.

    The negation step of the certain-answer lower bound
    (:attr:`CompiledQuery.lower_plan`): a null unifies with anything, so
    a row survives only if no valuation can make it match ``right``.
    Columnar only (:func:`repro.logic.kernels.unify_anti_join`); the
    tuple-at-a-time executor never runs a lower-bound plan.
    """

    __slots__ = ("left", "right", "_l_key")

    def __init__(self, left: Node, right: Node):
        super().__init__(left.columns)
        self.left, self.right = left, right
        self._l_key = tuple(left.columns.index(c) for c in right.columns)

    def label(self):
        return "null-unifying anti-join"

    def children(self):
        return (self.left, self.right)


class FilterNode(Node):
    """Column=column / column=constant selections (equality atoms)."""

    __slots__ = ("child", "_col_eqs", "_const_eqs")

    def __init__(
        self,
        child: Node,
        col_eqs: Sequence[tuple[int, int]],
        const_eqs: Sequence[tuple[int, Hashable]],
    ):
        super().__init__(child.columns)
        self.child = child
        self._col_eqs = tuple(col_eqs)
        self._const_eqs = tuple(const_eqs)

    def _run(self, ctx, memo):
        rows = self.child.evaluate(ctx, memo)
        ce, ke = self._col_eqs, self._const_eqs
        return frozenset(
            row
            for row in rows
            if all(row[i] == row[j] for i, j in ce)
            and all(row[i] == v for i, v in ke)
        )

    def label(self):
        return f"select ({len(self._col_eqs) + len(self._const_eqs)} eqs)"

    def children(self):
        return (self.child,)


class ProjectNode(Node):
    """Deduplicating projection / column reorder (``∃`` and plan output)."""

    __slots__ = ("child", "_indices")

    def __init__(self, child: Node, columns: Sequence[Var]):
        super().__init__(columns)
        self.child = child
        self._indices = tuple(child.columns.index(c) for c in self.columns)

    def _run(self, ctx, memo):
        rows = self.child.evaluate(ctx, memo)
        idx = self._indices
        return frozenset(tuple(row[i] for i in idx) for row in rows)

    def label(self):
        return "project"

    def children(self):
        return (self.child,)


class UnionNode(Node):
    """Set union of same-schema children (``∨``)."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Node]):
        super().__init__(parts[0].columns)
        for p in parts[1:]:
            if p.columns != self.columns:
                raise ValueError("union needs identical column tuples")
        self.parts = tuple(parts)

    def _run(self, ctx, memo):
        return frozenset().union(*(p.evaluate(ctx, memo) for p in self.parts))

    def label(self):
        return f"union ({len(self.parts)})"

    def children(self):
        return self.parts


class ComplementNode(Node):
    """Active-domain complement ``adom^k − child`` (unsafe fallback)."""

    __slots__ = ("child",)

    def __init__(self, child: Node):
        super().__init__(child.columns)
        self.child = child

    def _run(self, ctx, memo):
        rows = self.child.evaluate(ctx, memo)
        if not self.columns:
            return _EMPTY if rows else _UNIT
        domain = ctx.sorted_adom()
        return frozenset(
            row
            for row in itertools.product(domain, repeat=len(self.columns))
            if row not in rows
        )

    def label(self):
        return f"adom-complement^{len(self.columns)}"

    def children(self):
        return (self.child,)


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------

def _sorted_vars(vars_: Iterable[Var]) -> list[Var]:
    return sorted(set(vars_), key=lambda v: v.name)


def _compile(phi: Formula, memo: dict[Formula, Node], stats=None) -> Node:
    node = memo.get(phi)
    if node is None:
        node = _build(phi, memo, stats)
        memo[phi] = node
    return node


def _build(phi: Formula, memo: dict[Formula, Node], stats) -> Node:
    match phi:
        case TrueF():
            return ConstNode(True)
        case FalseF():
            return ConstNode(False)
        case RelAtom():
            return ScanNode(phi)
        case EqAtom(left=left, right=right):
            return _compile_eq(left, right)
        case Not(sub=sub):
            # post-NNF this is an atom; the generic complement keeps the
            # compiler total for hand-built non-NNF trees as well
            return ComplementNode(_compile(sub, memo, stats))
        case And():
            return _compile_and(_flatten_and(phi), memo, stats)
        case Or(subs=subs):
            return _compile_or(subs, memo, stats)
        case Implies(left=left, right=right):
            return _compile(Or((nnf(left, True), nnf(right))), memo, stats)
        case Exists(vars=vs, sub=sub):
            return _compile_exists(vs, sub, memo, stats)
        case Forall(vars=vs, sub=sub):
            # ∀x̄ φ ≡ ¬∃x̄ ¬φ: the violator set is join-shaped (guards
            # become anti-joins), and the complement only ranges over the
            # formula's own free variables
            violators = _compile(Exists(vs, nnf(sub, True)), memo, stats)
            return ComplementNode(violators)
    raise TypeError(f"not a formula: {phi!r}")


def _compile_eq(left, right) -> Node:
    lv, rv = isinstance(left, Var), isinstance(right, Var)
    if lv and rv:
        return DomainNode(left) if left == right else DiagonalNode(left, right)
    if lv:
        return SingletonNode(left, right)
    if rv:
        return SingletonNode(right, left)
    return ConstNode(left == right)


def _compile_exists(vs: tuple[Var, ...], sub: Formula, memo, stats=None) -> Node:
    child = _compile(sub, memo, stats)
    bound = set(vs)
    keep = [c for c in child.columns if c not in bound]
    node = child if len(keep) == len(child.columns) else ProjectNode(child, keep)
    if any(v not in child.columns for v in vs):
        # a quantified variable the body never mentions still ranges over
        # the active domain: ∃v φ is false on the empty domain
        node = DomainGuardNode(node)
    return node


def _flatten_and(phi: And) -> list[Formula]:
    out: list[Formula] = []
    for sub in phi.subs:
        if isinstance(sub, And):
            out.extend(_flatten_and(sub))
        else:
            out.append(sub)
    return out


def _compile_or(subs: Sequence[Formula], memo, stats=None) -> Node:
    children = [_compile(s, memo, stats) for s in subs]
    all_cols = _sorted_vars(c for n in children for c in n.columns)
    padded: list[Node] = []
    for node in children:
        # a disjunct that does not bind some output variable is unsafe
        # there: the variable ranges over the active domain
        for v in all_cols:
            if v not in node.columns:
                node = JoinNode(node, DomainNode(v))
        if node.columns != tuple(all_cols):
            node = ProjectNode(node, all_cols)
        padded.append(node)
    if len(padded) == 1:
        return padded[0]
    return UnionNode(padded)


def _selectivity(node: Node) -> int:
    """Join-order heuristic: lower = likely smaller / cheaper first."""
    if isinstance(node, (SingletonNode, ConstNode)):
        return 0
    if isinstance(node, ScanNode):
        return 1 if not node.is_plain else 2
    if isinstance(node, (DomainNode, DiagonalNode)):
        return 5
    if isinstance(node, ComplementNode):
        return 6
    return 3


def _order_cost(node: Node, stats) -> int:
    """Join-order key: static class ranks, or stats-driven cardinalities.

    Without ``stats`` this is exactly the historical :func:`_selectivity`
    ranking — the shared (stats-free) plans are bit-for-bit stable.
    With ``stats`` (a mapping of relation name to row count, plus the
    pseudo-relation ``"%adom"`` for the domain size) producers are
    ordered by estimated output cardinality instead, so a small relation
    seeds the join chain even when the static ranks tie.  Join order
    never affects results (set semantics) — only performance.
    """
    if stats is None:
        return _selectivity(node)
    adom = max(1, stats.get("%adom", 16))
    if isinstance(node, (SingletonNode, ConstNode)):
        return 0
    if isinstance(node, ScanNode):
        # each bound position (constant probe or repeated variable)
        # shrinks the estimate by the classic 1/4 selectivity guess
        shrink = 4 ** (len(node._const_positions) + len(node._eq_checks))
        return max(1, stats.get(node.name, adom) // shrink)
    if isinstance(node, (DomainNode, DiagonalNode)):
        return adom
    if isinstance(node, DomainGuardNode):
        return _order_cost(node.child, stats)
    if isinstance(node, (ProjectNode, FilterNode)):
        return _order_cost(node.child, stats)
    if isinstance(node, UnionNode):
        return sum(_order_cost(p, stats) for p in node.parts)
    if isinstance(node, AntiJoinNode):
        return _order_cost(node.left, stats)
    if isinstance(node, JoinNode):
        return max(_order_cost(node.left, stats), _order_cost(node.right, stats))
    if isinstance(node, ComplementNode):
        return adom ** max(1, len(node.columns))
    return adom


def _compile_and(conjuncts: list[Formula], memo, stats=None) -> Node:
    out_cols = _sorted_vars(v for c in conjuncts for v in free_vars(c))

    filters: list[tuple] = []        # EqAtoms with at least one variable
    negatives: list[Formula] = []    # anti-join representatives (∃-closed)
    producers: list[Node] = []
    for c in conjuncts:
        match c:
            case EqAtom(left=left, right=right) if isinstance(left, Var) or isinstance(right, Var):
                filters.append((left, right))
            case Not(sub=sub):
                negatives.append(sub)
            case Forall(vars=vs, sub=sub):
                # ∀ḡ ψ as a conjunct: anti-join against ∃ḡ ¬ψ once the
                # free variables are bound (the guarded-fragment case)
                negatives.append(Exists(vs, nnf(sub, True)))
            case _:
                producers.append(_compile(c, memo, stats))

    # variables mentioned only by filters/negatives need a base producer
    covered_somewhere = {v for n in producers for v in n.columns}
    for v in out_cols:
        if v not in covered_somewhere:
            const = next(
                (
                    other
                    for left, right in filters
                    for var, other in ((left, right), (right, left))
                    if var == v and not isinstance(other, Var)
                ),
                _NO_CONST,
            )
            producers.append(
                SingletonNode(v, const) if const is not _NO_CONST else DomainNode(v)
            )

    if not producers:
        chain: Node = ConstNode(True)
    else:
        order = list(enumerate(producers))
        first = min(order, key=lambda p: (_order_cost(p[1], stats), len(p[1].columns), p[0]))
        order.remove(first)
        chain = first[1]
    covered = set(chain.columns)
    pending_filters = list(filters)
    pending_negs = [(frozenset(free_vars(rep)), rep) for rep in negatives]

    def apply_ready(chain: Node) -> Node:
        nonlocal pending_filters, pending_negs
        col_eqs: list[tuple[int, int]] = []
        const_eqs: list[tuple[int, Hashable]] = []
        rest = []
        cols = chain.columns
        for left, right in pending_filters:
            lv, rv = isinstance(left, Var), isinstance(right, Var)
            if lv and rv:
                if left in covered and right in covered:
                    col_eqs.append((cols.index(left), cols.index(right)))
                else:
                    rest.append((left, right))
            else:
                var, const = (left, right) if lv else (right, left)
                if var in covered:
                    const_eqs.append((cols.index(var), const))
                else:
                    rest.append((left, right))
        pending_filters = rest
        if col_eqs or const_eqs:
            chain = FilterNode(chain, col_eqs, const_eqs)
        neg_rest = []
        for needed, rep in pending_negs:
            if needed <= covered:
                chain = AntiJoinNode(chain, _compile(rep, memo, stats))
            else:
                neg_rest.append((needed, rep))
        pending_negs = neg_rest
        return chain

    chain = apply_ready(chain)
    if producers:
        while order:
            # greedy: join something connected to the covered variables,
            # preferring many shared columns and selective operands
            def key(p):
                idx, node = p
                shared = sum(1 for c in node.columns if c in covered)
                new = len(node.columns) - shared
                return (shared == 0, -shared, _order_cost(node, stats), new, idx)

            nxt = min(order, key=key)
            order.remove(nxt)
            chain = JoinNode(chain, nxt[1])
            covered.update(nxt[1].columns)
            chain = apply_ready(chain)

    assert not pending_filters and not pending_negs, "And compilation left work behind"
    if chain.columns != tuple(out_cols):
        chain = ProjectNode(chain, out_cols)
    return chain


_NO_CONST = object()
_UNBUILT = object()


# ----------------------------------------------------------------------
# the public face
# ----------------------------------------------------------------------

#: node types whose output depends on the context's *active domain*, not
#: only on the rows of the relations the plan reads.  Plans free of these
#: are pure functions of their scanned relations — the certain-answer
#: oracle uses that to enumerate valuations only over the nulls those
#: relations mention.
_ADOM_DEPENDENT_NODES = (
    DomainNode,
    DiagonalNode,
    SingletonNode,
    DomainGuardNode,
    ComplementNode,
)


def _walk_nodes(root: Node):
    stack, seen = [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.children())


# ----------------------------------------------------------------------
# the certain-answer lower bound (Guagliardo and Libkin, PODS 2016)
# ----------------------------------------------------------------------
#
# Both translations run on the incomplete instance D itself, nulls as
# values, and keep each node's columns.  For every valuation v:
#
# * ``node⁺`` (``_certain``): each row ā has v(ā) ∈ node(v(D));
# * ``node?`` (``_possible``): each row of node(v(D)) is v(ā) for some
#   row ā.
#
# If v(ā) = v(c̄) then ā and c̄ hold equal codes or a null at every
# position, so a row of φ⁺ that unifies with no row of ψ? satisfies
# φ ∧ ¬ψ in every world.  ``None`` means "no proven translation": the
# empty relation in ⁺ position, "matches everything" in ? position —
# each trivially sound.  The code-level anti-join and complement treat
# a null as one value, which is sound only in ? position (against a ⁺
# subtrahend); in ⁺ position negation always goes through unification.

def _certain(node: Node, memo: dict) -> Node | None:
    key = (id(node), True)
    if key not in memo:
        memo[key] = _certain_step(node, memo)
    return memo[key]


def _possible(node: Node, memo: dict) -> Node | None:
    key = (id(node), False)
    if key not in memo:
        memo[key] = _possible_step(node, memo)
    return memo[key]


def _certain_step(node: Node, memo: dict) -> Node | None:
    if isinstance(node, (ConstNode, ScanNode)):
        # equal codes are equal in every world, so constant probes and
        # repeated variables that hold on D hold everywhere
        return node
    if isinstance(node, JoinNode):
        left, right = _certain(node.left, memo), _certain(node.right, memo)
        return None if left is None or right is None else JoinNode(left, right)
    if isinstance(node, FilterNode):
        child = _certain(node.child, memo)
        return None if child is None else FilterNode(child, node._col_eqs, node._const_eqs)
    if isinstance(node, ProjectNode):
        child = _certain(node.child, memo)
        return None if child is None else ProjectNode(child, node.columns)
    if isinstance(node, UnionNode):
        parts = [p for p in (_certain(p, memo) for p in node.parts) if p is not None]
        return UnionNode(parts) if parts else None
    if isinstance(node, AntiJoinNode):
        left, right = _certain(node.left, memo), _possible(node.right, memo)
        return None if left is None or right is None else UnifyAntiJoinNode(left, right)
    if isinstance(node, ComplementNode) and not node.columns:
        # ¬ψ for a sentence ψ holds in every world when ψ? is empty
        child = _possible(node.child, memo)
        return None if child is None else UnifyAntiJoinNode(ConstNode(True), child)
    return None


def _possible_step(node: Node, memo: dict) -> Node | None:
    if isinstance(node, (ConstNode, DomainNode, DiagonalNode)):
        # v maps adom(D) onto the world's active domain
        return node
    if isinstance(node, ScanNode):
        # a constant or repeated variable could match through a null
        return node if node.is_plain else None
    if isinstance(node, DomainGuardNode):
        child = _possible(node.child, memo)
        return None if child is None else DomainGuardNode(child)
    if isinstance(node, ProjectNode):
        child = _possible(node.child, memo)
        return None if child is None else ProjectNode(child, node.columns)
    if isinstance(node, UnionNode):
        parts = [_possible(p, memo) for p in node.parts]
        return None if any(p is None for p in parts) else UnionNode(parts)
    if isinstance(node, AntiJoinNode):
        # a world row outside right's world rows has a preimage outside right⁺
        left, right = _possible(node.left, memo), _certain(node.right, memo)
        if left is None or right is None:
            return left
        return AntiJoinNode(left, right)
    if isinstance(node, ComplementNode):
        child = _certain(node.child, memo)
        return None if child is None else ComplementNode(child)
    return None


class CompiledQuery:
    """An FO formula compiled to a relational operator DAG.

    Equivalent to :func:`repro.logic.eval.answers` /
    :func:`~repro.logic.eval.evaluate` on every formula and instance;
    compiled once, executable against any instance or raw context.
    """

    __slots__ = ("formula", "answer_vars", "_root", "_relations", "_adom_dependent", "_lower")

    def __init__(
        self,
        formula: Formula,
        answer_vars: Sequence[Var | str] = (),
        *,
        stats=None,
    ):
        self.formula = formula
        self.answer_vars = tuple(
            Var(v) if isinstance(v, str) else v for v in answer_vars
        )
        missing = free_vars(formula) - set(self.answer_vars)
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise ValueError(f"answer variables do not cover free variables: {names}")
        memo: dict[Formula, Node] = {}
        root = _compile(nnf(formula), memo, stats)
        for v in self.answer_vars:
            # extra answer variables range freely over the active domain,
            # mirroring the interpreter's enumeration
            if v not in root.columns:
                root = JoinNode(root, DomainNode(v))
        if root.columns != self.answer_vars:
            root = ProjectNode(root, self.answer_vars)
        self._root = root
        self._relations: frozenset[str] | None = None
        self._adom_dependent: bool | None = None
        self._lower: Node | None | object = _UNBUILT

    @property
    def is_boolean(self) -> bool:
        return not self.answer_vars

    @property
    def relations(self) -> frozenset[str]:
        """The relation names the operator DAG reads (scans and probes)."""
        if self._relations is None:
            self._relations = frozenset(
                node.name for node in _walk_nodes(self._root)
                if isinstance(node, ScanNode)
            )
        return self._relations

    @property
    def adom_dependent(self) -> bool:
        """Does the result depend on the context's active domain?

        ``False`` means the answers are a pure function of the rows of
        :attr:`relations` — two contexts agreeing on those relations
        produce identical answers regardless of their domains.  The
        oracle's world enumerator uses this to skip valuating nulls the
        plan can never observe.
        """
        if self._adom_dependent is None:
            self._adom_dependent = any(
                isinstance(node, _ADOM_DEPENDENT_NODES)
                for node in _walk_nodes(self._root)
            )
        return self._adom_dependent

    @property
    def lower_plan(self) -> Node | None:
        """The plan of the certain-answer lower bound, or ``None`` (empty).

        Run on an incomplete instance by the columnar executor, its
        null-free rows are answers in every world of the instance — a
        subset of the certain answers under every semantics whose
        worlds are valuation images (CWA).
        """
        if self._lower is _UNBUILT:
            self._lower = _certain(self._root, {})
        return self._lower

    def answers(self, source) -> frozenset[tuple[Hashable, ...]]:
        """``{ā ∈ adom^k : source ⊨ φ(ā)}`` — set-at-a-time.

        ``source`` is an :class:`~repro.data.instance.Instance` or a
        :class:`~repro.data.indexes.TableContext`.  Boolean formulas
        yield ``{()}`` / ``frozenset()``.
        """
        ctx = as_context(source)
        return self._root.evaluate(ctx, {})

    def holds(self, source) -> bool:
        """Truth of a Boolean (sentence) compilation."""
        if not self.is_boolean:
            raise ValueError(
                f"compiled query has arity {len(self.answer_vars)}; use answers()"
            )
        return bool(self.answers(source))

    def describe(self) -> str:
        """EXPLAIN-style rendering of the operator tree."""
        return self._root.describe()

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.answer_vars)
        return f"CompiledQuery({head or '·'} ← {self.formula!r})"


def compile_formula(formula: Formula, answer_vars: Sequence[Var | str] = ()) -> CompiledQuery:
    """Compile ``formula`` with the given answer-column order."""
    return CompiledQuery(formula, answer_vars)


@lru_cache(maxsize=1024)
def _compiled(formula: Formula, answer_vars: tuple[Var, ...]) -> CompiledQuery:
    return CompiledQuery(formula, answer_vars)


@lru_cache(maxsize=512)
def _compiled_with_stats(
    formula: Formula,
    answer_vars: tuple[Var, ...],
    stats_key: tuple[tuple[str, int], ...],
) -> CompiledQuery:
    """Stats-specialised compilation, memoised on the bucketed stats.

    ``stats_key`` is the bucketed row-count snapshot produced by
    :meth:`repro.data.dictionary.ColumnarContext.stats_key` — counts
    rounded to powers of two, so small mutations reuse the same plan.
    """
    return CompiledQuery(formula, answer_vars, stats=dict(stats_key))


def compiled_query(query) -> CompiledQuery:
    """The memoised compilation of a :class:`~repro.logic.queries.Query`.

    Queries are immutable values, so one compilation serves every
    evaluation — the certain-answer oracle re-executes it across all
    pool-valuation worlds of a batch.
    """
    return _compiled(query.formula, query.answer_vars)


def clear_compile_cache() -> None:
    """Drop memoised compilations (tests and long-lived deployments)."""
    _compiled.cache_clear()
    _compiled_with_stats.cache_clear()
