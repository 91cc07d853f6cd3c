"""Compilation of FO formulas into set-at-a-time relational plans.

The tree-walking evaluator (:mod:`repro.logic.eval`) computes
``answers(φ)`` by testing every candidate tuple in ``adom^k`` — correct,
and the right *baseline* for the paper's polynomial-data-complexity
claim, but with constants that hide it: a join ``∃z (R(x,z) ∧ R(z,y))``
costs ``O(|adom|² · |R|)`` regardless of join selectivity.

This module translates formulas **bottom-up into a DAG of
relational-algebra operators** in the classic set-at-a-time discipline:

* relational atoms become scans (constant positions probe an index);
* conjunctions become chains of **hash joins** on the shared variables,
  degenerating to **semi-joins** when the right side contributes no new
  columns (the ``∃``-heavy case) and probing the scanned relation's
  index when the right side is a plain scan;
* negated conjuncts whose variables are already bound become
  **anti-joins**;
* universal quantifiers compile through the dual ``∀x̄ φ ≡ ¬∃x̄ ¬φ``, so
  guarded formulas (``Pos+∀G``) stay join-shaped;
* only *genuinely unsafe* subtrees (a bare ``¬R(x,y)``, a disjunct that
  does not bind a variable) fall back to the **active-domain
  complement/extension** — exactly the semantics the interpreter
  implements, so a compiled plan is **equivalent on every formula**,
  not just the safe fragment.

Every operator's output rows range over the active domain of the
execution context, which makes a plan's result bit-for-bit equal to
:func:`repro.logic.eval.answers` (the differential suites in
``tests/test_compile.py`` and ``tests/test_columnar.py`` assert this
over random instances and queries in all fragments).

This module only builds plans (:func:`compile_plan`) and their
certain-answer lower bound (:func:`lower_bound_plan`).  The plan object
that runs, explains and memoises them is
:class:`repro.logic.columnar.CompiledQuery`, beside the one executor.
Compilation is instance-independent: a plan is built once and runs on
naive evaluation's instance, on every world of the certain-answer
oracle and on every datalog round.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence

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

__all__ = ["compile_plan", "lower_bound_plan"]

# ----------------------------------------------------------------------
# operator nodes
# ----------------------------------------------------------------------

class Node:
    """One relational operator; ``columns`` names its output schema.

    Invariant: its result is a set of rows aligned with ``columns``
    whose values all lie in the context's active domain.  The executor
    memoises results per run, so shared subplans (hash-consed by
    subformula) execute once per world.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Iterable[Var]):
        self.columns: tuple[Var, ...] = tuple(columns)

    def label(self) -> str:
        return type(self).__name__

    def children(self) -> tuple["Node", ...]:
        return ()


class ConstNode(Node):
    """``true`` / ``false``: the nullary unit / empty relation."""

    __slots__ = ("truth",)

    def __init__(self, truth: bool):
        super().__init__(())
        self.truth = truth

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

    def label(self):
        return "adom"


class DiagonalNode(Node):
    """``x = y`` over the active domain: ``{(a, a) | a ∈ adom}``."""

    __slots__ = ()

    def __init__(self, left: Var, right: Var):
        super().__init__((left, right))

    def label(self):
        return "adom-diagonal"


class SingletonNode(Node):
    """``x = c``: the singleton ``{(c,)}`` when ``c`` is active, else ∅."""

    __slots__ = ("value",)

    def __init__(self, var: Var, value: Hashable):
        super().__init__((var,))
        self.value = value

    def label(self):
        return f"singleton {self.value!r}"


class DomainGuardNode(Node):
    """Gate on a non-empty active domain (dummy quantified variables)."""

    __slots__ = ("child",)

    def __init__(self, child: Node):
        super().__init__(child.columns)
        self.child = child

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

    def label(self):
        return "anti-join"

    def children(self):
        return (self.left, self.right)


class UnifyAntiJoinNode(Node):
    """Rows of ``left`` that **unify** with no row of ``right``.

    The negation step of the certain-answer lower bound
    (:func:`lower_bound_plan`): a null unifies with anything, so
    a row survives only if no valuation can make it match ``right``.
    Runs through :func:`repro.logic.kernels.unify_anti_join`.
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

    def label(self):
        return f"adom-complement^{len(self.columns)}"

    def children(self):
        return (self.child,)


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------

def _sorted_vars(vars_: Iterable[Var]) -> list[Var]:
    return sorted(set(vars_), key=lambda v: v.name)


def _compile(phi: Formula, memo: dict[Formula, Node]) -> Node:
    node = memo.get(phi)
    if node is None:
        node = _build(phi, memo)
        memo[phi] = node
    return node


def _build(phi: Formula, memo: dict[Formula, Node]) -> Node:
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
            return ComplementNode(_compile(sub, memo))
        case And():
            return _compile_and(_flatten_and(phi), memo)
        case Or(subs=subs):
            return _compile_or(subs, memo)
        case Implies(left=left, right=right):
            return _compile(Or((nnf(left, True), nnf(right))), memo)
        case Exists(vars=vs, sub=sub):
            return _compile_exists(vs, sub, memo)
        case Forall(vars=vs, sub=sub):
            # ∀x̄ φ ≡ ¬∃x̄ ¬φ: the violator set is join-shaped (guards
            # become anti-joins), and the complement only ranges over the
            # formula's own free variables
            violators = _compile(Exists(vs, nnf(sub, True)), memo)
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


def _compile_exists(vs: tuple[Var, ...], sub: Formula, memo) -> Node:
    child = _compile(sub, memo)
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


def _compile_or(subs: Sequence[Formula], memo) -> Node:
    children = [_compile(s, memo) for s in subs]
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


def _compile_and(conjuncts: list[Formula], memo) -> Node:
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
                producers.append(_compile(c, memo))

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
        first = min(order, key=lambda p: (_selectivity(p[1]), len(p[1].columns), p[0]))
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
                chain = AntiJoinNode(chain, _compile(rep, memo))
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
                return (shared == 0, -shared, _selectivity(node), new, idx)

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


def compile_plan(formula: Formula, answer_vars: tuple[Var, ...]) -> Node:
    """The operator DAG of ``formula``, its columns in ``answer_vars`` order.

    Raises :class:`ValueError` when ``answer_vars`` misses a free
    variable of ``formula``.
    """
    missing = free_vars(formula) - set(answer_vars)
    if missing:
        names = ", ".join(sorted(v.name for v in missing))
        raise ValueError(f"answer variables do not cover free variables: {names}")
    root = _compile(nnf(formula), {})
    for v in answer_vars:
        # extra answer variables range freely over the active domain,
        # mirroring the interpreter's enumeration
        if v not in root.columns:
            root = JoinNode(root, DomainNode(v))
    if root.columns != answer_vars:
        root = ProjectNode(root, answer_vars)
    return root


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


def lower_bound_plan(root: Node) -> Node | None:
    """The plan of ``root``'s certain-answer lower bound, or ``None`` (empty).

    Run on an incomplete instance by the columnar executor, its
    null-free rows are answers in every world of the instance — a
    subset of the certain answers under every semantics whose worlds
    are valuation images (CWA).
    """
    return _certain(root, {})
