"""Columnar execution of compiled plans over dictionary-encoded columns.

This module is the third engine: it reuses the operator DAG built by
:mod:`repro.logic.compile` (one compiler, no plan drift) but executes it
over the int-encoded columns of :mod:`repro.data.dictionary` instead of
tuples of cell objects.  Every operator has a columnar twin:

===================  ==================================================
compiled operator    columnar kernel
===================  ==================================================
scan                 ``col-scan`` — cached frozenset of encoded rows;
                     constant probes hit the relation's int-keyed index
hash join            ``col-hash-join`` over int tuples; plain-scan
                     probes hit the encoded relation's cached index
scan ⋈ scan          ``sort-merge-join`` — cached sorted runs, merged
(single shared col)  vectorised when numpy is available
project ∘ join       fused ``sort-merge-join`` + projection — only the
                     projected columns are gathered and the expansion
                     is deduped vectorised (``np.unique``), so the wide
                     joined intermediate is never materialised; stacked
                     projections compose into one pass
semi-join            ``semi-join`` key-set / ``isin`` kernel, or the
                     int-tuple probe of the hash path
anti-join            ``col-anti-join`` — int-tuple membership probes
null-unifying        ``col-null-unifying anti-join`` — per-position
anti-join            "equal codes or either odd" probes (lower-bound
                     plans only)
adom complement      ``col-adom-complement`` over the encoded domain
===================  ==================================================

Intermediate results are frozensets of ``tuple[int, ...]`` — hashing and
equality run at C speed on small ints instead of through the
Python-level ``Null.__hash__``.  :meth:`ColumnarQuery.answers` decodes
back to cell tuples and is **bit-for-bit equal** to
:meth:`~repro.logic.compile.CompiledQuery.answers` on every formula and
instance (the differential suite in ``tests/test_columnar.py`` pins
this against both the compiled engine and the tree-walking interpreter).
:meth:`ColumnarQuery.naive_answers` decodes nothing: it drops null rows
by code parity and returns an encoded
:class:`~repro.data.answers.AnswerSet`.

Compilation is stats-aware: :func:`columnar_query` with a source feeds
the instance's bucketed row counts into the compiler's join-ordering
key (:func:`repro.logic.compile._order_cost`), so the smallest relation
seeds each join chain.
"""

from __future__ import annotations

import itertools
from typing import Hashable

from repro.data.answers import AnswerSet
from repro.data.dictionary import ColumnarContext, columnar_context
from repro.data.instance import Instance
from repro.logic import kernels
from repro.logic.compile import (
    AntiJoinNode,
    ComplementNode,
    CompiledQuery,
    ConstNode,
    DiagonalNode,
    DomainGuardNode,
    DomainNode,
    FilterNode,
    JoinNode,
    Node,
    ProjectNode,
    ScanNode,
    SingletonNode,
    UnifyAntiJoinNode,
    UnionNode,
    _compiled_with_stats,
    compiled_query,
)

__all__ = [
    "ColumnarQuery",
    "columnar_query",
    "columnar_naive_eval",
    "as_columnar_context",
]

_EMPTY: frozenset[tuple[int, ...]] = frozenset()
_UNIT: frozenset[tuple] = frozenset([()])


def as_columnar_context(source: Instance | ColumnarContext) -> ColumnarContext:
    """Normalise an evaluation source into a :class:`ColumnarContext`."""
    if isinstance(source, ColumnarContext):
        return source
    if isinstance(source, Instance):
        return columnar_context(source)
    raise TypeError(
        f"cannot evaluate over {source!r}: expected Instance or ColumnarContext"
    )


# ----------------------------------------------------------------------
# the executor: one handler per operator, memoised per run
# ----------------------------------------------------------------------

def _eval(node: Node, cctx: ColumnarContext, memo: dict) -> frozenset[tuple[int, ...]]:
    key = id(node)
    if key not in memo:
        memo[key] = _HANDLERS[type(node)](node, cctx, memo)
    return memo[key]


def _const(node, cctx, memo):
    return _UNIT if node.truth else _EMPTY


def _scan(node, cctx, memo):
    rel = cctx.encoded(node.name)
    if rel is None or rel.arity != node.arity:
        # absent relation, or stored under a different arity — the atom
        # matches nothing (mirrors the compiled scan's guard)
        return _EMPTY
    if node.is_plain:
        return rel.row_set()
    if node._const_positions:
        key = cctx.try_encode_key(node._const_key)
        if key is None:
            return _EMPTY  # a never-interned constant occurs in no row
        rows = rel.index(node._const_positions).get(key, ())
    else:
        rows = rel.row_tuples()
    eq, keep = node._eq_checks, node._var_positions
    out = set()
    for row in rows:
        if all(row[i] == row[j] for i, j in eq):
            out.add(tuple(row[p] for p in keep))
    return frozenset(out)


def _domain(node, cctx, memo):
    return frozenset((a,) for a in cctx.adom_codes())


def _diagonal(node, cctx, memo):
    return frozenset((a, a) for a in cctx.adom_codes())


def _singleton(node, cctx, memo):
    # adom_codes() first: it interns the domain, so a constant that IS in
    # the active domain always has a code by the time we probe for it
    adom = cctx.adom_codes()
    code = cctx.dictionary.try_encode(node.value)
    if code is not None and code in adom:
        return frozenset([(code,)])
    return _EMPTY


def _guard(node, cctx, memo):
    if not cctx.adom_codes():
        return _EMPTY
    return _eval(node.child, cctx, memo)


def _vector_probe(node) -> bool:
    """Is this probe join a single-column scan ⋈ scan (kernel shape)?"""
    left = node.left
    return (
        node._probe
        and len(node._l_key) == 1
        and isinstance(left, ScanNode)
        and left.is_plain
    )


def _join(node, cctx, memo):
    lk, rk, extra = node._l_key, node._r_key, node._r_extra

    if node._probe:
        right = node.right
        rrel = cctx.encoded(right.name)
        if rrel is None or rrel.arity != right.arity:
            return _EMPTY
        if _vector_probe(node):
            lrel = cctx.encoded(node.left.name)
            if lrel is not None and lrel.arity == node.left.arity:
                if extra:
                    return kernels.sort_merge_join(lrel, rrel, lk[0], rk[0], extra)
                return kernels.semi_join(lrel, rrel, lk[0], rk[0])
            return _EMPTY
        left_rows = _eval(node.left, cctx, memo)
        if not left_rows:
            return _EMPTY
        idx = rrel.index(rk)
        if not extra:  # semi-join straight off the encoded index
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

    left_rows = _eval(node.left, cctx, memo)
    if not left_rows:
        return _EMPTY
    right_rows = _eval(node.right, cctx, memo)
    if not right_rows:
        return _EMPTY
    if not extra:  # semi-join on materialised int keys
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


def _anti_join(node, cctx, memo):
    left_rows = _eval(node.left, cctx, memo)
    if not left_rows:
        return _EMPTY
    right_rows = _eval(node.right, cctx, memo)
    if not right_rows:
        return left_rows
    lk = node._l_key
    return frozenset(
        lr for lr in left_rows if tuple(lr[i] for i in lk) not in right_rows
    )


def _unify_anti_join(node, cctx, memo):
    left_rows = _eval(node.left, cctx, memo)
    if not left_rows:
        return _EMPTY
    return kernels.unify_anti_join(left_rows, node._l_key, _eval(node.right, cctx, memo))


def _filter(node, cctx, memo):
    rows = _eval(node.child, cctx, memo)
    if not rows:
        return _EMPTY
    const_eqs = []
    for i, value in node._const_eqs:
        code = cctx.dictionary.try_encode(value)
        if code is None:
            return _EMPTY  # no row can equal a never-interned constant
        const_eqs.append((i, code))
    ce = node._col_eqs
    return frozenset(
        row
        for row in rows
        if all(row[i] == row[j] for i, j in ce)
        and all(row[i] == c for i, c in const_eqs)
    )


def _project(node, cctx, memo):
    # compose stacked projections (the compiler emits project-of-project
    # chains): one pass over the rows instead of one full materialised
    # intermediate per layer
    indices = node._indices
    child = node.child
    while isinstance(child, ProjectNode):
        inner = child._indices
        indices = tuple(inner[i] for i in indices)
        child = child.child
    # fuse the projection into the sort-merge kernel: many-to-many joins
    # expand and projections collapse, so gathering only the projected
    # columns (and deduping vectorised) skips the wide intermediate
    if isinstance(child, JoinNode) and child._r_extra and _vector_probe(child):
        left, right = child.left, child.right
        lrel = cctx.encoded(left.name)
        rrel = cctx.encoded(right.name)
        if (
            lrel is None
            or lrel.arity != left.arity
            or rrel is None
            or rrel.arity != right.arity
        ):
            return _EMPTY
        return kernels.sort_merge_join_project(
            lrel, rrel, child._l_key[0], child._r_key[0], child._r_extra, indices
        )
    rows = _eval(child, cctx, memo)
    return frozenset(tuple(row[i] for i in indices) for row in rows)


def _union(node, cctx, memo):
    return frozenset().union(*(_eval(p, cctx, memo) for p in node.parts))


def _complement(node, cctx, memo):
    rows = _eval(node.child, cctx, memo)
    if not node.columns:
        return _EMPTY if rows else _UNIT
    domain = tuple(cctx.adom_codes())
    return frozenset(
        row
        for row in itertools.product(domain, repeat=len(node.columns))
        if row not in rows
    )


_HANDLERS = {
    ConstNode: _const,
    ScanNode: _scan,
    DomainNode: _domain,
    DiagonalNode: _diagonal,
    SingletonNode: _singleton,
    DomainGuardNode: _guard,
    JoinNode: _join,
    AntiJoinNode: _anti_join,
    UnifyAntiJoinNode: _unify_anti_join,
    FilterNode: _filter,
    ProjectNode: _project,
    UnionNode: _union,
    ComplementNode: _complement,
}


# ----------------------------------------------------------------------
# EXPLAIN: kernel names and join order
# ----------------------------------------------------------------------

def _kernel_name(node: Node) -> str:
    if isinstance(node, JoinNode) and _vector_probe(node):
        kind = "sort-merge-join" if node._r_extra else "semi-join"
        return f"{kind} [{kernels.kernel_suffix()}]"
    return "col-" + node.label()


def _describe(node: Node, indent: int = 0) -> str:
    cols = ", ".join(c.name for c in node.columns)
    lines = ["  " * indent + f"{_kernel_name(node)} [{cols}]"]
    for child in node.children():
        lines.append(_describe(child, indent + 1))
    return "\n".join(lines)


def _collect_scans(node: Node, out: list[str]) -> None:
    if isinstance(node, ScanNode):
        out.append(node.name)
        return
    for child in node.children():
        _collect_scans(child, out)


# ----------------------------------------------------------------------
# the public face
# ----------------------------------------------------------------------

class ColumnarQuery:
    """A compiled plan bound to the columnar executor.

    Wraps a :class:`~repro.logic.compile.CompiledQuery` (possibly a
    stats-specialised one) and evaluates its DAG over encoded columns.
    ``answers`` decodes back to cell tuples and is bit-for-bit equal to
    the compiled engine's.
    """

    __slots__ = ("cq",)

    def __init__(self, cq: CompiledQuery):
        self.cq = cq

    @property
    def formula(self):
        return self.cq.formula

    @property
    def answer_vars(self):
        return self.cq.answer_vars

    @property
    def relations(self):
        return self.cq.relations

    @property
    def adom_dependent(self):
        return self.cq.adom_dependent

    def raw_codes(self, source) -> frozenset[tuple[int, ...]]:
        """The encoded answer rows (no decoding)."""
        cctx = as_columnar_context(source)
        return _eval(self.cq._root, cctx, {})

    def answers(self, source) -> frozenset[tuple[Hashable, ...]]:
        """Decoded answers — bit-for-bit equal to the compiled engine."""
        cctx = as_columnar_context(source)
        decode = cctx.dictionary.decode_row
        return frozenset(map(decode, _eval(self.cq._root, cctx, {})))

    def naive_answers(self, source) -> AnswerSet:
        """The null-free answers, still encoded (naive evaluation's step two).

        Null rows are dropped by code parity — odd codes are nulls — so
        no row is decoded; the set decodes or renders on demand.
        """
        cctx = as_columnar_context(source)
        rows = _eval(self.cq._root, cctx, {})
        null_codes = {c for c in itertools.chain.from_iterable(rows) if c & 1}
        if null_codes:
            rows = [row for row in rows if null_codes.isdisjoint(row)]
        return AnswerSet.encoded(rows, len(self.answer_vars), cctx.dictionary)

    def lower_answers(self, source) -> frozenset[tuple[Hashable, ...]]:
        """The certain-answer lower bound: null-free rows of the ⁺ plan.

        Every row is an answer in every world of ``source`` (see
        :attr:`~repro.logic.compile.CompiledQuery.lower_plan`).
        """
        root = self.cq.lower_plan
        if root is None:
            return frozenset()
        cctx = as_columnar_context(source)
        decode = cctx.dictionary.decode_row
        return frozenset(
            decode(row) for row in _eval(root, cctx, {}) if not any(c & 1 for c in row)
        )

    def describe(self) -> str:
        """EXPLAIN-style rendering naming the chosen columnar kernels."""
        return _describe(self.cq._root)

    def describe_lower(self) -> str:
        """EXPLAIN-style rendering of the certain-answer lower-bound plan."""
        root = self.cq.lower_plan
        return "(empty: no sound translation)" if root is None else _describe(root)

    def join_order(self) -> tuple[str, ...]:
        """Relation names in join-chain (left-deep, in-order) sequence."""
        out: list[str] = []
        _collect_scans(self.cq._root, out)
        return tuple(out)

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.answer_vars)
        return f"ColumnarQuery({head or '·'} ← {self.formula!r})"


def columnar_query(query, source=None) -> ColumnarQuery:
    """The columnar compilation of a :class:`~repro.logic.queries.Query`.

    Without a ``source`` this shares the memoised stats-free compilation
    with the compiled engine (identical DAG, columnar kernels).  With a
    ``source`` the instance's bucketed row counts drive the compiler's
    join ordering; the specialised plan is memoised per (query, stats
    bucket), so re-planning across small mutations is free.
    """
    if source is None:
        return ColumnarQuery(compiled_query(query))
    cctx = as_columnar_context(source)
    cq = _compiled_with_stats(query.formula, query.answer_vars, cctx.stats_key())
    return ColumnarQuery(cq)


def columnar_naive_eval(query, instance: Instance) -> AnswerSet:
    """Naive evaluation through the columnar engine (both steps), encoded.

    The ``columnar`` backend returns this as is;
    :func:`repro.core.naive.naive_eval` decodes it.
    """
    cctx = columnar_context(instance)
    return columnar_query(query, cctx).naive_answers(cctx)
