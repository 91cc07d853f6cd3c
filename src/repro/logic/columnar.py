"""The compiled plan and its executor over dictionary-encoded columns.

:class:`CompiledQuery` is the one plan object: it holds the operator
DAG built by :mod:`repro.logic.compile`, runs it, maintains its
answers and explains it.  This module is the only code that executes a
plan.  It runs the DAG over the int-encoded
columns of :mod:`repro.data.dictionary` — on naive evaluation's
instance, on the certain-answer lower bound, on every world and
residual probe of the certain-answer oracle (layered contexts, see
:meth:`~repro.data.dictionary.ColumnarContext.layer`) and on every
datalog round.  Every operator has a columnar kernel:

===================  ==================================================
compiled operator    columnar kernel
===================  ==================================================
scan                 ``col-scan`` — cached frozenset of encoded rows;
                     constant probes hit the relation's int-keyed index
hash join            ``col-hash-join`` over int tuples; plain-scan
                     probes hit the encoded relation's cached index
scan ⋈ scan          ``sort-merge-join`` — cached sorted runs, merged
(single shared col)  in pure Python (every column kept)
project ∘ join       fused ``sort-merge-join`` + projection — when it
                     drops a column, only the projected columns are
                     gathered and the expansion is deduped vectorised
                     (``np.lexsort``), so the wide joined intermediate
                     is never materialised; stacked projections
                     compose into one pass
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
Python-level ``Null.__hash__``.  :meth:`CompiledQuery.answers` decodes
back to cell tuples and is **bit-for-bit equal** to the tree-walking
interpreter (:func:`repro.logic.eval.answers`) on every formula and
instance (the differential suites in ``tests/test_compile.py`` and
``tests/test_columnar.py`` pin this).
:meth:`CompiledQuery.naive_answers` decodes nothing: it drops null rows
by code parity and returns an encoded
:class:`~repro.data.answers.AnswerSet`.

Naive answers are maintained under writes where the plan allows it
(:func:`maintenance_gaps`): the evaluation that fills a result-cache
entry counts each answer's witnesses, and :func:`maintained_answers`
runs the plan's projection-free child over a layer holding only a
write's delta rows, then adds the signed counts to the entry's
(:meth:`~repro.data.answers.AnswerSet.patched`).  The certain-answer
oracle keeps both bounds of its bracket the same way
(:func:`bracket_gaps`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from types import MappingProxyType
from typing import Hashable, Iterable, Mapping, Sequence, Sized

from repro.data.answers import AnswerSet, visible_rows
from repro.data.dictionary import ColumnarContext, EncodedRelation, columnar_context
from repro.data.instance import Instance
from repro.logic import kernels
from repro.logic.ast import Formula, Var
from repro.logic.compile import (
    AntiJoinNode,
    ComplementNode,
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
    compile_plan,
    lower_bound_plan,
)

__all__ = [
    "CompiledQuery",
    "compile_formula",
    "compiled_query",
    "columnar_naive_eval",
    "as_columnar_context",
    "maintenance_gaps",
    "bracket_gaps",
    "maintained_answers",
    "maintainable",
    "maintenance_is_bounded",
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
        # matches nothing (the interpreter's membership test never
        # succeeds either)
        return _EMPTY
    if node.is_plain:
        return rel.row_set()
    if node._const_positions:
        key = cctx.try_encode_key(node._const_key)
        if key is None:
            return _EMPTY  # a never-interned constant occurs in no row
        rows = rel.matching(node._const_positions, key)
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


#: a scan ⋈ scan whose left side has at most 1/_PROBE_RATIO of the right
#: side's rows probes the right side's hash index instead of merging
_PROBE_RATIO = 16


def _merges(n_left: int, n_right: int) -> bool:
    """Does a single-column scan ⋈ scan (:func:`_vector_probe`) of
    ``n_left`` rows against ``n_right`` merge, rather than probe the
    right side's index?"""
    return n_left * _PROBE_RATIO > n_right


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
            if lrel is None or lrel.arity != node.left.arity:
                return _EMPTY
            if _merges(lrel.n_rows, rrel.n_rows):
                if extra:
                    return kernels.sort_merge_join(lrel, rrel, lk[0], rk[0], extra)
                return kernels.semi_join(lrel, rrel, lk[0], rk[0])
            # a handful of rows (a write's delta) against a large relation:
            # probing its cached index beats a merge over all of it
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
    key_of = kernels.key_getter(node._l_key)
    return frozenset(lr for lr in left_rows if key_of(lr) not in right_rows)


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


def _projection_stack(node: Node) -> tuple[Node, tuple[int, ...]]:
    """The first node under ``node``'s projections, and their composition."""
    indices = tuple(range(len(node.columns)))
    while isinstance(node, ProjectNode):
        indices = tuple(node._indices[i] for i in indices)
        node = node.child
    return node, indices


def _project(node, cctx, memo):
    # compose stacked projections (the compiler emits project-of-project
    # chains): one pass over the rows instead of one full materialised
    # intermediate per layer
    child, indices = _projection_stack(node)
    fused = _fused_project(child, indices, cctx)
    if fused is not None:
        return fused
    return frozenset(map(kernels.key_getter(indices), _eval(child, cctx, memo)))


def _fused_project(child, indices, cctx, counted=False):
    """``child`` projected onto ``indices`` by the fused sort-merge kernel.

    ``None`` when ``child`` is not a scan ⋈ scan on one column.  Many-to-
    many joins expand and projections collapse, so gathering only the
    projected columns (and deduping vectorised) skips the wide
    intermediate.  ``counted`` as in
    :func:`~repro.logic.kernels.sort_merge_join_project`.
    """
    if not (isinstance(child, JoinNode) and child._r_extra and _vector_probe(child)):
        return None
    left, right = child.left, child.right
    lrel = cctx.encoded(left.name)
    rrel = cctx.encoded(right.name)
    if lrel is None or lrel.arity != left.arity or rrel is None or rrel.arity != right.arity:
        return {} if counted else _EMPTY
    return kernels.sort_merge_join_project(
        lrel, rrel, child._l_key[0], child._r_key[0], child._r_extra, indices, counted
    )


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
# maintenance under writes: witness counting
# ----------------------------------------------------------------------

@lru_cache(maxsize=1024)
def maintenance_gaps(root: Node) -> Mapping[str, str | None]:
    """Can cached answers of ``root`` be maintained under writes?

    Per relation the plan scans: ``None`` when they can under writes to
    that relation, else the reason they are recomputed.  They can when
    the root is a stack of projections over scans, filters, joins and
    anti-joins (plain or null-unifying), the relation is scanned
    exactly once, and neither a semi-join's right side nor an
    anti-join's negated side lies between that scan and the root.
    Every row of the projection-free child then extends exactly one row
    of the relation, so a write changes the child's rows by the child
    run over the written rows alone (the negated sides are unchanged:
    Gupta, Mumick and Subrahmanian's counting, SIGMOD 1993).

    Memoised per plan node (plans are immutable), as a read-only view.
    """
    child, _ = _projection_stack(root)
    scans: Counter[str] = Counter()
    gaps: dict[str, str | None] = {}

    def visit(node: Node, gap: str | None) -> None:
        if isinstance(node, ScanNode):
            scans[node.name] += 1
            gaps[node.name] = gap
        elif isinstance(node, FilterNode):
            visit(node.child, gap)
        elif isinstance(node, JoinNode):
            visit(node.left, gap)
            semi = None if node._r_extra else "it is the right side of a semi-join"
            visit(node.right, gap or semi)
        elif isinstance(node, (AntiJoinNode, UnifyAntiJoinNode)):
            visit(node.left, gap)
            visit(node.right, gap or "it is the negated side of an anti-join")
        else:
            for sub in node.children():
                visit(sub, gap or f"a {_kernel_name(node)} lies between its scan and the root")

    visit(child, None)
    for name, n in scans.items():
        if n > 1:
            gaps[name] = f"it is scanned {n} times (self-join)"
    return MappingProxyType(gaps)


def bracket_gaps(cq: CompiledQuery) -> dict[str, str | None]:
    """:func:`maintenance_gaps` of both bounds of the certain-answer bracket.

    The naive plan and the lower-bound plan
    (:attr:`CompiledQuery.lower_plan`) must both allow it.  The
    lower-bound plan keeps the naive plan's left spines, so it scans
    every relation whose writes the naive plan maintains.
    """
    gaps = dict(maintenance_gaps(cq.root))
    if cq.lower_plan is not None:
        for name, gap in maintenance_gaps(cq.lower_plan).items():
            gaps[name] = gaps.get(name) or gap
    return gaps


def _counted(root: Node, cctx: ColumnarContext) -> dict[tuple[int, ...], int]:
    """The root's rows, each mapped to its witness count in the child."""
    child, indices = _projection_stack(root)
    fused = _fused_project(child, indices, cctx, counted=True)
    if fused is not None:
        return fused
    return Counter(map(kernels.key_getter(indices), _eval(child, cctx, {})))


def _answer_set(root: Node, cctx: ColumnarContext, arity: int, count: bool) -> AnswerSet:
    """The null-free rows of ``root`` as an encoded :class:`AnswerSet`.

    With ``count`` (the plan reads no domain), when writes to some
    relation can be maintained (:func:`maintenance_gaps`), the same run
    counts each row's witnesses and the set carries them.
    """
    if count and None in maintenance_gaps(root).values():
        return AnswerSet.counted(_counted(root, cctx), arity, cctx.dictionary, root)
    return AnswerSet.encoded(visible_rows(_eval(root, cctx, {})), arity, cctx.dictionary)


def maintainable(answers: AnswerSet, cctx: ColumnarContext, relation: str) -> bool:
    """Can :func:`maintained_answers` maintain ``answers`` over ``cctx``
    under writes to ``relation``?

    ``answers`` must be a counted set (a bracketed oracle set carries no
    plan: the oracle maintains it) over ``cctx``'s dictionary, and its
    plan must allow it (:func:`maintenance_gaps`).
    """
    root = answers.plan
    return (
        root is not None
        and answers._dictionary is cctx.dictionary
        and maintenance_gaps(root).get(relation, "unread") is None
    )


def maintenance_is_bounded(
    answers: AnswerSet,
    cctx: ColumnarContext,
    relation: str,
    added: Sized,
    removed: Sized,
) -> bool:
    """Is :func:`maintained_answers` over ``cctx`` bounded by the write?

    True when ``answers`` is :func:`maintainable` and its run reads no
    more of the instance than the written rows and what they join.  The
    written relation must lie on the plan's left spine: every join above
    its scan has it on the left, so the written rows drive the join and
    no other relation is walked.  Each join there must probe a plain
    scan whose index on the join key is built already, or which is
    small enough against the written rows that the kernel merges
    (:func:`_merges`).  Each anti-join there must negate a plain scan
    whose row set is built already.  A relation that is not encoded yet
    declines, since the run would encode it.  Checks only: it builds,
    evaluates and counts nothing.
    """
    if not maintainable(answers, cctx, relation):
        return False
    # the kernel merges when the smaller signed delta already merges
    fewest = min((n for n in (len(added), len(removed)) if n), default=0)
    node, _ = _projection_stack(answers.plan)
    while not isinstance(node, ScanNode):
        if isinstance(node, FilterNode):
            node = node.child
            continue
        right = getattr(node, "right", None)
        if not (isinstance(right, ScanNode) and right.is_plain):
            return False
        rel = cctx.built(right.name)
        if rel is None:
            return False
        if isinstance(node, AntiJoinNode):
            if not rel.has_row_set():
                return False
        elif not (
            isinstance(node, JoinNode)
            and node._probe
            and (
                rel.has_index(node._r_key)
                or (_vector_probe(node) and _merges(fewest, rel.n_rows))
            )
        ):
            return False
        node = node.left
    return node.name == relation


def maintained_answers(
    answers: AnswerSet,
    source,
    relation: str,
    added: Iterable[tuple],
    removed: Iterable[tuple],
) -> AnswerSet | None:
    """``answers`` after ``relation`` gained ``added`` and lost ``removed``.

    ``answers`` must be a counted set from :meth:`CompiledQuery.naive_answers`
    or :meth:`CompiledQuery.lower_answers`, and ``source`` the instance
    after the write.  The plan's projection-free child runs over a layer
    of ``source`` holding only the written rows, once per sign; every
    other relation, with its cached sort runs, comes from ``source``.
    ``None`` when the answers cannot be maintained under writes to
    ``relation``.
    """
    cctx = as_columnar_context(source)
    if not maintainable(answers, cctx, relation):
        return None
    child, indices = _projection_stack(answers.plan)
    project = kernels.key_getter(indices)
    encode_row = cctx.dictionary.encode_row
    delta: Counter[tuple[int, ...]] = Counter()
    for rows, sign in ((removed, -1), (added, 1)):
        codes = frozenset(map(encode_row, rows))
        if not codes:
            continue
        arity = len(next(iter(codes)))
        # the plan reads no domain; any non-empty one passes its guards
        layer = ColumnarContext.layer(
            cctx,
            {relation: EncodedRelation.from_codes(arity, codes)},
            frozenset(itertools.chain.from_iterable(codes)),
        )
        for row in map(project, _eval(child, layer, {})):
            delta[row] += sign
    return answers.patched(delta)


# ----------------------------------------------------------------------
# EXPLAIN: kernel names and join order
# ----------------------------------------------------------------------

def _kernel_name(node: Node, indices: tuple[int, ...] | None = None) -> str:
    """The kernel ``node`` runs on, and its path when it is a join kernel.

    ``indices``: the projection stack above ``node`` composed, which a
    sort-merge join fuses (``None``: no projection above it).
    """
    if isinstance(node, JoinNode) and _vector_probe(node):
        if not node._r_extra:
            return f"semi-join [{kernels.kernel_suffix()}]"
        vector = kernels.vector_join(len(node.columns), indices)
        return f"sort-merge-join [{'vector' if vector else 'pure'}]"
    return "col-" + node.label()


def _describe(node: Node, indent: int = 0, indices: tuple[int, ...] | None = None) -> str:
    cols = ", ".join(c.name for c in node.columns)
    lines = ["  " * indent + f"{_kernel_name(node, indices)} [{cols}]"]
    if isinstance(node, ProjectNode):  # compose, as _projection_stack does
        above = range(len(node.columns)) if indices is None else indices
        indices = tuple(node._indices[i] for i in above)
    else:
        indices = None
    for child in node.children():
        lines.append(_describe(child, indent + 1, indices))
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

#: node types whose output depends on the context's *active domain*, not
#: only on the rows of the relations the plan reads
_ADOM_DEPENDENT_NODES = (
    DomainNode,
    DiagonalNode,
    SingletonNode,
    DomainGuardNode,
    ComplementNode,
)

_UNBUILT = object()


def _walk_nodes(root: Node):
    stack, seen = [root], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.children())


class CompiledQuery:
    """An FO formula compiled to a relational operator DAG, and run.

    Equivalent to :func:`repro.logic.eval.answers` /
    :func:`~repro.logic.eval.evaluate` on every formula and instance:
    :meth:`answers` decodes back to cell tuples and is bit-for-bit equal
    to the interpreter's.  Compiled once (:func:`compile_formula`),
    executed against any instance or columnar context.
    """

    __slots__ = ("formula", "answer_vars", "root", "relations", "adom_dependent", "_lower")

    def __init__(self, formula: Formula, answer_vars: Sequence[Var | str] = ()):
        self.formula = formula
        self.answer_vars = tuple(Var(v) if isinstance(v, str) else v for v in answer_vars)
        #: the operator DAG; a counted answer set names it as its plan
        self.root = compile_plan(formula, self.answer_vars)
        nodes = list(_walk_nodes(self.root))
        #: the relation names the DAG reads (scans and probes)
        self.relations = frozenset(n.name for n in nodes if isinstance(n, ScanNode))
        #: does the result depend on the context's active domain?  When
        #: not, the answers are a pure function of the rows of
        #: :attr:`relations`, so the oracle skips valuating nulls the
        #: plan never observes and the session caches on their writes
        self.adom_dependent = any(isinstance(n, _ADOM_DEPENDENT_NODES) for n in nodes)
        self._lower: Node | None | object = _UNBUILT

    @property
    def lower_plan(self) -> Node | None:
        """The plan of the certain-answer lower bound, or ``None`` (empty).

        See :func:`~repro.logic.compile.lower_bound_plan`.
        """
        if self._lower is _UNBUILT:
            self._lower = lower_bound_plan(self.root)
        return self._lower

    def raw_codes(self, source) -> frozenset[tuple[int, ...]]:
        """The encoded answer rows (no decoding)."""
        return _eval(self.root, as_columnar_context(source), {})

    def answers(self, source) -> frozenset[tuple[Hashable, ...]]:
        """Decoded answers — bit-for-bit equal to the interpreter's."""
        cctx = as_columnar_context(source)
        return frozenset(map(cctx.dictionary.decode_row, _eval(self.root, cctx, {})))

    def naive_answers(self, source) -> AnswerSet:
        """The null-free answer rows (naive evaluation's step two), encoded.

        Null rows are dropped by code parity — odd codes are nulls — so
        no row is decoded; the set decodes or renders on demand.  When
        writes to some relation can be maintained
        (:func:`maintenance_gaps`), the same run counts each row's
        witnesses and the set carries them.
        """
        cctx = as_columnar_context(source)
        return _answer_set(self.root, cctx, len(self.answer_vars), not self.adom_dependent)

    def lower_answers(self, source) -> AnswerSet | None:
        """The certain-answer lower bound: the null-free rows of
        :attr:`lower_plan`, encoded and counted like :meth:`naive_answers`.

        Every row, decoded, is an answer in every world of ``source``.
        ``None`` when there is no lower-bound plan (the bound is empty).
        """
        root = self.lower_plan
        if root is None:
            return None
        cctx = as_columnar_context(source)
        return _answer_set(root, cctx, len(self.answer_vars), not self.adom_dependent)

    def maintenance_note(self, bracket: bool = False) -> str:
        """EXPLAIN's account of what a write to a read relation costs.

        ``bracket``: of a certain-answer oracle read, whose bracket
        bounds are maintained (:func:`bracket_gaps`) and whose gap is
        enumerated again.
        """
        if self.adom_dependent:
            return "recomputed after writes: the plan reads the active domain"
        gaps = bracket_gaps(self) if bracket else maintenance_gaps(self.root)
        kept = ", ".join(sorted(n for n, gap in gaps.items() if gap is None))
        lost = "; ".join(f"{n}: {gap}" for n, gap in sorted(gaps.items()) if gap is not None)
        if not kept:
            return f"recomputed after writes: {lost or 'the plan scans no relation'}"
        if bracket:
            note = (
                f"bracket bounds maintained under writes to {kept} (witness counting), "
                "then only their gap is enumerated"
            )
        else:
            note = f"answers maintained under writes to {kept} (witness counting)"
        return f"{note}; recomputed after writes to {lost}" if lost else note

    def describe(self) -> str:
        """EXPLAIN-style rendering naming the chosen columnar kernels."""
        return _describe(self.root)

    def describe_lower(self) -> str:
        """EXPLAIN-style rendering of the certain-answer lower-bound plan."""
        root = self.lower_plan
        return "(empty: no sound translation)" if root is None else _describe(root)

    def join_order(self) -> tuple[str, ...]:
        """Relation names in join-chain (left-deep, in-order) sequence."""
        out: list[str] = []
        _collect_scans(self.root, out)
        return tuple(out)

    def __repr__(self) -> str:
        head = ", ".join(v.name for v in self.answer_vars)
        return f"CompiledQuery({head or '·'} ← {self.formula!r})"


@lru_cache(maxsize=1024)
def compile_formula(formula: Formula, answer_vars: tuple[Var | str, ...] = ()) -> CompiledQuery:
    """The memoised compilation of ``formula`` with this answer-column order.

    Plans are immutable, so one compilation serves every evaluation —
    the certain-answer oracle re-executes it across all worlds of a
    batch, the datalog engine across all rounds.
    """
    return CompiledQuery(formula, answer_vars)


def compiled_query(query) -> CompiledQuery:
    """The one plan of a :class:`~repro.logic.queries.Query`.

    Naive evaluation, EXPLAIN, answer maintenance and the oracle's
    worlds all run (or describe) this same DAG; queries differing only
    in name share it.  Memoised on the query value, like its hash, so
    a served read's several lookups hash no formula tree.
    """
    cq = query.__dict__.get("_compiled")
    if cq is None:
        cq = compile_formula(query.formula, query.answer_vars)
        object.__setattr__(query, "_compiled", cq)
    return cq


def columnar_naive_eval(query, instance: Instance) -> AnswerSet:
    """Naive evaluation through the columnar engine (both steps), encoded.

    The ``columnar`` backend returns this as is;
    :func:`repro.core.naive.naive_eval` decodes it.
    """
    return compiled_query(query).naive_answers(columnar_context(instance))
