"""Array kernels over dictionary-encoded columns.

The columnar executor (:mod:`repro.logic.columnar`) lowers the hottest
operator shapes — base-relation joins and semi-joins on a single shared
column — onto the kernels in this module.  There is one sort-merge join,
with the projection over it fused in, and one semi-join, each with two
implementations:

* a **vectorised** path over int64 numpy views of the encoded columns
  (``argsort`` + ``searchsorted`` sort-merge deduped by ``lexsort``,
  ``isin`` semi-join), used when numpy is importable and the inputs are
  large enough to amortise the array setup — and, for a join, only when
  its projection drops a column (:func:`vector_join`);
* a **pure-Python** path over the relation's cached sorted runs and key
  sets, always available — numpy is an optional accelerator, never a
  dependency.

Both paths return the same encoded rows (and witness counts); the
differential suites in ``tests/test_columnar.py`` run the random-query
matrix against each, and ``REPRO_PURE_KERNELS=1`` forces the pure path
process-wide.

Sort orders, numpy views and key sets are cached on the
:class:`~repro.data.dictionary.EncodedRelation` itself, so the sort of a
sort-merge join is paid once per relation per key column — every later
join against the same column merges already-sorted runs.

The null-unifying anti-join of the certain-answer lower bound
(:attr:`repro.logic.columnar.CompiledQuery.lower_plan`) lives here too.
It works on intermediate row sets and has the pure path only.
"""

from __future__ import annotations

import os
from collections import Counter
from itertools import chain
from operator import itemgetter

from repro.data.dictionary import EncodedRelation

__all__ = [
    "sort_merge_join",
    "sort_merge_join_project",
    "vector_join",
    "semi_join",
    "unify_anti_join",
    "key_getter",
    "numpy_enabled",
    "kernel_suffix",
]

try:  # optional acceleration; the pure path below is always available
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via REPRO_PURE_KERNELS
    _np = None

if os.environ.get("REPRO_PURE_KERNELS"):
    _np = None

#: below this many rows (left + right) the vector path's array setup
#: costs more than the pure merge saves
MIN_VECTOR_ROWS = 64

_EMPTY: frozenset[tuple[int, ...]] = frozenset()
_UNIT: frozenset[tuple] = frozenset([()])


def numpy_enabled() -> bool:
    """True when the vectorised kernel paths are in effect."""
    return _np is not None


def kernel_suffix() -> str:
    """EXPLAIN suffix naming the active implementation."""
    return "vector" if numpy_enabled() else "pure"


def key_getter(positions: tuple[int, ...]):
    """A function projecting a row onto ``positions`` as a tuple."""
    if len(positions) == 1:
        (i,) = positions
        return lambda row: (row[i],)
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


# ----------------------------------------------------------------------
# sort-merge join, projection fused
# ----------------------------------------------------------------------

def vector_join(width: int, indices: tuple[int, ...] | None) -> bool:
    """Does a sort-merge join over ``MIN_VECTOR_ROWS`` or more rows vectorise?

    ``width`` is the joined row's column count and ``indices`` the
    projection fused into the join (``None``: every column kept).  Only a
    projection that drops a column can collapse joined rows, which is
    what the vector path's C-speed dedup pays for; a join keeping every
    column builds a Python tuple per joined pair on either path, and the
    pure merge builds them directly.
    """
    return _np is not None and indices is not None and len(set(indices)) < width


def sort_merge_join(
    left: EncodedRelation,
    right: EncodedRelation,
    l_pos: int,
    r_pos: int,
    extra: tuple[int, ...],
) -> frozenset[tuple[int, ...]]:
    """``{l + r[extra] : l ∈ left, r ∈ right, l[l_pos] == r[r_pos]}``.

    Equivalent to the hash join of two plain scans on one shared column,
    but runs off cached sorted runs instead of a hash build.  Every
    column is kept, so this is the pure merge (:func:`vector_join`).
    """
    if not left.n_rows or not right.n_rows:
        return _EMPTY
    full = tuple(range(left.arity + len(extra)))
    return _pure_sort_merge_project(left, right, l_pos, r_pos, extra, full, False)


def sort_merge_join_project(
    left: EncodedRelation,
    right: EncodedRelation,
    l_pos: int,
    r_pos: int,
    extra: tuple[int, ...],
    indices: tuple[int, ...],
    counted: bool = False,
) -> frozenset[tuple[int, ...]] | dict[tuple[int, ...], int]:
    """:func:`sort_merge_join` with the projection fused into the kernel.

    ``indices`` selects columns of the joined row ``l + r[extra]``
    (positions ``>= left.arity`` address the ``extra`` tail).  Fusing
    matters because many-to-many joins expand and projections collapse:
    the vector path gathers **only the projected columns** and dedups
    the expansion with ``np.lexsort`` at C speed, so the wide joined
    intermediate is never materialised as Python tuples at all.

    ``counted=True`` returns a dict instead: each projected row mapped
    to the number of joined rows projecting onto it (its witnesses).
    """
    if not left.n_rows or not right.n_rows:
        return {} if counted else _EMPTY
    if (
        left.n_rows + right.n_rows >= MIN_VECTOR_ROWS
        and vector_join(left.arity + len(extra), indices)
    ):
        return _vector_sort_merge_project(left, right, l_pos, r_pos, extra, indices, counted)
    return _pure_sort_merge_project(left, right, l_pos, r_pos, extra, indices, counted)


def _vector_sort_merge_project(left, right, l_pos, r_pos, extra, indices, counted):
    l_order, l_sorted = left.np_order(l_pos)
    r_order, r_sorted = right.np_order(r_pos)
    lo = _np.searchsorted(r_sorted, l_sorted, side="left")
    hi = _np.searchsorted(r_sorted, l_sorted, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return {} if counted else _EMPTY
    if not indices:  # nullary projection of a non-empty join
        return {(): total} if counted else _UNIT
    l_idx = _np.repeat(l_order, counts)
    # within each left row's match range, offsets 0..count-1 off its lo
    offsets = _np.arange(total) - _np.repeat(_np.cumsum(counts) - counts, counts)
    r_idx = r_order[_np.repeat(lo, counts) + offsets]
    la = left.arity
    cols = [
        left.np_column(c)[l_idx] if c < la else right.np_column(extra[c - la])[r_idx]
        for c in indices
    ]
    # sort the projected rows; each group of equal rows starts where a
    # column changes, and a group's size is its witness count
    order = _np.lexsort(cols)
    cols = [col[order] for col in cols]
    change = _np.zeros(total, dtype=bool)
    change[0] = True
    for col in cols:
        change[1:] |= col[1:] != col[:-1]
    starts = _np.flatnonzero(change)
    rows = zip(*(col[starts].tolist() for col in cols))
    if not counted:
        return frozenset(rows)
    return dict(zip(rows, _np.diff(starts, append=total).tolist()))


def _pure_sort_merge_project(left, right, l_pos, r_pos, extra, indices, counted):
    l_rows = left.sorted_rows(l_pos)
    r_rows = right.sorted_rows(r_pos)
    n_left, n_right = len(l_rows), len(r_rows)
    tail_of = key_getter(extra)
    # projecting onto every column in order is the identity
    full = indices == tuple(range(left.arity + len(extra)))
    project = key_getter(indices)
    # counting keeps every joined row; deduping needs only the distinct ones
    out: list | set = [] if counted else set()
    extend = out.extend if counted else out.update
    i = j = 0
    while i < n_left and j < n_right:
        a, b = l_rows[i][l_pos], r_rows[j][r_pos]
        if a < b:
            i += 1
        elif a > b:
            j += 1
        else:
            j_end = j
            while j_end < n_right and r_rows[j_end][r_pos] == a:
                j_end += 1
            tails = list(map(tail_of, r_rows[j:j_end]))
            while i < n_left and l_rows[i][l_pos] == a:
                lr = l_rows[i]
                joined = [lr + tail for tail in tails]
                extend(joined if full else map(project, joined))
                i += 1
            j = j_end
    return Counter(out) if counted else frozenset(out)


# ----------------------------------------------------------------------
# semi-join
# ----------------------------------------------------------------------

def semi_join(
    left: EncodedRelation,
    right: EncodedRelation,
    l_pos: int,
    r_pos: int,
) -> frozenset[tuple[int, ...]]:
    """``{l ∈ left : ∃r ∈ right, l[l_pos] == r[r_pos]}``."""
    if not left.n_rows or not right.n_rows:
        return _EMPTY
    if _np is not None and left.n_rows + right.n_rows >= MIN_VECTOR_ROWS:
        mask = _np.isin(left.np_column(l_pos), right.np_column(r_pos))
        if not mask.any():
            return _EMPTY
        idx = _np.nonzero(mask)[0]
        mat = _np.empty((len(idx), left.arity), dtype=_np.int64)
        for j in range(left.arity):
            mat[:, j] = left.np_column(j)[idx]
        return frozenset(map(tuple, mat.tolist()))
    keys = right.key_set(r_pos)
    return frozenset(row for row in left.row_tuples() if row[l_pos] in keys)


# ----------------------------------------------------------------------
# null-unifying anti-join
# ----------------------------------------------------------------------

def unify_anti_join(
    left: frozenset[tuple[int, ...]],
    l_key: tuple[int, ...],
    right: frozenset[tuple[int, ...]],
) -> frozenset[tuple[int, ...]]:
    """``{l ∈ left : no r ∈ right unifies with l[l_key]}``.

    Two encoded rows unify when at every position the codes are equal or
    either code is odd (a null, which some valuation can send anywhere).
    The test is per position, so it over-approximates unification — a
    null occurring twice is not forced to one value — and can only keep
    fewer rows.  ``right`` rows are aligned with ``l_key``.

    When ``right`` holds no null, a left row whose key holds none either
    unifies exactly with an equal right row: it is kept iff its key is
    not in ``right``, one set probe.
    """
    if not left or not right:
        return left
    if not l_key:
        return _EMPTY  # a nullary right row unifies with everything
    key_of = key_getter(l_key)
    out: list[tuple[int, ...]] = []
    if not any(c & 1 for c in chain.from_iterable(right)):
        # an odd code in a key is one of these, so a key disjoint from
        # them holds no null
        nulls = {c for c in chain.from_iterable(left) if c & 1}
        rest = []
        for row in left:
            key = key_of(row)
            if not nulls.isdisjoint(key):
                rest.append(row)
            elif key not in right:
                out.append(row)
        if not rest:
            return frozenset(out)
        left = rest
    # right rows grouped by the positions where they hold a constant
    groups: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for r in right:
        fixed = tuple(i for i, c in enumerate(r) if not c & 1)
        groups.setdefault(fixed, set()).add(tuple(r[i] for i in fixed))
    # per left null pattern: (positions both sides fix, right keys there)
    probes: dict[tuple[int, ...], list] = {}
    for row in left:
        key = key_of(row)
        k_fixed = tuple(i for i, c in enumerate(key) if not c & 1)
        tests = probes.get(k_fixed)
        if tests is None:
            tests = []
            for fixed, r_keys in groups.items():
                both = [j for j, i in enumerate(fixed) if i in k_fixed]
                pos = tuple(fixed[j] for j in both)
                tests.append((pos, {tuple(k[j] for j in both) for k in r_keys}))
            probes[k_fixed] = tests
        if not any(tuple(key[i] for i in pos) in r_keys for pos, r_keys in tests):
            out.append(row)
    return frozenset(out)
