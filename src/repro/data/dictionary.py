"""Dictionary encoding: cells interned to ints, relations as columns.

Pushing Python tuples of *cell objects* through hash joins is correct
but slow for exactly the data this repo cares about:
:class:`~repro.data.values.Null` hashes through a Python-level
``__hash__`` that builds a tuple per call, and mixed constant/null
tuples hash cell-by-cell through the generic protocol.

A :class:`Dictionary` interns every cell — constants and nulls alike —
into a small integer *code*.  Codes are append-only and stable: once a
value is interned its code never changes, across ``with_delta``
mutations, ``replace``, and snapshot restore (the session layer carries
one dictionary along its whole instance chain).  Encoded rows are plain
``tuple[int, ...]`` and encoded relations store their rows as *columns*
of ints (``array('q')``), which makes hashing, equality, pickling and —
when numpy is available — vectorised kernels cheap.

The code space is split by parity so "is this cell a null?" needs no
table lookup:

* **even** codes are constants (``code >> 1`` indexes the constant table);
* **odd** codes are nulls (``code >> 1`` indexes the null table).

>>> from repro.data.values import Null
>>> d = Dictionary()
>>> d.encode("a"), d.encode(Null("x")), d.encode("a")
(0, 1, 0)
>>> d.decode(0), d.decode(1)
('a', ⊥x)
>>> Dictionary.is_null_code(1), Dictionary.is_null_code(0)
(True, False)

Equality of codes is equality of cells under ``==`` — the same relation
row sets use.  In particular ``1 == True`` interns to one code, exactly
as ``{(1,), (True,)}`` is a one-element frozenset.

Answers are rendered straight from codes: two per-code memos hold each
cell's JSON text and its ``repr``, filled the first time a code is
rendered.  Codes never change meaning, so neither memo goes stale.

>>> d.encode("?b")
2
>>> d.json_fragments([0, 2], "Q")[2], d.cell_reprs([2])[2]
('"??b"', "'?b'")

Because codes are stable, a write never re-encodes what it did not
change: :func:`derive_columnar` shares the untouched relations'
encodings with the new version, and derives a written relation — rows
and null split alike — from its ancestor's encoding by the delta's
codes, lazily on first access.
"""

from __future__ import annotations

import json
import threading
from array import array
from itertools import chain
from operator import itemgetter
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from repro.data.instance import Instance
from repro.data.jsonio import encode_cell
from repro.data.values import Null

__all__ = [
    "Dictionary",
    "EncodedRelation",
    "NullSplit",
    "ColumnarContext",
    "columnar_context",
    "derive_columnar",
]

try:  # optional acceleration; every caller has a pure-Python path
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the pure kernels
    _np = None

_SENTINEL = object()


class Dictionary:
    """Append-only interning of cells (constants and nulls) to ints.

    Thread-safe for concurrent interning: lookups are lock-free (CPython
    dict reads are atomic), insertions take a lock and re-check.  Decode
    tables are append-only lists, so a code obtained from any thread can
    always be decoded.
    """

    __slots__ = ("_codes", "_consts", "_nulls", "_lock", "_json", "_reprs")

    def __init__(self) -> None:
        self._codes: dict[Hashable, int] = {}
        self._consts: list[Hashable] = []
        self._nulls: list[Null] = []
        self._lock = threading.Lock()
        # per-code rendering memos (see json_fragments / cell_reprs)
        self._json: dict[int, str] = {}
        self._reprs: dict[int, str] = {}

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------

    def encode(self, value: Hashable) -> int:
        """The code of ``value``, interning it on first sight."""
        code = self._codes.get(value)
        if code is None:
            with self._lock:
                code = self._codes.get(value)
                if code is None:
                    if isinstance(value, Null):
                        code = len(self._nulls) * 2 + 1
                        self._nulls.append(value)
                    else:
                        code = len(self._consts) * 2
                        self._consts.append(value)
                    self._codes[value] = code
        return code

    def try_encode(self, value: Hashable) -> int | None:
        """The code of ``value`` **without** interning; ``None`` if unseen.

        Query-time probes use this: a constant the dictionary has never
        seen cannot occur in any encoded relation, so the probe misses.
        """
        return self._codes.get(value)

    def encode_row(self, row: Sequence[Hashable]) -> tuple[int, ...]:
        """Encode one tuple of cells."""
        return tuple(map(self.encode, row))

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    def decode(self, code: int) -> Hashable:
        """The cell a code stands for (first-interned representative)."""
        if code & 1:
            return self._nulls[code >> 1]
        return self._consts[code >> 1]

    def decode_row(self, codes: Sequence[int]) -> tuple[Hashable, ...]:
        """Decode one encoded row back to a tuple of cells."""
        return tuple(map(self.decode, codes))

    @staticmethod
    def is_null_code(code: int) -> bool:
        """True iff ``code`` stands for a null (odd codes are nulls)."""
        return bool(code & 1)

    # ------------------------------------------------------------------
    # rendering memos
    # ------------------------------------------------------------------

    def _cell(self, code: int) -> Hashable:
        # decode() without the public entry point: a memo fill looks at
        # each code once and is not a decode of any answer row
        return self._nulls[code >> 1] if code & 1 else self._consts[code >> 1]

    def json_fragments(self, codes: Iterable[int], relation: str) -> dict[int, str]:
        """The memo ``code → JSON text of its cell``, filled for ``codes``.

        The text is ``json.dumps(encode_cell(relation, cell))``, the
        wire form of :mod:`repro.data.jsonio`.  ``relation`` only names
        the answer set in the error a cell with no JSON form raises;
        such a cell is never memoised.
        """
        memo = self._json
        for code in set(codes).difference(memo):
            memo[code] = json.dumps(encode_cell(relation, self._cell(code)))
        return memo

    def cell_reprs(self, codes: Iterable[int]) -> dict[int, str]:
        """The memo ``code → repr(cell)``, filled for ``codes``."""
        memo = self._reprs
        for code in set(codes).difference(memo):
            memo[code] = repr(self._cell(code))
        return memo

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._consts) + len(self._nulls)

    def const_count(self) -> int:
        return len(self._consts)

    def null_count(self) -> int:
        return len(self._nulls)

    def __repr__(self) -> str:
        return f"Dictionary({len(self._consts)} consts, {len(self._nulls)} nulls)"


class NullSplit(NamedTuple):
    """A relation's rows and cells split by code parity (odd = null)."""

    #: the rows holding no null code
    free_rows: frozenset[tuple[int, ...]]
    #: the rows holding at least one null code, sorted
    null_rows: tuple[tuple[int, ...], ...]
    #: the distinct constant codes of the relation
    const_codes: frozenset[int]
    #: the distinct null codes of the relation
    null_codes: frozenset[int]


def _patched_split(
    split: NullSplit,
    added: frozenset[tuple[int, ...]],
    removed: frozenset[tuple[int, ...]],
    appeared: frozenset[int],
    vanished: frozenset[int],
) -> NullSplit:
    """``split`` after an effective write of ``added``/``removed`` rows
    that made the ``appeared`` codes enter the relation and the
    ``vanished`` ones leave it."""
    free_rows, null_rows = split.free_rows, split.null_rows
    gone = [r for r in removed if any(c & 1 for c in r)]
    new = [r for r in added if any(c & 1 for c in r)]
    if len(gone) < len(removed):
        free_rows = free_rows.difference(removed)
    if len(new) < len(added):
        free_rows = free_rows.union(r for r in added if not any(c & 1 for c in r))
    if gone or new:
        null_rows = tuple(sorted(set(null_rows).difference(gone).union(new)))
    const_codes, null_codes = split.const_codes, split.null_codes
    if appeared or vanished:
        const_codes = const_codes.difference(vanished).union(c for c in appeared if not c & 1)
        null_codes = null_codes.difference(vanished).union(c for c in appeared if c & 1)
    return NullSplit(free_rows, null_rows, const_codes, null_codes)


class EncodedRelation:
    """One relation stored as columns of int codes.

    Immutable after construction (relations are frozen row sets), so an
    encoded relation — with every lazily built index, row set, numpy
    view and sort order it accumulates — can be shared wholesale across
    the instances of a mutation chain that did not touch it.
    """

    __slots__ = (
        "arity",
        "n_rows",
        "_columns",
        "_rows",
        "_row_set",
        "_indexes",
        "_key_sets",
        "_np_cols",
        "_np_orders",
        "_sorted_rows",
        "_split",
        "_one_use",
    )

    def __init__(self, arity: int, columns: tuple[array, ...]):
        self.arity = arity
        self.n_rows = len(columns[0]) if columns else 0
        self._columns: tuple[array, ...] | None = columns
        self._rows: list[tuple[int, ...]] | None = None
        self._row_set: frozenset[tuple[int, ...]] | None = None
        self._indexes: dict[tuple[int, ...], dict] = {}
        self._key_sets: dict[int, frozenset[int]] = {}
        self._np_cols: dict[int, object] = {}
        self._np_orders: dict[int, tuple[object, object]] = {}
        self._sorted_rows: dict[int, list[tuple[int, ...]]] = {}
        self._split: NullSplit | None = None
        #: built over codes for one evaluation (see :meth:`matching`)
        self._one_use = False

    @classmethod
    def from_rows(cls, rows: Iterable[tuple], dictionary: Dictionary) -> "EncodedRelation":
        """Encode a frozen row set column-wise through ``dictionary``."""
        rows = list(rows)
        if not rows:
            return cls(0, ())
        arity = len(rows[0])
        encode = dictionary.encode
        cols = tuple(
            array("q", [encode(row[j]) for row in rows]) for j in range(arity)
        )
        return cls(arity, cols)

    @classmethod
    def from_codes(cls, arity: int, rows: frozenset[tuple[int, ...]]) -> "EncodedRelation":
        """A relation over already-encoded rows (an oracle world's).

        Its columns are built on first use: a world whose plan only
        scans the relation never needs them.
        """
        rel = cls(arity, ())
        rel.n_rows = len(rows)
        rel._columns = None
        rel._row_set = rows
        rel._one_use = True
        return rel

    @classmethod
    def derived(
        cls,
        base: "EncodedRelation",
        added: frozenset[tuple[int, ...]],
        removed: frozenset[tuple[int, ...]],
        moved: tuple[frozenset[int], frozenset[int]] | None,
    ) -> "EncodedRelation":
        """``base`` less the ``removed`` rows plus the ``added`` ones.

        The delta must be effective (``removed`` rows present in
        ``base``, ``added`` ones absent).  ``moved`` is the ``(appeared,
        vanished)`` codes: those the delta brought into the relation or
        took out of it, as :meth:`~repro.data.instance.Instance.with_delta`
        reports them.  Columns are built on first use.  When ``base`` was
        already split and ``moved`` is known, the :meth:`null_split` is
        ``base``'s updated by the delta alone.
        """
        rows = base.row_set()
        if removed:
            rows = rows - removed
        if added:
            rows = rows | added
        rel = cls(base.arity, ())
        rel.n_rows = len(rows)
        rel._columns = None
        rel._row_set = rows
        if base._split is not None and moved is not None:
            rel._split = _patched_split(base._split, added, removed, *moved)
        return rel

    @property
    def columns(self) -> tuple[array, ...]:
        """The rows column-wise, one ``array('q')`` of codes per position."""
        if self._columns is None:
            self._columns = tuple(array("q", col) for col in zip(*self._row_set))
        return self._columns

    # ------------------------------------------------------------------
    # row views
    # ------------------------------------------------------------------

    def row_tuples(self) -> list[tuple[int, ...]]:
        """The rows as int tuples (cached; C-speed ``zip`` over columns)."""
        if self._rows is None:
            self._rows = list(zip(*self.columns)) if self.columns else []
        return self._rows

    def row_set(self) -> frozenset[tuple[int, ...]]:
        """The rows as a frozenset of int tuples (cached)."""
        if self._row_set is None:
            self._row_set = frozenset(self.row_tuples())
        return self._row_set

    def null_split(self) -> NullSplit:
        """The rows and cells split into null-free and null parts (cached).

        Cached on the relation, so it is computed once per relation
        version: the contexts of later generations share untouched
        relations (:func:`derive_columnar`) and their splits with them,
        and a written relation may take its split from its ancestor's
        (:meth:`derived`).  The null rows are sorted.
        """
        split = self._split
        if split is None:
            cells = frozenset(chain.from_iterable(self.columns))
            null_codes = frozenset(c for c in cells if c & 1)
            rows = self.row_set()
            if null_codes:
                null_rows = tuple(sorted(r for r in rows if not null_codes.isdisjoint(r)))
                split = NullSplit(
                    rows.difference(null_rows), null_rows, cells - null_codes, null_codes
                )
            else:
                split = NullSplit(rows, (), cells, null_codes)
            self._split = split
        return split

    # ------------------------------------------------------------------
    # access paths (all lazy, all memoised)
    # ------------------------------------------------------------------

    def has_row_set(self) -> bool:
        """Is :meth:`row_set` built already (so it costs nothing)?"""
        return self._row_set is not None

    def has_index(self, positions: tuple[int, ...]) -> bool:
        """Is :meth:`index` on ``positions`` built already (so it costs nothing)?"""
        return positions in self._indexes

    def index(self, positions: tuple[int, ...]) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
        """Hash index ``{key: [rows]}`` keyed on ``positions`` (int keys)."""
        idx = self._indexes.get(positions)
        if idx is None:
            idx = {}
            for row in self.row_tuples():
                key = tuple(row[i] for i in positions)
                bucket = idx.get(key)
                if bucket is None:
                    idx[key] = [row]
                else:
                    bucket.append(row)
            self._indexes[positions] = idx
        return idx

    def matching(
        self, positions: tuple[int, ...], key: tuple[int, ...]
    ) -> Iterable[tuple[int, ...]]:
        """The rows holding ``key`` at ``positions``.

        A relation built over codes (:meth:`from_codes`: an oracle
        world's, a write's delta) serves one evaluation and is dropped,
        so its rows are filtered; any other relation probes its cached
        :meth:`index`.
        """
        if not self._one_use:
            return self.index(positions).get(key, ())
        if len(positions) == 1:
            (i,), (k,) = positions, key
            return [row for row in self._row_set if row[i] == k]
        get = itemgetter(*positions)
        return [row for row in self._row_set if get(row) == key]

    def key_set(self, position: int) -> frozenset[int]:
        """The distinct codes of one column (semi-join probe set)."""
        keys = self._key_sets.get(position)
        if keys is None:
            keys = frozenset(self.columns[position])
            self._key_sets[position] = keys
        return keys

    def sorted_rows(self, position: int) -> list[tuple[int, ...]]:
        """Rows sorted by one column's code (pure sort-merge runs)."""
        rows = self._sorted_rows.get(position)
        if rows is None:
            col = self.columns[position]
            order = sorted(range(self.n_rows), key=col.__getitem__)
            all_rows = self.row_tuples()
            rows = [all_rows[i] for i in order]
            self._sorted_rows[position] = rows
        return rows

    def np_column(self, position: int):
        """One column as an int64 numpy array (requires numpy)."""
        col = self._np_cols.get(position)
        if col is None:
            col = _np.frombuffer(self.columns[position], dtype=_np.int64)
            self._np_cols[position] = col
        return col

    def np_order(self, position: int):
        """``(argsort, sorted_codes)`` of one column (vector sort runs)."""
        cached = self._np_orders.get(position)
        if cached is None:
            col = self.np_column(position)
            order = _np.argsort(col, kind="stable")
            cached = (order, col[order])
            self._np_orders[position] = cached
        return cached

    def __repr__(self) -> str:
        return f"EncodedRelation(arity={self.arity}, rows={self.n_rows})"


class _Pending(NamedTuple):
    """A written relation whose encoding is derived on first access.

    ``base`` is the ancestor's encoded relation; ``added``/``removed``
    are the write's effective rows and ``moved`` its ``(appeared,
    vanished)`` values in the relation, all as cells.
    """

    base: "EncodedRelation"
    added: frozenset[tuple]
    removed: frozenset[tuple]
    moved: tuple[frozenset, frozenset] | None

    def derive(self, dictionary: Dictionary) -> "EncodedRelation":
        """The encoded relation this entry stands for."""
        encode, encode_row = dictionary.encode, dictionary.encode_row
        # the added rows first: they intern the values that appeared
        added = frozenset(map(encode_row, self.added))
        moved = self.moved
        if moved is not None:
            moved = (frozenset(map(encode, moved[0])), frozenset(map(encode, moved[1])))
        return EncodedRelation.derived(
            self.base, added, frozenset(map(encode_row, self.removed)), moved
        )


class ColumnarContext:
    """The columnar execution substrate of one :class:`Instance`.

    Relations are encoded **lazily, one relation at a time** on first
    access, so binding a context to an instance is O(1) and a query only
    pays for the relations it scans.  Cached on the instance
    (``instance._cols``), which is sound because instances are
    immutable: mutation swaps the instance.  The context holds the
    instance's relation map, not the instance, so a superseded instance
    version and its encoded relations are freed as soon as nothing
    holds them, with no wait for the cycle collector.

    :meth:`layer` builds a context over a parent instead: an oracle world
    or a datalog round holds its own encoded relations and domain, and
    every other relation — with the indexes and sort runs it has
    accumulated — comes from the parent.
    """

    __slots__ = ("dictionary", "_relations", "_encoded", "_pending", "_adom_codes", "_parent")

    def __init__(self, instance: Instance, dictionary: Dictionary):
        self.dictionary = dictionary
        self._relations = instance._relations
        self._encoded: dict[str, EncodedRelation] = {}
        # written relations derived from an ancestor's on first access
        self._pending: dict[str, _Pending] = {}
        self._adom_codes: frozenset[int] | None = None
        self._parent: ColumnarContext | None = None

    @classmethod
    def layer(
        cls,
        parent: "ColumnarContext",
        encoded: dict[str, EncodedRelation],
        adom_codes: frozenset[int],
    ) -> "ColumnarContext":
        """``encoded`` and the domain ``adom_codes`` over ``parent``.

        The layer shares the parent's dictionary; a relation it does not
        hold is the parent's.
        """
        ctx = cls.__new__(cls)
        ctx.dictionary = parent.dictionary
        ctx._relations = None
        ctx._encoded = encoded
        ctx._pending = {}
        ctx._adom_codes = adom_codes
        ctx._parent = parent
        return ctx

    def encoded(self, name: str) -> EncodedRelation | None:
        """The encoded relation, built on first access (``None`` if absent)."""
        rel = self._encoded.get(name)
        if rel is None:
            if self._parent is not None:
                return self._parent.encoded(name)
            pending = self._pending.get(name)
            if pending is not None:
                rel = pending.derive(self.dictionary)
            else:
                rows = self._relations.get(name)
                if rows is None:
                    return None
                rel = EncodedRelation.from_rows(rows, self.dictionary)
            self._encoded[name] = rel
            self._pending.pop(name, None)
        return rel

    def built(self, name: str) -> EncodedRelation | None:
        """The encoded relation if it is built already; never builds one.

        ``None`` when the relation is absent, or written and not yet
        derived, or never encoded.
        """
        rel = self._encoded.get(name)
        if rel is None and self._parent is not None:
            return self._parent.built(name)
        return rel

    def adom_codes(self) -> frozenset[int]:
        """The active domain as a set of codes (lazily encoded)."""
        if self._adom_codes is None:
            encode = self.dictionary.encode
            cells = set(chain.from_iterable(chain.from_iterable(self._relations.values())))
            self._adom_codes = frozenset(map(encode, cells))
        return self._adom_codes

    def try_encode_key(self, values: Sequence[Hashable]) -> tuple[int, ...] | None:
        """Encode a probe key without interning; ``None`` on any miss."""
        out = []
        get = self.dictionary.try_encode
        for value in values:
            code = get(value)
            if code is None:
                return None
            out.append(code)
        return tuple(out)

    def __repr__(self) -> str:
        if self._parent is not None:
            return f"ColumnarContext(layer of {len(self._encoded)} relations over {self._parent!r})"
        return (
            f"ColumnarContext({len(self._encoded)}/{len(self._relations)} "
            f"relations encoded; {self.dictionary!r})"
        )


def columnar_context(instance: Instance, dictionary: Dictionary | None = None) -> ColumnarContext:
    """The columnar context of an instance, cached on the instance.

    ``dictionary`` seeds a fresh context (the session layer passes its
    per-``Database`` dictionary so codes stay stable across the whole
    instance chain); a context already cached on the instance wins.
    """
    ctx = instance._cols
    if ctx is None:
        ctx = ColumnarContext(instance, dictionary if dictionary is not None else Dictionary())
        instance._cols = ctx
    return ctx


def derive_columnar(
    old_instance: Instance,
    new_instance: Instance,
    changes: Mapping[str, tuple],
) -> ColumnarContext | None:
    """Seed ``new_instance``'s columnar context from its ancestor.

    The ancestor's dictionary is carried forward (codes stay stable —
    the interning invariant the differential tests pin), and the encoded
    relations of **untouched** relations are shared outright, bringing
    their indexes, numpy views and sort runs along for free.  A
    **touched** relation the ancestor had encoded is derived from that
    encoding on first access, so the write itself only records its
    delta: its rows are the ancestor's patched by the delta's codes, and
    so is its null split when the ancestor had one
    (:meth:`EncodedRelation.derived`).  A touched relation the ancestor
    had not encoded (several writes made without a read in between)
    encodes afresh on first access.

    No-op (returns ``None``) when the ancestor was never encoded — a
    database that never ran the columnar engine pays nothing here.
    """
    if new_instance._cols is not None:
        return new_instance._cols
    old_ctx = old_instance._cols
    if old_ctx is None:
        return None
    ctx = ColumnarContext(new_instance, old_ctx.dictionary)
    new_rels = new_instance._relations
    # copies: readers of the ancestor may encode concurrently
    for name, pending in old_ctx._pending.copy().items():
        if name not in changes:
            ctx._pending[name] = pending
    for name, rel in old_ctx._encoded.copy().items():
        if name not in changes and name in new_rels:
            ctx._encoded[name] = rel
    moves = new_instance._value_moves or {}
    for name, (added, removed) in changes.items():
        base = old_ctx._encoded.get(name)
        if base is not None and name in new_rels:
            ctx._pending[name] = _Pending(base, added, removed, moves.get(name))
    new_instance._cols = ctx
    return ctx
