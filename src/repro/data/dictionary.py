"""Dictionary encoding: cells interned to ints, relations as columns.

The compiled evaluator pushes Python tuples of *cell objects* through
its hash joins.  That is correct but slow for exactly the data this
repo cares about: :class:`~repro.data.values.Null` hashes through a
Python-level ``__hash__`` that builds a tuple per call, and mixed
constant/null tuples hash cell-by-cell through the generic protocol.

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
"""

from __future__ import annotations

import json
import threading
from array import array
from typing import Hashable, Iterable, Mapping, Sequence

from repro.data.instance import Instance
from repro.data.jsonio import encode_cell
from repro.data.values import Null

__all__ = [
    "Dictionary",
    "EncodedRelation",
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
        "columns",
        "_rows",
        "_row_set",
        "_indexes",
        "_key_sets",
        "_np_cols",
        "_np_orders",
        "_sorted_rows",
        "_distinct",
    )

    def __init__(self, arity: int, columns: tuple[array, ...]):
        self.arity = arity
        self.n_rows = len(columns[0]) if columns else 0
        self.columns = columns
        self._rows: list[tuple[int, ...]] | None = None
        self._row_set: frozenset[tuple[int, ...]] | None = None
        self._indexes: dict[tuple[int, ...], dict] = {}
        self._key_sets: dict[int, frozenset[int]] = {}
        self._np_cols: dict[int, object] = {}
        self._np_orders: dict[int, tuple[object, object]] = {}
        self._sorted_rows: dict[int, list[tuple[int, ...]]] = {}
        self._distinct: dict[int, int] = {}

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

    # ------------------------------------------------------------------
    # access paths (all lazy, all memoised)
    # ------------------------------------------------------------------

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

    def key_set(self, position: int) -> frozenset[int]:
        """The distinct codes of one column (semi-join probe set)."""
        keys = self._key_sets.get(position)
        if keys is None:
            keys = frozenset(self.columns[position])
            self._key_sets[position] = keys
        return keys

    def distinct(self, position: int) -> int:
        """Number of distinct codes in one column (join-order stats)."""
        return len(self.key_set(position))

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


class ColumnarContext:
    """The columnar execution substrate of one :class:`Instance`.

    Mirrors :class:`~repro.data.indexes.TableContext` for the encoded
    world: relations are encoded **lazily, one relation at a time** on
    first access, so binding a context to an instance is O(1) and a
    query only pays for the relations it scans.  Cached on the instance
    (``instance._cols``), which is sound for the same reason the row
    context is: instances are immutable, mutation swaps the instance.
    """

    __slots__ = ("dictionary", "_instance", "_encoded", "_adom_codes")

    def __init__(self, instance: Instance, dictionary: Dictionary):
        self.dictionary = dictionary
        self._instance = instance
        self._encoded: dict[str, EncodedRelation] = {}
        self._adom_codes: frozenset[int] | None = None

    def encoded(self, name: str) -> EncodedRelation | None:
        """The encoded relation, built on first access (``None`` if absent)."""
        rel = self._encoded.get(name)
        if rel is None:
            rows = self._instance._relations.get(name)
            if rows is None:
                return None
            rel = EncodedRelation.from_rows(rows, self.dictionary)
            self._encoded[name] = rel
        return rel

    def adom_codes(self) -> frozenset[int]:
        """The active domain as a set of codes (lazily encoded)."""
        if self._adom_codes is None:
            encode = self.dictionary.encode
            self._adom_codes = frozenset(map(encode, self._instance.adom()))
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

    def stats_key(self) -> tuple[tuple[str, int], ...]:
        """Bucketed per-relation row counts for stats-driven join ordering.

        Counts are rounded up to powers of two so the (memoised)
        stats-specialised compilation is stable under small mutations;
        the pseudo-relation ``"%adom"`` carries the domain size.  No
        encoding is forced — counts come straight off the row sets.
        """
        rels = self._instance._relations
        parts = [(name, 1 << max(len(rows) - 1, 0).bit_length()) for name, rows in rels.items()]
        parts.append(("%adom", 1 << max(len(self._instance.adom()) - 1, 0).bit_length()))
        return tuple(sorted(parts))

    def __repr__(self) -> str:
        return (
            f"ColumnarContext({len(self._encoded)}/{len(self._instance._relations)} "
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
    their indexes, numpy views and sort runs along for free.  Touched
    relations re-encode lazily on next access.

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
    for name, rel in old_ctx._encoded.items():
        if name not in changes and name in new_rels:
            ctx._encoded[name] = rel
    new_instance._cols = ctx
    return ctx
