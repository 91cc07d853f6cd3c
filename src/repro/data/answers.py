"""Answer sets that stay dictionary-encoded until something reads them.

Late materialisation (Abadi et al., "Materialization Strategies in a
Column-Oriented DBMS", ICDE 2007): the columnar engine computes naive
answers as rows of dictionary codes, and nothing on the way to the wire
needs them as Python values.  An :class:`AnswerSet` keeps those codes
in one flat ``array('q')`` and builds each other form the first time a
consumer asks for it, then keeps it:

* :meth:`AnswerSet.to_json` — the wire text, rendered from the
  :class:`~repro.data.dictionary.Dictionary`'s per-code JSON fragments
  and ordered by per-code ``repr`` strings, so it is byte-identical to
  :func:`repro.data.jsonio.render_rows` of the decoded rows;
* :meth:`AnswerSet.decode` — the frozenset of decoded rows, for
  in-process callers (``EvalResult.answers``).

The server only ever asks for the text, so a result-cache entry it
serves holds codes plus text and never decoded rows.

Answers computed any other way (enumeration, ctable, the interpreted
reference) wrap their decoded frozenset in the same type,
so every cache entry renders once.

>>> from repro.data.dictionary import Dictionary
>>> d = Dictionary()
>>> codes = [d.encode_row(row) for row in [(10, "b"), (2, "?a")]]
>>> encoded = AnswerSet.encoded(codes, 2, d)
>>> encoded.to_json("Q")
'[[10, "b"], [2, "??a"]]'
>>> encoded == AnswerSet.decoded(frozenset({(2, "?a"), (10, "b")}))
True
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Collection, Hashable

from repro.data.dictionary import Dictionary
from repro.data.jsonio import render_rows

__all__ = ["AnswerSet"]


class AnswerSet:
    """A set of answer rows, encoded (codes + dictionary) or decoded."""

    __slots__ = ("arity", "n_rows", "_codes", "_dictionary", "_rows", "_json")

    def __init__(self, arity, n_rows, codes, dictionary, rows):
        self.arity = arity
        self.n_rows = n_rows
        self._codes: array | None = codes
        self._dictionary: Dictionary | None = dictionary
        self._rows: frozenset | None = rows
        self._json: str | None = None

    @classmethod
    def encoded(
        cls, rows: Collection[tuple[int, ...]], arity: int, dictionary: Dictionary
    ) -> "AnswerSet":
        """Distinct rows of codes, kept encoded (flattened row-major)."""
        return cls(arity, len(rows), array("q", chain.from_iterable(rows)), dictionary, None)

    @classmethod
    def decoded(cls, rows: frozenset) -> "AnswerSet":
        """A set of already-decoded rows."""
        arity = len(next(iter(rows))) if rows else 0
        return cls(arity, len(rows), None, None, rows)

    @property
    def is_encoded(self) -> bool:
        return self._codes is not None

    def _columns(self) -> list[array]:
        k = self.arity
        return [self._codes[j::k] for j in range(k)]

    def decode(self) -> frozenset[tuple[Hashable, ...]]:
        """The rows as cell tuples, decoded on the first call only."""
        if self._rows is None:
            if self.arity:
                decode_row = self._dictionary.decode_row
                self._rows = frozenset(map(decode_row, zip(*self._columns())))
            else:
                self._rows = frozenset([()] * self.n_rows)
        return self._rows

    def to_json(self, relation: str) -> str:
        """The wire text of the set, rendered on the first call only.

        Equal to :func:`repro.data.jsonio.render_rows` of :meth:`decode`.
        ``relation`` names the set in the error raised for a cell with
        no JSON form.
        """
        if self._json is None:
            if self._codes is not None:
                self._json = self._render(relation)
            else:
                self._json = render_rows(relation, self._rows)
        return self._json

    def _render(self, relation: str) -> str:
        if not self.arity:
            return "[[]]" if self.n_rows else "[]"
        d, k = self._dictionary, self.arity
        distinct = set(self._codes)
        frags, reprs = d.json_fragments(distinct, relation), d.cell_reprs(distinct)
        cols = self._columns()
        # repr(row) spelled from the per-code reprs: "(a, b)", or "(a,)"
        key = ("({},)" if k == 1 else "(" + ", ".join(["{}"] * k) + ")").format
        keys = list(map(key, *(map(reprs.__getitem__, c) for c in cols)))
        row = ("[" + ", ".join(["{}"] * k) + "]").format
        texts = list(map(row, *(map(frags.__getitem__, c) for c in cols)))
        order = sorted(range(self.n_rows), key=keys.__getitem__)
        return "[" + ", ".join(map(texts.__getitem__, order)) + "]"

    # ------------------------------------------------------------------
    # the set protocol in-process callers use
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n_rows

    def __iter__(self):
        return iter(self.decode())

    def __eq__(self, other) -> bool:
        if isinstance(other, AnswerSet):
            other = other.decode()
        elif not isinstance(other, (set, frozenset)):
            return NotImplemented
        return self.decode() == other

    def __hash__(self) -> int:
        return hash(self.decode())

    def __repr__(self) -> str:
        return f"AnswerSet({set(self.decode())!r})"
