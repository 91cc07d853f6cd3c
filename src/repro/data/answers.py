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
serves holds codes plus text and never decoded rows.  The CWA
certain-answer oracle (:mod:`repro.core.certain`) intersects encoded
rows too, and its answers stay encoded the same way.

Answers computed any other way (enumeration under the other
semantics, the interpreted reference) wrap their decoded frozenset in
the same type, so every cache entry renders once.

>>> from repro.data.dictionary import Dictionary
>>> d = Dictionary()
>>> codes = [d.encode_row(row) for row in [(10, "b"), (2, "?a")]]
>>> encoded = AnswerSet.encoded(codes, 2, d)
>>> encoded.to_json("Q")
'[[10, "b"], [2, "??a"]]'
>>> encoded == AnswerSet.decoded(frozenset({(2, "?a"), (10, "b")}))
True

A set the columnar engine can maintain under writes also carries its
**witness counts** (:meth:`AnswerSet.counted`): every row the plan
projects, null rows included, mapped to the number of rows of the
plan's projection-free child that project onto it.  That is the
counting algorithm of Gupta, Mumick and Subrahmanian ("Maintaining
views incrementally", SIGMOD 1993): :meth:`AnswerSet.patched` adds a
write's signed per-row counts and returns a new set in which exactly
the rows whose count crossed zero appear or vanish.  Once such a set
has been rendered it keeps its rows' sort keys and JSON fragments in
order, and a patched set updates them by bisection, so its text is
still byte-identical to a fresh render:

>>> from repro.data.values import Null
>>> n = d.encode(Null("n"))
>>> counted = AnswerSet.counted({(0, 2): 2, (0, n): 1}, 2, d, plan=None)
>>> counted.to_json("Q")
'[[10, "b"]]'
>>> later = counted.patched({(0, 2): -1, (4, 6): 1})
>>> later.to_json("Q"), counted.to_json("Q")
('[[10, "b"], [2, "??a"]]', '[[10, "b"]]')
>>> later.patched({(0, 2): -1}).to_json("Q")
'[[2, "??a"]]'

A CWA oracle answer is not counted, but one read's set is the next
read's starting point all the same: :meth:`AnswerSet.succeeded_by`
builds the set of the new rows from the prior one's rendering and
decoded rows, each patched by the rows that entered or left.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import chain
from typing import Collection, Hashable, Mapping

from repro.data.dictionary import Dictionary
from repro.data.jsonio import render_rows

__all__ = ["AnswerSet", "visible_rows"]


def _visible(row: tuple[int, ...]) -> bool:
    """Does the row hold no null code (odd codes are nulls)?"""
    return not any(c & 1 for c in row)


def visible_rows(rows: Collection[tuple[int, ...]]) -> Collection[tuple[int, ...]]:
    """The rows holding no null code (one pass over the cells)."""
    null_codes = {c for c in chain.from_iterable(rows) if c & 1}
    if not null_codes:
        return rows
    return [row for row in rows if null_codes.isdisjoint(row)]


class AnswerSet:
    """A set of answer rows, encoded (codes + dictionary) or decoded."""

    __slots__ = (
        "arity",
        "n_rows",
        "plan",
        "bracket",
        "spec",
        "_codes",
        "_code_set",
        "_dictionary",
        "_rows",
        "_json",
        "_counts",
        "_sorted",
    )

    def __init__(self, arity, n_rows, codes, dictionary, rows):
        self.arity = arity
        self.n_rows = n_rows
        #: the plan the witness counts are over (``None``: not counted)
        self.plan = None
        #: a CWA oracle answer's ``(lower, upper)`` bounds as counted
        #: sets (``lower`` is ``None`` when the query has no lower-bound
        #: plan), or ``None``
        self.bracket: tuple[AnswerSet | None, AnswerSet] | None = None
        #: the :class:`~repro.core.certain.WorldSpec` a bracketed oracle
        #: answer was enumerated over, until the next maintained read of
        #: the query takes it over
        self.spec = None
        self._codes: array | None = codes
        # the member rows as a frozenset of codes, once known
        self._code_set: frozenset | None = None
        self._dictionary: Dictionary | None = dictionary
        self._rows: frozenset | None = rows
        self._json: str | None = None
        self._counts: Mapping[tuple[int, ...], int] | None = None
        # (relation, sort keys, row texts) in wire order, kept once a
        # counted or bracketed set has rendered so that the sets patched
        # from it can bisect it
        self._sorted: tuple[str, list[str], list[str]] | None = None

    @classmethod
    def encoded(
        cls, rows: Collection[tuple[int, ...]], arity: int, dictionary: Dictionary
    ) -> "AnswerSet":
        """Distinct rows of codes, kept encoded (flattened row-major)."""
        return cls(arity, len(rows), array("q", chain.from_iterable(rows)), dictionary, None)

    @classmethod
    def counted(
        cls,
        counts: Mapping[tuple[int, ...], int],
        arity: int,
        dictionary: Dictionary,
        plan,
    ) -> "AnswerSet":
        """Rows of codes with their witness counts over ``plan``.

        ``counts`` holds every row the plan projects; rows with a null
        code stay counted but are not members of the set.
        """
        out = cls.encoded(visible_rows(counts), arity, dictionary)
        out._counts = counts
        out.plan = plan
        return out

    @classmethod
    def decoded(cls, rows: frozenset) -> "AnswerSet":
        """A set of already-decoded rows."""
        arity = len(next(iter(rows))) if rows else 0
        return cls(arity, len(rows), None, None, rows)

    @property
    def is_encoded(self) -> bool:
        return self._dictionary is not None

    @property
    def is_rendered(self) -> bool:
        """Is the wire text already cached (:meth:`to_json` costs nothing)?"""
        return self._json is not None

    def _columns(self) -> list[array]:
        if self._codes is None:  # a patched set: its rows are the counted ones
            self._codes = array("q", chain.from_iterable(visible_rows(self._counts)))
        k = self.arity
        return [self._codes[j::k] for j in range(k)]

    def code_rows(self) -> frozenset[tuple[int, ...]]:
        """The member rows as tuples of codes (an encoded set only; cached)."""
        rows = self._code_set
        if rows is None:
            if self._counts is not None:
                rows = frozenset(visible_rows(self._counts))
            elif not self.arity:
                rows = frozenset([()] * self.n_rows)
            else:
                rows = frozenset(zip(*self._columns()))
            self._code_set = rows
        return rows

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
            if self._sorted is not None:
                self._json = "[" + ", ".join(self._sorted[2]) + "]"
            elif self._dictionary is not None:
                self._json = self._render(relation)
            else:
                self._json = render_rows(relation, self._rows)
        return self._json

    def _spellers(self):
        """Functions spelling a row's sort key (``repr(row)``) and text."""
        k = self.arity
        # repr(row) spelled from the per-code reprs: "(a, b)", or "(a,)"
        key = ("({},)" if k == 1 else "(" + ", ".join(["{}"] * k) + ")").format
        row = ("[" + ", ".join(["{}"] * k) + "]").format
        return key, row

    def _render(self, relation: str) -> str:
        if not self.arity:
            return "[[]]" if self.n_rows else "[]"
        d = self._dictionary
        cols = self._columns()
        distinct = set(self._codes)
        frags, reprs = d.json_fragments(distinct, relation), d.cell_reprs(distinct)
        key, row = self._spellers()
        keys = list(map(key, *(map(reprs.__getitem__, c) for c in cols)))
        texts = list(map(row, *(map(frags.__getitem__, c) for c in cols)))
        order = sorted(range(self.n_rows), key=keys.__getitem__)
        texts = list(map(texts.__getitem__, order))
        if self._counts is not None or self.bracket is not None:
            self._sorted = (relation, list(map(keys.__getitem__, order)), texts)
        return "[" + ", ".join(texts) + "]"

    # ------------------------------------------------------------------
    # maintenance under writes (witness counting)
    # ------------------------------------------------------------------

    def patched(self, delta: Mapping[tuple[int, ...], int]) -> "AnswerSet":
        """A new set: this one's witness counts plus ``delta``'s signed ones.

        Only a :meth:`counted` set can be patched.  A row is a member of
        the result while its count is positive and it holds no null
        code.  The receiver is left untouched; the result shares its
        rendered row texts, patched by bisection.
        """
        counts = dict(self._counts)
        appeared, vanished = [], []
        for row, change in delta.items():
            if not change:
                continue
            before = counts.get(row, 0)
            after = before + change
            if after:
                counts[row] = after
            else:
                del counts[row]
            if _visible(row):
                if not before:
                    appeared.append(row)
                elif not after:
                    vanished.append(row)
        out = AnswerSet(
            self.arity,
            self.n_rows + len(appeared) - len(vanished),
            None,
            self._dictionary,
            None,
        )
        out._counts = counts
        out.plan = self.plan
        rendered = self._sorted
        if rendered is not None and (appeared or vanished):
            rendered = self._patch_text(rendered, appeared, vanished)
        out._sorted = rendered
        if self._code_set is not None:
            out._code_set = self._code_set.difference(vanished).union(appeared)
        return out

    def succeeded_by(self, rows: frozenset[tuple[int, ...]]) -> "AnswerSet":
        """An encoded set of ``rows`` that starts from this one.

        Over the same dictionary and arity; the text this set rendered
        and the rows it decoded carry over, patched by the rows that
        entered or left, so neither costs more than those rows.
        """
        out = AnswerSet.encoded(rows, self.arity, self._dictionary)
        out._code_set = rows
        before = self.code_rows()
        appeared, vanished = rows - before, before - rows
        rendered = self._sorted
        if rendered is not None and (appeared or vanished):
            rendered = self._patch_text(rendered, list(appeared), list(vanished))
        out._sorted = rendered
        if self._rows is not None:
            decode_row = self._dictionary.decode_row
            out._rows = self._rows.difference(map(decode_row, vanished)).union(
                map(decode_row, appeared)
            )
        return out

    def _patch_text(self, rendered, appeared, vanished):
        """``rendered`` with the rows inserted and removed, or ``None``.

        ``None`` (render afresh on demand) when a new cell has no JSON
        form, or when two rows share a sort key: the full render orders
        ties by code position, which bisection cannot reproduce.
        """
        relation, keys, texts = rendered
        d = self._dictionary
        codes = set(chain.from_iterable(appeared + vanished))
        try:
            frags = d.json_fragments(codes, relation)
        except ValueError:
            return None
        reprs = d.cell_reprs(codes)
        key, row = self._spellers()
        keys, texts = list(keys), list(texts)
        for r in vanished:
            k = key(*map(reprs.__getitem__, r))
            i = bisect_left(keys, k)
            if keys[i : i + 1] != [k] or keys[i + 1 : i + 2] == [k]:  # absent, or a tie
                return None
            del keys[i], texts[i]
        for r in appeared:
            k = key(*map(reprs.__getitem__, r))
            i = bisect_left(keys, k)
            if i < len(keys) and keys[i] == k:
                return None
            keys.insert(i, k)
            texts.insert(i, row(*map(frags.__getitem__, r)))
        return relation, keys, texts

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
