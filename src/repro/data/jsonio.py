"""The JSON wire format for instances, rows and cells.

One codec shared by the CLI (instance files) and the JSON-lines server
(:mod:`repro.server`).  A cell is a JSON scalar; a string starting with
``"?"`` denotes a marked null (``"?x"`` is the null ⊥x, repeatable
across facts); a doubled marker escapes a literal leading question mark
(``"??x"`` is the constant ``"?x"``)::

    {"R": [[1, "?x"], ["?y", "?z"]], "S": [["?x", 4]]}

Decoding and encoding round-trip: ``decode_cell(encode_cell(v)) == v``
for every representable value, and values that are *not* representable
(non-scalar cells, nulls whose label itself starts with ``?``) raise
:class:`ValueError` instead of being silently stringified.

This module is the one codec for a *relation map*, the ``{relation:
[rows]}`` object that instance files, snapshots, the write-ahead log,
the replication frames and the ``dump`` op all carry:
:func:`encode_relations` sorts each relation's rows by the ``repr`` of
the row tuple, so equal maps encode to equal bytes, and
:func:`decode_relations` checks the shape before it decodes a cell.
Each format keeps its own ``json.dumps`` call.  An answer set goes on
the wire as one relation's rows in the same order (:func:`render_rows`).
A :class:`RawJSON` carries text already rendered; :func:`dumps` splices
it into a response line as is:

>>> line = dumps({"ok": True, "answers": RawJSON('[[1, "??x"]]')})
>>> line
'{"ok": true, "answers": [[1, "??x"]]}'
>>> json.loads(line)["answers"] == RawJSON('[[1, "??x"]]')
True
"""

from __future__ import annotations

import json
import re
from typing import Hashable, Iterable, Mapping

from repro.data.instance import Instance
from repro.data.values import Null

__all__ = [
    "RawJSON",
    "decode_cell",
    "encode_cell",
    "decode_row",
    "encode_row",
    "decode_rows",
    "encode_rows",
    "decode_relations",
    "encode_relations",
    "dumps",
    "instance_from_json",
    "instance_to_json",
    "render_rows",
]


def decode_cell(cell) -> Hashable:
    """One JSON scalar → a constant or a marked null."""
    if isinstance(cell, str) and cell.startswith("?"):
        if cell.startswith("??"):
            return cell[1:]  # escaped literal: "??x" is the constant "?x"
        return Null(cell[1:])
    if isinstance(cell, (list, dict)):
        raise ValueError(f"{cell!r} is not a valid cell (must be a scalar)")
    return cell


def encode_cell(relation: str, value: Hashable):
    """One constant or null → its JSON scalar (see module doc)."""
    if isinstance(value, Null):
        if value.label.startswith("?"):
            raise ValueError(
                f"relation {relation!r}: null label {value.label!r} starts with "
                f"'?' and cannot be represented in the JSON format"
            )
        return "?" + value.label
    if isinstance(value, str):
        return "?" + value if value.startswith("?") else value
    if value is None or isinstance(value, (bool, int, float)):
        return value
    raise ValueError(
        f"relation {relation!r}: cell {value!r} is not representable as a JSON scalar"
    )


def decode_row(relation: str, row) -> tuple[Hashable, ...]:
    """One JSON array → a fact tuple (with context in error messages)."""
    if not isinstance(row, list):
        raise ValueError(
            f"relation {relation!r}: row {row!r} is not a list — each row "
            f"must be a JSON array of cells"
        )
    try:
        return tuple(decode_cell(c) for c in row)
    except ValueError as err:
        raise ValueError(f"relation {relation!r}, row {row!r}: {err}") from None


def encode_row(relation: str, row: Iterable[Hashable]) -> list:
    """One fact tuple → its JSON array."""
    return [encode_cell(relation, v) for v in row]


def decode_rows(relation: str, rows) -> list[tuple[Hashable, ...]]:
    """One relation's JSON row list → its fact tuples."""
    if not isinstance(rows, list):
        raise ValueError(f"relation {relation!r}: expected a list of rows, got {rows!r}")
    return [decode_row(relation, row) for row in rows]


def encode_rows(relation: str, rows: Iterable[tuple]) -> list[list]:
    """One relation's rows → JSON arrays, sorted by the ``repr`` of each row."""
    return [encode_row(relation, row) for row in sorted(rows, key=repr)]


def decode_relations(data) -> dict[str, list[tuple[Hashable, ...]]]:
    """A decoded JSON ``{relation: [rows]}`` object → fact tuples per relation."""
    if not isinstance(data, dict):
        raise ValueError(
            f"expected an object mapping relation names to row lists, got {data!r}"
        )
    return {name: decode_rows(name, rows) for name, rows in data.items()}


def encode_relations(
    relations: Instance | Mapping[str, Iterable[tuple]],
) -> dict[str, list[list]]:
    """Rows per relation (or every relation of an instance) → a JSON-ready map."""
    if isinstance(relations, Instance):
        relations = {name: relations.tuples(name) for name in relations.relations}
    return {name: encode_rows(name, rows) for name, rows in relations.items()}


def render_rows(relation: str, rows: Iterable[tuple]) -> str:
    """An answer set's JSON text: rows sorted by ``repr``, cells encoded."""
    return json.dumps(encode_rows(relation, rows))


class RawJSON:
    """JSON text standing in for the value it encodes.

    :func:`dumps` writes the text verbatim; in-process readers see the
    parsed value, which is parsed on first use (equality, ``len``,
    iteration, indexing and ``repr`` all go through it).
    """

    __slots__ = ("text", "_value")

    def __init__(self, text: str):
        self.text = text
        self._value = None

    @property
    def value(self):
        if self._value is None:
            self._value = json.loads(self.text)
        return self._value

    def __eq__(self, other) -> bool:
        if isinstance(other, RawJSON):
            other = other.value
        return self.value == other

    __hash__ = None

    def __len__(self) -> int:
        return len(self.value)

    def __iter__(self):
        return iter(self.value)

    def __getitem__(self, index):
        return self.value[index]

    def __repr__(self) -> str:
        return repr(self.value)


#: how :func:`dumps` parks the i-th RawJSON in json.dumps' output
_PARKED = re.compile(r'"\\u0000raw(\d+)\\u0000"')


def dumps(value) -> str:
    """``json.dumps(value)``, with each :class:`RawJSON` written as its text.

    The encoder parks every RawJSON as a marker string, and one pass
    swaps each marker for its text, so the line is byte-identical to
    ``json.dumps`` of the parsed values.  Should some string in
    ``value`` spell a marker itself, the markers cannot be told apart
    and the RawJSON values are parsed and encoded instead.
    """
    texts: list[str] = []

    def park(obj):
        texts.append(_raw(obj).text)
        return f"\x00raw{len(texts) - 1}\x00"

    line = json.dumps(value, default=park)
    if not texts:
        return line
    pieces = _PARKED.split(line)
    if pieces[1::2] != [str(i) for i in range(len(texts))]:
        return json.dumps(value, default=lambda obj: _raw(obj).value)
    pieces[1::2] = texts
    return "".join(pieces)


def _raw(obj) -> RawJSON:
    if not isinstance(obj, RawJSON):
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return obj


def instance_from_json(text: str) -> Instance:
    """Parse the JSON instance format (see module docstring)."""
    return Instance(decode_relations(json.loads(text)))


def instance_to_json(instance: Instance) -> str:
    """Render an instance back into the JSON format (round-trip safe).

    String constants beginning with ``?`` are escaped by doubling the
    marker (``"?x"`` → ``"??x"``) so decoding cannot mistake them for
    nulls; cells that are not JSON scalars raise :class:`ValueError`
    instead of being silently stringified.
    """
    return json.dumps(encode_relations(instance))
