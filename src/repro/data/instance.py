"""Incomplete relational instances (naive databases).

An :class:`Instance` assigns to each relation name a finite set of
tuples over ``Const ∪ Null`` (paper, Section 2.1).  A null may appear
several times — such instances are *naive databases*.  If every null
appears at most once the instance is a *Codd database*, the model of
SQL's single ``NULL``.

Instances are immutable value objects: all "mutating" operations return
new instances, so they can be shared freely, used as dictionary keys and
members of sets (the semantics layer builds sets of complete instances
all the time).

The active domain survives writes that move no value:
:meth:`Instance.with_delta` carries per-relation value occurrence counts
forward, so a write that makes no value appear in or vanish from the
instance hands the new version the ancestor's
``adom``/``constants``/``nulls``/``sorted_adom`` objects (one that does
leaves them to be computed afresh).  Once the counts exist (the first
domain scan of a written version makes them), it also reports the
values each written relation gained or lost, which
:func:`~repro.data.dictionary.derive_columnar` needs to patch that
relation's encoded null split.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, Mapping

from repro.data.schema import Schema, SchemaError
from repro.data.values import Null, sort_key

__all__ = ["Instance", "Fact"]

Fact = tuple[str, tuple[Hashable, ...]]


class Instance:
    """An immutable incomplete relational instance.

    >>> from repro.data.values import Null
    >>> x = Null("1")
    >>> d = Instance({"R": [(1, x)], "S": [(x, 4)]})
    >>> d.arity("R")
    2
    >>> sorted(d.nulls(), key=str)
    [⊥1]
    >>> d.is_complete()
    False
    """

    __slots__ = (
        "_relations",
        "_hash",
        "_adom",
        "_sorted_adom",
        "_nulls",
        "_constants",
        "_indexes",
        "_cols",
        "_counts",
        "_value_moves",
    )

    def __init__(self, relations: Mapping[str, Iterable[tuple]] | None = None):
        rels: dict[str, frozenset[tuple]] = {}
        for name, tuples in (relations or {}).items():
            if not isinstance(name, str) or not name:
                raise SchemaError(f"relation name must be a non-empty string, got {name!r}")
            frozen = frozenset(tuple(t) for t in tuples)
            arities = {len(t) for t in frozen}
            if len(arities) > 1:
                raise SchemaError(
                    f"relation {name!r} has tuples of mixed arities {sorted(arities)}"
                )
            if arities == {0}:
                raise SchemaError(f"relation {name!r} has zero-arity tuples")
            if frozen:
                rels[name] = frozen
        self._relations = rels
        self._hash: int | None = None
        # Lazily computed derived views.  Instances are immutable value
        # objects, so caching them on the instance is always sound: a
        # "mutation" builds a new Instance with fresh (empty) caches.
        self._adom: frozenset[Hashable] | None = None
        self._sorted_adom: tuple[Hashable, ...] | None = None
        self._nulls: frozenset[Null] | None = None
        self._constants: frozenset[Hashable] | None = None
        self._indexes = None  # hash indexes (see index())
        self._cols = None  # columnar context (repro.data.dictionary)
        # None, or for a version with_delta wrote: [{relation: value ->
        # occurrences}], which the next write takes over (see
        # _carry_domain), or [] until a domain scan counts them
        self._counts: list[dict[str, Counter]] | None = None
        # per relation with_delta wrote, the (appeared, vanished) values:
        # those it gained or lost outright (see derive_columnar)
        self._value_moves: dict[str, tuple[frozenset, frozenset]] | None = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "Instance":
        """The instance with no facts at all."""
        return cls({})

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> "Instance":
        """Build an instance from ``(relation, tuple)`` pairs."""
        rels: dict[str, set[tuple]] = {}
        for name, values in facts:
            rels.setdefault(name, set()).add(tuple(values))
        return cls(rels)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def relations(self) -> tuple[str, ...]:
        """Names of the non-empty relations, sorted."""
        return tuple(sorted(self._relations))

    def tuples(self, name: str) -> frozenset[tuple]:
        """The set of tuples in relation ``name`` (empty set if absent)."""
        return self._relations.get(name, frozenset())

    def index(self, name: str, positions: tuple[int, ...]) -> dict[tuple, list[tuple]]:
        """Hash index ``{key: [rows]}`` of ``name`` keyed on ``positions``.

        Built on first probe and memoised on the instance; the
        homomorphism search and the datalog reference matcher probe it.
        """
        if self._indexes is None:
            self._indexes = {}
        idx = self._indexes.get((name, positions))
        if idx is None:
            idx = {}
            for row in self._relations.get(name, ()):
                idx.setdefault(tuple(row[i] for i in positions), []).append(row)
            self._indexes[(name, positions)] = idx
        return idx

    def arity(self, name: str) -> int:
        """Arity of relation ``name``; raises if the relation is empty/absent."""
        tuples = self._relations.get(name)
        if not tuples:
            raise SchemaError(f"relation {name!r} is empty or absent; arity unknown")
        return len(next(iter(tuples)))

    def facts(self) -> Iterator[Fact]:
        """Iterate over all facts as ``(relation, tuple)`` pairs."""
        for name in sorted(self._relations):
            for row in sorted(self._relations[name], key=lambda t: tuple(map(sort_key, t))):
                yield name, row

    def fact_count(self) -> int:
        """Total number of tuples across all relations."""
        return sum(len(t) for t in self._relations.values())

    def schema(self) -> Schema:
        """The inferred schema (arities of the non-empty relations)."""
        return Schema({name: self.arity(name) for name in self._relations})

    # ------------------------------------------------------------------
    # domains
    # ------------------------------------------------------------------

    def adom(self) -> frozenset[Hashable]:
        """Active domain: all values occurring in some tuple (cached).

        A version :meth:`with_delta` wrote without occurrence counts
        counts its cells in this scan, for the next write to carry.
        """
        if self._adom is None:
            box = self._counts
            if box == []:
                counts = {
                    name: Counter(chain.from_iterable(rows))
                    for name, rows in self._relations.items()
                }
                self._adom = frozenset(chain.from_iterable(counts.values()))
                box.append(counts)
                return self._adom
            values: set[Hashable] = set()
            for tuples in self._relations.values():
                for row in tuples:
                    values.update(row)
            self._adom = frozenset(values)
        return self._adom

    def sorted_adom(self) -> tuple[Hashable, ...]:
        """The active domain in :func:`~repro.data.values.sort_key` order.

        Cached: the evaluator quantifies over this sequence on every
        (sub)formula, so sorting once per instance instead of once per
        call is a measurable win for quantifier-heavy workloads.
        """
        if self._sorted_adom is None:
            self._sorted_adom = tuple(sorted(self.adom(), key=sort_key))
        return self._sorted_adom

    def nulls(self) -> frozenset[Null]:
        """The nulls occurring in the instance (``Null(D)``, cached)."""
        if self._nulls is None:
            self._split_adom()
        return self._nulls

    def constants(self) -> frozenset[Hashable]:
        """The constants occurring in the instance (``Const(D)``, cached)."""
        if self._constants is None:
            self._split_adom()
        return self._constants

    def _split_adom(self) -> None:
        nulls = frozenset(v for v in self.adom() if isinstance(v, Null))
        self._nulls = nulls
        self._constants = self._adom - nulls if nulls else self._adom

    def is_complete(self) -> bool:
        """True iff no nulls occur (``adom(D) ⊆ Const``)."""
        return not self.nulls()

    def is_codd(self) -> bool:
        """True iff every null occurs at most once across all facts."""
        seen: set[Null] = set()
        for _name, row in self.facts():
            for value in row:
                if isinstance(value, Null):
                    if value in seen:
                        return False
                    seen.add(value)
        return True

    def is_empty(self) -> bool:
        """True iff the instance has no facts."""
        return not self._relations

    # ------------------------------------------------------------------
    # algebraic operations
    # ------------------------------------------------------------------

    def apply(
        self, mapping: Mapping[Hashable, Hashable] | Callable[[Hashable], Hashable]
    ) -> "Instance":
        """The image ``h(D)`` of the instance under a value mapping.

        ``mapping`` may be a dict (values not in it are left unchanged,
        so partial maps extend by identity) or a callable.
        """
        if callable(mapping):
            get = mapping
        else:
            table = dict(mapping)
            get = lambda v: table.get(v, v)  # noqa: E731 - tiny adapter
        rels = {
            name: [tuple(get(v) for v in row) for row in tuples]
            for name, tuples in self._relations.items()
        }
        return Instance(rels)

    def union(self, other: "Instance") -> "Instance":
        """Fact-wise union; arities of shared relations must agree."""
        rels: dict[str, set[tuple]] = {
            name: set(tuples) for name, tuples in self._relations.items()
        }
        for name, tuples in other._relations.items():
            if name in rels:
                mine = len(next(iter(rels[name])))
                theirs = len(next(iter(tuples)))
                if mine != theirs:
                    raise SchemaError(f"cannot union {name!r}: arity {mine} vs {theirs}")
            rels.setdefault(name, set()).update(tuples)
        return Instance(rels)

    def __or__(self, other: "Instance") -> "Instance":
        return self.union(other)

    def issubinstance(self, other: "Instance") -> bool:
        """True iff every fact of ``self`` is a fact of ``other``."""
        return all(tuples <= other.tuples(name) for name, tuples in self._relations.items())

    def __le__(self, other: "Instance") -> bool:
        return self.issubinstance(other)

    def __lt__(self, other: "Instance") -> bool:
        return self != other and self.issubinstance(other)

    def difference(self, other: "Instance") -> "Instance":
        """Facts of ``self`` that are not facts of ``other``."""
        rels = {name: tuples - other.tuples(name) for name, tuples in self._relations.items()}
        return Instance(rels)

    def restrict(self, names: Iterable[str]) -> "Instance":
        """Keep only the relations in ``names``."""
        wanted = set(names)
        return Instance(
            {name: tuples for name, tuples in self._relations.items() if name in wanted}
        )

    def add_fact(self, name: str, row: tuple) -> "Instance":
        """A new instance with one extra fact."""
        return self._delta({name: [row]}, None)[0]

    def remove_fact(self, name: str, row: tuple) -> "Instance":
        """A new instance without the given fact (no-op when absent)."""
        return self._delta(None, {name: [row]})[0]

    def with_delta(
        self,
        adds: Mapping[str, Iterable[tuple]] | None = None,
        removes: Mapping[str, Iterable[tuple]] | None = None,
    ) -> tuple["Instance", dict[str, tuple[frozenset, frozenset]]]:
        """Apply a batch of fact insertions/deletions *incrementally*.

        Returns ``(new_instance, changes)`` where ``changes`` maps each
        relation that actually changed to its ``(added, removed)`` row
        sets (the *effective* delta: inserting a present row or deleting
        an absent one contributes nothing).  Removals are applied before
        additions, so a row in both ends up present.

        Unlike :meth:`union`/:meth:`difference` — which re-freeze every
        relation — this shares the untouched relations' row sets with
        the receiver, making mutation cost proportional to the delta,
        not the instance.  The session layer's mutation API
        (``Database.insert``/``delete``/``apply_delta``) is built on it.

        The active domain is carried forward too.  The new version takes
        over the receiver's per-relation value occurrence counts and
        updates them by the delta's cells; a chain of writes counts its
        cells once, in the first domain scan of a written version.  When
        no value appears in or vanishes from the instance, the new
        version's :meth:`adom`, :meth:`constants`, :meth:`nulls` and
        :meth:`sorted_adom` are the receiver's objects; otherwise they
        are computed afresh on first use.
        """
        out, changes = self._delta(adds, removes)
        if changes:
            self._carry_domain(out, changes)
        return out, changes

    def _delta(self, adds, removes) -> tuple["Instance", dict[str, tuple[frozenset, frozenset]]]:
        """:meth:`with_delta` without carrying the domain (one-fact edits)."""
        rels = dict(self._relations)
        changes: dict[str, tuple[frozenset, frozenset]] = {}
        touched: set[str] = set()
        for source in (removes, adds):
            for name in source or ():
                if not isinstance(name, str) or not name:
                    raise SchemaError(
                        f"relation name must be a non-empty string, got {name!r}"
                    )
                touched.add(name)
        for name in sorted(touched):
            old = self._relations.get(name, frozenset())
            puts = {tuple(r) for r in adds[name]} if adds and name in adds else set()
            dels = {tuple(r) for r in removes[name]} if removes and name in removes else set()
            added = frozenset(puts - old)
            removed = (old & dels) - puts
            # the rows kept from ``old`` share its one arity, so checking
            # it plus the added rows costs the delta, not the relation
            arities = {len(r) for r in added}
            if len(removed) < len(old):
                arities.add(len(next(iter(old))))
            if len(arities) > 1:
                raise SchemaError(
                    f"relation {name!r} would have tuples of mixed arities {sorted(arities)}"
                )
            if arities == {0}:
                raise SchemaError(f"relation {name!r} would have zero-arity tuples")
            if not added and not removed:
                continue
            changes[name] = (added, removed)
            frozen = old - removed if removed else old
            if added:
                frozen |= added
            if frozen:
                rels[name] = frozen
            else:
                del rels[name]
        if not changes:
            return self, changes
        # not Instance(rels), which would re-freeze every relation
        out = Instance.__new__(Instance)
        out._relations = rels
        out._hash = None
        out._adom = out._sorted_adom = out._nulls = out._constants = None
        out._indexes = None
        out._cols = None
        out._counts = None
        out._value_moves = None
        return out, changes

    def _carry_domain(self, out: "Instance", changes: Mapping[str, tuple]) -> None:
        """Give ``out`` (this version after ``changes``) the value counts and views.

        The counts move: at most one successor takes them (``list.pop``
        is atomic, so two writers deriving from one version never share
        them).  Without them, ``out`` counts its cells on its first
        domain scan (:meth:`adom`), so a write never scans the instance.
        """
        out._counts = []
        box = self._counts
        if not box:
            return
        try:
            counts = box.pop()
        except IndexError:  # another successor took them first
            return
        moves = {}
        moved: set = set()
        for name, (added, removed) in changes.items():
            held = counts.setdefault(name, Counter())
            appeared, vanished = recount(held, removed, added)
            if not held:
                del counts[name]
            moves[name] = (frozenset(appeared), frozenset(vanished))
            moved |= appeared
            moved |= vanished
        out._counts = [counts]
        out._value_moves = moves
        adom = self._adom
        if adom is None:
            return
        for value in moved:
            if (value in adom) is not any(value in held for held in counts.values()):
                return  # it appeared in or vanished from the instance
        # every view, once filled, is this domain's
        out._adom, out._sorted_adom = adom, self._sorted_adom
        out._nulls, out._constants = self._nulls, self._constants

    # ------------------------------------------------------------------
    # equality / hashing / rendering
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Instance) and other._relations == self._relations

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset((name, tuples) for name, tuples in self._relations.items()))
        return self._hash

    def __repr__(self) -> str:
        if not self._relations:
            return "Instance(∅)"
        parts = []
        for name in sorted(self._relations):
            rows = sorted(self._relations[name], key=lambda t: tuple(map(sort_key, t)))
            body = ", ".join("(" + ", ".join(map(repr, row)) + ")" for row in rows)
            parts.append(f"{name}={{{body}}}")
        return "Instance(" + "; ".join(parts) + ")"

    def pretty(self) -> str:
        """A multi-line tabular rendering, one block per relation."""
        if not self._relations:
            return "(empty instance)"
        blocks = []
        for name in sorted(self._relations):
            rows = sorted(self._relations[name], key=lambda t: tuple(map(sort_key, t)))
            cells = [[repr(v) for v in row] for row in rows]
            widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
            lines = [f"{name}:"]
            for row in cells:
                lines.append(
                    "  " + "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
                )
            blocks.append("\n".join(lines))
        return "\n".join(blocks)

    # ------------------------------------------------------------------
    # isomorphism and null refreshing
    # ------------------------------------------------------------------

    def isomorphic(self, other: "Instance", fix_constants: bool = True) -> bool:
        """Structural equivalence ``D ≈ D'`` (paper, Section 3.1).

        With ``fix_constants=True`` (the database convention) the witness
        bijection must be the identity on constants; otherwise any
        injective renaming of data values is allowed.
        """
        from repro.homs.search import find_isomorphism

        return find_isomorphism(self, other, fix_constants=fix_constants) is not None

    def with_fresh_values(
        self,
        values: Iterable[Hashable],
        factory: Callable[[], Hashable],
    ) -> tuple["Instance", dict[Hashable, Hashable]]:
        """Replace each of ``values`` by a fresh value from ``factory``.

        Returns the renamed instance and the mapping used.  The primary
        uses are the saturation construction (replace nulls by fresh
        constants) and the copying-CWA update (replace nulls by fresh
        nulls).
        """
        mapping = {value: factory() for value in sorted(values, key=sort_key)}
        return self.apply(mapping), mapping


def recount(
    counts: Counter, removed: Iterable[tuple], added: Iterable[tuple]
) -> tuple[set, set]:
    """Move ``counts`` (value -> occurrences) in place by a delta's rows.

    The delta must be effective (``removed`` rows present, ``added``
    ones absent), so taking every removal first never drops a count
    below zero.  Returns ``(appeared, vanished)``: the values whose
    count rose from zero or fell to it; one that did both (gone from
    one row, back in another) is in neither.

    >>> counts = Counter({1: 1, 2: 2})
    >>> recount(counts, [(1, 2)], [(3, 2)]), counts
    (({3}, {1}), Counter({2: 2, 3: 1}))
    """
    vanished: set = set()
    appeared: set = set()
    for value in chain.from_iterable(removed):
        left = counts[value] - 1
        if left:
            counts[value] = left
        else:
            del counts[value]
            vanished.add(value)
    for value in chain.from_iterable(added):
        held = counts.get(value, 0)
        counts[value] = held + 1
        if not held:
            appeared.add(value)
    moved = vanished & appeared
    return appeared - moved, vanished - moved
