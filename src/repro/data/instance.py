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
"""

from __future__ import annotations

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

    __slots__ = ("_relations", "_hash", "_adom", "_sorted_adom", "_ctx", "_cols")

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
        self._ctx = None  # execution context (repro.data.indexes)
        self._cols = None  # columnar context (repro.data.dictionary)

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
        """Active domain: all values occurring in some tuple (cached)."""
        if self._adom is None:
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
        """The nulls occurring in the instance (``Null(D)``)."""
        return frozenset(v for v in self.adom() if isinstance(v, Null))

    def constants(self) -> frozenset[Hashable]:
        """The constants occurring in the instance (``Const(D)``)."""
        return frozenset(v for v in self.adom() if not isinstance(v, Null))

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
        return self.with_delta(adds={name: [row]})[0]

    def remove_fact(self, name: str, row: tuple) -> "Instance":
        """A new instance without the given fact (no-op when absent)."""
        return self.with_delta(removes={name: [row]})[0]

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
        """
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
        out = Instance.__new__(Instance)
        out._relations = rels
        out._hash = None
        out._sorted_adom = None
        out._ctx = None
        out._cols = None
        if self._adom is not None and not any(rem for _add, rem in changes.values()):
            # insert-only delta: the active domain only grows, so it can
            # be carried over incrementally; deletions force a lazy
            # recount (a removed value may still occur elsewhere)
            grown = set(self._adom)
            for added, _removed in changes.values():
                for row in added:
                    grown.update(row)
            out._adom = frozenset(grown)
        else:
            out._adom = None
        return out, changes

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
