"""Per-relation hash indexes and execution contexts.

The compiled evaluator (:mod:`repro.logic.compile`) is set-at-a-time:
scans probe equality buckets, joins probe hash tables on the shared
columns.  A :class:`TableContext` is the runtime substrate those
operators execute over — a bag of relations plus *lazily built* hash
indexes, one per ``(relation, key positions)`` pair actually probed.

Contexts come in two flavours:

* :func:`context_for` wraps an :class:`~repro.data.instance.Instance`
  and caches the context **on the instance itself**.  Instances are
  immutable value objects, so the cache can never go stale: the session
  layer's generation counter swaps the whole instance on mutation, and
  the new instance starts with empty caches.  Repeated evaluations
  against the same instance (prepared queries, datalog fixpoint rounds)
  therefore share every index ever built.
* ``TableContext(relations)`` built directly over a plain mapping — the
  certain-answer oracle uses this for pool-valuation worlds, so a world
  is a dict of substituted rows, never a full ``Instance``.

A context may *layer* over a ``base`` context: relations absent from its
own mapping delegate ``rows``/``index`` lookups to the base.  The oracle
exploits this for incremental world enumeration — the null-free
relations of an incomplete instance are identical in every
pool-valuation world, so their (possibly expensive) hash indexes live in
one shared base context and are built exactly once per enumeration,
while each world carries only its substituted null-carrying relations.
"""

from __future__ import annotations

from typing import Collection, Hashable, Mapping

from repro.data.instance import Instance
from repro.data.values import sort_key

__all__ = ["TableContext", "context_for", "derive_context", "as_context"]

_EMPTY: frozenset[tuple] = frozenset()


class TableContext:
    """Relations plus lazily built per-relation hash indexes.

    ``index(name, positions)`` returns ``{key: [rows]}`` where ``key``
    is the projection of a row to ``positions``; it is built on first
    probe and memoised, so the cost of indexing is only ever paid for
    access paths the compiled plan actually uses.
    """

    __slots__ = ("_relations", "_adom", "_sorted_adom", "_indexes", "_base")

    def __init__(
        self,
        relations: Mapping[str, Collection[tuple]],
        adom: frozenset[Hashable] | None = None,
        sorted_adom: tuple[Hashable, ...] | None = None,
        base: "TableContext | None" = None,
    ):
        self._relations = relations
        self._adom = adom
        self._sorted_adom = sorted_adom
        self._indexes: dict[tuple[str, tuple[int, ...]], dict[tuple, list[tuple]]] = {}
        self._base = base

    # ------------------------------------------------------------------
    # relation access
    # ------------------------------------------------------------------

    def rows(self, name: str) -> Collection[tuple]:
        """All tuples of relation ``name`` (empty when absent)."""
        found = self._relations.get(name)
        if found is not None:
            return found
        if self._base is not None:
            return self._base.rows(name)
        return _EMPTY

    def adom(self) -> frozenset[Hashable]:
        """Active domain of the context's relations (computed lazily).

        Layered contexts include the base's domain — the base holds real
        relations of the same world, not shadowed defaults.
        """
        if self._adom is None:
            values: set[Hashable] = set()
            for rows in self._relations.values():
                for row in rows:
                    values.update(row)
            if self._base is not None:
                values |= self._base.adom()
            self._adom = frozenset(values)
        return self._adom

    def sorted_adom(self) -> tuple[Hashable, ...]:
        """The active domain in deterministic ``sort_key`` order."""
        if self._sorted_adom is None:
            self._sorted_adom = tuple(sorted(self.adom(), key=sort_key))
        return self._sorted_adom

    # ------------------------------------------------------------------
    # hash indexes
    # ------------------------------------------------------------------

    def index(
        self, name: str, positions: tuple[int, ...]
    ) -> dict[tuple, list[tuple]]:
        """The hash index of relation ``name`` keyed on ``positions``.

        Built on first use, memoised for the lifetime of the context.
        ``positions`` must be non-empty — a zero-column key would be one
        bucket holding the whole relation, which is just :meth:`rows`.
        """
        if not positions:
            raise ValueError("index needs at least one key position")
        if name not in self._relations and self._base is not None:
            # shared static relation: one index serves every layered world
            return self._base.index(name, positions)
        cache_key = (name, positions)
        idx = self._indexes.get(cache_key)
        if idx is None:
            idx = {}
            for row in self.rows(name):
                key = tuple(row[i] for i in positions)
                bucket = idx.get(key)
                if bucket is None:
                    idx[key] = [row]
                else:
                    bucket.append(row)
            self._indexes[cache_key] = idx
        return idx

    def index_stats(self) -> dict[str, int]:
        """Counters for introspection and tests."""
        return {
            "indexes_built": len(self._indexes),
            "relations": len(self._relations),
        }

    def __repr__(self) -> str:
        names = ", ".join(sorted(self._relations))
        return f"TableContext({names or '∅'}; {len(self._indexes)} indexes)"


def context_for(instance: Instance) -> TableContext:
    """The execution context of an instance, cached on the instance.

    Sound because instances are immutable: every mutation path
    (``add_fact`` & co., the session layer's generation bump) produces a
    *new* ``Instance`` whose context cache starts empty.
    """
    ctx = instance._ctx
    if ctx is None:
        ctx = TableContext(
            instance._relations,
            adom=instance.adom(),
        )
        instance._ctx = ctx
    return ctx


def derive_context(
    old_instance: Instance,
    new_instance: Instance,
    changes: Mapping[str, tuple[Collection[tuple], Collection[tuple]]],
) -> TableContext:
    """The context of ``new_instance``, a mutation of ``old_instance``.

    Nothing is carried over from the ancestor: a context builds its
    indexes lazily, on first probe, so this is :func:`context_for`.
    Writes do not call it (the session maintains one context per write,
    the columnar one); the name stays because
    ``perfbench/trace_serve.py`` wraps it.
    """
    return context_for(new_instance)


def as_context(source: Instance | TableContext) -> TableContext:
    """Normalise an evaluation source into a :class:`TableContext`."""
    if isinstance(source, TableContext):
        return source
    if isinstance(source, Instance):
        return context_for(source)
    raise TypeError(f"cannot evaluate over {source!r}: expected Instance or TableContext")
