"""Pluggable evaluation backends and their registry.

A :class:`Backend` is one strategy for computing (an approximation of)
certain answers.  The engine ships four:

* ``columnar``     — two-step naive evaluation (Section 2.4) executed by
  the compiled operator DAG over dictionary-encoded int columns
  (:mod:`repro.logic.columnar`): array kernels, sort-merge joins,
  stats-driven join ordering.  The default whenever Figure 1 proves
  naive evaluation exact;
* ``naive-interp`` — naive evaluation by the tuple-at-a-time tree
  walker, retained as the differential-testing reference;
* ``enumeration``  — the bounded certain-answer oracle: intersect
  ``Q(E)`` over the members of ``[[D]]`` drawn from a finite pool;
* ``ctable``       — lift the naive database into a conditional table
  (Imielinski & Lipski 1984) and intersect over its worlds; the CWA
  semantics of c-tables, so only valid under ``cwa``.

Backends are looked up by name through a registry so deployments can
plug in their own (sharded, remote, approximate…) strategies without
touching the planner: implement :class:`Backend`, call
:func:`register_backend`, and the name becomes available to
``Database``, the legacy ``evaluate(mode=...)`` wrapper and the CLI.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Sequence

from repro.ctables.table import CInstance
from repro.core import certain as _certain
from repro.core.naive import drop_null_tuples
from repro.core.analyzer import Verdict
from repro.data.answers import AnswerSet
from repro.data.instance import Instance
from repro.logic import columnar as _columnar
from repro.logic.queries import Query
from repro.semantics.base import Semantics, guard_limit

__all__ = [
    "Backend",
    "NaiveBackend",
    "ColumnarBackend",
    "NaiveInterpBackend",
    "EnumerationBackend",
    "CTableBackend",
    "naive_is_certain",
    "NAIVE_AUTO_BACKEND",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "available_backends",
]


def naive_is_certain(verdict: Verdict, instance_is_core: bool | None) -> bool:
    """The Figure-1 predicate, in one place: does naive evaluation provably
    compute the certain answers?  (Sound fragment, plus the core condition
    when the verdict only holds over cores.)"""
    return verdict.sound and (not verdict.over_cores_only or bool(instance_is_core))


class Backend(ABC):
    """One evaluation strategy, selectable by name through the planner."""

    #: registry key; also the ``method`` reported in :class:`EvalResult`
    name: str = ""
    #: one-line description used by ``Plan.render()`` and the CLI
    summary: str = ""
    #: does :meth:`execute` read the constant pool?  The session layer
    #: skips pool construction entirely for backends that don't.
    uses_pool: bool = True
    #: does :meth:`execute` accept a ``stats_out`` keyword (a dict it
    #: fills with execution metadata)?  The engine only passes it to
    #: backends that opt in, so plug-in backends with the historical
    #: signature keep working.
    reports_stats: bool = False

    def validate(self, semantics: Semantics) -> None:
        """Raise :class:`ValueError` when this backend cannot serve ``semantics``."""

    def cache_relations(self, semantics: Semantics, exact: bool, cq) -> frozenset[str] | None:
        """Which relations the result is a pure function of, or ``None``.

        The session layer's result cache may reuse an answer set across
        mutations only when the backend can *prove* the answers depend
        on nothing but the rows of a known relation set — it then keys
        the cache on those relations' generation counters.  ``None``
        (the default) means "never cache me".  ``exact`` is the planned
        run's exactness flag, ``cq`` the
        :class:`~repro.logic.compile.CompiledQuery` of the prepared
        query.  The planner surfaces a positive answer as an EXPLAIN
        note.
        """
        return None

    def needs_core_check(self, verdict: Verdict) -> bool:
        """Does exactness accounting require knowing whether the instance is a core?"""
        return False

    @abstractmethod
    def exactness(
        self,
        semantics: Semantics,
        verdict: Verdict,
        instance_is_core: bool | None,
        extra_facts: int | None,
    ) -> tuple[bool, str]:
        """``(exact, direction)`` for a run of this backend.

        ``direction`` follows :class:`~repro.core.engine.EvalResult`:
        ``""`` when exact, else ``"subset"``/``"superset"``/``"unknown"``.
        """

    @abstractmethod
    def execute(
        self,
        query: Query,
        instance: Instance,
        semantics: Semantics,
        *,
        pool: Sequence[Hashable] | None = None,
        extra_facts: int | None = None,
        limit: int = 500_000,
    ) -> frozenset[tuple[Hashable, ...]] | AnswerSet:
        """Compute the answer set (null-free tuples; ``{()}`` = Boolean true).

        A frozenset of rows, or an :class:`~repro.data.answers.AnswerSet`
        that may still be dictionary-encoded.
        """

    def __repr__(self) -> str:
        return f"<backend {self.name!r}>"


class NaiveBackend(Backend):
    """Two-step naive evaluation: evaluate with nulls as values, drop null rows.

    The shared base of the naive-evaluation engines: it holds the
    Figure-1 exactness and result-cache contract, and each subclass
    supplies :meth:`execute`.  Not registered itself.
    """

    uses_pool = False

    def needs_core_check(self, verdict: Verdict) -> bool:
        return verdict.over_cores_only

    def exactness(self, semantics, verdict, instance_is_core, extra_facts):
        if naive_is_certain(verdict, instance_is_core):
            return True, ""
        return False, ("subset" if verdict.approximation else "unknown")

    def cache_relations(self, semantics, exact, cq):
        # naive evaluation of a domain-independent plan is a pure
        # function of the relations the operator DAG scans, whatever
        # the semantics (the semantics only labels exactness)
        return None if cq.adom_dependent else cq.relations


class ColumnarBackend(NaiveBackend):
    """Naive evaluation by the columnar dictionary-encoded executor.

    The compiled operator DAG (:mod:`repro.logic.compile`), run over
    int-encoded columns: constants and nulls are interned into a
    per-database dictionary, joins execute as array kernels (sort-merge
    on single shared columns, encoded hash joins elsewhere), join order
    follows per-instance column stats, and null rows are dropped at the
    code level (:mod:`repro.logic.columnar`).  The answers come back
    still encoded, as an :class:`~repro.data.answers.AnswerSet`.
    """

    name = "columnar"
    summary = (
        "columnar naive evaluation (dictionary-encoded int columns, array "
        "kernels, sort-merge joins, stats-driven join order)"
    )

    def execute(self, query, instance, semantics, *, pool=None, extra_facts=None, limit=500_000):
        return _columnar.columnar_naive_eval(query, instance)


#: the backend ``mode="auto"`` routes to when Figure 1 proves naive
#: evaluation exact
NAIVE_AUTO_BACKEND = "columnar"


class NaiveInterpBackend(NaiveBackend):
    """Naive evaluation by the tuple-at-a-time tree-walking interpreter.

    The original evaluator, retained as the differential-testing
    reference for the columnar engine (and for the paper's definition
    of naive evaluation).
    """

    name = "naive-interp"
    summary = "tree-walking naive evaluation (tuple-at-a-time; differential reference)"

    def execute(self, query, instance, semantics, *, pool=None, extra_facts=None, limit=500_000):
        return drop_null_tuples(query.eval_raw(instance))


class EnumerationBackend(Backend):
    """Bounded enumeration of ``[[D]]`` over a constant pool (the oracle).

    Fills ``stats_out`` with the oracle's enumeration metadata (mode,
    worlds evaluated) for :class:`~repro.core.engine.EvalResult.stats`.
    """

    name = "enumeration"
    summary = "bounded certain-answer oracle (intersect Q(E) over [[D]] on a pool)"
    reports_stats = True

    def exactness(self, semantics, verdict, instance_is_core, extra_facts):
        if semantics.enumeration_exact(extra_facts):
            return True, ""
        return False, "superset"

    def cache_relations(self, semantics, exact, cq):
        # sound only when the computed set is the *exact* certain answers
        # (an exact pool under a substitution-only semantics) of a
        # domain-independent plan: certain(Q, D) is then determined by
        # the read relations alone — Q(v(D)) depends only on v restricted
        # to their nulls, and [[D]] ranges over all such restrictions
        if semantics.substitution_only and exact and not cq.adom_dependent:
            return cq.relations
        return None

    def execute(self, query, instance, semantics, *, pool=None, extra_facts=None,
                limit=500_000, stats_out=None):
        return _certain.certain_answers(
            query, instance, semantics, pool=pool, extra_facts=extra_facts,
            limit=limit, stats_out=stats_out,
        )


class CTableBackend(Backend):
    """Lift the instance into a conditional table and intersect over its worlds.

    Naive databases are the ``⊤``-condition special case of c-tables,
    whose possible-world semantics is CWA — so this backend is exact for
    ``cwa`` and refuses every other semantics.  It exists as the bridge
    to the strong-representation machinery in :mod:`repro.ctables`
    (query results that *stay* conditional instead of collapsing to
    certain answers).
    """

    name = "ctable"
    summary = "conditional-table worlds (Imielinski–Lipski CWA; exact under cwa)"

    def validate(self, semantics: Semantics) -> None:
        if semantics.key != "cwa":
            raise ValueError(
                f"the ctable backend implements the CWA possible-world semantics "
                f"of conditional tables and cannot serve {semantics.key!r}; "
                f"use semantics='cwa' or another backend"
            )

    def exactness(self, semantics, verdict, instance_is_core, extra_facts):
        return True, ""

    def execute(self, query, instance, semantics, *, pool=None, extra_facts=None, limit=500_000):
        if pool is None:
            pool = _certain.default_pool(instance, query)
        lifted = CInstance.from_instance(instance)
        guard_limit(
            len(pool) ** len(lifted.nulls()), limit, "ctable world enumeration"
        )
        return lifted.certain_answers(query, pool=pool)


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, *, replace: bool = False) -> Backend:
    """Add ``backend`` to the registry under ``backend.name``."""
    if not backend.name:
        raise ValueError("backend must declare a non-empty name")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(f"backend {backend.name!r} is already registered (pass replace=True)")
    _REGISTRY[backend.name] = backend
    return backend


def unregister_backend(name: str) -> None:
    """Remove a backend (mainly for tests and plug-in teardown)."""
    _REGISTRY.pop(name, None)


def get_backend(name: str) -> Backend:
    """Look up a backend by name; raises :class:`ValueError` when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None


def available_backends() -> tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


register_backend(ColumnarBackend())
register_backend(NaiveInterpBackend())
register_backend(EnumerationBackend())
register_backend(CTableBackend())
