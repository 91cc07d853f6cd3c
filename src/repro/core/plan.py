"""Query plans: the analyze-then-route decision as an inspectable value.

The paper's practical payoff is a *routing* insight — run ordinary
(naive) evaluation exactly when Figure 1 proves it computes certain
answers, fall back to an expensive oracle otherwise.  This module turns
that inline decision into a first-class :class:`Plan`: which backend
will run, why (the analyzer's verdict), how reliable the result will be
(exactness and containment direction), whether the core check was
needed and what it said, and rough cost hints.  ``Database.explain``
and the ``repro explain`` CLI subcommand surface plans to users;
:func:`repro.core.engine.execute_plan` runs them.
"""

from __future__ import annotations

import json
import textwrap
from dataclasses import dataclass, field
from typing import Callable

from repro.core.analyzer import Verdict, analyze
from repro.core.backends import NAIVE_AUTO_BACKEND, get_backend, naive_is_certain
from repro.data.instance import Instance
from repro.homs.core import is_core
from repro.logic.columnar import compiled_query
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.semantics.base import Semantics

__all__ = ["CostHints", "Plan", "make_plan"]

#: cap for the reported valuation-count bound (beyond this it is "huge")
_VALUATION_CAP = 10**12

@dataclass(frozen=True)
class CostHints:
    """Back-of-envelope cost signals for a plan."""

    #: total tuples in the instance
    fact_count: int
    #: distinct nulls in the instance
    null_count: int
    #: size of the constant pool the oracle would enumerate over
    pool_size: int
    #: ``pool_size ** null_count`` capped at 10^12 (-1 = overflowed cap)
    valuation_bound: int

    def to_dict(self) -> dict:
        return {
            "fact_count": self.fact_count,
            "null_count": self.null_count,
            "pool_size": self.pool_size,
            "valuation_bound": self.valuation_bound,
        }


@dataclass(frozen=True)
class Plan:
    """An evaluation plan for one (query, instance, semantics, mode) quadruple."""

    #: rendering of the planned query
    query: str
    #: the backend that will run (its name)
    backend: str
    #: the requested mode ("auto" or a forced backend name)
    mode: str
    #: semantics key
    semantics: str
    #: the analyzer verdict that drove the routing
    verdict: Verdict
    #: will the computed answers provably equal the certain answers?
    exact: bool
    #: for inexact plans, the containment direction ("subset"/"superset"/"unknown")
    direction: str
    #: result of the core check; ``None`` when the plan never needed it
    instance_is_core: bool | None
    #: computes the rough cost signals, read as :attr:`cost`: they take
    #: instance scans, so they wait until EXPLAIN or ``--json`` asks
    cost_hints: Callable[[], CostHints] = field(repr=False, compare=False)
    #: free-form planner remarks
    notes: tuple[str, ...] = ()

    @property
    def cost(self) -> CostHints:
        """Rough cost signals, computed on each read.

        A session's plan outlives writes, so the signals describe the
        instance as it is when they are read.
        """
        return self.cost_hints()

    def to_dict(self) -> dict:
        """A JSON-serialisable rendering (``repro explain --json``)."""
        return {
            "query": self.query,
            "backend": self.backend,
            "mode": self.mode,
            "semantics": self.semantics,
            "verdict": {
                "sound": self.verdict.sound,
                "over_cores_only": self.verdict.over_cores_only,
                "approximation": self.verdict.approximation,
                "fragment": self.verdict.fragment,
                "reason": self.verdict.reason,
            },
            "exact": self.exact,
            "direction": self.direction,
            "instance_is_core": self.instance_is_core,
            "cost": self.cost.to_dict(),
            "notes": list(self.notes),
        }

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def render(self) -> str:
        """A human-readable multi-line rendering (``repro explain``)."""
        summary = get_backend(self.backend).summary
        sound = "SOUND" if self.verdict.sound else "not sound"
        if self.verdict.over_cores_only:
            sound += " (over cores)"
        if self.exact:
            status = "exact — result equals the certain answers"
        else:
            arrows = {
                "subset": "answers ⊆ certain answers",
                "superset": "certain answers ⊆ answers",
                "unknown": "no containment guarantee",
            }
            status = f"approximate ({arrows.get(self.direction, self.direction)})"
        if self.instance_is_core is None:
            core_line = "not needed"
        else:
            core_line = "instance is a core" if self.instance_is_core else "instance is NOT a core"
        cost = self.cost
        bound = "huge (cap exceeded)" if cost.valuation_bound < 0 else str(cost.valuation_bound)
        reason = textwrap.fill(
            self.verdict.reason, width=66, subsequent_indent=" " * 16
        )
        lines = [
            f"plan: {self.query}",
            f"  semantics   : {self.semantics}",
            f"  requested   : {self.mode}",
            f"  backend     : {self.backend} — {summary}",
            f"  verdict     : naive evaluation {sound} [fragment {self.verdict.fragment}]",
            f"                {reason}",
            f"  exactness   : {status}",
            f"  core check  : {core_line}",
            f"  cost        : {cost.fact_count} facts, {cost.null_count} nulls, "
            f"pool {cost.pool_size} → ≤ {bound} valuations",
        ]
        for note in self.notes:
            lines.append(f"  note        : {note}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        status = "exact" if self.exact else f"approx({self.direction})"
        return f"Plan(backend={self.backend!r}, semantics={self.semantics!r}, {status})"


def make_plan(
    query: Query,
    instance: Instance,
    semantics: Semantics | str = "cwa",
    mode: str = "auto",
    *,
    verdict: Verdict | None = None,
    core_check: Callable[[], bool] | None = None,
    extra_facts: int | None = None,
    current: Callable[[], Instance] | None = None,
) -> Plan:
    """Plan the evaluation of ``query`` on ``instance`` under ``semantics``.

    ``mode`` is ``"auto"`` (route by the analyzer + core check, the
    extracted Figure-1 policy) or the name of a registered backend to
    force.  ``verdict`` and ``core_check`` let a session layer inject
    cached values so preparing a query pays for the analyzer and the
    core check exactly once.

    Only the core check reads ``instance``; the cost hints read
    ``current()`` when given (a session's instance at the time EXPLAIN
    asks, for a plan that outlives writes), else ``instance``.
    """
    sem = get_semantics(semantics) if isinstance(semantics, str) else semantics
    if verdict is None:
        verdict = analyze(query, sem)

    core_flag: bool | None = None

    def ensure_core() -> bool:
        nonlocal core_flag
        if core_flag is None:
            core_flag = bool(core_check()) if core_check is not None else is_core(instance)
        return core_flag

    notes: list[str] = []
    if mode == "auto":
        core_needed = verdict.sound and verdict.over_cores_only
        if naive_is_certain(verdict, ensure_core() if core_needed else True):
            # naive evaluation is provably exact — run the columnar
            # dictionary-encoded executor (naive-interp stays selectable
            # as the forced differential reference)
            name = NAIVE_AUTO_BACKEND
            notes.append(
                "columnar executor: one compiled plan per query; "
                "`repro explain --operators` names the chosen kernels "
                "and join order"
            )
        else:
            name = "enumeration"
            if core_needed:
                notes.append(
                    "analyzer is positive over cores only and the instance is not "
                    "a core; routing to the oracle (naive would under-approximate)"
                )
    else:
        name = mode

    backend = get_backend(name)
    if backend.needs_core_check(verdict):
        ensure_core()
    exact, direction = backend.exactness(sem, verdict, core_flag, extra_facts)

    if mode != "auto":
        if verdict.sound and verdict.over_cores_only and core_flag is None:
            # don't pay the (worst-case exponential) core check just to
            # render a note — say what the auto choice would hinge on
            notes.append(
                f"forced backend {name!r}; auto's choice would depend on "
                f"the core check (not run)"
            )
        else:
            auto_name = (
                NAIVE_AUTO_BACKEND if naive_is_certain(verdict, core_flag) else "enumeration"
            )
            if auto_name != name:
                notes.append(f"forced backend {name!r}; auto would choose {auto_name!r}")
    if name == "enumeration" and not sem.enumeration_exact(extra_facts):
        notes.append(
            f"bounded enumeration cannot cover all of [[D]] under {sem.key} "
            "with this extra_facts setting, so the oracle over-approximates: "
            "certain ⊆ answers"
        )
    if name == "enumeration" and sem.substitution_only:
        notes.append(
            "certain answers bracketed between a lower bound (nulls unify "
            "in negated atoms) and the naive answers; only the gap between "
            "them is enumerated, when the pool has a fresh value per null"
        )
    # result-determinacy note: when the backend can prove the answers are
    # a pure function of a known relation set, a session's result cache
    # may key on those relations' generations (repro.session)
    cq = compiled_query(query)
    cache_reads = backend.cache_relations(sem, exact, cq)
    if cache_reads is not None:
        shown = ", ".join(sorted(cache_reads)) if cache_reads else "∅"
        notes.append(
            f"result is a pure function of relations {{{shown}}} — "
            "session result-cache eligible, keyed on their generations"
        )
    if name == "columnar":
        notes.append(cq.maintenance_note())
    elif name == "enumeration" and cache_reads is not None:
        # cacheable oracle runs are bracketed (substitution-only semantics)
        notes.append(cq.maintenance_note(bracket=True))

    # the hints must not hold ``instance`` itself when ``current`` is
    # given: a session's plan would keep that version (and its caches)
    # alive for as long as the plan lives
    read_instance = current if current is not None else (lambda: instance)

    def cost_hints() -> CostHints:
        now = read_instance()
        null_count = len(now.nulls())
        # arithmetic identity with len(default_pool(instance, query)):
        # the base constants plus |nulls|+1 fresh values — avoids
        # materialising and sorting a pool just for a cost hint
        pool_size = len(now.constants() | query.constants()) + null_count + 1
        raw_bound = pool_size**null_count
        return CostHints(
            fact_count=now.fact_count(),
            null_count=null_count,
            pool_size=pool_size,
            valuation_bound=raw_bound if raw_bound <= _VALUATION_CAP else -1,
        )

    return Plan(
        query=repr(query),
        backend=name,
        mode=mode,
        semantics=sem.key,
        verdict=verdict,
        exact=exact,
        direction=direction,
        instance_is_core=core_flag,
        cost_hints=cost_hints,
        notes=tuple(notes),
    )
