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
from functools import cached_property
from typing import Callable, Hashable, Sequence

from repro.core.analyzer import Verdict, analyze
from repro.core.backends import NAIVE_AUTO_BACKEND, get_backend, naive_is_certain
from repro.data.instance import Instance
from repro.homs.core import is_core
from repro.logic.compile import compiled_query
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
    #: the backend that will run (registry name)
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

    @cached_property
    def cost(self) -> CostHints:
        """Rough cost signals, computed on first read."""
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
        try:
            summary = get_backend(self.backend).summary
        except ValueError:
            # plans outlive the registry (a plug-in backend may have been
            # unregistered since planning); render degrades, not crashes
            summary = "(backend no longer registered)"
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
        bound = (
            "huge (cap exceeded)"
            if self.cost.valuation_bound < 0
            else str(self.cost.valuation_bound)
        )
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
            f"  cost        : {self.cost.fact_count} facts, {self.cost.null_count} nulls, "
            f"pool {self.cost.pool_size} → ≤ {bound} valuations",
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
    pool: Sequence[Hashable] | None = None,
    extra_facts: int | None = None,
) -> Plan:
    """Plan the evaluation of ``query`` on ``instance`` under ``semantics``.

    ``mode`` is ``"auto"`` (route by the analyzer + core check, the
    extracted Figure-1 policy) or the name of a registered backend to
    force.  ``verdict``, ``core_check`` and ``pool`` let a session layer
    inject cached values so preparing a query pays for the analyzer,
    the core check and pool construction exactly once.
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
            # dictionary-encoded executor (naive-interp stays registered
            # as the forced differential reference)
            name = NAIVE_AUTO_BACKEND
            notes.append(
                "columnar executor: joins ordered by per-instance column "
                "stats; `repro explain --operators` names the chosen "
                "kernels and join order"
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
    backend.validate(sem)
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
    cache_reads = backend.cache_relations(sem, exact, compiled_query(query))
    if cache_reads is not None:
        shown = ", ".join(sorted(cache_reads)) if cache_reads else "∅"
        notes.append(
            f"result is a pure function of relations {{{shown}}} — "
            "session result-cache eligible, keyed on their generations"
        )

    injected_pool_size = len(pool) if pool is not None else None

    def cost_hints() -> CostHints:
        null_count = len(instance.nulls())
        pool_size = injected_pool_size
        if pool_size is None:
            # arithmetic identity with len(default_pool(instance, query)):
            # the base constants plus |nulls|+1 fresh values — avoids
            # materialising and sorting a pool just for a cost hint
            pool_size = len(instance.constants() | query.constants()) + null_count + 1
        raw_bound = pool_size**null_count
        return CostHints(
            fact_count=instance.fact_count(),
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
