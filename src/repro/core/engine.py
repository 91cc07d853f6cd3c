"""The evaluation engine: plan, route to a backend, account for exactness.

Historically this module *was* the library's front door — a free
:func:`evaluate` that re-ran the Figure-1 analyzer on every call.  The
session layer (:class:`repro.session.Database`) is now the preferred
entry point: it prepares queries once and reuses the plan.  The free
function remains as a thin, fully-working wrapper over the same
planner/backend machinery for scripts and backwards compatibility.

.. deprecated:: 1.1
   Prefer ``repro.session.Database`` for anything that evaluates more
   than once; ``evaluate`` re-plans (analyzer + core check + pool) on
   every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Hashable, Mapping, Sequence

from repro.core.analyzer import Verdict
from repro.core.backends import get_backend
from repro.core.plan import Plan, make_plan
from repro.data.answers import AnswerSet
from repro.data.instance import Instance
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.semantics.base import Semantics

__all__ = ["EvalResult", "evaluate", "execute_plan"]


@dataclass(frozen=True)
class EvalResult:
    """Outcome of an engine evaluation.

    The answers are held as an :class:`~repro.data.answers.AnswerSet`,
    which the columnar backend leaves dictionary-encoded;
    :attr:`answers` decodes it on first read.  A plain set passed in is
    wrapped.
    """

    #: the computed answers, possibly still dictionary-encoded
    answer_set: AnswerSet
    #: the backend that computed them: "columnar", "enumeration", "ctable", …
    method: str
    #: True when the result provably equals the certain answers
    exact: bool
    #: for inexact results, the guaranteed containment direction:
    #: "subset" (answers ⊆ certain), "superset", or "" when exact
    direction: str
    #: the analyzer's verdict that routed the evaluation
    verdict: Verdict
    #: execution metadata: backend, timings in seconds, pool size, …
    #: (excluded from equality/hashing)
    stats: Mapping[str, object] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.answer_set, AnswerSet):
            object.__setattr__(self, "answer_set", AnswerSet.decoded(frozenset(self.answer_set)))

    @property
    def answers(self) -> frozenset[tuple[Hashable, ...]]:
        """The computed answers (null-free tuples; ``{()}`` = Boolean true)."""
        return self.answer_set.decode()

    @property
    def holds(self) -> bool:
        """Boolean reading: is the certain answer 'true'?"""
        return bool(self.answer_set)

    def __repr__(self) -> str:
        status = "exact" if self.exact else f"approx({self.direction})"
        return f"EvalResult({set(self.answers)!r}, method={self.method}, {status})"


def execute_plan(
    plan: Plan,
    query: Query,
    instance: Instance,
    semantics: Semantics | None = None,
    *,
    pool: Sequence[Hashable] | None = None,
    extra_facts: int | None = None,
    limit: int = 500_000,
    stats: Mapping[str, object] | None = None,
) -> EvalResult:
    """Run a :class:`~repro.core.plan.Plan` and package the result.

    ``stats`` entries (e.g. planning time, cache provenance from the
    session layer) are merged into the result's ``stats`` alongside the
    measured execution time.  Backends that declare ``reports_stats``
    receive a ``stats_out`` dict; the oracle's enumeration metadata
    lands under ``stats["oracle"]``.
    """
    sem = semantics if semantics is not None else get_semantics(plan.semantics)
    if sem.key != plan.semantics:
        raise ValueError(
            f"plan was made for semantics {plan.semantics!r} but is being "
            f"executed under {sem.key!r}; re-plan for the right semantics"
        )
    backend = get_backend(plan.backend)
    extra_kwargs: dict[str, object] = {}
    oracle_stats: dict[str, object] = {}
    if getattr(backend, "reports_stats", False):
        extra_kwargs = {"stats_out": oracle_stats}
    start = perf_counter()
    answers = backend.execute(
        query, instance, sem, pool=pool, extra_facts=extra_facts, limit=limit,
        **extra_kwargs,
    )
    elapsed = perf_counter() - start
    info: dict[str, object] = {
        "backend": plan.backend,
        "mode": plan.mode,
        "execution_s": elapsed,
    }
    if oracle_stats:
        info["oracle"] = oracle_stats
    if stats:
        info.update(stats)
    return EvalResult(answers, plan.backend, plan.exact, plan.direction, plan.verdict, info)


def evaluate(
    query: Query,
    instance: Instance,
    semantics: Semantics | str = "cwa",
    mode: str = "auto",
    pool: Sequence[Hashable] | None = None,
    extra_facts: int | None = None,
    limit: int = 500_000,
) -> EvalResult:
    """Compute certain answers to ``query`` on ``instance`` under ``semantics``.

    Thin legacy wrapper: plans and executes in one shot, re-running the
    analyzer (and core check / pool construction where needed) every
    call.  Prefer :class:`repro.session.Database` for repeated work.

    ``mode``:

    * ``"auto"`` — columnar naive evaluation when the analyzer proves
      it sound (checking the core condition for the minimal semantics),
      otherwise bounded enumeration;
    * any registered backend name (``"columnar"``, ``"naive-interp"``,
      ``"enumeration"``, ``"ctable"``, …) — force that backend.

    Exactness accounting: naive evaluation under a positive verdict is
    exact; enumeration is exact for all CWA-flavoured semantics and an
    over-approximation (``certain ⊆ answers`` direction ``superset``)
    under OWA, whose extensions are truncated at ``extra_facts``; naive
    evaluation under a *negative-but-approximation* verdict (minimal
    semantics off-core, Prop. 10.13) is a subset of the certain answers.
    """
    sem = get_semantics(semantics) if isinstance(semantics, str) else semantics
    start = perf_counter()
    plan = make_plan(query, instance, sem, mode, pool=pool, extra_facts=extra_facts)
    planning = perf_counter() - start
    return execute_plan(
        plan,
        query,
        instance,
        sem,
        pool=pool,
        extra_facts=extra_facts,
        limit=limit,
        stats={"planning_s": planning},
    )
