"""The evaluation engine: run a plan on its backend and package the result.

The front door is the session layer (:class:`repro.session.Database`),
which prepares queries once, caches their plans and calls
:func:`execute_plan` for every evaluation it can neither answer from
its result cache nor maintain from a cached entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Hashable, Mapping, Sequence

from repro.core.analyzer import Verdict
from repro.core.backends import get_backend
from repro.core.plan import Plan
from repro.data.answers import AnswerSet
from repro.data.instance import Instance
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.semantics.base import Semantics

__all__ = ["EvalResult", "execute_plan"]


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
    #: the backend that computed them: "columnar", "naive-interp" or "enumeration"
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
    measured execution time.  The oracle's enumeration metadata, which
    it fills into the backend's ``stats_out``, lands under
    ``stats["oracle"]``.
    """
    sem = semantics if semantics is not None else get_semantics(plan.semantics)
    if sem.key != plan.semantics:
        raise ValueError(
            f"plan was made for semantics {plan.semantics!r} but is being "
            f"executed under {sem.key!r}; re-plan for the right semantics"
        )
    oracle_stats: dict[str, object] = {}
    start = perf_counter()
    answers = get_backend(plan.backend).execute(
        query, instance, sem, pool=pool, extra_facts=extra_facts, limit=limit,
        stats_out=oracle_stats,
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

