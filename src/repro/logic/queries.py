"""The :class:`Query` wrapper: a formula plus an ordered answer tuple.

The paper's queries are mappings from databases to ``k``-ary relations
over the active domain, with Boolean queries as the ``k = 0`` case
(Sections 2.4 and 8).  A :class:`Query` fixes the order of the answer
variables, evaluates naively (first stage only — see ``repro.core`` for
the full naive-evaluation pipeline and certain answers), and knows which
syntactic fragments it belongs to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.data.instance import Instance
from repro.logic.ast import Formula, Var
from repro.logic.classes import classify
from repro.logic.eval import answers, evaluate
from repro.logic.transform import constants_used, free_vars

__all__ = ["Query"]

#: the memos kept in a query's ``__dict__`` and left out of its pickles
_MEMOS = ("_hash", "_constants", "_compiled")


@dataclass(frozen=True)
class Query:
    """A named k-ary FO query.

    ``answer_vars`` lists the free variables in answer-column order; a
    Boolean query has an empty tuple.  Construction validates that the
    declared variables are exactly the free variables of the formula.

    The hash, :meth:`constants` and the compiled plan
    (:func:`~repro.logic.columnar.compiled_query`) are memoised on the
    value: each walks the whole formula tree, and a served read looks a
    query up in several caches.  The memos stay out of pickles (a
    string's hash differs between processes, and a plan is rebuilt
    from the formula).
    """

    formula: Formula
    answer_vars: tuple[Var, ...] = ()
    name: str = "Q"

    def __post_init__(self):
        declared = tuple(
            Var(v) if isinstance(v, str) else v for v in self.answer_vars
        )
        object.__setattr__(self, "answer_vars", declared)
        if len(set(declared)) != len(declared):
            raise ValueError("answer variables must be distinct")
        free = free_vars(self.formula)
        if set(declared) != free:
            missing = ", ".join(sorted(v.name for v in free - set(declared)))
            extra = ", ".join(sorted(v.name for v in set(declared) - free))
            raise ValueError(
                "answer variables must be exactly the free variables"
                + (f"; missing: {missing}" if missing else "")
                + (f"; not free: {extra}" if extra else "")
            )

    @classmethod
    def boolean(cls, formula: Formula, name: str = "Q") -> "Query":
        """A Boolean (sentence) query."""
        return cls(formula, (), name)

    @property
    def arity(self) -> int:
        """Number of answer columns (0 for Boolean queries)."""
        return len(self.answer_vars)

    @property
    def is_boolean(self) -> bool:
        return not self.answer_vars

    def constants(self) -> frozenset[Hashable]:
        """Constants mentioned in the query (the ``C`` of C-genericity)."""
        memo = self.__dict__.get("_constants")
        if memo is None:
            memo = constants_used(self.formula)
            object.__setattr__(self, "_constants", memo)
        return memo

    def __hash__(self) -> int:
        memo = self.__dict__.get("_hash")
        if memo is None:
            memo = hash((self.formula, self.answer_vars, self.name))
            object.__setattr__(self, "_hash", memo)
        return memo

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in _MEMOS}

    def fragments(self) -> tuple[str, ...]:
        """The syntactic fragments containing this query's formula."""
        return classify(self.formula)

    # ------------------------------------------------------------------
    # evaluation (first stage: nulls as plain values)
    # ------------------------------------------------------------------

    def eval_raw(self, instance: Instance) -> frozenset[tuple[Hashable, ...]]:
        """Stage one of naive evaluation: answers with nulls kept.

        For a Boolean query the result is ``{()}`` for true and
        ``frozenset()`` for false, so set operations compose uniformly
        across arities.
        """
        if self.is_boolean:
            return frozenset([()]) if evaluate(self.formula, instance) else frozenset()
        return answers(self.formula, instance, self.answer_vars)

    def holds(self, instance: Instance) -> bool:
        """Boolean evaluation; raises for non-Boolean queries."""
        if not self.is_boolean:
            raise ValueError(f"query {self.name!r} has arity {self.arity}; use eval_raw()")
        return evaluate(self.formula, instance)

    def __repr__(self) -> str:
        if self.is_boolean:
            return f"Query[{self.name}] ≡ {self.formula!r}"
        head = ", ".join(v.name for v in self.answer_vars)
        return f"Query[{self.name}]({head}) ≡ {self.formula!r}"
