"""The paper's primary contribution: naive evaluation, certain answers, the analyzer."""

from repro.core.analyzer import FIGURE_1, Verdict, analyze
from repro.core.certain import certain_answers, certain_holds, default_pool, query_schema
from repro.core.naive import drop_null_tuples, naive_eval, naive_holds
from repro.core.backends import (
    Backend,
    ColumnarBackend,
    EnumerationBackend,
    NaiveBackend,
    NaiveInterpBackend,
    available_backends,
    get_backend,
)
from repro.core.plan import CostHints, Plan, make_plan
from repro.core.engine import EvalResult, execute_plan
from repro.core.monotone import (
    HOM_CLASSES,
    Counterexample,
    preservation_counterexample,
    weak_monotonicity_counterexample,
)
from repro.core.possible import possible_answers, possible_holds

__all__ = [
    "FIGURE_1",
    "Verdict",
    "analyze",
    "certain_answers",
    "certain_holds",
    "default_pool",
    "query_schema",
    "Backend",
    "NaiveBackend",
    "ColumnarBackend",
    "NaiveInterpBackend",
    "EnumerationBackend",
    "available_backends",
    "get_backend",
    "CostHints",
    "Plan",
    "make_plan",
    "EvalResult",
    "execute_plan",
    "HOM_CLASSES",
    "Counterexample",
    "preservation_counterexample",
    "weak_monotonicity_counterexample",
    "drop_null_tuples",
    "naive_eval",
    "naive_holds",
    "possible_answers",
    "possible_holds",
]
