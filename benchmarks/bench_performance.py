"""Experiment PERF — the practical payoff: naive evaluation vs enumeration.

The paper's point is *economic*: certain answers are intractable in
general (coNP-hard under CWA, undecidable under OWA), while naive
evaluation is ordinary polynomial query evaluation.  These benches chart
the widening gap as instances grow: naive evaluation scales smoothly;
the certain-answer oracle's cost explodes with the number of nulls
(|pool|^n valuations).  Who wins and by how much — naive, by orders of
magnitude growing with null count — is the reproduction's "performance
figure".
"""

import random

import pytest

from repro.core import certain_answers, naive_eval
from repro.core.backends import NAIVE_AUTO_BACKEND
from repro.data.generate import random_instance
from repro.data.schema import Schema
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.session import Database

SCHEMA = Schema({"R": 2, "S": 1})
JOIN = Query(parse("exists z (R(x, z) & R(z, y))"), ("x", "y"), name="join2")
GUARDED = Query.boolean(
    parse("forall x, y . R(x, y) -> exists u . R(y, u) | S(y)"), name="guarded"
)


def make_instance(n_facts: int, n_nulls: int, seed: int = 99):
    rng = random.Random(seed)
    return random_instance(
        SCHEMA, rng, n_facts=n_facts, constants=(1, 2, 3, 4), n_nulls=n_nulls
    )


@pytest.mark.parametrize("n_facts", [4, 8, 16, 32])
def test_naive_eval_scaling(benchmark, n_facts):
    instance = make_instance(n_facts, n_nulls=3)
    benchmark.extra_info["n_facts"] = n_facts
    benchmark(naive_eval, JOIN, instance)


@pytest.mark.parametrize("n_nulls", [1, 2, 3])
def test_certain_answers_scaling_in_nulls(benchmark, n_nulls):
    instance = make_instance(5, n_nulls=n_nulls)
    sem = get_semantics("cwa")
    benchmark.extra_info["n_nulls"] = len(instance.nulls())
    benchmark(certain_answers, JOIN, instance, sem)


def test_naive_vs_enumeration_same_answer_cwa(benchmark):
    """The engine's routing: same certain answers, naive path vs oracle."""
    instance = make_instance(5, n_nulls=2)

    def run():
        db = Database(instance, semantics="cwa")
        fast = db.evaluate(GUARDED)  # naive route
        slow = db.evaluate(GUARDED, mode="enumeration")
        assert fast.answers == slow.answers
        return fast.method, slow.method

    fast_method, slow_method = benchmark(run)
    benchmark.extra_info["routes"] = f"{fast_method} vs {slow_method}"
    assert fast_method == NAIVE_AUTO_BACKEND and slow_method == "enumeration"


@pytest.mark.parametrize("key", ["cwa", "mincwa", "pcwa"])
def test_oracle_cost_by_semantics(benchmark, key):
    """Relative oracle cost across semantics on one fixed instance."""
    instance = make_instance(4, n_nulls=2)
    sem = get_semantics(key)
    benchmark.extra_info["semantics"] = sem.notation
    benchmark(certain_answers, JOIN, instance, sem)


def test_engine_naive_route_cost(benchmark):
    """End-to-end engine cost when the analyzer approves naive evaluation."""
    instance = make_instance(16, n_nulls=3)
    result = benchmark(lambda: Database(instance, semantics="owa").evaluate(JOIN))
    assert result.method == NAIVE_AUTO_BACKEND
