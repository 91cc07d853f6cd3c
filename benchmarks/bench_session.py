"""Experiment SESSION — what preparing a query buys over a one-shot call.

A one-shot caller opens a fresh ``Database`` per evaluation and so
pays the Figure-1 analyzer, the core check and pool construction on
every call; a prepared query pays for them once.  These benches measure
the per-call planning overhead that the session API amortises — the gap
is the "serving traffic" story of the API redesign: for cheap
naive-routed queries, planning dominates the actual evaluation, so
caching it is a direct throughput win.
"""

import random

import pytest

from repro.data.generate import random_instance
from repro.data.schema import Schema
from repro.session import Database

SCHEMA = Schema({"R": 2, "S": 1})
JOIN_TEXT = "exists z (R(x, z) & R(z, y))"
GUARDED_TEXT = "forall x, y . R(x, y) -> exists u . R(y, u) | S(y)"


def make_instance(n_facts: int, n_nulls: int, seed: int = 99):
    rng = random.Random(seed)
    return random_instance(
        SCHEMA, rng, n_facts=n_facts, constants=(1, 2, 3, 4), n_nulls=n_nulls
    )


@pytest.mark.parametrize("n_facts", [8, 32])
def test_free_function_reruns_planning(benchmark, n_facts):
    instance = make_instance(n_facts, n_nulls=3)
    db = Database(instance, semantics="cwa")
    query = db.query(GUARDED_TEXT).query
    benchmark.extra_info["n_facts"] = n_facts
    benchmark(lambda: Database(instance, semantics="cwa").evaluate(query))


@pytest.mark.parametrize("n_facts", [8, 32])
def test_prepared_query_amortises_planning(benchmark, n_facts):
    instance = make_instance(n_facts, n_nulls=3)
    db = Database(instance, semantics="cwa")
    prepared = db.query(GUARDED_TEXT)
    prepared.evaluate()  # warm the caches
    benchmark.extra_info["n_facts"] = n_facts
    benchmark(prepared.evaluate)


def test_prepare_once_evaluate_many(benchmark):
    instance = make_instance(16, n_nulls=2)
    db = Database(instance, semantics="cwa")
    queries = [JOIN_TEXT, GUARDED_TEXT, "exists x . S(x)"]

    def serve():
        prepared = [db.query(text) for text in queries]
        return [p.evaluate() for p in prepared]

    serve()  # warm
    results = benchmark(serve)
    assert len(results) == 3


def test_batch_evaluation(benchmark):
    instance = make_instance(16, n_nulls=2)
    db = Database(instance, semantics="cwa")
    queries = [JOIN_TEXT, GUARDED_TEXT, "exists x . S(x)"]
    results = benchmark(db.evaluate_many, queries)
    single = [db.query(text).evaluate() for text in queries]
    assert [(r.method, r.answers) for r in results] == [
        (r.method, r.answers) for r in single
    ]
