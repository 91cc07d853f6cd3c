"""Experiment F1 — regenerate Figure 1, the paper's summary table.

For each semantics row, validate on a random corpus that naive
evaluation agrees with certain answers for the row's fragment; the
benchmark measures the cost of one full row validation, and the
``extra_info`` of each run records the agreement rate (expected 1.0 —
the paper's claim).  The README's "Performance" section describes the
benchmarks.
"""

import random

import pytest

from repro.core import certain_holds, naive_holds
from repro.core.analyzer import FIGURE_1
from repro.homs.core import core
from repro.logic.generate import random_sentence
from repro.logic.queries import Query
from repro.semantics import get_semantics

from conftest import SCHEMA, corpus

N_QUERIES = 6
N_INSTANCES = 5


def _certain_kwargs(key: str) -> dict:
    if key == "owa":
        return {"extra_facts": 1}
    if key == "wcwa":
        return {"extra_facts": 2}
    return {}


def validate_row(key: str) -> tuple[int, int]:
    """One Figure-1 row: (agreements, trials) over the random corpus."""
    fragment, restriction, _ = FIGURE_1[key]
    sem = get_semantics(key)
    rng = random.Random(0xF1 + hash(key) % 1000)
    instances = corpus(seed=hash(key) & 0xFFFF, n=N_INSTANCES)
    if restriction == "cores":
        instances = [core(d) for d in instances]
    agreements = trials = 0
    for instance in instances:
        for _ in range(N_QUERIES):
            query = Query.boolean(random_sentence(SCHEMA, rng, fragment, max_depth=2))
            naive = naive_holds(query, instance)
            certain = certain_holds(query, instance, sem, **_certain_kwargs(key))
            trials += 1
            agreements += naive == certain
    return agreements, trials


@pytest.mark.parametrize("key", sorted(FIGURE_1))
def test_figure1_row(benchmark, key):
    fragment, restriction, citation = FIGURE_1[key]
    agreements, trials = benchmark(validate_row, key)
    benchmark.extra_info["semantics"] = get_semantics(key).notation
    benchmark.extra_info["fragment"] = fragment
    benchmark.extra_info["agreement"] = f"{agreements}/{trials}"
    benchmark.extra_info["restriction"] = restriction or "none"
    assert agreements == trials, f"Figure 1 row {key} violated: {agreements}/{trials}"
