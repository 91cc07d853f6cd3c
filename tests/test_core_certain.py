"""Tests for repro.core.certain: the bounded certain-answer oracle."""

import random

import pytest

from repro.core import evaluate
from repro.core.certain import certain_answers, certain_holds, default_pool, query_schema
from repro.data.generate import random_instance
from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.data.values import Null
from repro.logic.compile import compiled_query
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.semantics import get_semantics

X, Y = Null("x"), Null("y")
K, K1 = Null(""), Null("'")

JOIN = Query(parse("exists z (R(x, z) & R(z, y))"), ("x", "y"))


class TestDefaultPool:
    def test_contains_instance_and_query_constants(self):
        d = Instance({"R": [(1, X)]})
        q = Query.boolean(parse("exists v . R(v, 7)"))
        pool = default_pool(d, q)
        assert 1 in pool and 7 in pool

    def test_fresh_count(self):
        d = Instance({"R": [(X, Y)]})
        pool = default_pool(d)
        fresh = [v for v in pool if isinstance(v, str) and v.startswith("_f")]
        assert len(fresh) == 3  # nulls + 1

    def test_fresh_avoid_collisions(self):
        d = Instance({"R": [("_f1", X)]})
        pool = default_pool(d)
        assert len(set(pool)) == len(pool)

    def test_n_fresh_override(self):
        d = Instance({"R": [(X, Y)]})
        assert len(default_pool(d, n_fresh=0)) == 0

    def test_extra_constants_widen_the_pool(self):
        d = Instance({"R": [(1, X)]})
        pool = default_pool(d, extra_constants={41, 42})
        assert 41 in pool and 42 in pool

    # ------------------------------------------------------------------
    # regression: pool order must be deterministic and type-stable
    # (sorting by repr interleaved int and str constants — repr("0") is
    # "'0'" which sorts before repr(1) == "1" — so enumeration order and
    # limit truncation depended on the cell types)
    # ------------------------------------------------------------------

    def test_pool_order_is_type_stable(self):
        d = Instance({"R": [(2, "0"), ("10", 1)]})
        pool = default_pool(d, n_fresh=0)
        # all ints come before all strs: grouped by type, never interleaved
        assert pool == [1, 2, "0", "10"]

    def test_pool_order_independent_of_construction_order(self):
        rows = [(2, "0"), ("10", 1), (X, "b"), ("a", Y)]
        d1 = Instance({"R": rows})
        d2 = Instance({"R": list(reversed(rows))})
        assert d1 == d2
        assert default_pool(d1) == default_pool(d2)

    def test_pool_is_repeatable(self):
        d = Instance({"R": [(1, "one"), (2, X), ("two", Y)]})
        q = Query.boolean(parse("exists v . R(v, 3)"))
        assert default_pool(d, q) == default_pool(d, q)

    def test_mixed_type_enumeration_answers_unchanged(self):
        # sanity: the reordering does not change what is certain
        d = Instance({"R": [(1, X), ("a", X)]})
        q = Query.boolean(parse("exists v . R(1, v) & R('a', v)"))
        assert certain_holds(q, d, get_semantics("cwa"))


class TestQuerySchema:
    def test_collects_arities(self):
        q = Query.boolean(parse("exists v . R(v, v) & S(v)"))
        s = query_schema(q)
        assert s.arity("R") == 2 and s.arity("S") == 1

    def test_memoised_per_query_value(self):
        q = Query.boolean(parse("exists v . R(v, v) & S(v)"))
        same = Query.boolean(parse("exists v . R(v, v) & S(v)"))
        assert query_schema(q) is query_schema(same)

    def test_conflicting_arity_raises(self):
        q = Query.boolean(parse("exists v . R(v) & R(v, v)"))
        with pytest.raises(ValueError):
            query_schema(q)


class TestCertainAnswers:
    def test_intro_example_all_semantics(self, join_query, intro_db):
        for key in ("owa", "cwa", "wcwa", "pcwa", "mincwa", "minpcwa"):
            kw = {"extra_facts": 1} if key == "wcwa" else {}
            got = certain_answers(join_query, intro_db, get_semantics(key), **kw)
            assert got == frozenset({(1, 4)}), key

    def test_d0_forall_split(self, d0, forall_exists_query):
        # ∀x∃y D(x,y): certain under CWA/WCWA, not under OWA (Section 2.4)
        assert not certain_holds(forall_exists_query, d0, get_semantics("owa"))
        assert certain_holds(forall_exists_query, d0, get_semantics("cwa"))
        assert certain_holds(forall_exists_query, d0, get_semantics("wcwa"))

    def test_d0_exists_cycle_everywhere(self, d0, exists_cycle_query):
        for key in ("owa", "cwa", "wcwa", "pcwa"):
            assert certain_holds(exists_cycle_query, d0, get_semantics(key)), key

    def test_negative_query_under_cwa(self):
        # ¬∃v R(v,v) on {R(1,⊥)}: some valuation sets ⊥=1 → not certain
        d = Instance({"R": [(1, X)]})
        q = Query.boolean(parse("!(exists v . R(v, v))"))
        assert not certain_holds(q, d, get_semantics("cwa"))

    def test_negative_query_certain_when_unreachable(self):
        # ¬R(2,2) on {R(1,⊥)}: no valuation creates (2,2) under CWA
        d = Instance({"R": [(1, X)]})
        q = Query.boolean(parse("!R(2, 2)"))
        assert certain_holds(q, d, get_semantics("cwa"))
        # ... but under OWA extensions may add it
        assert not certain_holds(q, d, get_semantics("owa"))

    def test_kary_certain_answer_with_constants(self):
        d = Instance({"R": [(1, 2), (3, X)]})
        q = Query(parse("R(a, b)"), ("a", "b"))
        got = certain_answers(q, d, get_semantics("cwa"))
        assert got == frozenset({(1, 2)})

    def test_certain_empty_when_all_null(self):
        d = Instance({"R": [(X, Y)]})
        q = Query(parse("R(a, b)"), ("a", "b"))
        assert certain_answers(q, d, get_semantics("cwa")) == frozenset()

    def test_complete_instance_certain_equals_eval(self):
        d = Instance({"R": [(1, 2)]})
        q = Query(parse("R(a, b)"), ("a", "b"))
        assert certain_answers(q, d, get_semantics("cwa")) == frozenset({(1, 2)})

    def test_certain_holds_rejects_kary(self):
        q = Query(parse("R(a, b)"), ("a", "b"))
        with pytest.raises(ValueError):
            certain_holds(q, Instance.empty(), get_semantics("cwa"))

    def test_minimal_semantics_forall_example(self):
        """The Cor 10.11 remark: certain answer to ∀x D(x,x) under
        [[·]]^min_CWA on {(⊥,⊥),(⊥,⊥')} is TRUE (minimal valuations
        collapse the nulls) although naive evaluation returns false."""
        d = Instance({"D": [(X, X), (X, Y)]})
        q = Query.boolean(parse("forall v . D(v, v)"))
        assert certain_holds(q, d, get_semantics("mincwa"))
        assert not certain_holds(q, d, get_semantics("cwa"))

    def test_boolean_queries(self):
        q = Query.boolean(parse("exists v (exists w (R(v, w)))"))
        instance = Instance({"R": [(X, Y)], "S": [(X,)]})
        assert certain_answers(q, instance, get_semantics("cwa")) == frozenset({()})


class TestOracleStats:
    """What ``stats_out`` reports, and the pruning it reports on."""

    @pytest.mark.parametrize(
        "key, mode",
        [("cwa", ("seed", "serial")), ("owa", ("expand",))],
        ids=["cwa", "owa"],
    )
    def test_stats_out_fills_worlds_and_mode(self, key, mode):
        # the benchmark's traced run reads ``worlds`` from this dict
        instance = Instance({"R": [(X, Y), (1, X)], "S": [(Y,)]})
        kw = {"extra_facts": 1} if key == "owa" else {}
        stats: dict = {}
        certain_answers(JOIN, instance, get_semantics(key), stats_out=stats, **kw)
        assert stats["worlds"] >= 1
        assert stats["mode"] in mode

    def test_stats_surface_in_eval_result(self):
        instance = Instance({"R": [(X, Y), (1, X)], "S": [(Y,)]})
        result = evaluate(JOIN, instance, "cwa", mode="enumeration")
        oracle = result.stats["oracle"]
        assert oracle["worlds"] >= 1
        assert oracle["mode"] in ("seed", "serial")
        assert "relevant_nulls" in oracle and "total_nulls" in oracle

    def test_empty_intersection_stops_early(self):
        # ¬∃v R(v,v) is certainly false on {R(⊥x,⊥y)}: the first world
        # collapsing ⊥x and ⊥y satisfies ∃v R(v,v), so the oracle must
        # stop there instead of enumerating every world
        q = Query.boolean(parse("!(exists v (R(v, v)))"))
        instance = Instance({"R": [(X, Y)]})
        stats: dict = {}
        got = certain_answers(q, instance, get_semantics("cwa"), stats_out=stats)
        assert got == frozenset()
        assert stats["worlds"] < len(default_pool(instance, q)) ** 2

    def test_relevance_restriction_reported(self):
        # S-nulls are invisible to a plan that only reads R
        instance = Instance({"R": [(X, 1)], "S": [(Y,), (Null("z"),)]})
        stats: dict = {}
        certain_answers(JOIN, instance, get_semantics("cwa"), stats_out=stats)
        assert stats["total_nulls"] == 3
        assert stats["relevant_nulls"] == 1
        assert stats["restricted"] is True

    def test_relevance_restriction_is_sound(self):
        # reference: enumerate full worlds as Instances and intersect
        sem = get_semantics("cwa")
        rng = random.Random(0xDEAD)
        for _ in range(20):
            instance = random_instance(
                Schema({"R": 2, "S": 1}), rng, n_facts=4, constants=(1, 2),
                n_nulls=3, null_probability=0.8,
            )
            pool = default_pool(instance, JOIN)
            cq = compiled_query(JOIN)
            schema = instance.schema().union(query_schema(JOIN))
            reference = None
            for world in sem.expand(instance, list(pool), schema=schema):
                rows = cq.answers(world)
                reference = rows if reference is None else reference & rows
            assert certain_answers(JOIN, instance, sem) == reference
