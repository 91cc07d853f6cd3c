"""Tests for repro.session: the Database facade and prepared queries."""

import pytest

from repro.core import certain_answers, evaluate, naive_eval
from repro.core.plan import Plan
from repro.data.instance import Instance
from repro.data.values import Null
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.session import Database, PreparedQuery

X, Y = Null("x"), Null("y")

JOIN_TEXT = "exists z (R(x, z) & S(z, y))"
FORALL_TEXT = "forall x . exists y . D(x, y)"


def counting(monkeypatch, dotted, counter, key):
    """Wrap ``dotted`` (module.attr) so calls are counted in ``counter[key]``."""
    module_path, attr = dotted.rsplit(".", 1)
    import importlib

    module = importlib.import_module(module_path)
    real = getattr(module, attr)

    def wrapper(*args, **kwargs):
        counter[key] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)


class TestDatabaseBasics:
    def test_query_evaluates_like_free_function(self, intro_db, join_query):
        db = Database(intro_db, semantics="owa")
        prepared = db.query(join_query)
        assert prepared.evaluate().answers == evaluate(join_query, intro_db, "owa").answers

    def test_text_query_with_vars(self, intro_db):
        db = Database(intro_db, semantics="owa")
        q = db.query(JOIN_TEXT, vars=("x", "y"))
        assert q.evaluate().answers == frozenset({(1, 4)})

    def test_mapping_constructor(self):
        db = Database({"R": [(1, X)]})
        assert db.instance == Instance({"R": [(1, X)]})

    def test_default_vars_are_sorted_free_vars(self, intro_db):
        db = Database(intro_db, semantics="owa")
        q = db.query(JOIN_TEXT)
        assert tuple(v.name for v in q.query.answer_vars) == ("x", "y")

    def test_boolean_query(self, d0):
        db = Database(d0, semantics="cwa")
        result = db.evaluate("exists x, y . D(x, y) & D(y, x)")
        assert result.holds and result.exact

    def test_explain_returns_plan(self, d0):
        db = Database(d0, semantics="owa")
        plan = db.explain(FORALL_TEXT)
        assert isinstance(plan, Plan)
        assert plan.backend == "enumeration"
        assert not plan.verdict.sound

    def test_semantics_override_per_query(self, d0):
        db = Database(d0, semantics="owa")
        owa = db.evaluate(FORALL_TEXT)
        cwa = db.evaluate(FORALL_TEXT, semantics="cwa")
        assert not owa.holds and cwa.holds

    def test_prepared_query_of_other_db_rejected(self, d0, intro_db):
        other = Database(intro_db, semantics="cwa")
        q = other.query("exists x, y . D(x, y)")
        with pytest.raises(ValueError):
            Database(d0).query(q)

    def test_prepared_query_semantics_conflict_rejected(self, d0):
        db = Database(d0, semantics="cwa")
        q = db.query(FORALL_TEXT)
        with pytest.raises(ValueError):
            db.evaluate(q, semantics="owa")

    def test_stats_report_timing_and_backend(self, intro_db, join_query):
        db = Database(intro_db, semantics="owa")
        result = db.evaluate(join_query)
        assert result.stats["backend"] == "columnar"
        assert result.stats["execution_s"] >= 0
        assert result.stats["planning_s"] >= 0
        assert result.stats["pool_size"] == 0  # naive: no pool materialised

    def test_stats_pool_size_reports_materialised_pool(self, d0):
        db = Database(d0, semantics="cwa")
        result = db.evaluate(FORALL_TEXT, mode="enumeration")
        assert result.stats["pool_size"] >= 1


class TestCaching:
    """Acceptance: analyzer/core-check/pool computed once across evaluations."""

    def test_analyze_core_pool_each_computed_once(self, monkeypatch):
        counts = {"analyze": 0, "is_core": 0, "pool": 0}
        counting(monkeypatch, "repro.core.analyzer.analyze", counts, "analyze")
        counting(monkeypatch, "repro.homs.core.is_core", counts, "is_core")
        counting(monkeypatch, "repro.core.certain.default_pool", counts, "pool")

        # mincwa + sound fragment → the plan needs analyzer AND core check
        db = Database(Instance({"D": [(X, X), (X, 1)]}), semantics="mincwa")
        q = db.query("exists v . D(v, v)")
        first = q.evaluate()
        second = q.evaluate()
        third = q.evaluate()
        assert first.answers == second.answers == third.answers
        # naive-routed: the pool is never even materialised
        assert counts == {"analyze": 1, "is_core": 1, "pool": 0}

    def test_enumeration_path_reuses_pool(self, monkeypatch, d0):
        counts = {"analyze": 0, "pool": 0}
        counting(monkeypatch, "repro.core.analyzer.analyze", counts, "analyze")
        counting(monkeypatch, "repro.core.certain.default_pool", counts, "pool")
        db = Database(d0, semantics="owa")
        q = db.query(FORALL_TEXT)
        q.evaluate()
        q.evaluate()
        assert counts == {"analyze": 1, "pool": 1}

    def test_same_text_returns_same_prepared_object(self, d0):
        db = Database(d0, semantics="cwa")
        assert db.query(FORALL_TEXT) is db.query(FORALL_TEXT)

    def test_name_override_on_query_object_rejected(self, d0):
        db = Database(d0, semantics="cwa")
        q = Query.boolean(parse(FORALL_TEXT), name="total")
        with pytest.raises(ValueError, match="name"):
            db.query(q, name="other")

    def test_name_override_on_prepared_query_rejected(self, d0):
        db = Database(d0, semantics="cwa")
        p = db.query(FORALL_TEXT)
        with pytest.raises(ValueError, match="name"):
            db.query(p, name="other")

    def test_mixed_batch_reports_pool_only_for_oracle_backends(self):
        db = Database(Instance({"R": [(1, X)]}), semantics="owa")
        naive_r, enum_r = db.evaluate_many(
            ["exists z . R(1, z)", "forall u . exists v . R(u, v)"]
        )
        assert naive_r.method == "columnar" and naive_r.stats["pool_size"] == 0
        assert enum_r.method == "enumeration" and enum_r.stats["pool_size"] >= 1

    def test_query_objects_are_interned_too(self, d0, monkeypatch):
        counts = {"analyze": 0}
        counting(monkeypatch, "repro.core.analyzer.analyze", counts, "analyze")
        db = Database(d0, semantics="cwa")
        q = Query.boolean(parse(FORALL_TEXT))
        assert db.query(q) is db.query(q)
        for _ in range(3):
            db.evaluate(q)
        assert counts["analyze"] == 1

    def test_prepared_cache_is_bounded_lru(self, d0):
        db = Database(d0, semantics="cwa", prepared_cache_size=2)
        hot = db.query("exists u . D(u, 1)")
        db.query("exists u . D(u, 2)")
        assert db.query("exists u . D(u, 1)") is hot  # touch → most recent
        db.query("exists u . D(u, 3)")  # evicts the least recent (…, 2)
        assert db.query("exists u . D(u, 1)") is hot  # survived as LRU-hot
        assert len(db._prepared) <= 2

    def test_different_semantics_prepare_separately(self, d0):
        db = Database(d0, semantics="cwa")
        assert db.query(FORALL_TEXT) is not db.query(FORALL_TEXT, semantics="owa")

    def test_plan_object_cached_per_mode(self, d0):
        db = Database(d0, semantics="cwa")
        q = db.query(FORALL_TEXT)
        assert q.plan() is q.plan()
        assert q.plan("enumeration") is q.plan("enumeration")
        assert q.plan() is not q.plan("enumeration")


class TestInvalidation:
    def test_mutation_bumps_generation(self, d0):
        db = Database(d0, semantics="cwa")
        g = db.generation
        db.add_fact("D", (1, 2))
        assert db.generation == g + 1
        db.remove_fact("D", (1, 2))
        assert db.generation == g + 2

    def test_noop_mutation_keeps_generation(self, d0):
        db = Database(d0, semantics="cwa")
        g = db.generation
        db.remove_fact("Nope", (1,))
        assert db.generation == g

    def test_mutation_invalidates_pool_and_plan(self, monkeypatch):
        counts = {"pool": 0}
        counting(monkeypatch, "repro.core.certain.default_pool", counts, "pool")
        db = Database(Instance({"D": [(X, Y)]}), semantics="owa")
        q = db.query(FORALL_TEXT)
        plan_before = q.plan()
        q.evaluate()
        assert counts["pool"] == 1
        db.add_fact("D", (7, 8))
        q.evaluate()
        assert counts["pool"] == 2
        assert q.plan() is not plan_before
        assert 7 in q.pool and 8 in q.pool

    def test_mutation_changes_answers(self):
        db = Database(Instance({"D": [(1, 2)]}), semantics="cwa")
        q = db.query("exists x . D(x, 3)")
        assert not q.evaluate().holds
        db.add_fact("D", (2, 3))
        assert q.evaluate().holds

    def test_replace_swaps_instance(self, d0, intro_db):
        db = Database(d0)
        db.replace(intro_db)
        assert db.instance == intro_db

    def test_extra_facts_mutation_invalidates_plans(self, d0, forall_exists_query):
        # regression: changing the truncation knob must not leave a
        # cached plan claiming exactness for a now-truncated enumeration
        db = Database(d0, semantics="wcwa")
        q = db.query(forall_exists_query)
        # WCWA enumeration is exact only without the truncation bound
        assert q.evaluate("enumeration").exact
        db.extra_facts = 1
        result = q.evaluate("enumeration")
        assert not result.exact and result.direction == "superset"
        db.extra_facts = None
        assert q.evaluate("enumeration").exact

    def test_extra_facts_same_value_keeps_generation(self, d0):
        db = Database(d0, semantics="owa", extra_facts=2)
        g = db.generation
        db.extra_facts = 2
        assert db.generation == g

    def test_vars_override_on_prepared_query_rejected(self, d0):
        db = Database(d0, semantics="cwa")
        q = db.query("D(x, y)", vars=("x", "y"))
        with pytest.raises(ValueError, match="vars"):
            db.query(q, vars=("y", "x"))

    def test_core_check_cached_per_generation(self, monkeypatch):
        counts = {"is_core": 0}
        counting(monkeypatch, "repro.homs.core.is_core", counts, "is_core")
        db = Database(Instance({"D": [(X, X), (X, 1)]}), semantics="mincwa")
        q1 = db.query("exists v . D(v, v)")
        q2 = db.query("exists v . D(v, 1)")
        q1.evaluate()
        q2.evaluate()
        assert counts["is_core"] == 1  # shared across prepared queries
        db.add_fact("D", (1, 1))
        q1.evaluate()
        assert counts["is_core"] == 2


class TestEvaluateMany:
    QUERIES = [
        "exists x, y . D(x, y)",
        FORALL_TEXT,
        "exists x . D(x, x)",
    ]

    def test_matches_individual_evaluation(self, d0):
        db = Database(d0, semantics="cwa")
        batch = db.evaluate_many(self.QUERIES)
        solo = [db.evaluate(q) for q in self.QUERIES]
        assert [r.answers for r in batch] == [r.answers for r in solo]

    def test_shares_pool_and_core_check(self, monkeypatch):
        counts = {"pool": 0, "is_core": 0}
        counting(monkeypatch, "repro.core.certain.default_pool", counts, "pool")
        counting(monkeypatch, "repro.homs.core.is_core", counts, "is_core")
        db = Database(Instance({"D": [(X, X), (X, 1)]}), semantics="mincwa")
        db.evaluate_many(self.QUERIES, mode="enumeration")
        assert counts["pool"] == 1  # one shared pool for the whole batch
        assert counts["is_core"] <= 1

    def test_all_naive_batch_builds_no_pool(self, monkeypatch, d0):
        counts = {"pool": 0}
        counting(monkeypatch, "repro.core.certain.default_pool", counts, "pool")
        db = Database(d0, semantics="cwa")  # every query routes naive
        results = db.evaluate_many(self.QUERIES)
        assert counts["pool"] == 0
        assert all(r.method == "columnar" for r in results)

    def test_batch_stats(self, d0):
        db = Database(d0, semantics="cwa")
        for result in db.evaluate_many(self.QUERIES):
            assert result.stats["batch"] is True
            assert result.stats["execution_s"] >= 0
            assert result.stats["pool_size"] >= 0
            assert result.stats["pool_build_s"] >= 0

    def test_batch_pool_build_time_attributed(self, d0):
        db = Database(d0, semantics="cwa")
        first = db.evaluate_many(self.QUERIES, mode="enumeration")
        again = db.evaluate_many(self.QUERIES, mode="enumeration")
        assert any(r.stats["pool_build_s"] > 0 for r in first)
        assert all(r.stats["pool_build_s"] == 0 for r in again)  # memo hit

    def test_repeated_batches_reuse_the_shared_pool(self, monkeypatch):
        counts = {"pool": 0}
        counting(monkeypatch, "repro.core.certain.default_pool", counts, "pool")
        db = Database(Instance({"D": [(X, X), (X, 1)]}), semantics="mincwa")
        db.evaluate_many(self.QUERIES, mode="enumeration")
        db.evaluate_many(self.QUERIES, mode="enumeration")
        assert counts["pool"] == 1  # memoised across identical batches
        db.add_fact("D", (2, 3))
        db.evaluate_many(self.QUERIES, mode="enumeration")
        assert counts["pool"] == 2  # mutation invalidates the memo

    def test_shared_pool_covers_all_query_constants(self, monkeypatch):
        seen_pools = []
        import importlib

        certain_mod = importlib.import_module("repro.core.certain")
        real = certain_mod.default_pool

        def spy(*args, **kwargs):
            pool = real(*args, **kwargs)
            seen_pools.append(pool)
            return pool

        monkeypatch.setattr(certain_mod, "default_pool", spy)
        db = Database(Instance({"D": [(X, Y)]}), semantics="cwa")
        db.evaluate_many(
            ["exists x . D(x, 41)", "exists x . D(42, x)"], mode="enumeration"
        )
        assert len(seen_pools) == 1
        assert {41, 42} <= set(seen_pools[0])

    def test_empty_batch(self, d0):
        assert Database(d0).evaluate_many([]) == []

    def test_batches_reuse_the_prepared_plan_cache(self, monkeypatch, d0):
        counts = {"make_plan": 0}
        counting(monkeypatch, "repro.core.plan.make_plan", counts, "make_plan")
        db = Database(d0, semantics="cwa")
        db.evaluate_many(self.QUERIES)
        db.evaluate_many(self.QUERIES)      # same texts → interned → cached plans
        for text in self.QUERIES:
            db.query(text).evaluate()        # single path shares the same cache
        assert counts["make_plan"] == len(self.QUERIES)

    def test_exactness_flags_match_single_path(self, d0):
        db = Database(d0, semantics="owa")
        batch = db.evaluate_many(self.QUERIES)
        solo = [db.evaluate(q) for q in self.QUERIES]
        assert [(r.exact, r.direction, r.method) for r in batch] == [
            (r.exact, r.direction, r.method) for r in solo
        ]


class TestBackendSelection:
    def test_all_backends_selectable_by_name(self, d0):
        db = Database(d0, semantics="cwa")
        text = "exists x, y . D(x, y) & D(y, x)"
        answers = {
            mode: db.evaluate(text, mode=mode).answers
            for mode in ("columnar", "enumeration", "ctable")
        }
        assert answers["enumeration"] == answers["ctable"]
        # this query is sound under CWA, so naive agrees as well
        assert answers["columnar"] == answers["enumeration"]

    def test_ctable_agrees_with_enumeration_on_kary(self, intro_db, join_query):
        db = Database(intro_db, semantics="cwa")
        q = db.query(join_query)
        assert q.evaluate("ctable").answers == q.evaluate("enumeration").answers

    def test_ctable_rejected_outside_cwa(self, d0):
        db = Database(d0, semantics="owa")
        with pytest.raises(ValueError, match="ctable"):
            db.evaluate("exists x . D(x, x)", mode="ctable")

    def test_legacy_wrapper_accepts_all_backends(self, d0):
        q = Query.boolean(parse("exists x, y . D(x, y) & D(y, x)"))
        for mode in ("columnar", "enumeration", "ctable"):
            result = evaluate(q, d0, semantics="cwa", mode=mode)
            assert result.method == mode
            assert result.holds

    def test_unknown_mode_raises(self, d0):
        with pytest.raises(ValueError, match="unknown backend"):
            Database(d0).evaluate("exists x . D(x, x)", mode="quantum")


class TestAgainstReference:
    """The session path must compute exactly what the primitives compute."""

    @pytest.mark.parametrize("semantics", ["owa", "cwa", "wcwa", "pcwa", "mincwa"])
    def test_auto_matches_free_evaluate(self, d0, semantics):
        q = Query.boolean(parse(FORALL_TEXT))
        db = Database(d0, semantics=semantics)
        assert db.evaluate(q).answers == evaluate(q, d0, semantics).answers

    def test_naive_backend_is_naive_eval(self, intro_db, join_query):
        db = Database(intro_db, semantics="owa")
        assert db.evaluate(join_query, mode="columnar").answers == naive_eval(
            join_query, intro_db
        )

    def test_enumeration_backend_is_certain_answers(self, d0):
        q = Query.boolean(parse(FORALL_TEXT))
        db = Database(d0, semantics="cwa")
        assert db.evaluate(q, mode="enumeration").answers == certain_answers(
            q, d0, get_semantics("cwa")
        )

    def test_prepared_repr_mentions_semantics(self, d0):
        db = Database(d0, semantics="cwa")
        q = db.query(FORALL_TEXT)
        assert isinstance(q, PreparedQuery)
        assert "cwa" in repr(q)
