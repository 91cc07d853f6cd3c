"""Incremental mutation: Instance.with_delta, derived contexts, the session
mutation API, per-relation generations and the generation-keyed result cache."""

import random

import pytest

from repro.data.generate import random_instance
from repro.data.instance import Instance
from repro.data.schema import Schema, SchemaError
from repro.data.values import Null
from repro.session import Database

X, Y = Null("x"), Null("y")

JOIN = "exists z (R(x, z) & S(z, y))"


def counting(monkeypatch, dotted, counter, key):
    """Wrap ``dotted`` (module.attr) so calls are counted in ``counter[key]``."""
    import importlib

    module_path, attr = dotted.rsplit(".", 1)
    module = importlib.import_module(module_path)
    real = getattr(module, attr)

    def wrapper(*args, **kwargs):
        counter[key] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)


class TestWithDelta:
    BASE = Instance({"R": [(1, 2), (2, 3)], "S": [(1,), (9,)]})

    def test_add_and_remove(self):
        new, changes = self.BASE.with_delta(
            adds={"R": [(3, 4)]}, removes={"S": [(9,)]}
        )
        assert new == Instance({"R": [(1, 2), (2, 3), (3, 4)], "S": [(1,)]})
        assert changes == {
            "R": (frozenset({(3, 4)}), frozenset()),
            "S": (frozenset(), frozenset({(9,)})),
        }

    def test_noop_returns_self(self):
        new, changes = self.BASE.with_delta(
            adds={"R": [(1, 2)]}, removes={"S": [(42,)], "Nope": [(1,)]}
        )
        assert new is self.BASE
        assert changes == {}

    def test_remove_then_add_same_row_is_present(self):
        new, changes = self.BASE.with_delta(
            adds={"S": [(9,)]}, removes={"S": [(9,)]}
        )
        assert new is self.BASE and changes == {}

    def test_relation_emptied_disappears(self):
        new, _ = self.BASE.with_delta(removes={"S": [(1,), (9,)]})
        assert "S" not in new.relations
        assert new.tuples("S") == frozenset()

    def test_full_replacement_may_change_arity(self):
        new, _ = self.BASE.with_delta(
            adds={"S": [(1, 2, 3)]}, removes={"S": [(1,), (9,)]}
        )
        assert new.arity("S") == 3

    def test_mixed_arity_rejected(self):
        with pytest.raises(SchemaError, match="mixed arities"):
            self.BASE.with_delta(adds={"S": [(1, 2)]})

    def test_zero_arity_rejected(self):
        with pytest.raises(SchemaError, match="zero-arity"):
            Instance.empty().with_delta(adds={"S": [()]})

    def test_bad_relation_name_rejected(self):
        with pytest.raises(SchemaError, match="non-empty string"):
            self.BASE.with_delta(adds={"": [(1,)]})

    def test_adom_tracked_incrementally_on_insert(self):
        new, _ = self.BASE.with_delta(adds={"R": [(7, X)]})
        assert new.adom() == self.BASE.adom() | {7, X}
        assert X in new.nulls()

    def test_adom_recomputed_on_delete(self):
        new, _ = self.BASE.with_delta(removes={"S": [(9,)]})
        assert 9 not in new.adom()
        assert 1 in new.adom()  # still occurs in R

    def test_matches_from_scratch_construction_randomly(self):
        rng = random.Random(0xDE17A)
        schema = Schema({"R": 2, "S": 1})
        inst = random_instance(schema, rng, n_facts=12, constants=(1, 2, 3), n_nulls=2)
        for _ in range(60):
            pool = [1, 2, 3, 4, X, Y]
            adds = {
                "R": [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 2))],
                "S": [(rng.choice(pool),) for _ in range(rng.randint(0, 2))],
            }
            removes = {
                name: [row for row in inst.tuples(name) if rng.random() < 0.2]
                for name in inst.relations
            }
            new, _ = inst.with_delta(adds=adds, removes=removes)
            rels = {n: set(inst.tuples(n)) for n in inst.relations}
            for name, rows in removes.items():
                rels.setdefault(name, set()).difference_update(rows)
            for name, rows in adds.items():
                rels.setdefault(name, set()).update(rows)
            assert new == Instance(rels)
            assert new.adom() == Instance(rels).adom()
            inst = new


class TestDerivedIndexes:
    """A write derives one execution context, the columnar one; the
    homomorphism engine builds the instance's hash indexes lazily."""

    def test_writes_maintain_only_the_columnar_context(self):
        db = Database({"R": [(1, X)], "S": [(X, 4)]})
        db.evaluate(JOIN, vars=("x", "y"))  # encode: a columnar context to derive
        db.instance.index("R", (0,))  # and a hash index with nothing to carry over
        db.insert("R", (2, 3))
        assert db.instance._indexes is None
        assert db.instance._cols is not None
        db.delete("R", (2, 3))
        assert db.instance._indexes is None
        assert db.instance._cols is not None

    def test_is_core_after_writes_matches_fresh_instance(self):
        from repro.homs import is_core

        rng = random.Random(13)
        pool = [1, 2, X, Y, Null("z")]
        db = Database({"R": [(X, Y), (Y, X)]}, semantics="mincwa")
        assert is_core(db.instance)  # indexes built on the first instance
        for step in range(30):
            rows = sorted(db.instance.tuples("R"), key=repr)
            if rows and rng.random() < 0.4:
                db.delete("R", rng.choice(rows))
            else:
                db.insert("R", (rng.choice(pool), rng.choice(pool)))
            inst = db.instance
            fresh = is_core(Instance({n: inst.tuples(n) for n in inst.relations}))
            assert is_core(inst) == fresh, (step, inst)
            assert db.explain("exists v . R(v, v)").instance_is_core == fresh, (step, inst)

    def test_compiled_answers_match_fresh_instance(self):
        from repro.logic.columnar import compiled_query
        from repro.session import as_query

        rng = random.Random(77)
        inst = random_instance(
            Schema({"R": 2, "S": 1}), rng, n_facts=10, constants=(1, 2, 3), n_nulls=2
        )
        cq = compiled_query(as_query("exists z (R(x, z) & S(z))", vars=("x",)))
        cq.answers(inst)  # encode the old instance
        for step in range(25):
            adds = {"R": [(rng.randint(1, 4), rng.randint(1, 4))]}
            removes = {
                "R": [row for row in inst.tuples("R") if rng.random() < 0.15]
            }
            new, _ = inst.with_delta(adds=adds, removes=removes)
            assert cq.answers(new) == cq.answers(Instance({
                n: new.tuples(n) for n in new.relations
            }))
            inst = new


class TestSessionMutation:
    def test_insert_delete_counts(self):
        db = Database({"R": [(1, 2)]})
        assert db.insert("R", (1, 2)) == 0  # already present
        assert db.insert("R", (2, 3), (3, 4)) == 2
        assert db.delete("R", (9, 9)) == 0
        assert db.delete("R", (2, 3)) == 1
        assert db.instance == Instance({"R": [(1, 2), (3, 4)]})

    def test_apply_delta_is_one_generation(self):
        db = Database({"R": [(1, 2)], "S": [(1,)]})
        g = db.generation
        changed = db.apply_delta(
            adds={"R": [(5, 6)], "T": [(7,)]}, removes={"S": [(1,)]}
        )
        assert changed == 3
        assert db.generation == g + 1
        assert db.rel_generation("R") == 1
        assert db.rel_generation("S") == 1
        assert db.rel_generation("T") == 1

    def test_per_relation_generations(self):
        db = Database({"R": [(1, 2)], "S": [(1,)]})
        db.insert("R", (2, 3))
        db.insert("R", (3, 4))
        db.insert("S", (2,))
        assert db.rel_generation("R") == 2
        assert db.rel_generation("S") == 1
        assert db.rel_generation("T") == 0
        assert db.generation == 3

    def test_noop_delta_bumps_nothing(self):
        db = Database({"R": [(1, 2)]})
        g = db.generation
        assert db.apply_delta(adds={"R": [(1, 2)]}) == 0
        assert db.generation == g and db.rel_generation("R") == 0

    def test_write_reports_the_generation_it_published(self):
        db = Database({"R": [(1, 2)]})
        written = db.insert("R", (2, 3), (3, 4))
        assert written == 2 and written.generation == db.generation == 1
        noop = db.delete("R", (9, 9))
        assert noop == 0 and noop.generation == 1

    def test_insert_into_an_unread_relation_copies_nothing(self):
        """One insert allocates in proportion to the delta, not the instance:
        nothing carries the active domain (or any relation) forward."""
        import tracemalloc

        rng = random.Random(1)
        zs = list(range(1000))
        rng.shuffle(zs)
        r_rows = [(x, zs[x]) for x in range(999)] + [(999, X)]
        s_rows = [(z, 10_000 + z) for z in range(989)] + [(5_000 + k, k) for k in range(10)]
        db = Database({"R": r_rows, "S": s_rows + [(X, 20_000)], "T": [(0,)]})
        assert len(db.query(JOIN, vars=("x", "y")).evaluate().answers) == 989
        for fresh in range(1, 4):
            tracemalloc.start()
            try:
                db.insert("T", (fresh,))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 1024, peak

    def test_null_carrying_mutation(self):
        db = Database({"R": [(1, X)]}, semantics="cwa")
        q = db.query("exists z (R(x, z) & S(z))", vars=("x",))
        assert not q.evaluate().holds
        db.insert("S", (X,))  # a null-carrying fact
        assert q.evaluate().answers == frozenset({(1,)})

    def test_mutated_session_matches_fresh_database(self):
        rng = random.Random(0x5E55)
        db = Database({"R": [(1, X)], "S": [(X, 4)]}, semantics="cwa")
        q = db.query(JOIN, vars=("x", "y"))
        pool = [1, 2, 3, 4, X, Y]
        for _ in range(20):
            if rng.random() < 0.6:
                db.insert(
                    rng.choice(["R", "S"]), (rng.choice(pool), rng.choice(pool))
                )
            else:
                name = rng.choice(["R", "S"])
                rows = list(db.instance.tuples(name))
                if rows:
                    db.delete(name, rng.choice(rows))
            want = Database(db.instance, semantics="cwa").evaluate(q.query).answers
            assert q.evaluate().answers == want
            assert q.evaluate("enumeration").answers == want


class TestPlanSurvival:
    def test_plan_survives_unrelated_write(self):
        db = Database({"R": [(1, 2)], "S": [(2, 3)], "T": [(9,)]})
        q = db.query(JOIN, vars=("x", "y"))
        plan = q.plan()
        db.insert("T", (10,))
        assert q.plan() is plan  # T is not mentioned by the query
        db.insert("R", (5, 6))
        assert q.plan() is plan  # nor does a write to R change the plan

    def test_explain_cost_reflects_a_write(self):
        db = Database({"R": [(1, 2)], "S": [(2, 3)]}, semantics="cwa")
        q = db.query("exists y (R(x, y) & !S(y))", vars=("x",))
        plan = q.plan()
        before = plan.cost
        assert (before.fact_count, before.null_count) == (2, 0)
        db.insert("R", (5, Null("n")), (6, 7))
        assert q.plan() is plan
        after = db.explain(q).cost
        assert (after.fact_count, after.null_count) == (4, 1)
        assert after.pool_size == len(q.pool)  # the pool the oracle now enumerates
        assert "4 facts, 1 nulls" in db.explain(q).render()
        assert db.explain(q).to_dict()["cost"] == after.to_dict()

    def test_core_dependent_plan_invalidated_by_any_write(self):
        db = Database(Instance({"D": [(X, X), (X, 1)]}), semantics="mincwa")
        q = db.query("exists v . D(v, v)")
        plan = q.plan()
        assert plan.verdict.over_cores_only
        db.insert("Unrelated", (1,))
        assert q.plan() is not plan  # core-ness is a whole-instance property


class TestResultCache:
    def test_hit_on_unrelated_write(self, monkeypatch):
        """The acceptance criterion: insert/delete on a relation the plan
        does not read leaves the cached result valid — a cache hit, no
        backend execution."""
        counts = {"exec": 0}
        counting(monkeypatch, "repro.logic.columnar.columnar_naive_eval", counts, "exec")
        db = Database({"R": [(1, 2), (2, 3)], "S": [(2, 4)], "T": [(9,)]})
        q = db.query(JOIN, vars=("x", "y"))
        first = q.evaluate()
        assert first.stats["result_cache"] == "miss"
        assert counts["exec"] == 1
        db.insert("T", (10,))
        db.delete("T", (9,))
        again = q.evaluate()
        assert again.stats["result_cache"] == "hit"
        assert again.answers == first.answers
        assert again.stats["execution_s"] == 0.0
        assert counts["exec"] == 1  # no recompute
        assert again.stats["generations"] == {"R": 0, "S": 0}

    def test_miss_on_read_relation_write(self):
        db = Database({"R": [(1, 2), (2, 3)], "S": [(2, 4)]})
        q = db.query(JOIN, vars=("x", "y"))
        q.evaluate()
        db.insert("S", (3, 7))
        result = q.evaluate()
        assert result.stats["result_cache"] == "miss"
        assert (2, 7) in result.answers

    def test_enumeration_cached_under_cwa(self, monkeypatch):
        counts = {"oracle": 0}
        counting(monkeypatch, "repro.core.certain.certain_answers", counts, "oracle")
        db = Database({"R": [(1, X)], "T": [(5,)]}, semantics="cwa")
        q = db.query("exists z (R(x, z))", vars=("x",))
        q.evaluate("enumeration")
        db.insert("T", (6,))
        result = q.evaluate("enumeration")
        assert result.stats["result_cache"] == "hit"
        assert counts["oracle"] == 1

    def test_enumeration_uncached_outside_substitution_only(self):
        db = Database({"D": [(X, Y)]}, semantics="owa", extra_facts=1)
        result = db.evaluate("exists x (D(x, x))", mode="enumeration")
        assert result.stats["result_cache"] == "uncacheable"

    def test_adom_dependent_plan_uncacheable(self):
        db = Database({"D": [(1, 2)]}, semantics="cwa")
        result = db.evaluate("forall x . exists y . D(x, y)")
        assert result.stats["result_cache"] == "uncacheable"

    def test_replace_invalidates_everything(self):
        db = Database({"R": [(1, 2)]})
        q = db.query("R(x, y)", vars=("x", "y"))
        assert q.evaluate().answers == frozenset({(1, 2)})
        db.replace({"R": [(7, 8)]})
        result = q.evaluate()
        assert result.stats["result_cache"] == "miss"
        assert result.answers == frozenset({(7, 8)})

    def test_cache_disabled_by_size_zero(self):
        db = Database({"R": [(1, 2)]}, result_cache_size=0)
        q = db.query("R(x, y)", vars=("x", "y"))
        q.evaluate()
        assert q.evaluate().stats["result_cache"] == "uncacheable"
        assert db.cache_stats["entries"] == 0

    def test_lru_eviction_is_bounded(self):
        db = Database({"R": [(1, 2)]}, result_cache_size=2)
        for i in range(5):
            db.evaluate(f"exists x (R(x, {i}))")
        stats = db.cache_stats
        assert stats["entries"] <= 2
        assert stats["evictions"] >= 3

    def test_cache_stats_counters(self):
        db = Database({"R": [(1, 2)]})
        q = db.query("R(x, y)", vars=("x", "y"))
        q.evaluate()
        q.evaluate()
        q.evaluate()
        stats = db.cache_stats
        assert stats["hits"] == 2 and stats["misses"] == 1

    def test_batch_path_hits_cache_too(self):
        db = Database({"R": [(1, 2)], "T": [(1,)]})
        texts = ["exists x (R(x, y))", "R(x, y)"]
        first = db.evaluate_many(texts)
        db.insert("T", (2,))
        second = db.evaluate_many(texts)
        assert all(r.stats["result_cache"] == "miss" for r in first)
        assert all(r.stats["result_cache"] == "hit" for r in second)
        assert [r.answers for r in first] == [r.answers for r in second]

    def test_single_and_batch_paths_share_entries(self):
        db = Database({"R": [(1, 2)]})
        db.evaluate("R(x, y)", vars=("x", "y"))
        (batched,) = db.evaluate_many([db.query("R(x, y)", vars=("x", "y"))])
        assert batched.stats["result_cache"] == "hit"

    def test_plan_notes_cache_eligibility(self):
        db = Database({"R": [(1, 2)], "S": [(2, 4)]})
        eligible = db.explain(JOIN, vars=("x", "y"))
        assert any("result-cache eligible" in n for n in eligible.notes)
        adom_dep = db.explain("forall x . exists y . R(x, y)")
        assert not any("result-cache eligible" in n for n in adom_dep.notes)

    def test_hit_preserves_exactness_flags(self):
        db = Database({"R": [(1, X)]}, semantics="cwa")
        q = db.query("exists z (R(x, z))", vars=("x",))
        first = q.evaluate()
        second = q.evaluate()
        assert second.stats["result_cache"] == "hit"
        assert (second.exact, second.direction, second.method) == (
            first.exact, first.direction, first.method
        )
