"""Tests for repro.core.plan: the extracted Figure-1 routing policy."""

import json

import pytest

from repro.core.certain import default_pool
from repro.core.plan import CostHints, Plan, make_plan
from repro.data.instance import Instance
from repro.data.values import Null
from repro.logic.parser import parse
from repro.logic.queries import Query

X, Y = Null("x"), Null("y")


class TestAutoRouting:
    def test_ucq_owa_routes_columnar(self, intro_db, join_query):
        plan = make_plan(join_query, intro_db, "owa")
        assert plan.backend == "columnar"
        assert plan.exact
        assert plan.instance_is_core is None  # never needed

    def test_forall_owa_routes_enumeration(self, d0, forall_exists_query):
        plan = make_plan(forall_exists_query, d0, "owa")
        assert plan.backend == "enumeration"
        assert not plan.exact and plan.direction == "superset"

    def test_forall_cwa_routes_columnar(self, d0, forall_exists_query):
        plan = make_plan(forall_exists_query, d0, "cwa")
        assert plan.backend == "columnar"
        assert plan.exact

    def test_minimal_off_core_routes_enumeration(self):
        d = Instance({"D": [(X, X), (X, Y)]})
        q = Query.boolean(parse("forall v, w . D(v, w) -> D(v, v)"))
        plan = make_plan(q, d, "mincwa")
        assert plan.backend == "enumeration"
        assert plan.instance_is_core is False
        assert any("not" in note and "core" in note for note in plan.notes)

    def test_minimal_on_core_routes_columnar(self):
        d = Instance({"D": [(X, X)]})
        q = Query.boolean(parse("exists v . D(v, v)"))
        plan = make_plan(q, d, "mincwa")
        assert plan.backend == "columnar"
        assert plan.instance_is_core is True
        assert plan.exact


class TestForcedModes:
    def test_forced_naive_notes_divergence(self, d0, forall_exists_query):
        plan = make_plan(forall_exists_query, d0, "owa", mode="columnar")
        assert plan.backend == "columnar"
        assert not plan.exact
        assert any("auto would choose 'enumeration'" in n for n in plan.notes)

    def test_forced_enumeration_cwa_is_exact(self, intro_db, join_query):
        plan = make_plan(join_query, intro_db, "cwa", mode="enumeration")
        assert plan.backend == "enumeration"
        assert plan.exact

    def test_forced_enumeration_never_pays_the_core_check(self):
        # regression: the divergence note must neither read an uncomputed
        # core flag nor trigger the (worst-case exponential) core check —
        # when the auto choice hinges on it, the note says so honestly
        d = Instance({"D": [(X, X)]})  # a core, but the plan may not know
        q = Query.boolean(parse("exists v . D(v, v)"))
        plan = make_plan(
            q, d, "mincwa", mode="enumeration",
            core_check=lambda: (_ for _ in ()).throw(AssertionError("core check ran")),
        )
        assert plan.instance_is_core is None
        assert any("depend on the core check" in n for n in plan.notes)

    def test_forced_mode_note_uses_known_core_flag(self):
        # when the core check already ran (e.g. forced naive), the note
        # reports the actual divergence
        d = Instance({"D": [(X, X), (X, Y)]})  # not a core
        q = Query.boolean(parse("exists v . D(v, v)"))
        plan = make_plan(q, d, "mincwa", mode="columnar")
        assert plan.instance_is_core is False
        assert any("auto would choose 'enumeration'" in n for n in plan.notes)

    def test_forced_ctable_under_cwa(self, d0):
        q = Query.boolean(parse("exists x . D(x, x)"))
        plan = make_plan(q, d0, "cwa", mode="ctable")
        assert plan.backend == "ctable" and plan.exact

    def test_forced_ctable_under_owa_raises(self, d0):
        q = Query.boolean(parse("exists x . D(x, x)"))
        with pytest.raises(ValueError, match="ctable"):
            make_plan(q, d0, "owa", mode="ctable")

    def test_unknown_mode_raises(self, d0):
        q = Query.boolean(parse("exists x . D(x, x)"))
        with pytest.raises(ValueError, match="unknown backend"):
            make_plan(q, d0, "cwa", mode="guess")


class TestInjectedCaches:
    def test_injected_pool_skips_default_pool(self, d0, forall_exists_query, monkeypatch):
        import importlib

        certain = importlib.import_module("repro.core.certain")

        def boom(*args, **kwargs):
            raise AssertionError("default_pool must not be called when pool is injected")

        monkeypatch.setattr(certain, "default_pool", boom)
        pool = [1, 2, 3]
        plan = make_plan(forall_exists_query, d0, "owa", pool=pool)
        assert plan.cost.pool_size == 3

    def test_injected_core_check_is_used(self):
        d = Instance({"D": [(X, X), (X, Y)]})  # NOT a core
        q = Query.boolean(parse("exists v . D(v, v)"))
        plan = make_plan(q, d, "mincwa", core_check=lambda: True)
        assert plan.backend == "columnar"  # believed the lie
        assert plan.instance_is_core is True

    def test_injected_verdict_is_used(self, intro_db, join_query):
        from repro.core.analyzer import analyze

        verdict = analyze(join_query, "owa")
        plan = make_plan(join_query, intro_db, "owa", verdict=verdict)
        assert plan.verdict is verdict


class TestPlanRendering:
    def test_render_mentions_backend_and_verdict(self, d0, forall_exists_query):
        owa = make_plan(forall_exists_query, d0, "owa").render()
        assert "enumeration" in owa and "not sound" in owa
        cwa = make_plan(forall_exists_query, d0, "cwa").render()
        assert "naive" in cwa and "SOUND" in cwa

    def test_to_dict_is_json_serialisable(self, d0, forall_exists_query):
        plan = make_plan(forall_exists_query, d0, "owa")
        data = json.loads(plan.to_json())
        assert data["backend"] == "enumeration"
        assert data["verdict"]["sound"] is False
        assert data["cost"]["pool_size"] == plan.cost.pool_size
        assert data["semantics"] == "owa"

    def test_cost_hints(self, d0, forall_exists_query):
        plan = make_plan(forall_exists_query, d0, "cwa")
        pool = default_pool(d0, forall_exists_query)
        assert plan.cost == CostHints(
            fact_count=d0.fact_count(),
            null_count=len(d0.nulls()),
            pool_size=len(pool),
            valuation_bound=len(pool) ** len(d0.nulls()),
        )

    def test_repr(self, intro_db, join_query):
        plan = make_plan(join_query, intro_db, "owa")
        assert "columnar" in repr(plan) and "exact" in repr(plan)
        assert isinstance(plan, Plan)

    def test_render_survives_unregistered_backend(self, intro_db, join_query):
        from dataclasses import replace

        plan = replace(make_plan(join_query, intro_db, "owa"), backend="gone")
        assert "no longer registered" in plan.render()

    def test_execute_plan_rejects_semantics_mismatch(self, intro_db, join_query):
        from repro.core.engine import execute_plan
        from repro.semantics import get_semantics

        plan = make_plan(join_query, intro_db, "cwa")
        with pytest.raises(ValueError, match="re-plan"):
            execute_plan(plan, join_query, intro_db, get_semantics("owa"))
