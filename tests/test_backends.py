"""Tests for repro.core.backends: the strategy registry and the built-in backends."""

import pytest

from repro.core import analyze, certain_answers, drop_null_tuples, naive_eval
from repro.core.backends import (
    NAIVE_AUTO_BACKEND,
    Backend,
    ColumnarBackend,
    CTableBackend,
    EnumerationBackend,
    NaiveBackend,
    NaiveInterpBackend,
    available_backends,
    get_backend,
    naive_is_certain,
    register_backend,
    unregister_backend,
)
from repro.core.plan import make_plan
from repro.data.instance import Instance
from repro.data.values import Null
from repro.logic.compile import compiled_query
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.server import QueryService
from repro.session import Database

X, Y = Null("x"), Null("y")


class TestRegistry:
    def test_builtins_registered(self):
        assert {"columnar", "naive-interp", "enumeration", "ctable"} <= set(available_backends())

    def test_get_backend_by_name(self):
        assert isinstance(get_backend("columnar"), NaiveBackend)
        assert isinstance(get_backend("naive-interp"), NaiveInterpBackend)
        assert isinstance(get_backend("enumeration"), EnumerationBackend)
        assert isinstance(get_backend("ctable"), CTableBackend)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("quantum")

    @pytest.mark.parametrize("mode", ["compiled", "naive"])
    def test_removed_naive_aliases_are_unknown(self, mode):
        """One serving naive engine: the old ``compiled``/``naive`` names
        are unknown backends through the session and the wire service."""
        want = (
            f"unknown backend {mode!r}; "
            "available: columnar, ctable, enumeration, naive-interp"
        )
        db = Database({"R": [(1, X)]})
        with pytest.raises(ValueError) as err:
            db.evaluate("R(x, y)", mode=mode)
        assert str(err.value) == want
        response = QueryService(db).handle({"op": "query", "query": "R(x, y)", "mode": mode})
        assert response["ok"] is False and response["error"] == want

    def test_register_and_unregister_custom_backend(self):
        class EmptyBackend(Backend):
            name = "always-empty"
            summary = "returns no answers"

            def exactness(self, semantics, verdict, instance_is_core, extra_facts):
                return False, "subset"

            def execute(self, query, instance, semantics, *, pool=None,
                        extra_facts=None, limit=500_000):
                return frozenset()

        try:
            register_backend(EmptyBackend())
            assert "always-empty" in available_backends()
            assert get_backend("always-empty").execute(None, None, None) == frozenset()
        finally:
            unregister_backend("always-empty")
        assert "always-empty" not in available_backends()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(ColumnarBackend())

    def test_duplicate_registration_with_replace(self):
        register_backend(ColumnarBackend(), replace=True)
        assert isinstance(get_backend("columnar"), ColumnarBackend)

    def test_unnamed_backend_rejected(self):
        class Anonymous(Backend):
            def exactness(self, semantics, verdict, instance_is_core, extra_facts):
                return True, ""

            def execute(self, query, instance, semantics, *, pool=None,
                        extra_facts=None, limit=500_000):
                return frozenset()

        with pytest.raises(ValueError, match="non-empty name"):
            register_backend(Anonymous())


class TestNaiveBackend:
    def test_matches_naive_eval(self, intro_db, join_query):
        got = get_backend("naive-interp").execute(join_query, intro_db, get_semantics("owa"))
        assert got == naive_eval(join_query, intro_db)

    def test_core_check_needed_only_for_minimal(self):
        q = Query.boolean(parse("exists v . D(v, v)"))
        backend = get_backend("columnar")
        assert backend.needs_core_check(analyze(q, "mincwa"))
        assert not backend.needs_core_check(analyze(q, "cwa"))

    def test_exactness_accounting(self):
        backend = get_backend("columnar")
        sound = analyze(Query.boolean(parse("exists v . D(v, v)")), "cwa")
        assert backend.exactness(get_semantics("cwa"), sound, None, None) == (True, "")
        unsound = analyze(Query.boolean(parse("forall x . exists y . D(x, y)")), "owa")
        exact, direction = backend.exactness(get_semantics("owa"), unsound, None, None)
        assert not exact and direction == "unknown"

    def test_exactness_off_core_is_subset(self):
        backend = get_backend("columnar")
        verdict = analyze(Query.boolean(parse("exists v . D(v, v)")), "mincwa")
        assert backend.exactness(get_semantics("mincwa"), verdict, False, None) == (
            False,
            "subset",
        )
        assert backend.exactness(get_semantics("mincwa"), verdict, True, None) == (
            True,
            "",
        )


class TestEnumerationBackend:
    def test_matches_certain_answers(self, d0):
        q = Query.boolean(parse("forall x . exists y . D(x, y)"))
        sem = get_semantics("cwa")
        got = get_backend("enumeration").execute(q, d0, sem)
        assert got == certain_answers(q, d0, sem)

    def test_owa_flagged_superset(self):
        backend = get_backend("enumeration")
        verdict = analyze(Query.boolean(parse("exists v . D(v, v)")), "owa")
        assert backend.exactness(get_semantics("owa"), verdict, None, 2) == (
            False,
            "superset",
        )
        assert backend.exactness(get_semantics("cwa"), verdict, None, None) == (True, "")


class TestCTableBackend:
    def test_refuses_non_cwa(self):
        backend = get_backend("ctable")
        for key in ("owa", "wcwa", "pcwa", "mincwa", "minpcwa"):
            with pytest.raises(ValueError, match="ctable"):
                backend.validate(get_semantics(key))
        backend.validate(get_semantics("cwa"))  # no raise

    def test_boolean_agreement_with_enumeration(self, d0):
        q = Query.boolean(parse("exists x, y . D(x, y) & D(y, x)"))
        sem = get_semantics("cwa")
        assert get_backend("ctable").execute(q, d0, sem) == get_backend(
            "enumeration"
        ).execute(q, d0, sem)

    def test_kary_agreement_with_enumeration(self, intro_db, join_query):
        sem = get_semantics("cwa")
        assert get_backend("ctable").execute(join_query, intro_db, sem) == get_backend(
            "enumeration"
        ).execute(join_query, intro_db, sem)

    def test_universal_query_agreement(self, d0, forall_exists_query):
        sem = get_semantics("cwa")
        assert get_backend("ctable").execute(forall_exists_query, d0, sem) == get_backend(
            "enumeration"
        ).execute(forall_exists_query, d0, sem)

    def test_always_exact_under_cwa(self):
        backend = get_backend("ctable")
        verdict = analyze(Query.boolean(parse("forall x . exists y . D(x, y)")), "cwa")
        assert backend.exactness(get_semantics("cwa"), verdict, None, None) == (True, "")

    def test_respects_explicit_pool(self):
        d = Instance({"D": [(X, 1)]})
        q = Query(parse("D(x, y)"), ("x", "y"))
        sem = get_semantics("cwa")
        got = get_backend("ctable").execute(q, d, sem, pool=[1, 2])
        assert got == certain_answers(q, d, sem, pool=[1, 2])

    def test_limit_guards_world_explosion(self):
        # regression: the limit knob must bound ctable world enumeration
        # instead of being silently ignored
        from repro.semantics.base import ExpansionLimitError

        d = Instance({"D": [(X, Y), (Y, X)]})
        q = Query.boolean(parse("exists v . D(v, v)"))
        sem = get_semantics("cwa")
        with pytest.raises(ExpansionLimitError, match="ctable"):
            get_backend("ctable").execute(q, d, sem, limit=3)
        # a generous limit still evaluates
        assert get_backend("ctable").execute(q, d, sem, limit=10**6) == frozenset()


class TestColumnarBackend:
    def test_registered_and_typed(self):
        backend = get_backend("columnar")
        assert isinstance(backend, ColumnarBackend)
        assert isinstance(backend, NaiveBackend)  # same exactness contract
        assert NAIVE_AUTO_BACKEND == "columnar"

    def test_matches_naive_eval(self, intro_db, join_query):
        got = get_backend("columnar").execute(join_query, intro_db, get_semantics("owa"))
        assert got == naive_eval(join_query, intro_db)
        assert got == get_backend("naive-interp").execute(
            join_query, intro_db, get_semantics("owa")
        )

    def test_exactness_identical_to_naive(self):
        columnar, naive = get_backend("columnar"), get_backend("naive-interp")
        for sem_key, text in [
            ("cwa", "exists v . D(v, v)"),
            ("owa", "forall x . exists y . D(x, y)"),
            ("mincwa", "exists v . D(v, v)"),
        ]:
            verdict = analyze(Query.boolean(parse(text)), sem_key)
            sem = get_semantics(sem_key)
            for core_flag in (True, False, None):
                assert columnar.exactness(sem, verdict, core_flag, None) == naive.exactness(
                    sem, verdict, core_flag, None
                ), (sem_key, text, core_flag)


class TestAutoRoutingEligibility:
    """The eligibility matrix: ``auto`` routes to columnar EXACTLY where
    the compiled engine routed before — i.e. exactly where Figure 1 plus
    the core check prove naive evaluation computes certain answers."""

    # (semantics, query text) — covers sound rows, unsound rows, and the
    # core-conditional minimal-semantics row of Figure 1
    MATRIX = [
        ("owa", "exists x, y . D(x, y) & D(y, x)"),          # UCQ/OWA: sound
        ("owa", "forall x . exists y . D(x, y)"),            # ∀ under OWA: unsound
        ("cwa", "forall x . exists y . D(x, y)"),            # Pos+∀G/CWA: sound
        ("cwa", "!(exists v . D(v, v))"),                    # negation: unsound
        ("wcwa", "exists x, y . D(x, y) & D(y, x)"),
        ("pcwa", "forall x . exists y . D(x, y)"),
        ("mincwa", "exists v . D(v, v)"),                    # sound on cores only
        ("minpcwa", "exists v . D(v, v)"),
    ]

    @pytest.mark.parametrize("sem_key,text", MATRIX)
    def test_auto_routes_columnar_iff_naive_certain(self, sem_key, text, d0):
        q = Query.boolean(parse(text))
        verdict = analyze(q, sem_key)
        plan = make_plan(q, d0, sem_key, "auto")
        core_flag = plan.instance_is_core if verdict.over_cores_only else True
        expected = "columnar" if naive_is_certain(verdict, core_flag) else "enumeration"
        assert plan.backend == expected, (sem_key, text)
        if expected == "columnar":
            assert plan.exact  # the fast path is only taken when provably exact

    @pytest.mark.parametrize("sem_key,text", MATRIX)
    def test_forced_compiled_and_interp_stay_available(self, sem_key, text, d0):
        """columnar (the compiled operator DAG over encoded columns) and
        naive-interp stay forceable on every matrix row, and agree with
        the compiled DAG's row executor."""
        q = Query.boolean(parse(text))
        columnar = make_plan(q, d0, sem_key, "columnar")
        interp = make_plan(q, d0, sem_key, "naive-interp")
        assert (columnar.backend, interp.backend) == ("columnar", "naive-interp")
        sem = get_semantics(sem_key)
        answers = {
            get_backend(name).execute(q, d0, sem) for name in ("columnar", "naive-interp")
        }
        answers.add(drop_null_tuples(compiled_query(q).answers(d0)))
        assert len(answers) == 1  # the three naive executors agree pointwise

    def test_explain_notes_name_kernels_on_auto_route(self, d0):
        q = Query.boolean(parse("forall x . exists y . D(x, y)"))
        plan = make_plan(q, d0, "cwa", "auto")
        assert plan.backend == "columnar"
        note = "\n".join(plan.notes)
        assert "columnar executor" in note and "explain --operators" in note
