"""Tests for conditional tables: conditions, worlds, strong representation."""

import pytest
from diffutil import arbitrary_case, fuzz_rng, fuzz_trials

from repro.ctables import (
    CFact,
    CInstance,
    FALSE_C,
    TRUE_C,
    cand,
    ceq,
    cneq,
    cor,
    difference,
    join,
    project,
    rename,
    select_eq,
    union,
)
from repro.data.instance import Instance
from repro.data.values import Null
from repro.logic.ast import Exists
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.session import Database

X, Y = Null("x"), Null("y")


class TestConditions:
    def test_constant_folding(self):
        assert ceq(1, 1) is TRUE_C
        assert ceq(1, 2) is FALSE_C
        assert cneq(1, 2) is TRUE_C
        assert cneq(1, 1) is FALSE_C

    def test_symbolic_equality(self):
        cond = ceq(X, 1)
        assert cond.satisfied({X: 1})
        assert not cond.satisfied({X: 2})
        assert cond.nulls() == {X}

    def test_connective_simplification(self):
        assert cand() is TRUE_C
        assert cor() is FALSE_C
        assert cand(TRUE_C, ceq(X, 1)) == ceq(X, 1)
        assert cand(FALSE_C, ceq(X, 1)) is FALSE_C
        assert cor(TRUE_C, ceq(X, 1)) is TRUE_C

    def test_nested_evaluation(self):
        cond = cand(ceq(X, 1), cor(ceq(Y, 2), cneq(Y, Y)))
        assert cond.satisfied({X: 1, Y: 2})
        assert not cond.satisfied({X: 1, Y: 3})

    def test_operators(self):
        cond = ceq(X, 1) & ceq(Y, 2)
        assert cond.satisfied({X: 1, Y: 2})
        assert (~ceq(X, 1)).satisfied({X: 5})
        assert (ceq(X, 1) | ceq(X, 2)).satisfied({X: 2})


class TestCInstance:
    def test_from_instance_all_true(self):
        naive = Instance({"R": [(1, X)]})
        ct = CInstance.from_instance(naive)
        assert all(f.condition is TRUE_C for f in ct.facts)
        assert ct.world({X: 5}) == Instance({"R": [(1, 5)]})

    def test_conditional_fact_absent_when_false(self):
        ct = CInstance((CFact("R", (1,), ceq(X, 1)),))
        assert ct.world({X: 1}) == Instance({"R": [(1,)]})
        assert ct.world({X: 2}) == Instance.empty()

    def test_global_condition_filters_valuations(self):
        ct = CInstance((CFact("R", (X,)),), global_condition=cneq(X, 1))
        assert ct.world({X: 1}) is None
        assert ct.world({X: 2}) == Instance({"R": [(2,)]})

    def test_worlds_enumeration(self):
        ct = CInstance((CFact("R", (X,)), CFact("S", (1,), ceq(X, 1))))
        worlds = set(ct.worlds([1, 2]))
        assert worlds == {
            Instance({"R": [(1,)], "S": [(1,)]}),
            Instance({"R": [(2,)]}),
        }

    def test_nulls_include_condition_nulls(self):
        ct = CInstance((CFact("R", (1,), ceq(Y, 2)),))
        assert ct.nulls() == {Y}

    def test_arity_check(self):
        with pytest.raises(ValueError):
            CInstance((CFact("R", (1,)), CFact("R", (1, 2))))

    def test_certain_answers_conditional(self):
        # R(1) is present iff x=1; R(2) unconditionally
        ct = CInstance((CFact("R", (1,), ceq(X, 1)), CFact("R", (2,)),))
        q = Query(parse("R(v)"), ("v",))
        assert ct.certain_answers(q) == frozenset({(2,)})

    def test_certain_answers_disjunctive_knowledge(self):
        # x is 1 or 2 (global condition): ∃v R(v) with R = {(x)} is certain
        ct = CInstance(
            (CFact("R", (X,)),),
            global_condition=cor(ceq(X, 1), ceq(X, 2)),
        )
        q = Query.boolean(parse("R(1) | R(2)"))
        assert ct.certain_answers(q) == frozenset({()})

    def test_unsatisfiable_global_raises(self):
        ct = CInstance((CFact("R", (1,)),), global_condition=FALSE_C)
        q = Query(parse("R(v)"), ("v",))
        with pytest.raises(ValueError):
            ct.certain_answers(q)


def rep(ct: CInstance, relation: str, pool) -> set:
    """The represented set of worlds, restricted to one relation."""
    return {world.restrict([relation]) for world in ct.worlds(pool)}


class TestStrongRepresentation:
    """rep(Q(T)) = {Q(E) : E ∈ rep(T)} for each operator, by enumeration."""

    POOL = [1, 2]

    def base(self) -> CInstance:
        return CInstance(
            (
                CFact("R", (1, X)),
                CFact("R", (X, 2), cneq(X, 2)),
                CFact("S", (X,)),
                CFact("S", (2,), ceq(X, 1)),
            )
        )

    def test_select(self):
        ct = self.base()
        out = select_eq(ct, "R", 0, 1, "Q")
        got = rep(out, "Q", self.POOL)
        want = set()
        for world in ct.worlds(self.POOL):
            kept = {row for row in world.tuples("R") if row[0] == 1}
            want.add(Instance({"Q": kept}) if kept else Instance.empty())
        assert got == want

    def test_project(self):
        ct = self.base()
        out = project(ct, "R", [1], "Q")
        got = rep(out, "Q", self.POOL)
        want = set()
        for world in ct.worlds(self.POOL):
            kept = {(row[1],) for row in world.tuples("R")}
            want.add(Instance({"Q": kept}) if kept else Instance.empty())
        assert got == want

    def test_join(self):
        ct = self.base()
        out = join(ct, "R", "S", [(1, 0)], "Q")
        got = rep(out, "Q", self.POOL)
        want = set()
        for world in ct.worlds(self.POOL):
            kept = {
                r + s
                for r in world.tuples("R")
                for s in world.tuples("S")
                if r[1] == s[0]
            }
            want.add(Instance({"Q": kept}) if kept else Instance.empty())
        assert got == want

    def test_union(self):
        ct = self.base()
        out = union(ct, "S", "S", "Q")
        got = rep(out, "Q", self.POOL)
        want = {
            Instance({"Q": world.tuples("S")}) if world.tuples("S") else Instance.empty()
            for world in ct.worlds(self.POOL)
        }
        assert got == want

    def test_rename(self):
        ct = self.base()
        out = rename(ct, "S", "Q")
        got = rep(out, "Q", self.POOL)
        want = {
            Instance({"Q": world.tuples("S")}) if world.tuples("S") else Instance.empty()
            for world in ct.worlds(self.POOL)
        }
        assert got == want

    def test_difference(self):
        # the construction that naive tables cannot express
        ct = CInstance(
            (
                CFact("A", (1,)),
                CFact("A", (2,)),
                CFact("B", (X,)),
            )
        )
        out = difference(ct, "A", "B", "Q")
        got = rep(out, "Q", self.POOL)
        want = set()
        for world in ct.worlds(self.POOL):
            kept = world.tuples("A") - world.tuples("B")
            want.add(Instance({"Q": kept}) if kept else Instance.empty())
        assert got == want

    def test_difference_certain_answers_not_in(self):
        """The NOT IN paradox done *right* via c-tables: certain answers
        to A − B with B = {⊥} are empty (the null may be any element),
        matching the brute-force oracle — unlike SQL's blanket ∅ which
        is accidental here but wrong in general."""
        ct = CInstance((CFact("A", (1,)), CFact("A", (2,)), CFact("B", (X,))))
        out = difference(ct, "A", "B", "Q")
        q = Query(parse("Q(v)"), ("v",))
        assert out.certain_answers(q) == frozenset()

    def test_difference_with_constrained_null(self):
        """With a global condition x ≠ 1, the difference has a certain
        answer — expressiveness naive tables lack."""
        ct = CInstance(
            (CFact("A", (1,)), CFact("A", (2,)), CFact("B", (X,))),
            global_condition=cneq(X, 1),
        )
        out = difference(ct, "A", "B", "Q")
        q = Query(parse("Q(v)"), ("v",))
        assert out.certain_answers(q) == frozenset({(1,)})


def test_lifted_certain_answers_match_the_oracle():
    """A naive instance lifted to a c-table (every condition ``⊤``) has
    the CWA certain answers the enumeration oracle computes."""
    rng = fuzz_rng("ctable-vs-enumeration")
    for _ in range(fuzz_trials(60)):
        phi, head, inst = arbitrary_case(rng)
        db = Database(inst, semantics="cwa")
        lifted = CInstance.from_instance(inst)
        # the query and its Boolean closure: most random heads are not empty
        for q in (Query(phi, head), Query.boolean(Exists(head, phi) if head else phi)):
            want = db.evaluate(q, mode="enumeration").answers
            assert lifted.certain_answers(q) == want, (q, inst)


class TestLiftedInstance:
    """``CInstance.from_instance`` on the paper's fixtures: the lifted
    c-table has the CWA worlds and certain answers of the naive table."""

    def test_boolean_agreement_with_enumeration(self, d0):
        q = Query.boolean(parse("exists x, y . D(x, y) & D(y, x)"))
        want = Database(d0, semantics="cwa").evaluate(q, mode="enumeration").answers
        assert CInstance.from_instance(d0).certain_answers(q) == want

    def test_kary_agreement_with_enumeration(self, intro_db, join_query):
        want = Database(intro_db, semantics="cwa").evaluate(join_query, mode="enumeration")
        assert CInstance.from_instance(intro_db).certain_answers(join_query) == want.answers

    def test_universal_query_agreement(self, d0, forall_exists_query):
        db = Database(d0, semantics="cwa")
        want = db.evaluate(forall_exists_query, mode="enumeration").answers
        assert CInstance.from_instance(d0).certain_answers(forall_exists_query) == want

    def test_respects_explicit_pool(self):
        from repro.core.certain import certain_answers

        d = Instance({"D": [(X, 1)]})
        q = Query(parse("D(x, y)"), ("x", "y"))
        got = CInstance.from_instance(d).certain_answers(q, pool=[1, 2])
        assert got == certain_answers(q, d, get_semantics("cwa"), pool=[1, 2])

    def test_worlds_are_the_cwa_worlds(self, d0):
        pool = [1, 2, 3]
        want = set(get_semantics("cwa").expand(d0, pool))
        assert set(CInstance.from_instance(d0).worlds(pool)) == want
