"""Integration tests replaying every worked example of the paper end-to-end.

Each test names the paper location it reproduces.  These are the
ground-truth anchors for the benchmark harness (README, "Testing" and
"Performance").
"""

from repro.core import analyze, certain_answers, certain_holds, naive_eval
from repro.data.generate import (
    cores_graph_example,
    cycle,
    d0_example,
    disjoint_union,
    intro_example,
    minimal_4ary_example,
    sql_paradox_example,
)
from repro.data.instance import Instance
from repro.data.values import Null
from repro.homs.core import core, is_core
from repro.homs.minimal import is_d_minimal, iter_minimal_valuations
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.session import Database

X, Y = Null("x"), Null("y")


class TestIntroduction:
    def test_integration_join_example(self):
        """Section 1: naive evaluation of π_AC(R ⋈ S) returns {(1,4), (⊥2,5)};
        dropping nulls yields the certain answer {(1,4)} under OWA."""
        db = intro_example()
        q = Query(parse("exists z (R(x, z) & S(z, y))"), ("x", "y"))
        raw = q.eval_raw(db)
        assert raw == frozenset({(1, 4), (Null("2"), 5)})
        assert naive_eval(q, db) == frozenset({(1, 4)})
        assert certain_answers(q, db, get_semantics("owa")) == frozenset({(1, 4)})

    def test_sql_not_in_paradox(self):
        """Section 1: SQL's 3-valued logic makes X − Y empty although
        |X| > |Y|, when Y contains a null.  We reproduce the shape: the
        certain answer to x ∈ X ∧ ¬(x ∈ Y) is empty under CWA because
        the null in Y might be any of X's values — matching SQL here —
        while SQL's uniform emptiness is the criticised oversimplification."""
        x_table, y_table = sql_paradox_example()
        db = x_table.union(y_table)
        q = Query(parse("X(v) & !Y(v)"), ("v",))
        certain = certain_answers(q, db, get_semantics("cwa"))
        # the null in Y can equal any single element, so only elements
        # that are in X and cannot be hit... every element can be hit:
        # but only ONE null exists, so it can block only one value —
        # certain answers are the X-values minus Y-constants minus the
        # possible null values... with one null, 2 of {2,3} always remain
        # but no single tuple is in EVERY answer? Check: valuation ⊥=2
        # gives answers {3}; ⊥=3 gives {2} → intersection empty.
        assert certain == frozenset()

    def test_fact_1_ucq_naive_works_owa_and_cwa(self):
        """Fact 1 (Imielinski–Lipski): naive evaluation works for UCQs."""
        db = intro_example()
        q = Query(parse("exists z (R(x, z) & S(z, y))"), ("x", "y"))
        for key in ("owa", "cwa"):
            assert naive_eval(q, db) == certain_answers(q, db, get_semantics(key))


class TestSection2Examples:
    def test_d0_semantics_shapes(self):
        """Section 2.3: [[D0]]_CWA = all {(c,c'),(c',c)}; OWA = supersets."""
        d0 = d0_example()
        cwa = get_semantics("cwa")
        assert cwa.contains(d0, Instance({"D": [(1, 2), (2, 1)]}))
        assert cwa.contains(d0, Instance({"D": [(5, 5)]}))
        assert not cwa.contains(d0, Instance({"D": [(1, 2)]}))
        owa = get_semantics("owa")
        assert owa.contains(d0, Instance({"D": [(1, 2), (2, 1), (7, 8)]}))

    def test_d0_exists_query_all_semantics(self):
        """Section 2.4: ∃x,y (D(x,y) ∧ D(y,x)) certain under OWA and CWA,
        and evaluates to true naively."""
        d0 = d0_example()
        q = Query.boolean(parse("exists x, y . D(x,y) & D(y,x)"))
        assert q.holds(d0)
        assert certain_holds(q, d0, get_semantics("owa"))
        assert certain_holds(q, d0, get_semantics("cwa"))

    def test_d0_forall_query_owa_vs_cwa(self):
        """Section 2.4: ∀x∃y D(x,y) naively true on D0; certain answer
        false under OWA but true under CWA."""
        d0 = d0_example()
        q = Query.boolean(parse("forall x . exists y . D(x, y)"))
        assert q.holds(d0)
        assert not certain_holds(q, d0, get_semantics("owa"))
        assert certain_holds(q, d0, get_semantics("cwa"))


class TestSection4Examples:
    def test_strong_onto_vs_onto_example(self):
        """Section 4.3: D = {(1,2)} → strong onto {(3,4)}, onto {(3,4),(4,3)}."""
        from repro.homs.properties import is_onto, is_strong_onto

        d = Instance({"D": [(1, 2)]})
        h = {1: 3, 2: 4}
        assert is_strong_onto(h, d, Instance({"D": [(3, 4)]}))
        assert is_onto(h, d, Instance({"D": [(3, 4), (4, 3)]}))
        assert not is_strong_onto(h, d, Instance({"D": [(3, 4), (4, 3)]}))

    def test_wcwa_sandwich(self):
        """Section 4.3: [[D]]_CWA ⊆ [[D]]_WCWA ⊆ [[D]]_OWA, strictly."""
        d = Instance({"D": [(X, Y)]})
        witness_wcwa = Instance({"D": [(1, 2), (2, 1)]})
        assert not get_semantics("cwa").contains(d, witness_wcwa)
        assert get_semantics("wcwa").contains(d, witness_wcwa)
        witness_owa = Instance({"D": [(1, 2), (3, 3)]})
        assert not get_semantics("wcwa").contains(d, witness_owa)
        assert get_semantics("owa").contains(d, witness_owa)


class TestSection5Guard:
    def test_repeated_guard_variable_counterexample(self):
        """Remark after Prop 5.1: ∀x (R(x,x) → S(x)) fails preservation:
        D ⊨ φ with R = {(1,2)}, S = ∅; h(1)=h(2)=3 gives D' = {R(3,3)},
        D' ⊭ φ."""
        q = parse("forall v . R(v, v) -> S(v)")
        d = Instance({"R": [(1, 2)]})
        d_prime = Instance({"R": [(3, 3)]})
        from repro.logic.eval import holds

        assert holds(q, d)
        assert not holds(q, d_prime)
        # and h is indeed a (plain) strong onto homomorphism
        from repro.homs.properties import is_strong_onto

        assert is_strong_onto({1: 3, 2: 3}, d, d_prime)


class TestSection10Minimality:
    def test_non_minimal_valuation_example(self):
        """Section 10 opening: v(⊥)=1, v(⊥')=2 on {(⊥,⊥),(⊥,⊥')} is not
        minimal; v'(⊥)=v'(⊥')=1 is."""
        d = Instance({"T": [(X, X), (X, Y)]})
        assert not is_d_minimal(d, {X: 1, Y: 2})
        assert is_d_minimal(d, {X: 1, Y: 1})

    def test_proposition_10_1_positive_parts(self):
        """Prop 10.1: minimal images are cores and equal h(core(D))."""
        d = Instance({"T": [(X, X), (X, Y)]})
        c = core(d)
        assert c == Instance({"T": [(X, X)]})
        for v in iter_minimal_valuations(d, [1, 2]):
            image = d.apply(v)
            assert is_core(image)
            assert image == c.apply(v)

    def test_proposition_10_1_4ary_counterexample(self):
        """Prop 10.1: D, h(D) cores yet h not D-minimal (4-ary relation)."""
        d, h = minimal_4ary_example()
        assert is_core(d)
        assert is_core(d.apply(h))
        assert not is_d_minimal(d, h, mode="database")

    def test_proposition_10_1_graph_counterexample(self):
        """Prop 10.1: G = C4+C6, H = C3+C2 both cores, h strong onto but
        not minimal (G is 2-colourable so G → C2)."""
        from repro.homs.properties import is_strong_onto
        from repro.homs.search import has_homomorphism

        g, h_graph, hom = cores_graph_example()
        assert is_core(g, fix_constants=False)
        assert is_core(h_graph, fix_constants=False)
        assert is_strong_onto(hom, g, h_graph)
        c2 = cycle(2, [Null("m0"), Null("m1")])
        assert has_homomorphism(g, c2, fix_constants=False)
        assert not is_d_minimal(g, hom, mode="mapping")

    def test_min_cwa_differs_from_core_cwa(self):
        """Prop 10.1's last point: C3^C + C2^C ∈ [[core(D)]]_CWA-style
        membership but ∉ [[D]]^min_CWA for D = C6 + C4 (all nulls)."""
        g, _, _ = cores_graph_example()
        assert core(g, fix_constants=True) == g  # already a core
        target = disjoint_union(cycle(3, ["a", "b", "c"]), cycle(2, ["d", "e"]))
        assert get_semantics("cwa").contains(g, target)
        assert not get_semantics("mincwa").contains(g, target)

    def test_corollary_10_11_remark(self):
        """After Cor 10.11: ∀x D(x,x) on {(⊥,⊥),(⊥,⊥')} — certain answer
        under [[·]]^min_CWA is true, naive evaluation says false, and the
        reason is Q(D) ≠ Q(core(D))."""
        d = Instance({"D": [(X, X), (X, Y)]})
        q = Query.boolean(parse("forall v . D(v, v)"))
        assert not q.holds(d)  # naive: false
        assert certain_holds(q, d, get_semantics("mincwa"))  # certain: true
        assert q.holds(core(d))  # core disagreement explains it

    def test_proposition_10_13_approximation(self):
        """Prop 10.13: for Pos+∀G queries, naive true ⇒ certain true under
        the minimal semantics, even off-core."""
        d = Instance({"D": [(X, X), (X, Y)]})  # not a core
        q = Query.boolean(parse("forall v, w . D(v, w) -> exists u . D(v, u)"))
        assert q.holds(d)
        assert certain_holds(q, d, get_semantics("mincwa"))


class TestEngineOnPaperExamples:
    def test_engine_routes_and_agrees_everywhere(self):
        db = intro_example()
        q = Query(parse("exists z (R(x, z) & S(z, y))"), ("x", "y"))
        for key in ("owa", "cwa", "wcwa", "pcwa"):
            result = Database(db, semantics=key).evaluate(q)
            assert result.method == "columnar"
            assert result.answers == frozenset({(1, 4)}), key

    def test_verdicts_match_figure_1_on_examples(self):
        q_pos = Query.boolean(parse("forall x . exists y . D(x, y)"))
        assert not analyze(q_pos, "owa").sound
        assert analyze(q_pos, "wcwa").sound
        assert analyze(q_pos, "cwa").sound
