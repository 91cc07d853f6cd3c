"""Differential tests: compiled set-at-a-time plans ≡ the interpreter.

A plan compiled by :mod:`repro.logic.compile` and run by the one plan
executor (:mod:`repro.logic.columnar`) must be *bit-for-bit* equivalent
to the tree-walking evaluator (:mod:`repro.logic.eval`) on every
formula — the safe join-shaped fragment and the unsafe subtrees that
fall back to active-domain complements alike.  These tests assert that
over random instances and queries from the project's own generators,
then pin the specific behaviours (layered contexts, the oracle's
worlds, orbit enumeration, datalog rounds) the certain-answer oracle
and the datalog engine build on.
"""

import random

import pytest
from diffutil import (
    ARBITRARY_VARS,
    SCHEMA,
    assert_equivalent,
    fuzz_rng,
    fuzz_trials,
    interp_answers,
    interp_certain_reference,
    naive_answers,
    random_formula,
)

from repro.core.backends import available_backends, get_backend
from repro.core.certain import (
    WorldSpec,
    _canonical_valuations,
    certain_answers,
    default_pool,
    query_schema,
)
from repro.core.naive import naive_eval
from repro.data.dictionary import ColumnarContext, EncodedRelation, columnar_context
from repro.data.generate import random_instance
from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.data.values import Null
from repro.logic.ast import (
    And,
    EqAtom,
    Exists,
    FalseF,
    Forall,
    Implies,
    Not,
    Or,
    RelAtom,
    TrueF,
    Var,
)
from repro.logic.columnar import (
    CompiledQuery,
    as_columnar_context,
    compile_formula,
    compiled_query,
)
from repro.logic.eval import answers
from repro.logic.generate import random_kary_query, random_sentence
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.logic.transform import free_vars
from repro.semantics import get_semantics

# SCHEMA, the fuzz knobs (REPRO_FUZZ / REPRO_FUZZ_SEED) and the random
# generators live in tests/diffutil.py, shared with test_columnar.py and
# the nightly fuzz matrix — one generator drives every engine pairing.
X, Y = Null("x"), Null("y")
x, y, z = Var("x"), Var("y"), Var("z")


# ----------------------------------------------------------------------
# differential property tests over the project's generators
# ----------------------------------------------------------------------

class TestDifferentialRandom:
    @pytest.mark.parametrize(
        "fragment", ["EPos", "Pos", "PosForallG", "EPosForallGBool"]
    )
    def test_fragment_sentences(self, fragment):
        rng = fuzz_rng(fragment)
        for _ in range(fuzz_trials(25)):
            inst = random_instance(
                SCHEMA, rng, n_facts=rng.randint(0, 5), constants=(1, 2, 3), n_nulls=2
            )
            phi = random_sentence(SCHEMA, rng, fragment, max_depth=3)
            assert_equivalent(phi, inst)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_fragment_kary_queries(self, arity):
        rng = fuzz_rng(7000 + arity)
        for _ in range(fuzz_trials(25)):
            inst = random_instance(
                SCHEMA, rng, n_facts=rng.randint(0, 5), constants=(1, 2), n_nulls=2
            )
            q = random_kary_query(SCHEMA, rng, "EPos", arity=arity, max_depth=2)
            assert_equivalent(q.formula, inst, q.answer_vars)

    def test_arbitrary_formulas_with_negation(self):
        """Unrestricted ASTs: negation, →, =, constants — the unsafe zone."""
        from diffutil import ARBITRARY_RELS

        rng = fuzz_rng(20130623)
        schema = Schema(ARBITRARY_RELS)
        for _ in range(fuzz_trials(150)):
            inst = random_instance(
                schema, rng, n_facts=rng.randint(0, 6), constants=(1, 2, "a"), n_nulls=2
            )
            phi = random_formula(rng, rng.choice([1, 2, 3]), rng.sample(ARBITRARY_VARS, 2))
            head = tuple(sorted(free_vars(phi), key=lambda v: v.name))
            assert_equivalent(phi, inst, head)


class TestUnsafeFallbacks:
    """The documented active-domain fallbacks, pinned explicitly."""

    DB = Instance({"R": [(1, 2), (2, 3), (3, X)], "S": [(2,), (4,)]})

    def test_bare_negated_atom(self):
        phi = Not(RelAtom("R", (x, y)))
        assert_equivalent(phi, self.DB, (x, y))

    def test_disjunct_not_binding_a_variable(self):
        # y is unsafe in the S-disjunct: it ranges over the active domain
        phi = Or((RelAtom("R", (x, y)), RelAtom("S", (x,))))
        assert_equivalent(phi, self.DB, (x, y))

    def test_diagonal_and_singleton_equalities(self):
        assert_equivalent(EqAtom(x, y), self.DB, (x, y))
        assert_equivalent(EqAtom(x, x), self.DB, (x,))
        assert_equivalent(EqAtom(x, 2), self.DB, (x,))
        assert_equivalent(EqAtom(x, 99), self.DB, (x,))  # inactive constant → ∅
        assert_equivalent(EqAtom(1, 1), self.DB)
        assert_equivalent(EqAtom(1, 2), self.DB)

    def test_negated_conjunct_becomes_anti_join(self):
        phi = And((RelAtom("R", (x, y)), Not(RelAtom("S", (y,)))))
        cq = CompiledQuery(phi, (x, y))
        assert "anti-join" in cq.describe()
        assert_equivalent(phi, self.DB, (x, y))

    def test_guarded_forall_is_join_shaped(self):
        phi = Forall((x, y), Implies(RelAtom("R", (x, y)), RelAtom("S", (y,))))
        assert_equivalent(phi, self.DB)
        assert_equivalent(phi, Instance.empty())

    def test_quantified_variable_absent_from_body(self):
        # ∃v ⊤ is false on the empty active domain, true otherwise
        phi = Exists((z,), TrueF())
        assert_equivalent(phi, self.DB)
        assert_equivalent(phi, Instance.empty())
        assert_equivalent(Forall((z,), FalseF()), Instance.empty())

    def test_empty_instance_everywhere(self):
        for phi, head in [
            (RelAtom("R", (x, y)), (x, y)),
            (Not(RelAtom("R", (x, y))), (x, y)),
            (Exists((y,), RelAtom("R", (x, y))), (x,)),
            (Forall((x,), Exists((y,), RelAtom("R", (x, y)))), ()),
        ]:
            assert_equivalent(phi, Instance.empty(), head)

    def test_repeated_variables_and_constants_in_atoms(self):
        db = Instance({"T": [(1, 1, 2), (1, 2, 2), (3, 3, 3), (X, X, 1)]})
        assert_equivalent(RelAtom("T", (x, x, y)), db, (x, y))
        assert_equivalent(RelAtom("T", (x, x, x)), db, (x,))
        assert_equivalent(RelAtom("T", (1, x, 2)), db, (x,))
        assert_equivalent(RelAtom("T", (1, 1, 2)), db)


# ----------------------------------------------------------------------
# the compiled pipeline inside the engine
# ----------------------------------------------------------------------

class TestBackendsAgree:
    def test_registry_has_both_engines(self):
        assert {"columnar", "naive-interp"} <= set(available_backends())
        # the naive aliases of the removed row executor stay unknown
        assert not {"compiled", "naive"} & set(available_backends())

    def test_naive_eval_engines_agree_randomly(self):
        rng = fuzz_rng(31337)
        for _ in range(fuzz_trials(20)):
            inst = random_instance(
                SCHEMA, rng, n_facts=rng.randint(1, 6), constants=(1, 2, 3), n_nulls=2
            )
            q = random_kary_query(SCHEMA, rng, "EPos", arity=1, max_depth=2)
            columnar = naive_answers("columnar", q, inst)
            assert columnar == naive_answers("interp", q, inst)
            assert columnar == naive_eval(q, inst)

    def test_unknown_engine_rejected(self):
        q = Query(parse("R(a, b)"), ("a", "b"))
        with pytest.raises(TypeError, match="engine"):
            naive_eval(q, Instance.empty(), engine="vectorised")  # no engine switch
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("vectorised")

    @pytest.mark.parametrize("key", ["owa", "cwa", "wcwa", "pcwa", "mincwa", "minpcwa"])
    def test_certain_answers_differential_per_semantics(self, key):
        """The oracle ≡ the interpreted world-by-world intersection, for
        every semantics."""
        sem = get_semantics(key)
        extra = {"owa": 1, "wcwa": 1}.get(key)
        rng = fuzz_rng(key)
        for _ in range(fuzz_trials(6)):
            inst = random_instance(
                SCHEMA, rng, n_facts=rng.randint(1, 3), constants=(1, 2), n_nulls=2
            )
            q = Query.boolean(random_sentence(SCHEMA, rng, "PosForallG", max_depth=2))
            got = certain_answers(q, inst, sem, extra_facts=extra)
            want = interp_certain_reference(q, inst, sem, extra_facts=extra)
            assert got == want, (key, q.formula, inst)

    def test_cwa_explicit_pool_matches_default_pool_route(self):
        d = Instance({"R": [(1, X), (X, Y)], "S": [(2,)]})
        q = Query(parse("exists z (R(a, z) & R(z, b))"), ("a", "b"))
        sem = get_semantics("cwa")
        assert certain_answers(q, d, sem) == certain_answers(
            q, d, sem, pool=default_pool(d, q)
        )

    def test_session_pool_still_gets_orbit_skipping(self):
        """The session layer hands the oracle a materialised pool; the
        interchangeable tail must be rediscovered from it, not lost."""
        from repro.session import Database

        d = Instance({"R": [(X, Y), (Y, Null("z"))]})
        db = Database(d, semantics="cwa")
        direct = certain_answers(
            Query(parse("R(a, b)"), ("a", "b")), d, get_semantics("cwa")
        )
        via_session = db.evaluate("R(a, b)", vars=("a", "b"), mode="enumeration")
        assert via_session.answers == direct == frozenset()

    def test_singleton_pool_fresh_value_can_be_certain(self):
        # pool of one anonymous value: every world must use it, so it is
        # NOT an interchangeable tail — pruning it would be unsound
        d = Instance({"R": [(X,)]})
        q = Query(parse("R(a)"), ("a",))
        got = certain_answers(q, d, get_semantics("cwa"), pool=[5])
        assert got == frozenset({(5,)})


# ----------------------------------------------------------------------
# execution contexts: instance contexts, layers and the oracle's worlds
# ----------------------------------------------------------------------

class TestColumnarLayer:
    def test_context_cached_on_instance(self):
        d = Instance({"R": [(1, 2)]})
        assert columnar_context(d) is columnar_context(d)
        assert as_columnar_context(d) is columnar_context(d)

    def test_as_columnar_context_rejects_junk(self):
        with pytest.raises(TypeError):
            as_columnar_context({"R": [(1, 2)]})

    def test_layer_serves_own_relations_and_delegates_the_rest(self):
        parent = columnar_context(Instance({"R": [(1, 2)], "S": [(3,)]}))
        code = parent.dictionary.encode
        own = EncodedRelation.from_codes(2, frozenset({(code(7), code(8))}))
        layer = ColumnarContext.layer(parent, {"R": own}, frozenset({code(7), code(8)}))
        assert layer.dictionary is parent.dictionary
        assert layer.encoded("R") is own
        assert layer.encoded("S") is parent.encoded("S")
        assert layer.encoded("T") is None
        assert parent.encoded("R") is not own

    def test_layer_reports_the_given_domain(self):
        parent = columnar_context(Instance({"R": [(1, 2)], "S": [(3,)]}))
        code = parent.dictionary.encode
        layer = ColumnarContext.layer(parent, {}, frozenset({code(9)}))
        assert layer.adom_codes() == frozenset({code(9)})
        adom = CompiledQuery(EqAtom(x, x), (x,))
        assert adom.answers(layer) == frozenset({(9,)})

    def test_plan_runs_on_a_layer(self):
        cq = compile_formula(
            Exists((z,), And((RelAtom("R", (x, z)), RelAtom("S", (z, y))))), (x, y)
        )
        parent = columnar_context(Instance({"R": [(5, 6)], "S": [(2, 4)]}))
        code = parent.dictionary.encode
        world = ColumnarContext.layer(
            parent,
            {"R": EncodedRelation.from_codes(2, frozenset({(code(1), code(2))}))},
            frozenset(map(code, (1, 2, 4))),
        )
        assert cq.answers(world) == frozenset({(1, 4)})
        assert cq.answers(parent) == frozenset()


class TestInstanceIndex:
    def test_index_built_lazily_and_memoised(self):
        d = Instance({"R": [(1, 2), (1, 3), (2, 3)]})
        assert d._indexes is None
        idx = d.index("R", (0,))
        assert sorted(idx[(1,)]) == [(1, 2), (1, 3)]
        assert d.index("R", (0,)) is idx
        assert d.index("T", (0,)) == {}
        assert set(d._indexes) == {("R", (0,)), ("T", (0,))}


@pytest.fixture
def oracle_worlds(monkeypatch):
    """Every ``(spec, valuation, world)`` the oracle evaluates."""
    seen = []
    real = WorldSpec.worlds

    def spy(self, valuations, dedup):
        for vals, world in real(self, valuations, dedup):
            seen.append((self, vals, world))
            yield vals, world

    monkeypatch.setattr(WorldSpec, "worlds", spy)
    return seen


def _materialise(instance: Instance, spec: WorldSpec, vals) -> Instance:
    """``v(D)`` for the valuation ``vals`` (codes) of the spec's null slots."""
    decode = spec.parent.dictionary.decode
    v = {decode(code): decode(value) for code, value in zip(spec.slot_codes, vals)}
    return Instance(
        {
            name: [tuple(v.get(cell, cell) for cell in row) for row in instance.tuples(name)]
            for name in instance.relations
        }
    )


class TestOracleWorlds:
    CWA = get_semantics("cwa")

    def test_static_relation_is_the_instances_own_in_every_world(self, oracle_worlds):
        d = Instance({"R": [(1, X), (2, 3), (4, 5)], "S": [(5,)]})
        q = Query(parse("exists y (R(x, y) & !S(y))"), ("x",))
        static = columnar_context(d).encoded("S")
        for _ in range(2):  # two reads of one instance
            assert certain_answers(q, d, self.CWA) == frozenset({(2,)})
        assert oracle_worlds
        for _, _, world in oracle_worlds:
            assert world.encoded("S") is static
            assert world.encoded("R") is not columnar_context(d).encoded("R")

    def test_every_world_answers_like_the_interpreter(self, oracle_worlds):
        """Seeded differential: each world the oracle runs, on its
        encoded layer, ≡ the interpreter on the materialised v(D).  The
        instances store ``S`` at arity 2 against the formulas' ``S/1``
        and never hold the formulas' ``T``."""
        stored = Schema({"R": 2, "S": 2})
        rng = fuzz_rng("oracle-worlds")
        reads = {"S": 0, "T": 0}
        for _ in range(fuzz_trials(40)):
            inst = random_instance(
                stored, rng, n_facts=rng.randint(1, 5), constants=(1, 2, "a"), n_nulls=2
            )
            phi = random_formula(rng, rng.choice([1, 2, 3]), rng.sample(ARBITRARY_VARS, 2))
            head = tuple(sorted(free_vars(phi), key=lambda v: v.name))
            q = Query(phi, head)
            for name in reads:
                reads[name] += name in compiled_query(q).relations and (
                    name == "T" or bool(inst.tuples(name))
                )
            # the default pool brackets; a one-value fresh tail enumerates
            for pool in (None, default_pool(inst, q, n_fresh=1)):
                oracle_worlds.clear()
                certain_answers(q, inst, self.CWA, pool=pool)
                for spec, vals, world in oracle_worlds:
                    want = interp_answers(phi, _materialise(inst, spec, vals), head)
                    assert spec.plan.answers(world) == want, (phi, inst, vals)
        assert reads["S"] and reads["T"], reads


class TestCompiledQueryApi:
    def test_memoised_per_query_value(self):
        q1 = Query(parse("exists z (R(a, z) & S(z, b))"), ("a", "b"))
        q2 = Query(parse("exists z (R(a, z) & S(z, b))"), ("a", "b"))
        assert compiled_query(q1) is compiled_query(q2)

    def test_answer_vars_must_cover_free_vars(self):
        with pytest.raises(ValueError, match="answer variables"):
            CompiledQuery(RelAtom("R", (x, y)), (x,))

    def test_extra_answer_vars_range_over_adom(self):
        db = Instance({"R": [(1, 2)], "S": [(3,)]})
        cq = CompiledQuery(RelAtom("S", (x,)), (x, y))
        assert cq.answers(db) == answers(RelAtom("S", (x,)), db, (x, y))

    def test_describe_names_the_join_strategy(self):
        q = Query(parse("exists z (R(a, z) & S(z, b))"), ("a", "b"))
        text = compiled_query(q).describe()
        assert "join" in text and "scan R/2" in text


# ----------------------------------------------------------------------
# incremental world enumeration
# ----------------------------------------------------------------------

class TestOrbitEnumeration:
    def test_canonical_count_restricted_growth(self):
        # 2 nulls, no base constants, tail of 3: orbits are the set
        # partitions of 2 slots = 2 (Bell number), not 3² = 9 valuations
        got = list(_canonical_valuations(2, [], ("f1", "f2", "f3")))
        assert got == [("f1", "f1"), ("f1", "f2")]

    def test_canonical_with_base_constants(self):
        got = set(_canonical_valuations(1, [1, 2], ("f1", "f2")))
        assert got == {(1,), (2,), ("f1",)}

    def test_empty_tail_is_full_product(self):
        got = list(_canonical_valuations(2, [1, 2], ()))
        assert len(got) == 4

    def test_no_nulls_yields_one_world(self):
        assert list(_canonical_valuations(0, [1], ("f1",))) == [()]

    def test_fresh_constants_never_certain(self):
        # all-null instance: every world is isomorphic, nothing survives
        d = Instance({"R": [(X, Y)]})
        q = Query(parse("R(a, b)"), ("a", "b"))
        assert certain_answers(q, d, get_semantics("cwa")) == frozenset()

    def test_cwa_oracle_orbit_skipping_visits_fewer_worlds(self):
        # 3 nulls over an all-null instance: full CWA enumeration visits
        # |pool|³ valuations, the canonical enumerator only the orbits
        d = Instance({"R": [(X, Y), (Y, Null("z"))]})
        pool = default_pool(d)  # 4 fresh constants, no base
        full = len(pool) ** 3
        canonical = len(list(_canonical_valuations(3, [], tuple(pool))))
        assert canonical < full  # 5 set partitions of 3 slots vs 64

    def test_cwa_oracle_matches_expand_on_corpus(self):
        # head-to-head against [[D]]_CWA via semantics.expand + eval_raw
        sem = get_semantics("cwa")
        rng = random.Random(4242)
        for _ in range(10):
            inst = random_instance(
                SCHEMA, rng, n_facts=rng.randint(1, 4), constants=(1, 2), n_nulls=3
            )
            q = random_kary_query(SCHEMA, rng, "PosForallG", arity=1, max_depth=1)
            pool = default_pool(inst, q)
            worlds = list(sem.expand(inst, pool, schema=inst.schema().union(query_schema(q))))
            want = frozenset.intersection(
                *(interp_answers(q.formula, w, q.answer_vars) for w in worlds)
            )
            assert certain_answers(q, inst, sem) == want


# ----------------------------------------------------------------------
# datalog body matching through the join compiler
# ----------------------------------------------------------------------

class TestDatalogJoinCompiler:
    def _program(self):
        from repro.datalog.program import Atom, Program, Rule

        return Program(
            (
                Rule(Atom("T", (x, y)), (Atom("E", (x, y)),)),
                Rule(Atom("T", (x, z)), (Atom("T", (x, y)), Atom("E", (y, z)))),
                Rule(Atom("Loop", (x, x)), (Atom("T", (x, x)),)),
                Rule(Atom("One", (1, y)), (Atom("E", (1, y)),)),
            )
        )

    def test_compiled_apply_rule_matches_interp_fallback(self):
        from repro.datalog.engine import _apply_rule, _apply_rule_interp, _round_context

        rng = random.Random(55)
        schema = Schema({"E": 2})
        prog = self._program()
        for _ in range(10):
            edb = random_instance(
                schema, rng, n_facts=rng.randint(1, 8), constants=(1, 2, 3), n_nulls=2
            )
            for delta in (None, edb):
                ctx = _round_context(edb, delta)
                for rule in prog.rules:
                    if rule.head.name == "T" and rule.body[0].name == "T":
                        continue  # needs the fixpoint's T relation
                    assert _apply_rule(rule, edb, delta, ctx) == _apply_rule_interp(
                        rule, edb, delta
                    )

    def test_semi_naive_and_naive_fixpoints_agree(self):
        from repro.datalog.engine import evaluate_program

        rng = random.Random(56)
        schema = Schema({"E": 2})
        prog = self._program()
        for _ in range(5):
            edb = random_instance(
                schema, rng, n_facts=rng.randint(1, 8), constants=(1, 2, 3), n_nulls=2
            )
            assert evaluate_program(prog, edb, semi_naive=True) == evaluate_program(
                prog, edb, semi_naive=False
            )

    def test_match_atom_probes_bound_positions(self):
        from repro.datalog.engine import _match_atom
        from repro.datalog.program import Atom

        edb = Instance({"E": [(1, 2), (1, 3), (2, 3)]})
        atom = Atom("E", (x, y))
        # binding x=1 should probe the (0,)-index, not scan all rows
        got = sorted(
            tuple(b[v] for v in (x, y)) for b in _match_atom(atom, edb, {x: 1})
        )
        assert got == [(1, 2), (1, 3)]
        assert ("E", (0,)) in edb._indexes
        # unbound: falls back to the full scan, same matches as before
        assert len(list(_match_atom(atom, edb, {}))) == 3
        assert list(edb._indexes) == [("E", (0,))]

    def test_arity_mismatch_matches_nothing_not_crashes(self):
        from repro.datalog.engine import _apply_rule, _apply_rule_interp
        from repro.datalog.program import Atom, Program, Rule
        from repro.datalog.engine import evaluate_program

        rule = Rule(Atom("P", (x,)), (Atom("E", (x, y)),))
        edb = Instance({"E": [(1, 2, 3)]})  # EDB arity 3 vs program arity 2
        assert _apply_rule(rule, edb, None) == set()
        assert _apply_rule_interp(rule, edb, None) == set()
        # constant beyond the stored arity: the index probe must not
        # build row[2] over 2-tuples (regression: IndexError)
        deep = Rule(Atom("T", (x,)), (Atom("E", (x, x, 5)),))
        edb2 = Instance({"E": [(1, 1), (2, 3)]})
        assert evaluate_program(Program((deep,)), edb2) == edb2
        assert _apply_rule_interp(deep, edb2, edb2) == set()

    def test_compiled_fo_scan_arity_mismatch_matches_interp(self):
        # a unary atom over a binary relation: the interpreter's
        # membership test never succeeds; the columnar scan must agree
        db = Instance({"R": [(1, 2), (2, 3)]})
        assert_equivalent(RelAtom("R", (x,)), db, (x,))
        assert_equivalent(Not(RelAtom("R", (x,))), db, (x,))
        assert_equivalent(RelAtom("R", (1,)), db)
        joined = Exists((y,), And((RelAtom("S", (y,)), RelAtom("R", (y,)))))
        assert_equivalent(joined, Instance({"R": [(1, 2)], "S": [(1,)]}))
