"""Differential suite for the columnar engine: columnar ≡ interpreter.

The columnar executor (:mod:`repro.logic.columnar` over
:mod:`repro.data.dictionary`), the one plan executor, runs the compiled
operator DAG over dictionary-encoded int columns, with sort-merge/semi-join array
kernels and stats-driven join ordering.  Every behavioural claim is
pinned differentially here, over the same generators as
``tests/test_compile.py`` (shared via ``tests/diffutil.py``):

* random formulas × random instances, columnar ≡ interpreter
  bit-for-bit (the stats-specialised plan is additionally checked against the
  shared plan inside ``diffutil.engine_answers``);
* all six semantics against the interpreted world-by-world oracle;
* dictionary round-trips, interning stability across ``with_delta`` /
  ``replace`` / snapshot-restore, and the null/``"?x"``/``"??x"``
  distinctions through the JSON codec;
* mutation re-encoding invariants (shared :class:`EncodedRelation`
  identity for untouched relations, agreement after re-encode);
* the pure-Python kernels with numpy forced off, and the witness counts
  of both join kernel paths;
* ``EvalResult.stats`` key parity across backends (regression gate).
"""

from collections import Counter

import pytest
from diffutil import (
    SCHEMA,
    arbitrary_case,
    assert_equivalent,
    fuzz_rng,
    fuzz_trials,
    interp_answers,
    interp_certain_reference,
    naive_answers,
)

from repro.core.certain import certain_answers
from repro.core.naive import drop_null_tuples, naive_eval
from repro.data.dictionary import (
    Dictionary,
    EncodedRelation,
    columnar_context,
    derive_columnar,
)
from repro.data.generate import random_instance
from repro.data.instance import Instance
from repro.data.values import Null
from repro.logic import kernels
from repro.logic.ast import And, Not, RelAtom, Var
from repro.logic.columnar import (
    as_columnar_context,
    columnar_naive_eval,
    compile_formula,
    compiled_query,
)
from repro.logic.generate import random_kary_query, random_sentence
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.session import Database

X, Y = Null("x"), Null("y")
x, y, z = Var("x"), Var("y"), Var("z")

ENGINES = ("columnar",)


# ----------------------------------------------------------------------
# the dictionary itself
# ----------------------------------------------------------------------

class TestDictionary:
    def test_round_trip_constants_and_nulls(self):
        d = Dictionary()
        cells = [1, "a", 2.5, ("t", 1), X, Y, Null("long-label")]
        codes = [d.encode(v) for v in cells]
        assert [d.decode(c) for c in codes] == cells
        assert d.decode_row(d.encode_row((1, X, "a"))) == (1, X, "a")

    def test_parity_split(self):
        d = Dictionary()
        for v in (1, "a", X, 2, Y):
            code = d.encode(v)
            assert Dictionary.is_null_code(code) == isinstance(v, Null)
        assert d.const_count() == 3 and d.null_count() == 2
        assert len(d) == 5

    def test_codes_stable_under_reencoding(self):
        d = Dictionary()
        first = [d.encode(v) for v in (1, X, "a")]
        d.encode("new"), d.encode(Null("new"))
        assert [d.encode(v) for v in (1, X, "a")] == first

    def test_try_encode_never_interns(self):
        d = Dictionary()
        assert d.try_encode("unseen") is None
        assert len(d) == 0
        code = d.encode("seen")
        assert d.try_encode("seen") == code

    def test_true_and_one_conflate_like_frozensets(self):
        # {(1,), (True,)} is a ONE-element frozenset; the dictionary must
        # intern 1 and True to one code or decoded row sets would differ
        d = Dictionary()
        assert d.encode(1) == d.encode(True) == d.encode(1.0)
        assert frozenset({(1,), (True,)}) == frozenset({(d.decode(d.encode(True)),)})


class TestEncodedRelation:
    REL = frozenset({(1, X), (2, 3), (X, Y), (2, X)})

    def test_columns_decode_to_rows(self):
        d = Dictionary()
        rel = EncodedRelation.from_rows(self.REL, d)
        assert rel.arity == 2 and rel.n_rows == 4
        assert frozenset(map(d.decode_row, rel.row_set())) == self.REL

    def test_index_and_key_set(self):
        d = Dictionary()
        rel = EncodedRelation.from_rows(self.REL, d)
        two = d.encode(2)
        idx = rel.index((0,))
        assert frozenset(map(d.decode_row, idx[(two,)])) == {(2, 3), (2, X)}
        assert rel.key_set(0) == frozenset(r[0] for r in rel.row_set())
        assert len(rel.key_set(0)) == 3  # 1, 2, ⊥x

    def test_sorted_rows_sorted_by_code(self):
        d = Dictionary()
        rel = EncodedRelation.from_rows(self.REL, d)
        runs = rel.sorted_rows(1)
        assert [r[1] for r in runs] == sorted(r[1] for r in rel.row_set())
        assert rel.sorted_rows(1) is runs  # memoised

    @pytest.mark.skipif(not kernels.numpy_enabled(), reason="numpy unavailable")
    def test_np_order_matches_pure_sort(self):
        d = Dictionary()
        rel = EncodedRelation.from_rows(self.REL, d)
        order, srt = rel.np_order(0)
        assert list(srt) == sorted(rel.columns[0])
        assert [rel.row_tuples()[i][0] for i in order] == list(srt)


class TestColumnarContext:
    def test_lazy_per_relation_encoding(self):
        inst = Instance({"R": [(1, X)], "S": [(2,)], "T": [(3, 4, 5)]})
        cctx = columnar_context(inst)
        assert cctx._encoded == {}  # binding is O(1)
        cctx.encoded("R")
        assert set(cctx._encoded) == {"R"}  # only the touched relation paid
        assert cctx.encoded("missing") is None

    def test_context_cached_on_instance(self):
        inst = Instance({"R": [(1, 2)]})
        assert columnar_context(inst) is columnar_context(inst)
        assert as_columnar_context(inst) is columnar_context(inst)

    def test_as_columnar_context_rejects_junk(self):
        with pytest.raises(TypeError):
            as_columnar_context({"R": [(1, 2)]})

    def test_adom_codes_decode_to_adom(self):
        inst = Instance({"R": [(1, X)], "S": [("a",)]})
        cctx = columnar_context(inst)
        assert frozenset(map(cctx.dictionary.decode, cctx.adom_codes())) == inst.adom()


# ----------------------------------------------------------------------
# differential property tests: columnar ≡ interpreter
# ----------------------------------------------------------------------

class TestDifferentialRandom:
    @pytest.mark.parametrize(
        "fragment", ["EPos", "Pos", "PosForallG", "EPosForallGBool"]
    )
    def test_fragment_sentences(self, fragment):
        rng = fuzz_rng("col-" + fragment)
        for _ in range(fuzz_trials(60)):
            inst = random_instance(
                SCHEMA, rng, n_facts=rng.randint(0, 5), constants=(1, 2, 3), n_nulls=2
            )
            phi = random_sentence(SCHEMA, rng, fragment, max_depth=3)
            assert_equivalent(phi, inst, engines=ENGINES)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_fragment_kary_queries(self, arity):
        rng = fuzz_rng(9100 + arity)
        for _ in range(fuzz_trials(60)):
            inst = random_instance(
                SCHEMA, rng, n_facts=rng.randint(0, 5), constants=(1, 2), n_nulls=2
            )
            q = random_kary_query(SCHEMA, rng, "EPos", arity=arity, max_depth=2)
            assert_equivalent(q.formula, inst, q.answer_vars, engines=ENGINES)

    def test_arbitrary_formulas_with_negation(self):
        """Unrestricted ASTs: negation, →, =, constants — the unsafe zone."""
        rng = fuzz_rng(20130624)
        for _ in range(fuzz_trials(450)):
            phi, head, inst = arbitrary_case(rng)
            assert_equivalent(phi, inst, head, engines=ENGINES)

    def test_naive_eval_engine_agreement(self):
        rng = fuzz_rng(424242)
        for _ in range(fuzz_trials(60)):
            inst = random_instance(
                SCHEMA, rng, n_facts=rng.randint(1, 6), constants=(1, 2, 3), n_nulls=2
            )
            q = random_kary_query(SCHEMA, rng, "EPos", arity=1, max_depth=2)
            col = naive_eval(q, inst)
            assert col == naive_answers("interp", q, inst)

    @pytest.mark.parametrize("key", ["owa", "cwa", "wcwa", "pcwa", "mincwa", "minpcwa"])
    def test_certain_answers_differential_per_semantics(self, key):
        """Full engine (columnar-routed naive + oracle) ≡ the interpreted
        world-by-world intersection, under every semantics."""
        sem = get_semantics(key)
        extra = {"owa": 1, "wcwa": 1}.get(key)
        rng = fuzz_rng("col-" + key)
        for _ in range(fuzz_trials(8)):
            inst = random_instance(
                SCHEMA, rng, n_facts=rng.randint(1, 3), constants=(1, 2), n_nulls=2
            )
            q = Query.boolean(random_sentence(SCHEMA, rng, "PosForallG", max_depth=2))
            want = interp_certain_reference(q, inst, sem, extra_facts=extra)
            db = Database(inst, semantics=key, extra_facts=extra)
            result = db.evaluate(q)
            if result.exact:
                assert result.answers == want, (key, q.formula, inst)
            oracle = certain_answers(q, inst, sem, extra_facts=extra)
            assert oracle == want, (key, q.formula, inst)

    def test_pure_kernels_differential(self, monkeypatch):
        """The pure-Python sort-merge/semi-join paths, numpy forced off."""
        monkeypatch.setattr(kernels, "_np", None)
        assert kernels.kernel_suffix() == "pure"
        rng = fuzz_rng(777)
        for _ in range(fuzz_trials(100)):
            phi, head, inst = arbitrary_case(rng)
            assert_equivalent(phi, inst, head, engines=("columnar",))

    @pytest.mark.parametrize("pure", [False, True])
    def test_fused_project_join_kernel(self, monkeypatch, pure):
        """Projection fused into the sort-merge kernel: a many-to-many
        join whose projection collapses the expansion must agree with
        the interpreter on both kernel implementations."""
        if pure:
            monkeypatch.setattr(kernels, "_np", None)
        elif not kernels.numpy_enabled():
            pytest.skip("numpy unavailable")
        rng = fuzz_rng(959)
        q = Query(parse("exists y (R(x, z) & S(z, y))"), ("x", "z"))
        n = kernels.MIN_VECTOR_ROWS * 3
        nulls = [X, Y, Null("k")]
        inst = Instance({
            "R": [(rng.randint(0, 9), rng.choice(nulls)) for _ in range(n)],
            "S": [(rng.choice(nulls), rng.randint(0, 9)) for _ in range(n)],
        })
        colq = compiled_query(q)
        assert colq.answers(inst) == interp_answers(q.formula, inst, q.answer_vars)
        assert naive_eval(q, inst) == naive_answers("interp", q, inst)
        # nullary projection of a non-empty join (boolean shape)
        b = Query.boolean(parse("exists x, z, y (R(x, z) & S(z, y))"))
        assert naive_eval(b, inst) == naive_answers("interp", b, inst)

    @pytest.mark.skipif(not kernels.numpy_enabled(), reason="numpy unavailable")
    def test_counted_kernel_paths_agree(self, monkeypatch):
        """Witness counts of the fused join-project kernel: the vector and
        the pure path count every joined pair, for a projection that
        drops a column, one that keeps every column, a reordering and
        the nullary one."""
        rng = fuzz_rng(4243)
        projections = [(0, 2), (0, 1, 2), (2, 0, 1), ()]
        for _ in range(fuzz_trials(12)):
            n = rng.randint(1, kernels.MIN_VECTOR_ROWS * 3)
            keys = [Null(f"k{i}") for i in range(rng.randint(1, 6))] + [1, 2]
            d = Dictionary()
            left = EncodedRelation.from_rows(
                {(rng.randint(0, 9), rng.choice(keys)) for _ in range(n)}, d
            )
            right = EncodedRelation.from_rows(
                {(rng.choice(keys), rng.randint(0, 9)) for _ in range(n)}, d
            )
            joined = [
                lr + rr[1:]
                for lr in left.row_tuples()
                for rr in right.row_tuples()
                if lr[1] == rr[0]
            ]
            for indices in projections:
                want = Counter(tuple(row[c] for c in indices) for row in joined)
                args = (left, right, 1, 0, (1,), indices, True)
                assert kernels._vector_sort_merge_project(*args) == want, indices
                assert kernels._pure_sort_merge_project(*args) == want, indices
                # the public kernel, on whichever path it picks, and pure
                assert kernels.sort_merge_join_project(*args) == want
                with monkeypatch.context() as m:
                    m.setattr(kernels, "_np", None)
                    assert kernels.sort_merge_join_project(*args) == want

    @pytest.mark.skipif(not kernels.numpy_enabled(), reason="numpy unavailable")
    def test_full_width_join_runs_pure(self):
        """A join keeping every column cannot collapse rows: it runs the
        pure merge even with numpy on, and EXPLAIN says so."""
        rng = fuzz_rng(961)
        q = Query(parse("R(x, z) & S(z, y)"), ("x", "z", "y"))
        n = kernels.MIN_VECTOR_ROWS * 3
        nulls = [X, Y, Null("k")]
        inst = Instance({
            "R": [(rng.randint(0, 9), rng.choice(nulls)) for _ in range(n)],
            "S": [(rng.choice(nulls), rng.randint(0, 9)) for _ in range(n)],
        })
        colq = compiled_query(q)
        assert "sort-merge-join [pure]" in colq.describe()
        assert "[vector]" not in colq.describe()
        assert colq.answers(inst) == interp_answers(q.formula, inst, q.answer_vars)
        assert naive_eval(q, inst) == naive_answers("interp", q, inst)

    @pytest.mark.skipif(not kernels.numpy_enabled(), reason="numpy unavailable")
    def test_vector_kernels_above_threshold(self):
        """Joins big enough to engage the vectorised sort-merge kernel."""
        rng = fuzz_rng(888)
        q = Query(parse("exists z (R(a, z) & S(z, b))"), ("a", "b"))
        for _ in range(fuzz_trials(5)):
            n = kernels.MIN_VECTOR_ROWS * 2
            rows_r = [(rng.randint(0, 40), rng.choice([rng.randint(0, 30), X, Y]))
                      for _ in range(n)]
            rows_s = [(rng.choice([rng.randint(0, 30), X, Y]), rng.randint(0, 40))
                      for _ in range(n)]
            inst = Instance({"R": rows_r, "S": rows_s})
            colq = compiled_query(q)
            assert "sort-merge-join [vector]" in colq.describe()
            want = interp_answers(q.formula, inst, q.answer_vars)
            assert colq.answers(inst) == want
            assert naive_eval(q, inst) == drop_null_tuples(want)


# ----------------------------------------------------------------------
# dictionary edge cases (nulls vs "?x" constants, interning stability)
# ----------------------------------------------------------------------

class TestDictionaryEdgeCases:
    def test_null_vs_escaped_question_constant(self):
        """``"?x"`` decodes to ⊥x, ``"??x"`` to the *constant* ``"?x"`` —
        the dictionary must keep all three worlds apart."""
        from repro.data.jsonio import instance_from_json, instance_to_json

        inst = instance_from_json('{"R": [["?x", "??x"], ["??x", "?x"]]}')
        assert inst.tuples("R") == frozenset({(Null("x"), "?x"), ("?x", Null("x"))})
        cctx = columnar_context(inst)
        d = cctx.dictionary
        null_code, const_code = d.encode(Null("x")), d.encode("?x")
        assert null_code != const_code
        assert Dictionary.is_null_code(null_code)
        assert not Dictionary.is_null_code(const_code)
        # naive evaluation sees them apart: only the null row is dropped
        q = Query(parse("R(a, b)"), ("a", "b"))
        assert naive_eval(q, inst) == naive_answers("interp", q, inst) == frozenset()
        # and a full JSON round-trip re-encodes to the same codes
        again = instance_from_json(instance_to_json(inst))
        cctx2 = columnar_context(again, dictionary=d)
        assert frozenset(
            map(d.decode_row, cctx2.encoded("R").row_set())
        ) == again.tuples("R")

    def test_interning_stable_across_with_delta(self):
        db = Database({"R": [(1, X)], "S": [(2,)]})
        db.evaluate("exists z . R(a, z)", vars=("a",))  # force encoding
        d = db.instance._cols.dictionary
        before = {v: d.encode(v) for v in (1, 2, X)}
        db.insert("R", (3, Y))
        db.delete("S", (2,))
        after_dict = db.instance._cols.dictionary
        assert after_dict is d  # one dictionary along the chain
        assert {v: after_dict.encode(v) for v in (1, 2, X)} == before

    def test_interning_stable_across_replace(self):
        db = Database({"R": [(1, X)]})
        db.evaluate("R(a, b)", vars=("a", "b"))
        d = db.instance._cols.dictionary
        code_x = d.encode(X)
        db.replace({"R": [(5, X)], "S": [(6,)]})
        assert db.instance._cols is not None
        assert db.instance._cols.dictionary is d
        assert d.encode(X) == code_x
        assert db.evaluate("R(a, b)", vars=("a", "b")).answers == frozenset()

    def test_interning_stable_across_restore(self):
        db = Database({"R": [(1, X)]})
        db.evaluate("R(a, b)", vars=("a", "b"))
        d = db.instance._cols.dictionary
        db.restore(Instance({"R": [(2, 3)]}), generation=9, rel_generations={"R": 9})
        assert db.instance._cols.dictionary is d
        assert db.evaluate("R(a, b)", vars=("a", "b")).answers == frozenset({(2, 3)})

    def test_untouched_relations_share_encoded_objects(self):
        """`with_delta` carry-over: untouched relations keep the SAME
        EncodedRelation (indexes, sort runs and all); touched ones
        re-encode lazily and agree with the new row set."""
        old = Instance({"R": [(1, X), (2, 3)], "S": [(2,), (4,)]})
        cctx = columnar_context(old)
        shared = cctx.encoded("S")
        shared.index((0,))  # build something worth keeping
        new, changes = old.with_delta(adds={"R": [(9, 9)]})
        derived = derive_columnar(old, new, changes)
        assert derived is new._cols
        assert derived.dictionary is cctx.dictionary
        assert derived.encoded("S") is shared  # identity, caches included
        re_encoded = derived.encoded("R")
        assert re_encoded is not cctx.encoded("R")
        assert frozenset(
            map(derived.dictionary.decode_row, re_encoded.row_set())
        ) == new.tuples("R")

    def test_derive_noop_when_never_encoded(self):
        old = Instance({"R": [(1, 2)]})
        new, changes = old.with_delta(adds={"R": [(3, 4)]})
        assert derive_columnar(old, new, changes) is None
        assert new._cols is None  # engines that never ran columnar pay nothing

    def test_encoded_rows_agree_after_index_carry_over(self):
        """After a session mutation the derived columnar context agrees
        with the new instance on content."""
        db = Database({"R": [(1, X), (2, 3)], "S": [(3,), (X,), (2,)]})
        q = db.query("exists z (R(a, z) & S(z))", vars=("a",))
        first = q.evaluate().answers
        assert first == frozenset({(1,), (2,)})
        db.insert("R", (4, 2))
        inst = db.instance
        cctx = columnar_context(inst)
        for name in ("R", "S"):
            decoded = frozenset(
                map(cctx.dictionary.decode_row, cctx.encoded(name).row_set())
            )
            assert decoded == inst.tuples(name)
        assert q.evaluate().answers == frozenset({(1,), (2,), (4,)})

    def test_mutation_differential_chain(self):
        """A random insert/delete chain: after every step, columnar ≡
        interp on a fixed query battery."""
        rng = fuzz_rng(606)
        queries = [
            (parse("exists z (R(a, z) & S(z))"), (Var("a"),)),
            (parse("R(a, b)"), (Var("a"), Var("b"))),
            (And((RelAtom("R", (x, y)), Not(RelAtom("S", (y,))))), (x, y)),
        ]
        db = Database({"R": [(1, X)], "S": [(2,)]})
        for step in range(fuzz_trials(12)):
            if rng.random() < 0.7:
                db.insert("R", (rng.randint(0, 4), rng.choice([rng.randint(0, 4), X, Y])))
                db.insert("S", (rng.randint(0, 4),))
            else:
                rows = sorted(db.instance.tuples("R"))
                if rows:
                    db.delete("R", rng.choice(rows))
            inst = db.instance
            for phi, head in queries:
                assert_equivalent(phi, inst, head, engines=ENGINES)


# ----------------------------------------------------------------------
# stats parity across backends (the fix-then-pin regression test)
# ----------------------------------------------------------------------

class TestStatsParity:
    QUERY = "exists z (R(a, z) & S(z, b))"

    def _stats(self, mode):
        db = Database({"R": [(1, X)], "S": [(X, 4)]}, semantics="owa")
        miss = db.evaluate(self.QUERY, vars=("a", "b"), mode=mode)
        hit = db.evaluate(self.QUERY, vars=("a", "b"), mode=mode)
        return miss, hit

    def test_stats_keys_identical_across_backends(self):
        """Harness and dashboards read EvalResult.stats by key: every
        naive-family backend must emit the SAME key set, hit and miss."""
        auto_miss, auto_hit = self._stats("auto")
        assert auto_miss.method == "columnar"
        ref_keys = set(auto_miss.stats)
        assert set(auto_hit.stats) == ref_keys
        for mode in ("columnar", "naive-interp"):
            miss, hit = self._stats(mode)
            assert set(miss.stats) == ref_keys, mode
            assert set(hit.stats) == ref_keys, mode

    def test_timing_keys_present_and_numeric(self):
        miss, _ = self._stats("auto")
        for key in ("planning_s", "execution_s"):
            assert isinstance(miss.stats[key], float) and miss.stats[key] >= 0

    def test_evaluate_many_stats_keys_match_single(self):
        db = Database({"R": [(1, X)], "S": [(X, 4)]}, semantics="owa")
        single = db.evaluate(self.QUERY)
        batch = db.evaluate_many([self.QUERY])
        assert batch[0].method == "columnar"
        # one evaluation path: a batch result reports exactly the same keys
        assert set(batch[0].stats) == set(single.stats)

    def test_answers_identical_across_naive_backends(self):
        results = {
            mode: self._stats(mode)[0].answers
            for mode in ("auto", "columnar", "naive-interp")
        }
        inst = Instance({"R": [(1, X)], "S": [(X, 4)]})
        q = Query(parse(self.QUERY), ("a", "b"))
        results["interpreter"] = naive_answers("interp", q, inst)
        assert len(set(results.values())) == 1, results


# ----------------------------------------------------------------------
# shared plans and EXPLAIN
# ----------------------------------------------------------------------

class TestPlansAndExplain:
    def test_shared_plan_reuses_compiled_dag(self):
        q = Query(parse("exists z (R(a, z) & S(z, b))"), ("a", "b"))
        assert compiled_query(q) is compile_formula(q.formula, q.answer_vars)

    def test_describe_names_kernels(self):
        q = Query(parse("exists z (R(a, z) & S(z, b))"), ("a", "b"))
        text = compiled_query(q).describe()
        assert "sort-merge-join" in text
        assert "col-scan R/2" in text and "col-scan S/2" in text

    def test_describe_names_semi_join_kernel(self):
        q = Query(parse("exists z . R(a, z) & (exists w . S(z, w))"), ("a",))
        text = compiled_query(q).describe()
        assert "semi-join" in text or "sort-merge-join" in text

    def test_explain_cli_names_kernels_and_join_order(self, capsys, tmp_path):
        import json as _json

        from repro.cli import main

        db = tmp_path / "db.json"
        db.write_text(_json.dumps({"R": [[1, "?1"]], "S": [["?1", 4]]}))
        code = main(
            ["explain", "exists z (R(x,z) & S(z,y))", str(db),
             "--semantics", "owa", "--operators"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "backend     : columnar" in out
        assert "sort-merge-join" in out
        assert "join order: R ⋈ S" in out or "join order: S ⋈ R" in out

    def test_plan_note_mentions_columnar_kernels(self):
        db = Database({"R": [(1, X)], "S": [(X, 4)]}, semantics="owa")
        plan = db.explain("exists z (R(a, z) & S(z, b))", vars=("a", "b"))
        assert plan.backend == "columnar"
        assert any("columnar" in note for note in plan.notes)

    def test_forced_compiled_and_interp_still_route(self):
        db = Database({"R": [(1, X)], "S": [(X, 4)]}, semantics="owa")
        for mode in ("columnar", "naive-interp"):
            result = db.evaluate(
                "exists z (R(a, z) & S(z, b))", vars=("a", "b"), mode=mode
            )
            assert result.method == mode
            assert result.answers == frozenset({(1, 4)})

    def test_raw_codes_decode_to_answers(self):
        inst = Instance({"R": [(1, 2), (X, 2)]})
        colq = compiled_query(Query(parse("R(a, b)"), ("a", "b")))
        cctx = columnar_context(inst)
        codes = colq.raw_codes(cctx)
        assert frozenset(map(cctx.dictionary.decode_row, codes)) == inst.tuples("R")
        assert colq.naive_answers(cctx) == frozenset({(1, 2)})

    def test_columnar_naive_eval_entry_point(self):
        inst = Instance({"R": [(1, 2), (X, 2)]})
        q = Query(parse("R(a, b)"), ("a", "b"))
        assert columnar_naive_eval(q, inst) == frozenset({(1, 2)})
        with pytest.raises(TypeError, match="engine"):
            naive_eval(q, inst, engine="vectorised")  # no engine switch
