"""The CWA oracle in code space: skipped world, kernel fast path, encoded answers.

* No bracketed read evaluates the all-fresh world — neither as a seed
  nor in the canonical sweep: it is the world naive evaluation sees, so
  it holds every upper-bound row and cannot remove a gap row.
* :func:`~repro.logic.kernels.unify_anti_join` (with its fast path for
  a null-free right side) against a brute-force pairwise reference.
* Substitution-only oracle answers stay encoded (the decoded rows
  :func:`~repro.core.certain.certain_answers` returns carry them), and
  their wire text is byte-identical to
  :func:`~repro.data.jsonio.render_rows` of the decoded rows.
* The per-relation null split and the memoised null/constant sets
  agree with a scan of the decoded cells.

``REPRO_FUZZ`` scales the random budgets; ``REPRO_PURE_KERNELS=1`` runs
the file on the pure-Python kernels.
"""

import pytest
from diffutil import arbitrary_case, fuzz_rng, fuzz_trials, interp_certain_reference

from repro.core.certain import WorldSpec, certain_answers
from repro.data.answers import AnswerSet
from repro.data.dictionary import columnar_context, derive_columnar
from repro.data.instance import Instance
from repro.data.jsonio import render_rows
from repro.data.values import Null
from repro.logic import kernels
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.session import Database

CWA = get_semantics("cwa")
X, Y, Z = Null("x"), Null("y"), Null("z")

NEG = Query(parse("exists y (R(x, y) & !S(y))"), ("x",))


# ----------------------------------------------------------------------
# the all-fresh world is never evaluated under the bracket
# ----------------------------------------------------------------------

@pytest.fixture
def evaluated_worlds(monkeypatch):
    """Records ``(world key, all-fresh world key)`` per world a spec yields."""
    seen = []
    real = WorldSpec.worlds

    def spy(self, valuations, keys):
        fresh = (
            self.world_key(self.all_fresh())
            if len(self.fresh_tail) >= self.n_slots
            else None
        )
        for vals, world in real(self, valuations, keys):
            seen.append((self.world_key(vals), fresh))
            yield vals, world

    monkeypatch.setattr(WorldSpec, "worlds", spy)
    return seen


class TestAllFreshWorldSkipped:
    def test_gap_row_surviving_the_whole_sweep(self, evaluated_worlds):
        # S(x) | !S(x) is certain for x = 1, but the lower bound cannot
        # see it through the null: the gap row survives the seeds and the
        # canonical sweep, whose all-fresh valuation is skipped
        q = Query(parse("R(x) & (S(x) | !S(x))"), ("x",))
        inst = Instance({"R": [(1,)], "S": [(X,)]})
        stats: dict = {}
        got = certain_answers(q, inst, CWA, stats_out=stats)
        assert got == {(1,)} == interp_certain_reference(q, inst, CWA)
        assert (stats["mode"], stats["gap"], stats["worlds"]) == ("bracket", 1, 1)
        assert evaluated_worlds and all(key != fresh for key, fresh in evaluated_worlds)

    def test_zero_relevant_nulls_need_no_world(self, evaluated_worlds):
        # the only valuation of no slot is the all-fresh one, so a read
        # whose plan reads no null answers the upper bound directly; the
        # negated atom with a constant has no lower-bound translation
        q = Query(parse("exists y (R(x, y) & !R(y, 1))"), ("x",))
        inst = Instance({"R": [(1, 2), (2, 3), (3, 1)], "T": [(X,)]})
        stats: dict = {}
        got = certain_answers(q, inst, CWA, stats_out=stats)
        assert got == {(1,), (3,)} == interp_certain_reference(q, inst, CWA)
        assert (stats["relevant_nulls"], stats["lower"], stats["gap"]) == (0, 0, 2)
        assert stats["worlds"] == 0 and not evaluated_worlds

    def test_random_bracketed_reads(self, evaluated_worlds):
        rng = fuzz_rng("oracle-all-fresh")
        swept = 0
        for _ in range(fuzz_trials(120)):
            phi, head, inst = arbitrary_case(rng)
            q = Query(phi, head)
            stats: dict = {}
            before = len(evaluated_worlds)
            got = certain_answers(q, inst, CWA, stats_out=stats)
            assert got == interp_certain_reference(q, inst, CWA), (phi, inst)
            assert stats["mode"] == "bracket"
            assert stats["worlds"] == len(evaluated_worlds) - before
            swept += stats["worlds"] > 0
        assert swept  # some reads enumerated worlds at all
        assert all(key != fresh for key, fresh in evaluated_worlds)


# ----------------------------------------------------------------------
# the null-unifying anti-join against pairwise unification
# ----------------------------------------------------------------------

def _reference(left, key, right):
    """``{l ∈ left : no r ∈ right unifies with l[key]}``, pair by pair."""

    def unifies(a, b):
        return all(x == y or x & 1 or y & 1 for x, y in zip(a, b))

    return frozenset(
        row for row in left if not any(unifies(tuple(row[i] for i in key), r) for r in right)
    )


def _row(rng, width, consts, nulls, p_null):
    return tuple(
        rng.choice(nulls) if nulls and rng.random() < p_null else rng.choice(consts)
        for _ in range(width)
    )


class TestUnifyAntiJoin:
    @pytest.mark.parametrize("right_nulls", [False, True], ids=["right-null-free", "right-nulls"])
    def test_matches_pairwise_unification(self, right_nulls):
        rng = fuzz_rng(f"unify-pairwise-{right_nulls}")
        for _ in range(fuzz_trials(150)):
            arity = rng.randint(1, 3)
            key = tuple(rng.sample(range(arity), rng.randint(0, arity)))
            consts = [2 * k for k in range(rng.randint(1, 5))]
            # few null codes, so rows repeat them within and across rows
            nulls = [2 * k + 1 for k in range(rng.randint(1, 3))]
            left = frozenset(
                _row(rng, arity, consts, nulls, rng.choice([0.0, 0.2, 0.6]))
                for _ in range(rng.randint(0, 25))
            )
            right = frozenset(
                _row(rng, len(key), consts, nulls if right_nulls else [], 0.3)
                for _ in range(rng.randint(0, 8))
            )
            got = kernels.unify_anti_join(left, key, right)
            assert got == _reference(left, key, right), (left, key, right)

    def test_fast_path_with_mixed_left_keys(self):
        # right is null-free: 0 and 4 are probed exactly, the null keys
        # unify with any right row
        left = frozenset({(0, 10), (2, 10), (4, 12), (1, 14), (3, 3)})
        right = frozenset({(0,), (4,)})
        assert kernels.unify_anti_join(left, (0,), right) == {(2, 10)}
        # a null occurring outside the key does not leave the fast path
        assert kernels.unify_anti_join(left, (1,), frozenset({(10,)})) == {(4, 12), (1, 14)}

    def test_empty_key(self):
        left = frozenset({(0,), (1,)})
        assert kernels.unify_anti_join(left, (), frozenset({()})) == frozenset()
        assert kernels.unify_anti_join(left, (), frozenset()) == left


# ----------------------------------------------------------------------
# oracle answers stay encoded and render like the decoded rows
# ----------------------------------------------------------------------

def _check_rendering(query, instance, pool=None):
    rows = certain_answers(query, instance, CWA, pool=pool)
    assert isinstance(rows, frozenset) and repr(rows) == repr(frozenset(rows))
    answers = rows.encoded
    assert isinstance(answers, AnswerSet) and answers.is_encoded
    assert answers.decode() == rows
    assert answers.to_json("Q") == render_rows("Q", rows)
    return answers


class TestEncodedAnswers:
    def test_question_mark_constants_are_escaped(self):
        inst = Instance({"R": [("?a", 1), ("b", X), ("b", 3), ("?c", 2)], "S": [(2,)]})
        answers = _check_rendering(NEG, inst)
        assert answers.to_json("Q") == '[["??a"], ["b"]]'

    @pytest.mark.parametrize(
        "s_rows, text", [([(5,)], "[[]]"), ([(Y,)], "[]")], ids=["true", "false"]
    )
    def test_boolean(self, s_rows, text):
        q = Query.boolean(parse("exists x, y (R(x, y) & !S(y))"))
        inst = Instance({"R": [(2, 3), (4, X)], "S": s_rows})
        assert _check_rendering(q, inst).to_json("Q") == text

    def test_fresh_value_rows_are_dropped(self):
        # every canonical world of this pool sends the first null to _f1,
        # so (_f1,) survives the sweep; its permutation images would not
        inst = Instance({"R": [(X,), (Y,), (Z,)]})
        q = Query(parse("R(x)"), ("x",))
        pool = ["_f1", "_f2"]
        stats: dict = {}
        assert certain_answers(q, inst, CWA, pool=pool, stats_out=stats) == frozenset()
        assert stats["mode"] in ("seed", "serial")
        assert _check_rendering(q, inst, pool).to_json("Q") == "[]"

    def test_random_cases(self):
        rng = fuzz_rng("oracle-rendering")
        for _ in range(fuzz_trials(80)):
            phi, head, inst = arbitrary_case(rng)
            _check_rendering(Query(phi, head), inst)

    def test_served_answers_match_the_decoded_render(self):
        db = Database({"R": [("?a", 1), ("b", X)], "S": [(2,)]})
        result = db.query("exists y (R(x, y) & !S(y))", vars=("x",)).evaluate(
            mode="enumeration"
        )
        assert result.answer_set.is_encoded
        assert result.answer_set.to_json("Q") == render_rows("Q", result.answers)


# ----------------------------------------------------------------------
# the null split the oracle reads its worlds from
# ----------------------------------------------------------------------

class TestNullSplit:
    def test_split_matches_the_decoded_cells(self):
        inst = Instance({"R": [(1, X), (2, 3), (X, Y), (4, 4)], "S": [(5,)]})
        ctx = columnar_context(inst)
        decode = ctx.dictionary.decode_row
        rel = ctx.encoded("R")
        split = rel.null_split()
        assert rel.null_split() is split
        assert set(map(decode, split.free_rows)) == {(2, 3), (4, 4)}
        assert set(map(decode, split.null_rows)) == {(1, X), (X, Y)}
        assert {ctx.dictionary.decode(c) for c in split.const_codes} == {1, 2, 3, 4}
        assert {ctx.dictionary.decode(c) for c in split.null_codes} == {X, Y}
        assert ctx.encoded("S").null_split().null_rows == ()

    def test_untouched_relations_share_their_split(self):
        inst = Instance({"R": [(1, X)], "S": [(5,)]})
        ctx = columnar_context(inst)
        s_split = ctx.encoded("S").null_split()
        later, changes = inst.with_delta(adds={"R": [(2, 3)]})
        derived = derive_columnar(inst, later, changes)
        assert derived.encoded("S").null_split() is s_split
        assert len(derived.encoded("R").null_split().free_rows) == 1

    def test_nulls_and_constants_are_memoised(self):
        inst = Instance({"R": [(1, X), (Y, "a")]})
        assert inst.nulls() is inst.nulls() and inst.nulls() == {X, Y}
        assert inst.constants() is inst.constants() and inst.constants() == {1, "a"}
        later, _ = inst.with_delta(adds={"R": [(Z, 2)]})
        assert later.nulls() == {X, Y, Z} and later.constants() == {1, 2, "a"}
