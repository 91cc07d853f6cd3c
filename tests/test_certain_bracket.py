"""The CWA certain-answer bracket: ``lower ⊆ certain ⊆ naive``.

Under CWA the oracle answers the rows of a polynomial lower bound
directly (the Guagliardo–Libkin translation, run as a columnar plan with
a null-unifying anti-join), bounds the rest by the null-free naive
answers (the all-fresh world), and enumerates worlds only for the gap.

The differential half checks both bounds and the bracketed oracle
against the interpreted world-by-world reference on random cases; the
pinned half walks each path: empty gap, residual gap, a gap too wide for
residual probes, a domain-dependent gap, Boolean queries, the benchmark's
``oracle`` instance, and a pool too small for the all-fresh world.
``REPRO_FUZZ`` scales the random budgets; ``REPRO_PURE_KERNELS=1`` runs
the whole file on the pure-Python kernels.
"""

import importlib.util
import json
import pathlib
import sys

import pytest
from diffutil import (
    arbitrary_case,
    fuzz_rng,
    fuzz_trials,
    interp_certain_reference,
)

from repro.core.certain import WorldSpec, certain_answers, default_pool
from repro.data.generate import random_instance
from repro.data.instance import Instance
from repro.data.jsonio import instance_from_json
from repro.data.schema import Schema
from repro.data.values import Null
from repro.logic import kernels
from repro.logic.ast import And, Exists, Not, RelAtom, Var
from repro.logic.columnar import compiled_query
from repro.logic.compile import UnifyAntiJoinNode
from repro.logic.generate import random_kary_query
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.semantics.base import ExpansionLimitError

CWA = get_semantics("cwa")
X, Y = Null("x"), Null("y")

#: the benchmark's oracle query: Figure 1 cannot prove it, so it routes
#: to the oracle
NEG = Query(parse("exists y (R(x, y) & !S(y))"), ("x",))


def bounds(query, instance):
    """``(lower, upper)``: the lower bound and the null-free naive answers."""
    cq = compiled_query(query)
    lower = cq.lower_answers(instance)
    return (
        frozenset() if lower is None else lower.decode(),
        cq.naive_answers(instance).decode(),
    )


def oracle(query, instance, **kwargs):
    stats: dict = {}
    return certain_answers(query, instance, CWA, stats_out=stats, **kwargs), stats


def world_reference(query, instance, pool=None):
    """``⋂ Q(v(D))`` over the pool, one interpreter run per full world."""
    if pool is None:
        pool = default_pool(instance, query)
    result = None
    for world in CWA.expand(instance, list(pool)):
        rows = query.eval_raw(world)
        result = rows if result is None else result & rows
    return result


def check_bracket(query, instance):
    """Both bounds hold and the bracketed oracle is the reference."""
    want = interp_certain_reference(query, instance, CWA)
    lower, upper = bounds(query, instance)
    assert lower <= want, (query.formula, instance, lower - want)
    assert want <= upper, (query.formula, instance, want - upper)
    got, stats = oracle(query, instance)
    assert got == want, (query.formula, instance, got, want)
    assert stats["mode"] == "bracket"
    assert (stats["lower"], stats["upper"]) == (len(lower), len(upper))
    assert stats["gap"] == len(upper - lower)


@pytest.fixture
def verify_calls(monkeypatch):
    """Counts calls of the residual path, :meth:`WorldSpec._verify`."""
    calls = []
    real = WorldSpec._verify

    def spy(self, candidates, *args, **kwargs):
        calls.append(len(candidates))
        return real(self, candidates, *args, **kwargs)

    monkeypatch.setattr(WorldSpec, "_verify", spy)
    return calls


# ----------------------------------------------------------------------
# differential: random formulas and instances
# ----------------------------------------------------------------------

NEG_SCHEMA = Schema({"R": 2, "S": 1})


def negation_case(rng):
    """A conjunctive query with negated atoms, the lower bound's home ground."""
    vs = [Var(n) for n in "xyz"]
    positive = [RelAtom("R", (rng.choice(vs), rng.choice(vs))) for _ in range(rng.randint(1, 2))]
    bound = sorted({t for atom in positive for t in atom.terms}, key=lambda v: v.name)
    negated = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.6:
            negated.append(Not(RelAtom("S", (rng.choice(bound),))))
        else:
            terms = (rng.choice(bound), rng.choice(bound + [1]))
            negated.append(Not(RelAtom("R", terms)))
    head = tuple(rng.sample(bound, rng.randint(0, min(2, len(bound)))))
    hidden = tuple(v for v in bound if v not in head)
    body = And(tuple(positive + negated))
    phi = Exists(hidden, body) if hidden else body
    instance = random_instance(
        NEG_SCHEMA,
        rng,
        n_facts=rng.randint(2, 8),
        constants=(1, 2, 3, 4),
        n_nulls=2,
        null_probability=0.2,
    )
    return Query(phi, head), instance


class TestDifferential:
    def test_arbitrary_formulas(self):
        """Unrestricted ASTs: negation, →, =, constants, ∀."""
        rng = fuzz_rng("bracket-arbitrary")
        for _ in range(fuzz_trials(200)):
            phi, head, inst = arbitrary_case(rng)
            check_bracket(Query(phi, head), inst)

    def test_guarded_kary_queries(self):
        """Guarded universals compile to anti-joins: the bound's shape."""
        rng = fuzz_rng("bracket-guarded")
        for _ in range(fuzz_trials(100)):
            arity = rng.choice([1, 2])
            query = random_kary_query(NEG_SCHEMA, rng, "PosForallG", arity=arity, max_depth=2)
            inst = random_instance(
                NEG_SCHEMA, rng, n_facts=rng.randint(1, 6), constants=(1, 2), n_nulls=2
            )
            check_bracket(query, inst)

    def test_negated_atoms(self):
        rng = fuzz_rng("bracket-negation")
        nonempty = 0
        for _ in range(fuzz_trials(150)):
            query, inst = negation_case(rng)
            check_bracket(query, inst)
            nonempty += bool(bounds(query, inst)[0])
        # the bound is not vacuous on its home ground
        assert nonempty > fuzz_trials(150) // 20


# ----------------------------------------------------------------------
# the null-unifying anti-join kernel
# ----------------------------------------------------------------------

def _unifies(a, b):
    return all(x == y or x & 1 or y & 1 for x, y in zip(a, b))


class TestUnifyAntiJoinKernel:
    def test_matches_the_definition(self):
        rng = fuzz_rng("unify-kernel")
        for _ in range(fuzz_trials(60)):
            arity = rng.randint(1, 3)
            key = tuple(rng.sample(range(arity), rng.randint(1, arity)))
            codes = list(range(12))  # even = constants, odd = nulls
            left = frozenset(
                tuple(rng.choice(codes) for _ in range(arity))
                for _ in range(rng.randint(0, 40))
            )
            right = frozenset(
                tuple(rng.choice(codes) for _ in key) for _ in range(rng.randint(0, 12))
            )
            want = frozenset(
                row
                for row in left
                if not any(_unifies(tuple(row[i] for i in key), r) for r in right)
            )
            assert kernels.unify_anti_join(left, key, right) == want

    def test_nullary_key(self):
        # a nullary right row unifies with every left row
        assert kernels.unify_anti_join(frozenset({(0,), (2,)}), (), frozenset({()})) == set()
        assert kernels.unify_anti_join(frozenset({()}), (), frozenset()) == {()}


# ----------------------------------------------------------------------
# the lower-bound plan
# ----------------------------------------------------------------------

class TestLowerPlan:
    def test_negated_atom_becomes_unifying_anti_join(self):
        plan = compiled_query(NEG).lower_plan
        assert isinstance(plan.child, UnifyAntiJoinNode)

    def test_positive_plan_is_reused(self):
        join = Query(parse("exists z (R(x, z) & S(z, y))"), ("x", "y"))
        cq = compiled_query(join)
        assert cq.describe_lower() == cq.describe()

    def test_negated_selection_gives_no_plan(self):
        # a constant in a negated atom could match through a null, and
        # the ? side has no unifying scan: "matches everything"
        q = Query(parse("exists y (R(x, y) & !R(y, 1))"), ("x",))
        assert compiled_query(q).lower_plan is None
        inst = Instance({"R": [(1, 2), (2, 3), (3, X), (4, 3)]})
        check_bracket(q, inst)
        assert bounds(q, inst)[0] == frozenset()

    def test_untranslated_negation_gives_no_plan(self):
        # the ? side of a join would have to unify shared columns
        q = Query(parse("exists y (R(x, y) & !(exists z (R(y, z) & S(z))))"), ("x",))
        assert compiled_query(q).lower_plan is None
        assert compiled_query(q).describe_lower().startswith("(empty")

    def test_null_keys_are_dropped(self):
        lower, upper = bounds(NEG, Instance({"R": [(1, X), (2, 3), (4, 5)], "S": [(5,)]}))
        assert lower == {(2,)} and upper == {(1,), (2,)}
        # a null in S unifies with every R row
        inst = Instance({"R": [(1, X), (2, 3), (4, 5)], "S": [(5,), (Y,)]})
        assert bounds(NEG, inst)[0] == frozenset()


# ----------------------------------------------------------------------
# pinned paths
# ----------------------------------------------------------------------

class TestPaths:
    def test_empty_gap_needs_no_world(self):
        inst = Instance({"R": [(1, 2), (3, 4), (X, 2)], "S": [(2,)]})
        got, stats = oracle(NEG, inst)
        assert got == {(3,)} == interp_certain_reference(NEG, inst, CWA)
        assert stats["mode"] == "bracket"
        assert (stats["lower"], stats["upper"], stats["gap"], stats["worlds"]) == (1, 1, 0, 0)

    def test_residual_gap_is_verified_per_row(self, verify_calls):
        inst = Instance({"R": [(1, X), (2, 3), (4, 5)], "S": [(5,)]})
        got, stats = oracle(NEG, inst)
        assert got == {(2,)} == interp_certain_reference(NEG, inst, CWA)
        assert (stats["lower"], stats["upper"], stats["gap"]) == (1, 2, 1)
        assert stats["worlds"] >= 1
        assert verify_calls == [1]

    def test_wide_gap_runs_the_seeded_sweep(self, verify_calls):
        inst = Instance({"R": [(k, 100 + k) for k in range(10)], "S": [(X,)]})
        got, stats = oracle(NEG, inst)
        assert got == frozenset() == interp_certain_reference(NEG, inst, CWA)
        assert (stats["lower"], stats["upper"], stats["gap"]) == (0, 10, 10)
        assert stats["gap"] > 8 and stats["worlds"] >= 1
        assert verify_calls == []  # too many rows for per-row probes

    def test_domain_dependent_gap(self, verify_calls):
        q = Query(parse("exists y (R(x, y) & !S(y)) & exists z (x = z)"), ("x",))
        assert compiled_query(q).adom_dependent
        inst = Instance({"R": [(1, X), (2, 3), (4, 5)], "S": [(5,)]})
        got, stats = oracle(q, inst)
        assert got == {(2,)} == interp_certain_reference(q, inst, CWA)
        assert stats["gap"] >= 1 and stats["worlds"] >= 1
        assert verify_calls == []  # residual probes need a domain-independent plan

    @pytest.mark.parametrize(
        "rows, holds, gap",
        [([(2, 3), (4, X)], True, 0), ([(1, 2)], False, 1)],
        ids=["certain", "refuted"],
    )
    def test_boolean_query(self, rows, holds, gap):
        q = Query.boolean(parse("exists x, y (R(x, y) & !S(y))"))
        inst = Instance({"R": rows, "S": [(5,)] if holds else [(Y,)]})
        got, stats = oracle(q, inst)
        assert got == interp_certain_reference(q, inst, CWA)
        assert got == (frozenset({()}) if holds else frozenset())
        assert stats["mode"] == "bracket" and stats["gap"] == gap
        assert (stats["worlds"] == 0) == (gap == 0)

    @pytest.fixture
    def benchmark_oracle(self, monkeypatch):
        """``seed -> (query, instance)`` of the perfbench ``oracle`` workload."""
        path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)

        def build(seed):
            w = workloads.build("oracle", seed)
            return Query(parse(w.query), w.vars), instance_from_json(json.dumps(w.instance))

        return build

    def test_benchmark_oracle_instance(self, benchmark_oracle):
        """The perfbench ``oracle`` workload: 21 rows certain, 1 to check."""
        q, inst = benchmark_oracle(1)
        got, stats = oracle(q, inst)
        assert (stats["lower"], stats["upper"], stats["gap"]) == (21, 22, 1)
        assert stats["worlds"] <= 32
        lower, _ = bounds(q, inst)
        assert got == lower == world_reference(q, inst)

    def test_worlds_do_not_depend_on_constant_names(self, benchmark_oracle):
        # the seeds relabel the same instance; the gap row falls in the
        # first total collapse, onto a value of S, whatever the labels:
        # that one collapse (the all-fresh world holds every upper row,
        # so the bracket never evaluates it)
        worlds = {oracle(*benchmark_oracle(seed))[1]["worlds"] for seed in range(1, 11)}
        assert worlds == {1}

    def test_pool_too_small_for_the_all_fresh_world(self):
        # no value of the pool is fresh, so the upper bound is not one of
        # its worlds: the bracket stays off and the pool is enumerated
        inst = Instance({"R": [(1, X), (2, 3), (4, 5)], "S": [(5,)]})
        pool = [1, 2, 3, 4, 5]
        got, stats = oracle(NEG, inst, pool=pool)
        assert stats["mode"] in ("seed", "serial")
        assert "gap" not in stats
        assert got == world_reference(NEG, inst, pool)

    def test_guard_limit_fires_before_the_bracket(self):
        inst = Instance({"R": [(1, X), (2, Y)], "S": [(5,)]})
        with pytest.raises(ExpansionLimitError):
            certain_answers(NEG, inst, CWA, limit=2)

    @pytest.mark.parametrize("key", ["owa", "wcwa", "pcwa", "mincwa", "minpcwa"])
    def test_other_semantics_enumerate_without_a_bracket(self, key):
        inst = Instance({"R": [(1, X), (2, 3)], "S": [(5,)]})
        stats: dict = {}
        kw = {"extra_facts": 1} if key in ("owa", "wcwa") else {}
        certain_answers(NEG, inst, get_semantics(key), stats_out=stats, **kw)
        assert stats["mode"] == "expand"
