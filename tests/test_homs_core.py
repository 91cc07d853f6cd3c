"""Unit tests for repro.homs.core: cores and retractions (Section 10.1)."""

import pytest
from diffutil import fuzz_rng, fuzz_trials, unpruned_shrinking_homomorphism

from repro.data.generate import cycle, disjoint_union, path, random_instance
from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.data.values import Null
from repro.homs.core import core, is_core, retract_step

X, Y = Null("x"), Null("y")


class TestIsCore:
    def test_single_fact_is_core(self):
        assert is_core(Instance({"R": [(1, 2)]}))

    def test_complete_instances_are_cores(self):
        # database homs fix constants, so no complete instance retracts
        assert is_core(Instance({"R": [(1, 2), (2, 3), (1, 1)]}))

    def test_redundant_null_fact_not_core(self):
        d = Instance({"R": [(1, 2), (1, X)]})
        assert not is_core(d)

    def test_cycles_are_cores(self):
        for n in (2, 3, 4, 5, 6):
            assert is_core(cycle(n), fix_constants=False)

    def test_even_cycle_pairs_are_not_cores(self):
        g = disjoint_union(cycle(4), cycle(6, [Null(f"b{i}") for i in range(6)]))
        # C4 + C6 maps onto C2?  No — but C4+C6 has no retraction to a
        # proper subinstance either, so it IS a core (paper Prop. 10.1).
        assert is_core(g, fix_constants=False)

    def test_c3_plus_c6_is_not_core(self):
        g = disjoint_union(cycle(3), cycle(6, [Null(f"b{i}") for i in range(6)]))
        # C6 retracts onto C3 inside the union.
        assert not is_core(g, fix_constants=False)


class TestCoreComputation:
    def test_paper_example_core(self):
        # core({(⊥,⊥), (⊥,⊥')}) = {(⊥,⊥)} (Section 10.2 remark)
        d = Instance({"D": [(X, X), (X, Y)]})
        c = core(d)
        assert c == Instance({"D": [(X, X)]})

    def test_core_is_idempotent(self):
        d = Instance({"R": [(1, X), (1, Y), (Y, 2)]})
        c = core(d)
        assert core(c) == c
        assert is_core(c)

    def test_core_is_subinstance(self):
        d = Instance({"R": [(1, X), (1, 2), (Y, 2)]})
        assert core(d) <= d

    def test_directed_paths_are_cores(self):
        # directed paths admit no retraction to a proper subinstance
        p = path(3)
        assert is_core(p, fix_constants=False)
        assert core(p, fix_constants=False) == p

    def test_loop_absorbs_pendant_edge(self):
        # {E(x,x), E(x,y)} retracts onto the loop {E(x,x)}
        d = Instance({"E": [(X, X), (X, Y)]})
        assert core(d, fix_constants=False) == Instance({"E": [(X, X)]})

    def test_core_preserves_constants(self):
        d = Instance({"R": [(1, 2), (1, X)]})
        c = core(d)
        assert c == Instance({"R": [(1, 2)]})

    def test_core_unique_up_to_isomorphism(self):
        d = Instance({"R": [(X, Y), (Y, X), (Null("z"), Null("w"))]})
        c1 = core(d)
        # recompute from a renamed copy
        renamed, _ = d.with_fresh_values(d.nulls(), iter(Null(f"r{i}") for i in range(9)).__next__)
        c2 = core(renamed)
        assert c1.isomorphic(c2)

    def test_retract_step_returns_smaller_or_none(self):
        d = Instance({"R": [(1, X), (1, 2)]})
        smaller = retract_step(d)
        assert smaller is not None
        assert smaller.fact_count() < d.fact_count()
        assert retract_step(Instance({"R": [(1, 2)]})) is None

    def test_clique_core_of_bipartite_like(self):
        # K2 (a 2-cycle both ways = C2) absorbs any even cycle
        g = disjoint_union(cycle(2, [Null("u"), Null("v")]), cycle(4))
        c = core(g, fix_constants=False)
        assert c.fact_count() == 2


class TestNullFreeFactsAreSkipped:
    """A database homomorphism maps every null-free fact to itself, so the
    retraction search skips removing one; the verdicts must equal the
    unpruned search's, with constants fixed or free."""

    @staticmethod
    def reference_core(instance, fix_constants):
        current = instance
        while True:
            hom = unpruned_shrinking_homomorphism(current, current, fix_constants)
            if hom is None:
                return current
            current = current.apply(hom)

    @pytest.mark.parametrize("fix_constants", [True, False])
    def test_is_core_and_core_match_the_unpruned_search(self, fix_constants):
        rng = fuzz_rng(f"homs-core-null-free-{fix_constants}")
        for _ in range(fuzz_trials(40)):
            d = random_instance(
                Schema({"R": 2, "S": 1}), rng, n_facts=rng.randint(1, 8),
                constants=(1, 2, 3), n_nulls=rng.randint(0, 3),
                null_probability=rng.choice((0.2, 0.4, 0.7)),
            )
            want = self.reference_core(d, fix_constants)
            assert is_core(d, fix_constants=fix_constants) == (want == d), d
            assert core(d, fix_constants=fix_constants) == want, d
