"""Unit tests for repro.homs.minimal: D-minimal valuations (Section 10)."""

from diffutil import fuzz_rng, fuzz_trials, unpruned_shrinking_homomorphism

from repro.data.generate import cores_graph_example, minimal_4ary_example, random_instance
from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.data.values import Null
from repro.homs.core import core, is_core
from repro.homs.minimal import (
    is_d_minimal,
    iter_minimal_images,
    iter_minimal_valuations,
    minimal_valuation_images,
    some_minimal_valuation,
)
from repro.homs.properties import fix_set

X, Y = Null("x"), Null("y")


class TestIsDMinimal:
    def test_paper_example_non_minimal_valuation(self):
        # D = {(⊥,⊥),(⊥,⊥')}; v(⊥)=1, v(⊥')=2 is NOT minimal:
        # v'(⊥)=v'(⊥')=1 has a strictly smaller image.
        d = Instance({"T": [(X, X), (X, Y)]})
        assert not is_d_minimal(d, {X: 1, Y: 2})
        assert is_d_minimal(d, {X: 1, Y: 1})

    def test_injective_valuation_on_core_is_minimal(self):
        d = Instance({"R": [(X, Y)]})
        assert is_d_minimal(d, {X: 1, Y: 2})

    def test_4ary_counterexample(self):
        # both D and h(D) are cores, yet h is not D-minimal (Prop 10.1)
        d, h = minimal_4ary_example()
        assert is_core(d)
        assert is_core(d.apply(h))
        assert not is_d_minimal(d, h, mode="database")

    def test_graph_counterexample(self):
        # C4+C6 → C3+C2 strong onto but not minimal: G → C2 exists.
        g, h_graph, hom = cores_graph_example()
        assert not is_d_minimal(g, hom, mode="mapping")

    def test_minimal_image_is_core(self):
        # Prop 10.1: if h is D-minimal then h(D) is a core
        d = Instance({"R": [(X, 1), (Y, 1), (X, Y)]})
        for v in iter_minimal_valuations(d, [1, 2, 3]):
            assert is_core(d.apply(v))

    def test_minimal_image_equals_image_of_core(self):
        # Prop 10.1: h(D) = h(core(D)) for D-minimal h
        d = Instance({"D": [(X, X), (X, Y)]})
        c = core(d)
        for v in iter_minimal_valuations(d, [1, 2]):
            assert d.apply(v) == c.apply(v)

    def test_unknown_mode_raises(self):
        import pytest

        with pytest.raises(ValueError):
            is_d_minimal(Instance({"R": [(X,)]}), {X: 1}, mode="bogus")


class TestEnumeration:
    def test_minimal_valuations_of_collapsing_instance(self):
        # every minimal valuation of {(⊥,⊥),(⊥,⊥')} maps both nulls together
        d = Instance({"T": [(X, X), (X, Y)]})
        vals = list(iter_minimal_valuations(d, [1, 2]))
        assert vals, "some minimal valuation must exist"
        assert all(v[X] == v[Y] for v in vals)

    def test_minimal_images_shape(self):
        d = Instance({"T": [(X, X), (X, Y)]})
        images = minimal_valuation_images(d, [1, 2])
        assert images == {
            Instance({"T": [(1, 1)]}),
            Instance({"T": [(2, 2)]}),
        }

    def test_some_minimal_valuation(self):
        d = Instance({"R": [(X,)]})
        assert some_minimal_valuation(d, [1]) == {X: 1}
        assert some_minimal_valuation(d, []) is None

    def test_no_nulls_single_identity_valuation(self):
        d = Instance({"R": [(1, 2)]})
        vals = list(iter_minimal_valuations(d, [5]))
        assert vals == [{}]


class TestNullFreeFactsAreSkipped:
    """A database homomorphism keeps every null-free fact of ``D``, so the
    minimality test never removes one from ``v(D)``; the verdicts must
    equal the unpruned search's in both modes."""

    def test_is_d_minimal_matches_the_unpruned_search(self):
        rng = fuzz_rng("homs-minimal-null-free")
        for _ in range(fuzz_trials(40)):
            d = random_instance(
                Schema({"R": 2, "S": 1}), rng, n_facts=rng.randint(1, 6),
                constants=(1, 2, 3), n_nulls=rng.randint(1, 3),
            )
            nulls = sorted(d.nulls(), key=lambda n: n.label)
            valuation = {n: rng.choice((1, 2, 3, 4)) for n in nulls}
            image = d.apply(valuation)
            want = unpruned_shrinking_homomorphism(d, image, True) is None
            assert is_d_minimal(d, valuation) == want, (d, valuation)
            # an arbitrary mapping may move constants and keep nulls
            targets = (1, 2, 3, 4, *nulls)
            mapping = {v: rng.choice(targets) for v in sorted(d.adom(), key=repr)}
            pinned = {c: c for c in fix_set(mapping, d)}
            image = d.apply(mapping)
            want = unpruned_shrinking_homomorphism(d, image, False, pinned) is None
            assert is_d_minimal(d, mapping, mode="mapping") == want, (d, mapping)

    def test_minimal_images_are_the_distinct_images_of_minimal_valuations(self):
        rng = fuzz_rng("homs-minimal-images")
        for _ in range(fuzz_trials(10)):
            d = random_instance(
                Schema({"R": 2, "S": 1}), rng, n_facts=rng.randint(1, 5),
                constants=(1, 2), n_nulls=rng.randint(1, 3),
            )
            images = list(iter_minimal_images(d, [1, 2, 3]))
            first_seen = list(dict.fromkeys(
                d.apply(v) for v in iter_minimal_valuations(d, [1, 2, 3])
            ))
            assert images == first_seen, d
