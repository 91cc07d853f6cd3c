"""Unit tests for the six concrete semantics: expand and contains.

Cross-validates the two faces of each semantics: everything expand()
yields must pass contains(), and hand-built members/non-members behave
per the paper's definitions (Sections 2.3, 4.3, 7, 10).
"""

import pytest

from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.data.values import Null
from repro.semantics import (
    ALL_SEMANTICS,
    CWA,
    OWA,
    WCWA,
    MinCWA,
    MinPowersetCWA,
    PowersetCWA,
    get_semantics,
)
from repro.semantics.base import ExpansionLimitError

X, Y = Null("x"), Null("y")
K, K1 = Null(""), Null("'")

D0 = Instance({"D": [(K, K1), (K1, K)]})


class TestRegistry:
    def test_all_six_present(self):
        assert set(ALL_SEMANTICS) == {"owa", "cwa", "wcwa", "pcwa", "mincwa", "minpcwa"}

    def test_get_semantics(self):
        assert get_semantics("cwa").name == "CWA"
        with pytest.raises(ValueError):
            get_semantics("nope")

    def test_metadata_complete(self):
        for sem in ALL_SEMANTICS.values():
            assert sem.key and sem.name and sem.notation
            assert sem.hom_class and sem.sound_fragment

    def test_saturation_flags(self):
        assert get_semantics("owa").saturated
        assert get_semantics("cwa").saturated
        assert not get_semantics("mincwa").saturated
        assert not get_semantics("minpcwa").saturated


@pytest.mark.parametrize("key", sorted(ALL_SEMANTICS))
class TestExpandContainsAgreement:
    def test_expansion_members_pass_contains(self, key):
        sem = get_semantics(key)
        d = Instance({"R": [(1, X), (X, Y)]})
        extra = {"extra_facts": 1} if key in ("owa", "wcwa") else {}
        count = 0
        for complete in sem.expand(d, [1, 2], **extra):
            assert complete.is_complete()
            assert sem.contains(d, complete), f"{complete!r} ∉ [[D]] under {key}"
            count += 1
        assert count > 0

    def test_contains_rejects_incomplete(self, key):
        sem = get_semantics(key)
        with pytest.raises(ValueError):
            sem.contains(Instance.empty(), Instance({"R": [(X, 1)]}))


class TestCWA:
    def test_d0_members(self):
        sem = CWA()
        assert sem.contains(D0, Instance({"D": [(1, 2), (2, 1)]}))
        assert sem.contains(D0, Instance({"D": [(3, 3)]}))  # c = c' collapses
        assert not sem.contains(D0, Instance({"D": [(1, 2)]}))  # lost a fact? no: h(D) has both...
        # {(1,2)} is h(D) for no valuation: h(K)=1,h(K')=2 gives {(1,2),(2,1)}
        assert not sem.contains(D0, Instance({"D": [(1, 2), (2, 1), (5, 5)]}))

    def test_expand_counts(self):
        images = set(CWA().expand(D0, [1, 2]))
        # valuations: (1,1),(1,2),(2,1),(2,2) → images {(1,1)},{(1,2),(2,1)} ×2, {(2,2)}
        assert images == {
            Instance({"D": [(1, 1)]}),
            Instance({"D": [(2, 2)]}),
            Instance({"D": [(1, 2), (2, 1)]}),
        }

    def test_constants_preserved(self):
        d = Instance({"R": [(7, X)]})
        for e in CWA().expand(d, [1]):
            assert (7, 1) in e.tuples("R")

    def test_limit_guard(self):
        d = Instance({"R": [(Null(str(i)), Null(str(i + 100))) for i in range(10)]})
        with pytest.raises(ExpansionLimitError):
            list(CWA().expand(d, [1, 2, 3, 4], limit=10))


class TestOWA:
    def test_supersets_members(self):
        sem = OWA()
        d = Instance({"R": [(1, X)]})
        assert sem.contains(d, Instance({"R": [(1, 2)]}))
        assert sem.contains(d, Instance({"R": [(1, 2), (9, 9)], "S": [(4,)]}))
        assert not sem.contains(d, Instance({"R": [(2, 2)]}))  # no (1,_) fact

    def test_expand_extends_schema(self):
        d = Instance({"R": [(1, X)]})
        wide = Schema({"R": 2, "S": 1})
        results = list(OWA().expand(d, [1], schema=wide, extra_facts=1))
        assert any(e.tuples("S") for e in results)

    def test_never_exact(self):
        assert not OWA().enumeration_exact(None)
        assert not OWA().enumeration_exact(100)


class TestWCWA:
    def test_extension_within_adom(self):
        sem = WCWA()
        d = Instance({"D": [(X, Y)]})
        # {(1,2),(2,1)} extends h(D)={(1,2)} within adom {1,2}: member
        assert sem.contains(d, Instance({"D": [(1, 2), (2, 1)]}))
        # {(1,2),(3,3)} introduces a value outside adom(h(D)): not member
        assert not sem.contains(d, Instance({"D": [(1, 2), (3, 3)]}))

    def test_sandwich_cwa_wcwa_owa(self):
        # [[D]]_CWA ⊆ [[D]]_WCWA ⊆ [[D]]_OWA on concrete members
        d = Instance({"D": [(X, Y)]})
        e = Instance({"D": [(1, 2), (2, 1)]})
        assert not CWA().contains(d, e)
        assert WCWA().contains(d, e)
        assert OWA().contains(d, e)

    def test_exactness_flag(self):
        assert WCWA().enumeration_exact(None)
        assert not WCWA().enumeration_exact(1)

    def test_full_expand_small(self):
        d = Instance({"D": [(X,)]})
        results = set(WCWA().expand(d, [1]))
        assert results == {Instance({"D": [(1,)]})}


class TestPowersetCWA:
    def test_union_of_two_valuations(self):
        sem = PowersetCWA()
        d = Instance({"R": [(X, Y)]})
        # h1 = (1,2), h2 = (2,1): union {(1,2),(2,1)} is a member
        assert sem.contains(d, Instance({"R": [(1, 2), (2, 1)]}))
        # but {(1,2),(3,3)} is also a union (h2 = (3,3)) — member too
        assert sem.contains(d, Instance({"R": [(1, 2), (3, 3)]}))
        # {(1,2)} ∪ junk that is no valuation image: not a member
        assert not sem.contains(d, Instance({"R": [(1, 2)], "S": [(9,)]}))

    def test_paper_vs_cwa_difference(self):
        # D = {(⊥,⊥')}: {(1,2),(2,1)} ∉ CWA but ∈ WCWA/powerset
        d = Instance({"D": [(X, Y)]})
        e = Instance({"D": [(1, 2), (2, 1)]})
        assert not CWA().contains(d, e)
        assert PowersetCWA().contains(d, e)

    def test_expand_respects_union_bound(self):
        d = Instance({"R": [(X,)]})
        singles = set(PowersetCWA().expand(d, [1, 2], extra_facts=1))
        assert singles == {Instance({"R": [(1,)]}), Instance({"R": [(2,)]})}
        pairs = set(PowersetCWA().expand(d, [1, 2], extra_facts=2))
        assert Instance({"R": [(1,), (2,)]}) in pairs

    def test_limit_refuses_before_collecting_every_image(self, monkeypatch):
        # 7^6 valuations of a 6-null chain; with unions of at most two
        # images, the 45th image is the first to pass 1000 unions
        # (45·46/2 = 1035), so the refusal pulls exactly 45 images
        import repro.semantics.powerset as powerset

        pulled = []
        real = powerset.iter_valuation_images

        def counting(instance, pool):
            for image in real(instance, pool):
                pulled.append(image)
                yield image

        monkeypatch.setattr(powerset, "iter_valuation_images", counting)
        chain = Instance({"R": [(Null(f"n{i}"), Null(f"n{i + 1}")) for i in range(5)]})
        with pytest.raises(ExpansionLimitError, match="more than 1000 instances"):
            list(PowersetCWA().expand(chain, list(range(7)), limit=1000))
        assert len(pulled) == 45

    def test_limit_verdict_matches_the_full_count(self):
        d = Instance({"R": [(X, Y)]})  # 9 images over a 3-value pool
        # pairs and singles of 9 images: 9 + 36 = 45 unions
        assert len(list(PowersetCWA().expand(d, [1, 2, 3], limit=45))) <= 45
        with pytest.raises(ExpansionLimitError):
            list(PowersetCWA().expand(d, [1, 2, 3], limit=44))


class TestMinimalSemantics:
    def test_min_cwa_excludes_non_minimal_images(self):
        # D = {(⊥,⊥),(⊥,⊥')}: minimal valuations map ⊥' to ⊥'s value
        d = Instance({"T": [(X, X), (X, Y)]})
        sem = MinCWA()
        assert sem.contains(d, Instance({"T": [(1, 1)]}))
        assert not sem.contains(d, Instance({"T": [(1, 1), (1, 2)]}))
        # compare: plain CWA accepts the non-minimal image
        assert CWA().contains(d, Instance({"T": [(1, 1), (1, 2)]}))

    def test_min_cwa_expand(self):
        d = Instance({"T": [(X, X), (X, Y)]})
        images = set(MinCWA().expand(d, [1, 2]))
        assert images == {Instance({"T": [(1, 1)]}), Instance({"T": [(2, 2)]})}

    def test_min_powerset_union(self):
        d = Instance({"T": [(X, X), (X, Y)]})
        sem = MinPowersetCWA()
        both = Instance({"T": [(1, 1), (2, 2)]})
        assert sem.contains(d, both)
        # a union including a non-minimal image is not a member
        assert not sem.contains(d, Instance({"T": [(1, 1), (1, 2)]}))

    def test_min_powerset_limit_refuses_early(self, monkeypatch):
        # every valuation of R(⊥i, i) gives a distinct image of the same
        # size, so all 4^3 = 64 are minimal; 14 images give 14·15/2 = 105
        # unions of at most two, the first count over the limit of 100
        import repro.semantics.minimal as minimal

        pulled = []
        real = minimal.iter_minimal_images

        def counting(instance, pool):
            for image in real(instance, pool):
                pulled.append(image)
                yield image

        monkeypatch.setattr(minimal, "iter_minimal_images", counting)
        d = Instance({"R": [(Null(f"v{i}"), i) for i in range(3)]})
        with pytest.raises(ExpansionLimitError, match="more than 100 instances"):
            list(MinPowersetCWA().expand(d, [10, 11, 12, 13], limit=100))
        assert len(pulled) == 14

    def test_graph_example_membership(self):
        """Prop 10.1's end: C3^C + C2^C ∈ [[C6+C4]]_CWA but ∉ [[·]]^min_CWA."""
        from repro.data.generate import cores_graph_example

        g, _, _ = cores_graph_example()
        # complete version of C3 + C2 over constants
        from repro.data.generate import cycle, disjoint_union

        target = disjoint_union(cycle(3, ["a", "b", "c"]), cycle(2, ["d", "e"]))
        assert CWA().contains(g, target)
        assert not MinCWA().contains(g, target)
