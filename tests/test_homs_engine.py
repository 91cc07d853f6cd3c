"""Differential and unit tests for the homomorphism search.

The contract: :func:`repro.homs.search.iter_homomorphisms` yields
exactly the same *set* of homomorphisms as the fact-by-fact reference
extender :func:`repro.homs.search.reference_homomorphisms`, for every
option combination the paper uses — order may differ.  The property
suite sweeps random instance pairs (scaled by ``REPRO_FUZZ``); the unit
tests pin the structural pre-checks and the candidate tables.
"""

import itertools

import pytest
from diffutil import fuzz_rng, fuzz_trials

from repro.data.generate import cycle, random_instance
from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.data.values import Null
from repro.homs.search import (
    candidate_tables,
    find_homomorphism,
    find_isomorphism,
    iter_homomorphisms,
    reference_homomorphisms,
)

SCHEMA = Schema({"R": 2, "S": 1})
X, Y, Z = Null("x"), Null("y"), Null("z")

#: every combination of the boolean search options
OPTION_NAMES = ("fix_constants", "onto", "strong_onto", "injective", "require_complete_image")
ALL_OPTIONS = [
    dict(zip(OPTION_NAMES, flags))
    for flags in itertools.product((True, False), repeat=len(OPTION_NAMES))
]


def homset(it):
    return frozenset(frozenset(h.items()) for h in it)


def random_pair(rng, max_source, max_target):
    src = random_instance(
        SCHEMA, rng, n_facts=rng.randint(0, max_source), constants=(1, 2),
        n_nulls=rng.randint(0, 3), null_probability=0.6,
    )
    tgt = random_instance(
        SCHEMA, rng, n_facts=rng.randint(0, max_target), constants=(1, 2, 3),
        n_nulls=rng.randint(0, 2), null_probability=0.3,
    )
    return src, tgt


class TestDifferential:
    """Random instance pairs: the search and the reference agree on the
    full hom set."""

    @pytest.mark.parametrize("seed", range(8))
    def test_plain_and_database_homs(self, seed):
        rng = fuzz_rng(f"homs-engine-plain-{seed}")
        for _ in range(fuzz_trials(25)):
            src, tgt = random_pair(rng, 4, 10)
            for fix in (True, False):
                want = homset(reference_homomorphisms(src, tgt, fix_constants=fix))
                got = homset(iter_homomorphisms(src, tgt, fix_constants=fix))
                assert want == got, (src, tgt, fix)

    @pytest.mark.parametrize(
        "options",
        [
            {"onto": True},
            {"strong_onto": True},
            {"injective": True},
            {"require_complete_image": True},
            {"onto": True, "injective": True},
            {"strong_onto": True, "injective": True},
            {"fix_constants": False, "strong_onto": True},
            {"fix_constants": False, "require_complete_image": True},
        ],
    )
    def test_option_combinations(self, options):
        rng = fuzz_rng(f"homs-engine-options-{sorted(options.items())}")
        for _ in range(fuzz_trials(30)):
            src, tgt = random_pair(rng, 4, 6)
            want = homset(reference_homomorphisms(src, tgt, **options))
            got = homset(iter_homomorphisms(src, tgt, **options))
            assert want == got, (src, tgt, options)

    def test_pinned(self):
        rng = fuzz_rng("homs-engine-pinned")
        for _ in range(fuzz_trials(40)):
            src = random_instance(
                SCHEMA, rng, n_facts=rng.randint(1, 4), constants=(1, 2),
                n_nulls=rng.randint(1, 3), null_probability=0.7,
            )
            tgt = random_instance(
                SCHEMA, rng, n_facts=rng.randint(1, 6), constants=(1, 2, 3),
                n_nulls=0,
            )
            adom = sorted(src.adom(), key=repr)
            pinned = {adom[rng.randrange(len(adom))]: rng.choice((1, 2, 3, 9))}
            want = homset(reference_homomorphisms(src, tgt, pinned=pinned))
            got = homset(iter_homomorphisms(src, tgt, pinned=pinned))
            assert want == got, (src, tgt, pinned)

    @pytest.mark.parametrize(
        "options", ALL_OPTIONS,
        ids=["-".join(k for k, v in o.items() if v) or "none" for o in ALL_OPTIONS],
    )
    def test_pinned_with_every_option_combination(self, options):
        rng = fuzz_rng(f"homs-engine-pinned-{sorted(options.items())}")
        for _ in range(fuzz_trials(12)):
            src, tgt = random_pair(rng, 4, 6)
            adom = sorted(src.adom(), key=repr)
            images = sorted(tgt.adom(), key=repr) + [9]
            pinned = {
                adom[rng.randrange(len(adom))]: rng.choice(images)
                for _ in range(rng.randint(1, 2))
            } if adom else {}
            want = homset(reference_homomorphisms(src, tgt, pinned=pinned, **options))
            got = homset(iter_homomorphisms(src, tgt, pinned=pinned, **options))
            assert want == got, (src, tgt, pinned, options)


class TestCSPBehaviour:
    def test_graph_homs(self):
        c6 = cycle(6)
        c3 = cycle(3, values=[Null("a"), Null("b"), Null("c")])
        assert homset(iter_homomorphisms(c6, c3, fix_constants=False))
        c4 = cycle(4)
        assert not homset(iter_homomorphisms(c4, c3, fix_constants=False))

    def test_empty_source_maps_anywhere(self):
        assert list(iter_homomorphisms(Instance.empty(), Instance({"R": [(1,)]}))) == [{}]
        assert list(iter_homomorphisms(Instance.empty(), Instance.empty())) == [{}]
        # but not onto a non-empty active domain
        assert not list(
            iter_homomorphisms(Instance.empty(), Instance({"R": [(1,)]}), onto=True)
        )

    def test_strong_onto_prechecks(self):
        # relation mismatch and target-larger-than-source fail without search
        d = Instance({"R": [(X, Y)]})
        assert not list(iter_homomorphisms(d, Instance({"S": [(1,)]}), strong_onto=True))
        assert not list(
            iter_homomorphisms(
                d, Instance({"R": [(1, 2), (3, 4)]}), strong_onto=True
            )
        )

    def test_onto_precheck(self):
        d = Instance({"R": [(X, X)]})
        big = Instance({"R": [(1, 2), (2, 3)]})
        assert not list(iter_homomorphisms(d, big, onto=True))

    def test_injective_precheck_and_pinned_conflict(self):
        d = Instance({"R": [(X,), (Y,)]})
        small = Instance({"R": [(1,)]})
        assert not list(iter_homomorphisms(d, small, injective=True))
        assert not list(
            iter_homomorphisms(
                Instance({"R": [(X, Y)]}),
                Instance({"R": [(1, 1)]}),
                injective=True,
            )
        )

    def test_candidate_tables_probe_constants(self):
        src = Instance({"R": [(1, X)]})
        tgt = Instance({"R": [(1, 5), (1, 6), (2, 7)]})
        table = dict(candidate_tables(src, tgt, True, False))
        assert set(table[("R", (1, X))]) == {(1, 5), (1, 6)}

    def test_candidate_tables_repeated_values(self):
        src = Instance({"R": [(X, X)]})
        tgt = Instance({"R": [(1, 1), (1, 2)]})
        table = dict(candidate_tables(src, tgt, True, False))
        assert set(table[("R", (X, X))]) == {(1, 1)}

    def test_candidate_tables_complete_image(self):
        src = Instance({"R": [(X, Y)]})
        tgt = Instance({"R": [(1, 2), (1, Null("t"))]})
        table = dict(candidate_tables(src, tgt, True, True))
        assert set(table[("R", (X, Y))]) == {(1, 2)}


class TestRouting:
    """Every entry point runs the one search."""

    def test_facade_engines_agree(self):
        src = Instance({"R": [(X, Y), (Y, Z)], "S": [(X,)]})
        tgt = Instance(
            {"R": [(1, 2), (2, 3), (3, 1), (2, 2)], "S": [(1,), (2,)]}
        )
        got = homset(iter_homomorphisms(src, tgt))
        assert got and got == homset(reference_homomorphisms(src, tgt))

    def test_find_and_iso_route_through_facade(self):
        a = Instance({"R": [(X, Y)]})
        b = Instance({"R": [(Null("p"), Null("q"))]})
        iso = find_isomorphism(a, b)
        assert iso is not None and a.apply(iso) == b
        hom = find_homomorphism(a, b)
        assert hom is not None
