"""Minimal-valuation semantics (Section 10; Hernich 2011, Minker 1982).

``[[D]]^min_CWA = { h(D) | h a D-minimal valuation }`` and its powerset
variant ``⦇D⦈^min_CWA`` (unions of images of nonempty sets of D-minimal
valuations).  These semantics are **not saturated**: an instance need
not have an isomorphic complete member of its own semantics.  Their
representative set is the set of *cores* (Theorem 10.2), so naive
evaluation results hold over cores (Corollary 10.12), and in general
naive evaluation additionally requires ``Q(D) = Q(core(D))``
(Corollary 10.6).
"""

from __future__ import annotations

from typing import Hashable, Iterator, Sequence

from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.homs.minimal import is_d_minimal, iter_minimal_images
from repro.homs.search import iter_homomorphisms
from repro.semantics.base import Semantics, guard_limit
from repro.semantics.powerset import collect_images, iter_nonempty_unions

__all__ = ["MinCWA", "MinPowersetCWA"]


class MinCWA(Semantics):
    """Minimal closed-world assumption ``[[·]]^min_CWA``."""

    key = "mincwa"
    name = "minimal CWA"
    notation = "[[·]]^min_CWA"
    saturated = False
    hom_class = "minimal homomorphisms"
    sound_fragment = "PosForallG"  # over cores (Corollary 10.12)

    def expand(
        self,
        instance: Instance,
        pool: Sequence[Hashable],
        schema: Schema | None = None,
        extra_facts: int | None = None,
        limit: int = 500_000,
    ) -> Iterator[Instance]:
        guard_limit(len(pool) ** len(instance.nulls()), limit, "min-CWA expansion")
        yield from iter_minimal_images(instance, pool)

    def contains(self, instance: Instance, complete: Instance) -> bool:
        self._check_complete(complete)
        # E ∈ [[D]]^min_CWA iff some valuation maps D exactly onto E and
        # is D-minimal.  Minimality is checked exactly (the competing
        # homomorphism's image is a subinstance of E, so the search is
        # self-contained).
        for hom in iter_homomorphisms(
            instance,
            complete,
            fix_constants=True,
            require_complete_image=True,
            strong_onto=True,
        ):
            if is_d_minimal(instance, hom, mode="database"):
                return True
        return False


class MinPowersetCWA(Semantics):
    """Minimal powerset closed-world assumption ``⦇·⦈^min_CWA``."""

    key = "minpcwa"
    name = "minimal powerset CWA"
    notation = "⦇·⦈^min_CWA"
    saturated = False
    hom_class = "unions of minimal homomorphisms"
    sound_fragment = "EPosForallGBool"  # over cores (Corollary 10.12)
    #: like :class:`~repro.semantics.powerset.PowersetCWA`, ``extra_facts``
    #: is reinterpreted as the union-size bound (``None`` = default).
    default_union_bound = 2

    def enumeration_exact(self, extra_facts: int | None) -> bool:
        return False  # unions may combine unboundedly many valuations

    def expand(
        self,
        instance: Instance,
        pool: Sequence[Hashable],
        schema: Schema | None = None,
        extra_facts: int | None = None,
        limit: int = 500_000,
    ) -> Iterator[Instance]:
        bound = self.default_union_bound if extra_facts is None else extra_facts
        images = collect_images(
            iter_minimal_images(instance, pool), bound, limit, "min-powerset-CWA expansion"
        )
        yield from iter_nonempty_unions(images, max_size=bound)

    def contains(self, instance: Instance, complete: Instance) -> bool:
        self._check_complete(complete)
        # E ∈ ⦇D⦈^min_CWA iff E is a union of images of D-minimal
        # valuations, each of which is necessarily ⊆ E; the union of all
        # such images is the largest candidate.
        covered = Instance.empty()
        any_minimal = False
        for hom in iter_homomorphisms(
            instance, complete, fix_constants=True, require_complete_image=True
        ):
            if not is_d_minimal(instance, hom, mode="database"):
                continue
            any_minimal = True
            covered = covered.union(instance.apply(hom))
            if complete.issubinstance(covered):
                break
        return any_minimal and covered == complete
