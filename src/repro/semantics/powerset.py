"""The powerset closed-world semantics ``⦇D⦈_CWA`` (Section 7).

``⦇D⦈_CWA = { h1(D) ∪ … ∪ hn(D) | h1,…,hn valuations, n ≥ 1 }``: several
valuations are applied and their images combined.  Its homomorphism
class is *unions of strong onto homomorphisms*, and naive evaluation is
sound for ``∃Pos+∀G_bool`` (Corollary 7.9).  Restricted to Codd
databases, the induced ordering is exactly Plotkin's ``⊑^P``
(Theorem 7.1).
"""

from __future__ import annotations

import itertools
import math
from typing import Hashable, Iterable, Iterator, Sequence

from repro.data.instance import Instance
from repro.data.schema import Schema
from repro.homs.search import iter_homomorphisms
from repro.semantics.base import ExpansionLimitError, Semantics, iter_valuation_images

__all__ = ["PowersetCWA", "collect_images", "iter_nonempty_unions"]


def collect_images(
    images: Iterable[Instance], max_size: int, limit: int, what: str
) -> list[Instance]:
    """``list(images)``, refused once their unions would exceed ``limit``.

    The unions of at most ``max_size`` images only grow in number as
    images arrive, so the refusal comes as soon as the images pulled so
    far already give more than ``limit`` of them — the same verdict as
    counting after collecting every image, without collecting them all.
    """
    collected: list[Instance] = []
    for image in images:
        collected.append(image)
        n = len(collected)
        unions = sum(math.comb(n, k) for k in range(1, min(max_size, n) + 1))
        if unions > limit:
            raise ExpansionLimitError(
                f"{what} would enumerate more than {limit} instances (the first "
                f"{n} images already give {unions} unions); "
                "shrink the instance/pool or raise the limit"
            )
    return collected


def iter_nonempty_unions(
    images: list[Instance], max_size: int | None = None
) -> Iterator[Instance]:
    """Unions of nonempty subsets of ``images`` up to ``max_size`` (deduplicated).

    ``max_size=None`` enumerates all ``2^n - 1`` subsets.
    """
    top = len(images) if max_size is None else min(max_size, len(images))
    seen: set[Instance] = set()
    for size in range(1, top + 1):
        for subset in itertools.combinations(images, size):
            union = subset[0]
            for inst in subset[1:]:
                union = union.union(inst)
            if union not in seen:
                seen.add(union)
                yield union


class PowersetCWA(Semantics):
    """Powerset closed-world assumption ``⦇·⦈_CWA``."""

    key = "pcwa"
    name = "powerset CWA"
    notation = "⦇·⦈_CWA"
    saturated = True
    hom_class = "unions of strong onto homomorphisms"
    sound_fragment = "EPosForallGBool"
    #: default bound on the number of valuations combined in one union.
    #: For powerset semantics the ``extra_facts`` knob of :meth:`expand`
    #: is reinterpreted as this bound (``None`` = the class default);
    #: pass a large value for full subset enumeration on small inputs.
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
            iter_valuation_images(instance, pool), bound, limit, "powerset-CWA expansion"
        )
        yield from iter_nonempty_unions(images, max_size=bound)

    def contains(self, instance: Instance, complete: Instance) -> bool:
        self._check_complete(complete)
        # E ∈ ⦇D⦈_CWA iff E is a union of valuation images v(D) ⊆ E.
        # The union of *all* such images is the largest candidate, so it
        # suffices to check that it covers E and is nonempty.
        covered = Instance.empty()
        any_valuation = False
        for hom in iter_homomorphisms(
            instance, complete, fix_constants=True, require_complete_image=True
        ):
            any_valuation = True
            covered = covered.union(instance.apply(hom))
            if complete.issubinstance(covered):
                break
        return any_valuation and covered == complete
