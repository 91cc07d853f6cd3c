"""D-minimal homomorphisms, valuations and mappings (Section 10).

A homomorphism ``h`` defined on ``D`` is *D-minimal* if no proper
subinstance of ``h(D)`` is a homomorphic image of ``D``; equivalently no
other homomorphism ``h'`` has ``h'(D) ⊊ h(D)``.  The minimal-valuation
semantics ``[[·]]^min_CWA`` and ``⦇·⦈^min_CWA`` are built from these.

Section 10.2 extends minimality to arbitrary mappings via fix sets:
``h`` is D-minimal if no mapping ``g`` with ``fix(h,D) ⊆ fix(g,D)``
satisfies ``g(D) ⊊ h(D)``.  Both notions are provided.
"""

from __future__ import annotations

from typing import Hashable, Iterator, Mapping, Sequence

from repro.data.instance import Instance
from repro.homs.core import shrinking_homomorphism
from repro.homs.properties import fix_set
from repro.homs.search import iter_mappings

__all__ = [
    "is_d_minimal",
    "iter_minimal_valuations",
    "iter_minimal_images",
    "minimal_valuation_images",
    "some_minimal_valuation",
]

Assignment = Mapping[Hashable, Hashable]


def is_d_minimal(
    source: Instance,
    mapping: Assignment,
    mode: str = "database",
) -> bool:
    """Is ``mapping`` a D-minimal map on ``source``?

    ``mode="database"``
        competitors are database homomorphisms (identity on all
        constants) — the notion used for D-minimal valuations.
    ``mode="mapping"``
        competitors are arbitrary mappings ``g`` with
        ``fix(mapping, source) ⊆ fix(g, source)`` (Section 10.2).
    """
    image = source.apply(mapping)
    if mode == "database":
        return shrinking_homomorphism(source, image) is None
    if mode == "mapping":
        pinned = {c: c for c in fix_set(mapping, source)}
        return shrinking_homomorphism(source, image, fix_constants=False, pinned=pinned) is None
    raise ValueError(f"unknown minimality mode {mode!r}")


def iter_minimal_valuations(
    source: Instance,
    pool: Sequence[Hashable],
) -> Iterator[dict]:
    """All D-minimal valuations of ``source`` into the constant pool.

    Valuations assign pool constants to the nulls of ``source`` (and
    are the identity on its constants).  Yields only those whose image
    cannot be shrunk by another database homomorphism.

    D-minimality depends on the valuation only through its *image*
    ``v(source)``, and distinct valuations frequently collapse to the
    same image (any two that disagree only on interchangeable nulls),
    so the verdict is memoised per image for the whole sweep.
    """
    verdicts: dict[Instance, bool] = {}
    for valuation in iter_mappings(sorted(source.nulls(), key=lambda n: n.label), pool):
        image = source.apply(valuation)
        verdict = verdicts.get(image)
        if verdict is None:
            verdict = shrinking_homomorphism(source, image) is None
            verdicts[image] = verdict
        if verdict:
            yield valuation


def iter_minimal_images(source: Instance, pool: Sequence[Hashable]) -> Iterator[Instance]:
    """The distinct images ``v(D)`` of D-minimal valuations into ``pool``.

    Each image once, in the order :func:`iter_minimal_valuations` first
    reaches it; minimality is decided once per image.
    """
    seen: set[Instance] = set()
    for valuation in iter_mappings(sorted(source.nulls(), key=lambda n: n.label), pool):
        image = source.apply(valuation)
        if image not in seen:
            seen.add(image)
            if shrinking_homomorphism(source, image) is None:
                yield image


def minimal_valuation_images(source: Instance, pool: Sequence[Hashable]) -> set[Instance]:
    """The set ``{v(D) | v a D-minimal valuation into pool}``."""
    return set(iter_minimal_images(source, pool))


def some_minimal_valuation(source: Instance, pool: Sequence[Hashable]) -> dict | None:
    """One D-minimal valuation into ``pool``, or ``None`` if the pool is empty.

    Any valuation can be improved to a minimal one, so this returns a
    valuation whenever one exists at all.
    """
    for valuation in iter_minimal_valuations(source, pool):
        return valuation
    return None
