"""A write-path hook kept by name.

Plans execute over the columnar context of :mod:`repro.data.dictionary`;
the hash indexes the homomorphism search and the datalog reference
matcher probe live on the instance (:meth:`Instance.index`).
"""

from __future__ import annotations

from typing import Collection, Mapping

from repro.data.instance import Instance

__all__ = ["derive_context"]


def derive_context(
    old_instance: Instance,
    new_instance: Instance,
    changes: Mapping[str, tuple[Collection[tuple], Collection[tuple]]],
) -> None:
    """Nothing to derive: writes maintain only the columnar context.

    Writes do not call it (:func:`repro.data.dictionary.derive_columnar`
    carries the columnar context forward); the name stays because
    ``perfbench/trace_serve.py`` wraps it.
    """
