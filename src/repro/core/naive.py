"""Naive evaluation: the two-step procedure of Section 2.4.

Step one evaluates the query on the incomplete database itself, treating
nulls as ordinary values (syntactic equality).  Step two eliminates the
answer tuples that contain nulls — a tuple with a null can never be a
certain answer.  For Boolean queries step two is vacuous.

Both steps run on the columnar engine (:mod:`repro.logic.columnar`):
the compiled operator DAG executed over dictionary-encoded int columns,
with null rows dropped at the code level.  The tuple-at-a-time tree
walker of :mod:`repro.logic.eval` stays as the differential-testing
reference (the ``naive-interp`` backend).
"""

from __future__ import annotations

from typing import Hashable

from repro.data.instance import Instance
from repro.data.values import Null
from repro.logic import columnar as _columnar
from repro.logic.queries import Query

__all__ = ["naive_eval", "naive_holds", "drop_null_tuples"]


def drop_null_tuples(
    rows: frozenset[tuple[Hashable, ...]]
) -> frozenset[tuple[Hashable, ...]]:
    """Step two: keep only the tuples made entirely of constants."""
    return frozenset(
        row for row in rows if not any(isinstance(v, Null) for v in row)
    )


def naive_eval(query: Query, instance: Instance) -> frozenset[tuple[Hashable, ...]]:
    """The naive evaluation of ``query`` on ``instance``.

    Returns the set of null-free answers (``Q^C(D)`` in Section 8's
    notation).  Boolean queries return ``{()}``/``frozenset()``.
    """
    return _columnar.columnar_naive_eval(query, instance).decode()


def naive_holds(query: Query, instance: Instance) -> bool:
    """Naive truth value of a Boolean query."""
    if not query.is_boolean:
        raise ValueError(f"query {query.name!r} is {query.arity}-ary; use naive_eval()")
    return bool(naive_eval(query, instance))
