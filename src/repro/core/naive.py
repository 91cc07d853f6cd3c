"""Naive evaluation: the two-step procedure of Section 2.4.

Step one evaluates the query on the incomplete database itself, treating
nulls as ordinary values (syntactic equality).  Step two eliminates the
answer tuples that contain nulls — a tuple with a null can never be a
certain answer.  For Boolean queries step two is vacuous.

Three engines implement step one:

* ``columnar`` — the compiled operator DAG executed over
  dictionary-encoded int columns (:mod:`repro.logic.columnar`): array
  kernels, sort-merge joins, stats-driven join ordering;
* ``compiled`` — the set-at-a-time relational plan of
  :mod:`repro.logic.compile`: hash joins, semi-/anti-joins, per-instance
  hash indexes — retained as a differential baseline;
* ``interp`` — the tuple-at-a-time tree walker of
  :mod:`repro.logic.eval`, retained as the differential-testing baseline
  (the ``naive-interp`` backend).

Both compute the same function on every query and instance; the
compiled engine just makes the paper's polynomial data complexity
visible at realistic instance sizes.
"""

from __future__ import annotations

from typing import Hashable

from repro.data.answers import AnswerSet
from repro.data.instance import Instance
from repro.data.values import Null
from repro.logic import columnar as _columnar
from repro.logic import compile as _compile
from repro.logic.queries import Query

__all__ = ["naive_eval", "naive_holds", "drop_null_tuples"]


def drop_null_tuples(
    rows: frozenset[tuple[Hashable, ...]]
) -> frozenset[tuple[Hashable, ...]]:
    """Step two: keep only the tuples made entirely of constants."""
    return frozenset(
        row for row in rows if not any(isinstance(v, Null) for v in row)
    )


def naive_eval(
    query: Query, instance: Instance, engine: str = "compiled"
) -> frozenset[tuple[Hashable, ...]] | AnswerSet:
    """The naive evaluation of ``query`` on ``instance``.

    Returns the set of null-free answers (``Q^C(D)`` in Section 8's
    notation).  Boolean queries return ``{()}``/``frozenset()``.
    ``engine`` selects step one's implementation (see module doc); the
    ``columnar`` engine returns a still-encoded
    :class:`~repro.data.answers.AnswerSet`, equal to the frozenset.
    """
    if engine == "columnar":
        # null rows are dropped by code parity and nothing is decoded
        return _columnar.columnar_naive_eval(query, instance)
    if engine == "compiled":
        raw = _compile.compiled_query(query).answers(instance)
    elif engine == "interp":
        raw = query.eval_raw(instance)
    else:
        raise ValueError(
            f"unknown naive engine {engine!r}; use 'columnar', 'compiled' or 'interp'"
        )
    return drop_null_tuples(raw)


def naive_holds(query: Query, instance: Instance, engine: str = "compiled") -> bool:
    """Naive truth value of a Boolean query."""
    if not query.is_boolean:
        raise ValueError(f"query {query.name!r} is {query.arity}-ary; use naive_eval()")
    return bool(naive_eval(query, instance, engine=engine))
