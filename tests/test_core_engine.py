"""Tests for repro.core.engine: routing between naive and enumeration."""

import pytest

from repro.core.engine import evaluate
from repro.data.instance import Instance
from repro.data.values import Null
from repro.logic.parser import parse
from repro.logic.queries import Query

X, Y = Null("x"), Null("y")


class TestAutoRouting:
    def test_ucq_goes_columnar(self, join_query, intro_db):
        result = evaluate(join_query, intro_db, semantics="owa")
        assert result.method == "columnar"
        assert result.exact
        assert result.answers == frozenset({(1, 4)})

    def test_non_fragment_query_enumerates(self, d0, forall_exists_query):
        result = evaluate(forall_exists_query, d0, semantics="owa")
        assert result.method == "enumeration"
        assert not result.holds  # OWA certain answer is false

    def test_pos_query_columnar_under_cwa(self, d0, forall_exists_query):
        result = evaluate(forall_exists_query, d0, semantics="cwa")
        assert result.method == "columnar"
        assert result.exact
        assert result.holds  # CWA certain answer is true

    def test_agreement_naive_vs_enumeration(self, d0, forall_exists_query):
        fast = evaluate(forall_exists_query, d0, semantics="cwa")
        slow = evaluate(forall_exists_query, d0, semantics="cwa", mode="enumeration")
        assert fast.answers == slow.answers

    def test_minimal_semantics_core_check(self):
        # off-core instance: auto must NOT trust naive evaluation
        d = Instance({"D": [(X, X), (X, Y)]})
        q = Query.boolean(parse("forall v, w . D(v, w) -> D(v, v)"))
        result = evaluate(q, d, semantics="mincwa")
        assert result.method == "enumeration"

    def test_minimal_semantics_on_core_goes_columnar(self):
        d = Instance({"D": [(X, X)]})  # a core
        q = Query.boolean(parse("exists v . D(v, v)"))
        result = evaluate(q, d, semantics="mincwa")
        assert result.method == "columnar" and result.exact


class TestForcedModes:
    def test_force_naive_marks_approximation(self, d0, forall_exists_query):
        result = evaluate(forall_exists_query, d0, semantics="owa", mode="columnar")
        assert result.method == "columnar"
        assert not result.exact

    def test_force_enumeration(self, join_query, intro_db):
        result = evaluate(join_query, intro_db, semantics="cwa", mode="enumeration")
        assert result.method == "enumeration"
        assert result.exact
        assert result.answers == frozenset({(1, 4)})

    def test_owa_enumeration_is_flagged_superset(self, d0, forall_exists_query):
        result = evaluate(forall_exists_query, d0, semantics="owa", mode="enumeration")
        assert not result.exact
        assert result.direction == "superset"

    def test_unknown_mode_raises(self, join_query, intro_db):
        with pytest.raises(ValueError):
            evaluate(join_query, intro_db, mode="guess")


class TestResultShape:
    def test_holds_property(self, d0, exists_cycle_query):
        result = evaluate(exists_cycle_query, d0, semantics="cwa")
        assert result.holds is True

    def test_repr_shows_method(self, d0, exists_cycle_query):
        result = evaluate(exists_cycle_query, d0, semantics="cwa")
        assert "columnar" in repr(result)

    def test_verdict_attached(self, d0, exists_cycle_query):
        result = evaluate(d0 and exists_cycle_query, d0, semantics="cwa")
        assert result.verdict.semantics == "cwa"
