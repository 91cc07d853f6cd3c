"""Unit tests for repro.data.instance: the naive-database value object.

The write streams at the end pin what :meth:`Instance.with_delta` and
:func:`~repro.data.dictionary.derive_columnar` carry across writes: the
active domain (and its split into nulls and constants) and the encoded
relations, each equal after every write to one built afresh.  CI runs
this file again under ``REPRO_PURE_KERNELS=1``, and the nightly fuzz at
``REPRO_FUZZ=25``.
"""

import pytest
from diffutil import fuzz_rng, fuzz_trials

from repro.data.dictionary import EncodedRelation, columnar_context, derive_columnar
from repro.data.instance import Instance
from repro.data.schema import SchemaError
from repro.data.values import Null, NullFactory


def test_empty_instance():
    d = Instance.empty()
    assert d.is_empty()
    assert d.is_complete()
    assert d.adom() == frozenset()
    assert d.fact_count() == 0


def test_construction_and_accessors():
    x = Null("1")
    d = Instance({"R": [(1, x)], "S": [(x, 4)]})
    assert d.relations == ("R", "S")
    assert d.arity("R") == 2
    assert d.tuples("R") == frozenset({(1, x)})
    assert d.tuples("missing") == frozenset()
    assert d.fact_count() == 2


def test_mixed_arity_rejected():
    with pytest.raises(SchemaError):
        Instance({"R": [(1,), (1, 2)]})


def test_zero_arity_rejected():
    with pytest.raises(SchemaError):
        Instance({"R": [()]})


def test_empty_relations_are_dropped():
    d = Instance({"R": [], "S": [(1,)]})
    assert d.relations == ("S",)
    assert d.arity("S") == 1
    with pytest.raises(SchemaError):
        d.arity("R")


def test_adom_nulls_constants():
    x, y = Null("x"), Null("y")
    d = Instance({"R": [(1, x), (x, y)]})
    assert d.adom() == frozenset({1, x, y})
    assert d.nulls() == frozenset({x, y})
    assert d.constants() == frozenset({1})


def test_completeness_and_codd():
    x = Null("x")
    assert Instance({"R": [(1, 2)]}).is_complete()
    assert not Instance({"R": [(1, x)]}).is_complete()
    assert Instance({"R": [(1, x)]}).is_codd()
    assert not Instance({"R": [(x, x)]}).is_codd()
    assert not Instance({"R": [(1, x)], "S": [(x,)]}).is_codd()


def test_facts_deterministic_order():
    x = Null("x")
    d = Instance({"S": [(x,)], "R": [(2, 1), (1, 2)]})
    facts = list(d.facts())
    assert facts == [("R", (1, 2)), ("R", (2, 1)), ("S", (x,))]


def test_apply_mapping_dict_and_callable():
    x, y = Null("x"), Null("y")
    d = Instance({"R": [(x, y)]})
    assert d.apply({x: 1, y: 2}) == Instance({"R": [(1, 2)]})
    assert d.apply(lambda v: 9) == Instance({"R": [(9, 9)]})


def test_apply_merges_facts():
    x, y = Null("x"), Null("y")
    d = Instance({"R": [(x, 1), (y, 1)]})
    assert d.apply({x: 5, y: 5}).fact_count() == 1


def test_union_and_subinstance():
    a = Instance({"R": [(1, 2)]})
    b = Instance({"R": [(2, 3)], "S": [(1,)]})
    u = a.union(b)
    assert a <= u and b <= u
    assert a < u
    assert not u <= a
    assert (a | b) == u


def test_union_arity_conflict():
    with pytest.raises(SchemaError):
        Instance({"R": [(1,)]}).union(Instance({"R": [(1, 2)]}))


def test_difference_restrict_add_remove():
    d = Instance({"R": [(1, 2), (2, 3)], "S": [(1,)]})
    assert d.difference(Instance({"R": [(1, 2)]})) == Instance({"R": [(2, 3)], "S": [(1,)]})
    assert d.restrict(["S"]) == Instance({"S": [(1,)]})
    assert d.add_fact("R", (9, 9)).fact_count() == 4
    assert d.remove_fact("S", (1,)) == Instance({"R": [(1, 2), (2, 3)]})
    assert d.remove_fact("S", (42,)) == d


def test_equality_hash_as_value_object():
    x = Null("x")
    a = Instance({"R": [(1, x)]})
    b = Instance({"R": {(1, x)}})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_schema_inference():
    d = Instance({"R": [(1, 2)], "S": [(1,)]})
    s = d.schema()
    assert s.arity("R") == 2 and s.arity("S") == 1


def test_repr_and_pretty():
    x = Null("x")
    d = Instance({"R": [(1, x)]})
    assert "R" in repr(d)
    assert "⊥x" in d.pretty()
    assert Instance.empty().pretty() == "(empty instance)"


def test_from_facts_roundtrip():
    d = Instance({"R": [(1, 2)], "S": [(3,)]})
    assert Instance.from_facts(d.facts()) == d


class TestIsomorphism:
    def test_null_renaming_is_isomorphism(self):
        a = Instance({"R": [(1, Null("x"))]})
        b = Instance({"R": [(1, Null("y"))]})
        assert a.isomorphic(b)

    def test_constants_fixed_by_default(self):
        a = Instance({"R": [(1, 2)]})
        b = Instance({"R": [(3, 4)]})
        assert not a.isomorphic(b)
        assert a.isomorphic(b, fix_constants=False)

    def test_collapsing_is_not_isomorphism(self):
        a = Instance({"R": [(Null("x"), Null("y"))]})
        b = Instance({"R": [(Null("z"), Null("z"))]})
        assert not a.isomorphic(b)
        assert not b.isomorphic(a)

    def test_different_fact_counts(self):
        a = Instance({"R": [(1, 2), (2, 3)]})
        b = Instance({"R": [(1, 2)]})
        assert not a.isomorphic(b)


def test_with_fresh_values():
    x, y = Null("x"), Null("y")
    d = Instance({"R": [(x, y), (y, 1)]})
    factory = NullFactory("f")
    renamed, mapping = d.with_fresh_values(d.nulls(), factory.fresh)
    assert set(mapping) == {x, y}
    assert renamed.isomorphic(d)
    assert renamed.nulls().isdisjoint(d.nulls())


# ----------------------------------------------------------------------
# write streams: the carried domain and the derived encodings
# ----------------------------------------------------------------------

STREAM_RELS = {"R": 2, "S": 1}
STREAM_NULLS = [Null("n1"), Null("n2"), Null("n3")]
DOMAIN_VIEWS = ("adom", "constants", "nulls", "sorted_adom")


def stream_row(rng, arity: int) -> tuple:
    # few cells, so that values keep appearing and vanishing
    return tuple(
        rng.choice(STREAM_NULLS) if rng.random() < 0.25 else rng.randint(0, 9)
        for _ in range(arity)
    )


def stream_instance(rng) -> Instance:
    return Instance(
        {n: [stream_row(rng, k) for _ in range(rng.randint(0, 5))] for n, k in STREAM_RELS.items()}
    )


def stream_write(rng, inst: Instance):
    """One write: an insert, a delete, emptying a relation, or a batch."""
    name = rng.choice(list(STREAM_RELS))
    rows = sorted(inst.tuples(name), key=repr)
    kind = rng.random()
    if kind < 0.35:
        return inst.with_delta(adds={name: [stream_row(rng, STREAM_RELS[name])]})
    if kind < 0.7:
        return inst.with_delta(removes={name: rng.sample(rows, min(1, len(rows)))})
    if kind < 0.8:  # later inserts refill it
        return inst.with_delta(removes={name: rows})
    adds, removes = {}, {}
    for other, arity in STREAM_RELS.items():
        present = sorted(inst.tuples(other), key=repr)
        adds[other] = [stream_row(rng, arity) for _ in range(rng.randint(0, 3))]
        removes[other] = rng.sample(present, min(len(present), rng.randint(0, 2)))
    return inst.with_delta(adds=adds, removes=removes)


def read_domain(rng, inst: Instance) -> None:
    """Read the domain views in a random order; each equals a fresh build's."""
    fresh = Instance({n: inst.tuples(n) for n in inst.relations})
    for view in rng.sample(DOMAIN_VIEWS, len(DOMAIN_VIEWS)):
        assert getattr(inst, view)() == getattr(fresh, view)(), (view, inst)


class TestCarriedDomain:
    def test_write_streams_match_a_fresh_instance(self, monkeypatch):
        scans = []
        real = Instance.adom

        def adom(self):
            if self._adom is None:
                scans.append(self)
            return real(self)

        monkeypatch.setattr(Instance, "adom", adom)
        rng = fuzz_rng("instance-domain")
        shared = 0
        for _ in range(fuzz_trials(20)):
            inst = stream_instance(rng)
            read_domain(rng, inst)
            counts = None
            for _ in range(40):
                before = inst
                # a version that was read and holds counts hands both on
                carries = before._adom is not None and bool(before._counts)
                inst, _ = stream_write(rng, before)
                if inst is not before and counts is not None:
                    # once counted, every later write carries the counts
                    assert inst._counts[0] is counts
                if rng.random() < 0.4:  # no read before the next write
                    continue
                del scans[:]
                read_domain(rng, inst)
                if counts is None and inst._counts:
                    # the first scan of a written version counted them
                    counts = inst._counts[0]
                if carries and inst is not before and inst.adom() == before.adom():
                    # nothing appeared or vanished: the views are shared
                    assert not any(s is inst for s in scans)
                    for view in DOMAIN_VIEWS:
                        assert getattr(inst, view)() is getattr(before, view)(), view
                    shared += 1
        assert shared

    def test_many_moved_values_without_a_read(self):
        inst = Instance({"R": [(0, Null("a"))]})
        inst.adom()
        for i in range(1, 200):
            row = (i, Null(f"b{i}")) if i % 3 else (i, i)
            inst, _ = inst.with_delta(adds={"R": [row]}, removes={"R": [(i - 1, i - 1)]})
        fresh = Instance({"R": inst.tuples("R")})
        for view in DOMAIN_VIEWS:
            assert getattr(inst, view)() == getattr(fresh, view)(), view

    def test_second_successor_of_a_version_scans(self):
        base = Instance({"R": [(1, 2)], "S": [(Null("a"),)]})
        base.constants()
        first, _ = base.with_delta(adds={"R": [(3, 4)]})
        second, _ = base.with_delta(removes={"S": [(Null("a"),)]})
        assert first.constants() == frozenset({1, 2, 3, 4}) and first.nulls() == {Null("a")}
        assert second.constants() == frozenset({1, 2}) and second.nulls() == frozenset()
        assert base.adom() == frozenset({1, 2, Null("a")})


class TestDerivedEncodings:
    def test_write_streams_match_a_fresh_encoding(self):
        rng = fuzz_rng("instance-derived")
        derived = patched = 0
        for _ in range(fuzz_trials(20)):
            inst = stream_instance(rng)
            dictionary = columnar_context(inst).dictionary
            for step in range(40):
                # reads after 1, 2 and 3 writes in turn; only a relation
                # its ancestor had encoded is derived
                for _ in range(step % 3 + 1):
                    new, changes = stream_write(rng, inst)
                    derive_columnar(inst, new, changes)
                    inst = new
                # a domain read: the writes from here on carry the
                # counts that tell a derived split the codes that moved
                inst.adom()
                ctx = columnar_context(inst)
                pending = set(ctx._pending)
                derived += len(pending)
                for name in inst.relations:
                    rel = ctx.encoded(name)
                    patched += name in pending and rel._split is not None
                    want = EncodedRelation.from_rows(inst.tuples(name), dictionary)
                    assert (rel.arity, rel.n_rows) == (want.arity, want.n_rows)
                    assert rel.row_set() == want.row_set()
                    assert sorted(zip(*rel.columns)) == sorted(want.row_tuples())
                    # an unsplit ancestor leaves its successor to scan
                    if rng.random() < 0.8:
                        assert rel.null_split() == want.null_split(), (name, inst)
        assert derived and patched
