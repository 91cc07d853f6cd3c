"""Maintained oracle reads: the CWA bracket's bounds patched under writes.

A CWA oracle read answers ``lower ∪ (gap rows surviving every world)``
with ``gap = upper − lower`` (``repro.core.certain``).  Its result-cache
entry keeps both bounds as witness-counted sets, and a later miss after
a write to one read relation patches them by the write's delta and
enumerates worlds for the new gap alone.  The properties pinned here:

* **it matches a fresh recompute** — after every write of random
  streams (inserts and deletes on the positive and the negated
  relations, rows with and without nulls, batches over two relations,
  rows holding the pool's fresh-value names), every read equals a
  fresh ``Database`` on its answers, its wire bytes and
  ``stats["oracle"]``, on both kernel paths;
* **it fires** — writes to an anti-join's left side are served
  maintained, with ``stats["maintained"]`` and ``delta_rows``;
* **it falls back** — no counted prior, two read relations written, an
  overflowed delta log, a write to a negated side, a self-join, and a
  pool whose fresh tail no longer covers the relevant nulls (the
  bracket is off) all run the full oracle;
* **it stays inside** ``certain_answers`` (the name perfbench's
  ``core.oracle`` span wraps) and builds no hash index over a world's
  substituted relation;
* **it carries its state** — the world spec a maintained read used
  equals one built afresh from a new instance, field by field, and a
  toggle-and-read stream encodes no relation and scans no active
  domain after its first read.

CI runs this file again under ``REPRO_PURE_KERNELS=1``.
"""

import json
import pickle

import pytest
from diffutil import fuzz_rng, fuzz_trials
from test_wire_bytes import query_line, reference, reference_line

from repro.core import certain as _certain
from repro.core.certain import certain_answers, default_pool
from repro.data.dictionary import EncodedRelation, columnar_context
from repro.data.instance import Instance
from repro.data.values import Null
from repro.logic import kernels
from repro.logic.columnar import compiled_query
from repro.logic.parser import parse
from repro.logic.queries import Query
from repro.semantics import get_semantics
from repro.server import QueryService
from repro.session import DELTA_LOG_SIZE, Database

CWA = get_semantics("cwa")
RELS = {"R": 2, "S": 1, "T": 2}
CELLS = [1, 2, 3, 4, "a"]
NULLS = [Null("n1"), Null("n2"), Null("n3")]
#: the first names the default pool gives its fresh values
FRESH_NAMES = ["_f1", "_f2"]

NEG = "exists y (R(x, y) & !S(y))"
#: (query, head, relations whose writes are maintained)
QUERIES = [
    (NEG, ["x"], {"R"}),
    ("R(x, y) & !S(y)", ["x", "y"], {"R"}),
    ("exists y (R(x, y) & !T(y, x))", ["x"], {"R"}),
    ("exists y, z (R(x, y) & T(y, z) & !S(z))", ["x"], {"R", "T"}),
    ("exists x, y (R(x, y) & !S(y))", [], {"R"}),
    # no lower-bound plan: the lower bound stays empty
    ("exists y (R(x, y) & !T(y, 4))", ["x"], {"R"}),
    ("exists y (R(x, y) & !R(y, x))", ["x"], set()),
]


@pytest.fixture(params=["vector", "pure"])
def kernel_path(request, monkeypatch):
    if request.param == "pure":
        monkeypatch.setattr(kernels, "_np", None)
    return request.param


def random_row(rng, arity: int, fresh_names: bool = False) -> tuple:
    cells = CELLS + FRESH_NAMES if fresh_names else CELLS
    return tuple(
        rng.choice(NULLS) if rng.random() < 0.2 else rng.choice(cells) for _ in range(arity)
    )


def random_instance(rng) -> Instance:
    return Instance(
        {name: [random_row(rng, k) for _ in range(rng.randint(1, 7))] for name, k in RELS.items()}
    )


def random_write(rng, db: Database) -> None:
    """One write: mostly single-row toggles of one relation, some batches."""
    name = rng.choice(["R", "R", "S", "T"])
    arity = RELS[name]
    present = sorted(db.instance.tuples(name), key=repr)
    kind = rng.random()
    if kind < 0.4:
        db.insert(name, random_row(rng, arity, fresh_names=rng.random() < 0.1))
    elif kind < 0.8:
        if present:
            db.delete(name, rng.choice(present))
        else:
            db.insert(name, random_row(rng, arity))
    else:
        adds, removes = {}, {}
        for other in rng.sample(list(RELS), rng.choice([1, 2])):
            rows = sorted(db.instance.tuples(other), key=repr)
            adds[other] = [random_row(rng, RELS[other]) for _ in range(rng.randint(0, 2))]
            removes[other] = rng.sample(rows, min(len(rows), rng.randint(0, 2)))
        db.apply_delta(adds, removes)


def check_read(db: Database, service: QueryService, text: str, head: list):
    """Evaluate ``text`` in process and serve it; both must match a fresh
    database on answers, wire bytes and the oracle's stats."""
    fresh = Database(db.instance)
    want = fresh.evaluate(text, head)
    got = db.evaluate(text, head)
    assert got.method == want.method == "enumeration"
    assert got.answers == want.answers, (text, db.instance)
    assert got.answer_set.to_json("Q") == want.answer_set.to_json("Q"), (text, db.instance)
    if got.stats["result_cache"] == "miss":  # a hit (no read relation written) runs nothing
        assert got.stats["oracle"] == want.stats["oracle"], (text, db.instance)
    if got.stats["maintained"]:
        assert got.stats["delta_rows"] > 0
    line = service.handle_line(query_line(text, head))
    assert json.loads(line)["ok"], line
    assert line == reference_line(line, [reference(fresh, text, head)])
    return got


class TestDifferential:
    def test_random_streams_match_a_fresh_recompute(self, kernel_path):
        rng = fuzz_rng("oracle-maintenance")
        maintained = {text: 0 for text, _, _ in QUERIES}
        for _ in range(fuzz_trials(6)):
            db = Database(random_instance(rng))
            service = QueryService(db)
            for text, head, _ in QUERIES:
                check_read(db, service, text, head)
            for _ in range(25):
                random_write(rng, db)
                for text, head, kept in QUERIES:
                    if check_read(db, service, text, head).stats["maintained"]:
                        maintained[text] += 1
        for text, _, kept in QUERIES:
            assert bool(maintained[text]) is bool(kept), (text, maintained)

    def test_carried_specs_equal_a_fresh_build(self, kernel_path, monkeypatch):
        builds = []
        real = _certain._build_spec

        def spy(*args, **kwargs):
            builds.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(_certain, "_build_spec", spy)
        rng = fuzz_rng("oracle-maintenance-spec")
        carried = 0
        for _ in range(fuzz_trials(4)):
            db = Database(random_instance(rng))
            for text, head, _ in QUERIES:
                db.evaluate(text, head)
            for _ in range(25):
                random_write(rng, db)
                for text, head, _ in QUERIES:
                    del builds[:]
                    got = db.evaluate(text, head)
                    spec = got.answer_set.spec
                    if not got.stats["maintained"] or spec is None:
                        continue
                    carried += not builds
                    assert_spec_equal(spec, fresh_spec(db, text, head), (text, db.instance))
        assert carried

    def test_bracketed_read_carries_counted_bounds(self):
        db = Database({"R": [(1, 2), (3, Null("a"))], "S": [(2,)]})
        answers = db.evaluate(NEG, ["x"]).answer_set
        lower, upper = answers.bracket
        assert lower.plan is not None and upper.plan is not None
        assert db.evaluate("exists y (R(x, y) & !R(y, x))", ["x"]).answer_set.bracket is None


def fresh_spec(db: Database, text: str, head: list):
    """The spec of ``text`` built afresh: a new instance and context,
    over the database's dictionary so that the codes agree."""
    q = Query(parse(text), tuple(head))
    instance = Instance({name: db.instance.tuples(name) for name in db.instance.relations})
    columnar_context(instance, columnar_context(db.instance).dictionary)
    pool = tuple(default_pool(instance, q))
    consts, q_consts = instance.constants(), q.constants()
    fresh_tail = [v for v in pool if v not in consts and v not in q_consts]
    return _certain._build_spec(compiled_query(q), instance, CWA, pool, fresh_tail, 500_000)[0]


def assert_spec_equal(got, want, context):
    assert got.plan is want.plan, context
    assert got.parent.dictionary is want.parent.dictionary, context
    for field in _certain.WorldSpec.__slots__:
        if field not in ("plan", "parent"):
            assert getattr(got, field) == getattr(want, field), (field, context)


def toggles_db():
    """The perfbench ``oracle`` shape in small: R rows toggled, S fixed."""
    a, b = Null("a"), Null("b")
    return Database(
        {"R": [(1, 2), (3, 4), (5, a), (a, 6), (7, b), (8, 9)], "S": [(2,), (6,)]}
    )


class TestMaintainedReads:
    def test_toggles_are_maintained_with_one_world(self):
        db = toggles_db()
        q = db.query(NEG, ("x",))
        first = q.evaluate()
        assert not first.stats["maintained"] and first.stats["oracle"]["mode"] == "bracket"
        for op, row in [("insert", (10, 11)), ("delete", (3, 4)), ("insert", (3, 4))]:
            getattr(db, op)("R", row)
            result = q.evaluate()
            assert result.stats["result_cache"] == "miss"
            assert result.stats["maintained"] is True and result.stats["delta_rows"] == 1
            assert result.stats["oracle"]["worlds"] == 1
            assert result.answers == Database(db.instance).evaluate(NEG, ["x"]).answers
        assert db.cache_stats["maintained"] == 3

    def test_toggles_encode_nothing_and_scan_no_domain(self, monkeypatch):
        db = toggles_db()
        service = QueryService(db)
        q = db.query(NEG, ("x",))
        q.evaluate()
        encodes, scans = [], []
        real_from_rows, real_adom = EncodedRelation.from_rows.__func__, Instance.adom

        def from_rows(cls, rows, dictionary):
            encodes.append(cls)
            return real_from_rows(cls, rows, dictionary)

        def adom(self):
            if self._adom is None:
                scans.append(self)
            return real_adom(self)

        monkeypatch.setattr(EncodedRelation, "from_rows", classmethod(from_rows))
        monkeypatch.setattr(Instance, "adom", adom)
        # as in perfbench, every value of a toggled row also sits in a
        # row that stays, so no toggle moves the domain (a write that
        # does computes the new version's domain afresh)
        toggles = [(3, 6), (8, 6), (5, 2), (7, 4)]
        maintained = 0
        counts = None
        for i in range(100):
            row = toggles[i % len(toggles)]
            if row in db.instance.tuples("R"):
                db.delete("R", row)
            else:
                db.insert("R", row)
            maintained += q.evaluate().stats["maintained"]
            assert json.loads(service.handle_line(query_line(NEG, ["x"])))["ok"]
            # the first written version counts its cells in its domain
            # scan; every later one carries those counts and its views
            counts = counts or db.instance._counts[0]
            assert db.instance._counts[0] is counts
        assert maintained == 100
        assert encodes == [] and len(scans) == 1
        assert q.evaluate().answers == Database(db.instance).evaluate(NEG, ["x"]).answers

    def test_runs_inside_certain_answers(self, monkeypatch):
        calls = []
        real = _certain.certain_answers

        def spy(*args, **kwargs):
            rows = real(*args, **kwargs)
            calls.append((kwargs.get("prior") is not None, rows.maintained, kwargs["stats_out"]))
            return rows

        monkeypatch.setattr(_certain, "certain_answers", spy)
        db = toggles_db()
        q = db.query(NEG, ("x",))
        q.evaluate()
        db.insert("R", (10, 11))
        result = q.evaluate()
        assert [c[:2] for c in calls] == [(False, False), (True, True)]
        assert calls[-1][2] == result.stats["oracle"]

    def test_gap_worlds_build_no_index_over_a_world_relation(self, monkeypatch):
        built = []
        real = EncodedRelation.index

        def spy(self, positions):
            built.append(self._one_use)
            return real(self, positions)

        monkeypatch.setattr(EncodedRelation, "index", spy)
        db = toggles_db()
        q = db.query(NEG, ("x",))
        q.evaluate()
        db.insert("R", (10, 11))
        result = q.evaluate()
        assert result.stats["maintained"] and result.stats["oracle"]["gap"] > 0
        assert not any(built)

    def test_matching_filters_one_use_relations(self):
        rows = frozenset({(0, 2), (0, 4), (2, 4), (6, 1)})
        scratch = EncodedRelation.from_codes(2, rows)
        kept = EncodedRelation(2, scratch.columns)
        for positions, key in [((0,), (0,)), ((1,), (4,)), ((0, 1), (2, 4)), ((0,), (8,))]:
            want = sorted(kept.index(positions).get(key, ()))
            assert sorted(scratch.matching(positions, key)) == want
            assert sorted(kept.matching(positions, key)) == want
        assert scratch._indexes == {}


class TestFallbacks:
    def test_first_read_has_no_prior(self):
        result = toggles_db().evaluate(NEG, ["x"])
        assert result.stats["result_cache"] == "miss" and not result.stats["maintained"]

    def test_write_to_the_negated_side_recomputes(self):
        db = toggles_db()
        q = db.query(NEG, ("x",))
        q.evaluate()
        db.insert("S", (9,))
        result = q.evaluate()
        assert not result.stats["maintained"]
        assert result.answers == Database(db.instance).evaluate(NEG, ["x"]).answers
        db.insert("R", (10, 11))  # the recomputed entry carries bounds again
        assert q.evaluate().stats["maintained"]

    def test_two_read_relations_written_recompute(self):
        db = toggles_db()
        q = db.query(NEG, ("x",))
        q.evaluate()
        db.apply_delta(adds={"R": [(10, 11)], "S": [(11,)]})
        result = q.evaluate()
        assert not result.stats["maintained"]
        assert result.answers == Database(db.instance).evaluate(NEG, ["x"]).answers

    def test_overflowed_log_recomputes(self):
        db = toggles_db()
        q = db.query(NEG, ("x",))
        q.evaluate()
        for i in range(DELTA_LOG_SIZE + 1):
            db.insert("R", (100 + i, 2))
        result = q.evaluate()
        assert not result.stats["maintained"]
        assert result.answers == Database(db.instance).evaluate(NEG, ["x"]).answers

    def test_self_join_recomputes(self):
        text = "exists y (R(x, y) & !R(y, x))"
        db = toggles_db()
        q = db.query(text, ("x",))
        q.evaluate()
        db.insert("R", (11, 10))
        result = q.evaluate()
        assert not result.stats["maintained"]
        assert result.answers == Database(db.instance).evaluate(text, ["x"]).answers

    def test_bracket_turned_off_runs_the_full_oracle(self):
        # a pool's fresh tail must hold a value per relevant null; after
        # the write it holds two values for three nulls
        q = Query(parse(NEG), ("x",))
        a, b, c = Null("a"), Null("b"), Null("c")
        before = Instance({"R": [(1, 2), (3, a), (4, b)], "S": [(2,)]})
        pool = [1, 2, 3, 4, "u", "v"]
        stats: dict = {}
        prior = certain_answers(q, before, CWA, pool=pool, stats_out=stats).encoded
        assert stats["mode"] == "bracket" and prior.bracket is not None
        after, changes = before.with_delta(adds={"R": [(5, c)]})
        added, removed = changes["R"]
        stats = {}
        rows = certain_answers(
            q, after, CWA, pool=pool, stats_out=stats, prior=(prior, "R", added, removed)
        )
        fresh_stats: dict = {}
        assert rows == certain_answers(q, after, CWA, pool=pool, stats_out=fresh_stats)
        assert stats == fresh_stats and stats["mode"] != "bracket"
        assert not rows.maintained and rows.encoded.bracket is None

    def test_prior_of_another_query_is_not_patched(self):
        q = Query(parse(NEG), ("x",))
        other = Query(parse("exists y (R(x, y) & !T(y, x))"), ("x",))
        inst = Instance({"R": [(1, 2), (3, Null("a"))], "S": [(2,)], "T": [(2, 1)]})
        prior = certain_answers(other, inst, CWA).encoded
        after, changes = inst.with_delta(adds={"R": [(5, 6)]})
        rows = certain_answers(q, after, CWA, prior=(prior, "R", *changes["R"]))
        assert not rows.maintained and rows == certain_answers(q, after, CWA)


class TestQueryMemos:
    def test_hash_and_constants_are_memoised_values(self):
        q = Query(parse("exists y (R(x, y) & !S(y, 4))"), ("x",))
        twin = Query(parse("exists y (R(x, y) & !S(y, 4))"), ("x",))
        assert hash(q) == hash(twin) == hash((q.formula, q.answer_vars, q.name))
        assert q == twin and q.constants() == frozenset({4})
        assert q.constants() is q.constants()

    def test_memos_stay_out_of_pickles(self):
        q = Query(parse(NEG), ("x",))
        hash(q), q.constants()
        copy = pickle.loads(pickle.dumps(q))
        assert copy == q and "_hash" not in copy.__dict__ and "_constants" not in copy.__dict__
        assert hash(copy) == hash(q)

    def test_compiled_plan_is_memoised_and_stays_out_of_pickles(self):
        q = Query(parse(NEG), ("x",))
        cq = compiled_query(q)
        assert compiled_query(q) is cq and q.__dict__["_compiled"] is cq
        copy = pickle.loads(pickle.dumps(q))
        assert copy == q and "_compiled" not in copy.__dict__
        inst = Instance({"R": [(1, 2), (3, Null("a"))], "S": [(2,)]})
        again = compiled_query(copy)
        assert compiled_query(copy) is again and again.describe() == cq.describe()
        assert again.naive_answers(inst) == cq.naive_answers(inst) == {(3,)}
