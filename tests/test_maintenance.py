"""Maintained answers: cached naive answers kept up to date under writes.

On a result-cache miss the session derives a ``columnar`` plan's answers
from the newest cached entry of the same plan when it can: it reads the
writes since from the delta log, runs the plan's projection-free child
over the written rows alone, and adds the signed witness counts to the
entry's (``repro.logic.columnar.maintained_answers``).  The properties
pinned here:

* **the bytes are unchanged** — after every write of a random stream
  (inserts, deletes, batches, null rows, rows with several witnesses,
  no-op writes, ``replace`` and ``restore``), the served text equals
  ``tests/test_wire_bytes.py``'s reference renderer run on a fresh
  ``Database`` holding the same instance, and ``decode()`` equals the
  ``naive-interp`` answers;
* **it fires** — the join of the random streams (``STREAM_JOIN``) is
  served maintained, so the differential check cannot pass by
  recomputing every time;
* **it falls back** — a log that no longer reaches back, a write to two
  read relations, a self-join and ``replace`` all recompute;
* **EXPLAIN tells the truth** — over several join shapes and skewed
  instances, a write to a relation the maintenance note lists as
  maintained is served maintained, and one it lists as recomputed is
  recomputed;
* **dead entries go** — a key superseded by a newer one of the same
  plan is dropped, for every backend.

Both kernel paths run; CI runs this file again under
``REPRO_PURE_KERNELS=1``.
"""

import itertools
import json

import pytest
from diffutil import ARBITRARY_CONSTS, ARBITRARY_RELS, fuzz_rng, fuzz_trials, random_formula
from test_wire_bytes import query_line, reference, reference_line

from repro.data.answers import AnswerSet
from repro.data.instance import Instance
from repro.data.values import Null
from repro.logic import kernels
from repro.logic.ast import And, Exists, RelAtom, Var
from repro.logic.transform import free_vars
from repro.server import QueryService
from repro.session import DELTA_LOG_SIZE, Database

JOIN = "exists z (R(x, z) & S(z, y))"
SELF_JOIN = "exists z (R(x, z) & R(z, y))"
#: the join of the random streams, over their schema (``ARBITRARY_RELS``)
STREAM_JOIN = "exists z, w (R(x, z) & T(z, y, w))"

#: a small cell pool, so joins match and answers have several witnesses;
#: no two cells are == with different reprs (1 and True would render as
#: whichever the dictionary interned first)
CELLS = [1, 2, 3, "a", "?q", 2.5]
NULLS = [Null("n1"), Null("n2")]
VARS = [Var(n) for n in "xyzuv"]


@pytest.fixture(params=["vector", "pure"])
def kernel_path(request, monkeypatch):
    if request.param == "pure":
        monkeypatch.setattr(kernels, "_np", None)
    return request.param


def random_row(rng, arity: int) -> tuple:
    return tuple(
        rng.choice(NULLS) if rng.random() < 0.15 else rng.choice(CELLS) for _ in range(arity)
    )


def random_instance(rng) -> Instance:
    return Instance(
        {
            name: [random_row(rng, arity) for _ in range(rng.randint(0, 8))]
            for name, arity in ARBITRARY_RELS.items()
        }
    )


def positive_query(rng) -> tuple[str, list[str]]:
    """A random conjunctive query: 1–3 atoms (self-joins included),
    constants and repeated variables, the rest existentially bound."""
    atoms = []
    for _ in range(rng.choice([1, 2, 2, 3])):
        name = rng.choice(list(ARBITRARY_RELS))
        terms = tuple(
            rng.choice(ARBITRARY_CONSTS) if rng.random() < 0.15 else rng.choice(VARS[:4])
            for _ in range(ARBITRARY_RELS[name])
        )
        atoms.append(RelAtom(name, terms))
    body = atoms[0] if len(atoms) == 1 else And(tuple(atoms))
    present = sorted(free_vars(body), key=lambda v: v.name)
    head = present[: rng.randint(0, len(present))]
    bound = tuple(v for v in present if v not in head)
    phi = Exists(bound, body) if bound else body
    return str(phi), [v.name for v in head]


def random_write(rng, db: Database) -> None:
    """One write of the stream; some are no-ops, some swap the instance."""
    kind = rng.random()
    name = rng.choice(list(ARBITRARY_RELS))
    arity = ARBITRARY_RELS[name]
    present = sorted(db.instance.tuples(name), key=repr)
    if kind < 0.35:
        db.insert(name, random_row(rng, arity))
    elif kind < 0.65:
        if present and rng.random() < 0.85:
            db.delete(name, rng.choice(present))
        else:
            db.delete(name, random_row(rng, arity))  # usually absent: a no-op
    elif kind < 0.75 and present:
        db.insert(name, rng.choice(present))  # a no-op
    elif kind < 0.92:
        adds, removes = {}, {}
        for other in rng.sample(list(ARBITRARY_RELS), rng.choice([1, 1, 2])):
            k = ARBITRARY_RELS[other]
            rows = sorted(db.instance.tuples(other), key=repr)
            adds[other] = [random_row(rng, k) for _ in range(rng.randint(0, 3))]
            removes[other] = rng.sample(rows, min(len(rows), rng.randint(0, 2)))
        db.apply_delta(adds, removes)
    elif kind < 0.96:
        db.replace(random_instance(rng))
    else:
        gens = {n: db.rel_generation(n) + 1 for n in ARBITRARY_RELS}
        db.restore(random_instance(rng), db.generation + 1, gens)


def check_read(service: QueryService, text: str, head: list, serve_first: bool) -> bool:
    """Serve ``text`` (forced ``columnar``) and evaluate it in process, in
    the given order; both must match a fresh database's reference.
    Returns whether the first of the two was served maintained."""
    db = service.db
    before = db.cache_stats["maintained"]
    fresh = Database(db.instance)
    want_rows = [tuple(r) for r in fresh.evaluate(text, head, mode="naive-interp").answers]
    want_text = reference(fresh, text, head, "naive-interp")

    def serve():
        line = service.handle_line(query_line(text, head, "columnar"))
        assert json.loads(line)["ok"], line
        assert line == reference_line(line, [want_text]), (text, db.instance)

    if serve_first:
        serve()
    result = db.query(text, tuple(head)).evaluate("columnar")
    assert result.answer_set.decode() == frozenset(want_rows), (text, db.instance)
    if result.stats["maintained"]:
        assert result.stats["delta_rows"] > 0
    if not serve_first:
        serve()
    return db.cache_stats["maintained"] > before


class TestDifferential:
    def test_random_streams_match_a_fresh_recompute(self, kernel_path):
        rng = fuzz_rng("maintenance")
        maintained = {"join": 0, "random": 0}
        for _ in range(fuzz_trials(6)):
            db = Database(random_instance(rng))
            service = QueryService(db)
            queries = [(STREAM_JOIN, ["x", "y"]), (SELF_JOIN, ["x", "y"])]
            queries += [positive_query(rng) for _ in range(3)]
            phi = random_formula(rng, 2, rng.sample(VARS, 2))
            queries.append((str(phi), sorted(v.name for v in free_vars(phi))))
            for step in range(30):
                random_write(rng, db)
                for i, (text, head) in enumerate(queries):
                    if check_read(service, text, head, serve_first=bool(step % 2)):
                        assert text != SELF_JOIN
                        maintained["join" if i == 0 else "random"] += 1
        assert maintained["join"] >= fuzz_trials(6) * 5, maintained
        assert maintained["random"] > 0, maintained

    def test_rows_with_several_witnesses(self, kernel_path):
        db = Database({"R": [(1, "p"), (1, "q"), (2, "p")], "S": [("p", 7), ("q", 7)]})
        service = QueryService(db)
        check_read(service, JOIN, ["x", "y"], serve_first=True)
        db.delete("R", (1, "p"))  # (1, 7) keeps its witness through "q"
        assert check_read(service, JOIN, ["x", "y"], serve_first=True)
        db.delete("R", (1, "q"))  # now it goes
        assert check_read(service, JOIN, ["x", "y"], serve_first=True)
        assert db.query(JOIN, ("x", "y")).evaluate().answers == {(2, 7)}
        db.insert("S", (Null("m"), 8))
        assert check_read(service, JOIN, ["x", "y"], serve_first=False)
        db.insert("R", (3, Null("m")))  # joins on the null: (3, 8) is an answer
        assert check_read(service, JOIN, ["x", "y"], serve_first=False)
        assert db.query(JOIN, ("x", "y")).evaluate().answers == {(2, 7), (3, 8)}
        check_read(service, "R(x, y)", ["x", "y"], serve_first=True)
        db.insert("R", (4, "p"), (5, Null("k")))  # a null answer stays hidden
        assert check_read(service, "R(x, y)", ["x", "y"], serve_first=False)
        assert check_read(service, JOIN, ["x", "y"], serve_first=True)


    def test_patched_text_is_not_rendered_afresh(self, kernel_path, monkeypatch):
        renders = []
        real = AnswerSet._render
        monkeypatch.setattr(AnswerSet, "_render", lambda s, r: renders.append(r) or real(s, r))
        db = Database({"R": [(i, i % 5) for i in range(40)], "S": [(k, -k) for k in range(5)]})
        service = QueryService(db)
        writes = [("insert", (77, 2)), ("delete", (77, 2)), ("delete", (3, 3)), ("insert", (99, 4))]
        check_read(service, JOIN, ["x", "y"], serve_first=True)
        for op, row in writes:
            getattr(db, op)("R", row)
            assert check_read(service, JOIN, ["x", "y"], serve_first=True)
        assert len(renders) == 1  # every later text was patched by bisection


class TestFallbacks:
    def setup_db(self):
        db = Database({"R": [(i, i % 3) for i in range(10)], "S": [(k, -k) for k in range(3)]})
        q = db.query(JOIN, ("x", "y"))
        q.evaluate()
        return db, q

    def test_log_overflow_recomputes(self):
        db, q = self.setup_db()
        for i in range(DELTA_LOG_SIZE):
            db.insert("R", (100 + i, i % 3))
        kept = q.evaluate()
        assert kept.stats["maintained"] and kept.stats["delta_rows"] == DELTA_LOG_SIZE
        for i in range(DELTA_LOG_SIZE):
            db.delete("R", (100 + i, i % 3))
        db.insert("R", (0, 2))  # one write more than the log holds
        result = q.evaluate()
        assert result.stats["result_cache"] == "miss" and not result.stats["maintained"]
        assert result.answers == Database(db.instance).evaluate(JOIN, ("x", "y")).answers

    @pytest.mark.parametrize(
        "unrelated", [0, DELTA_LOG_SIZE - 3, DELTA_LOG_SIZE - 2, 2 * DELTA_LOG_SIZE]
    )
    def test_log_full_of_other_writes(self, unrelated):
        # three writes to R, then writes to T that push the log past its
        # size: the read is maintained while the log still holds all three
        db, q = self.setup_db()
        db.insert("R", (60, 0))
        db.delete("R", (0, 0))
        db.insert("R", (0, 0))
        for i in range(unrelated):
            db.insert("T", (i,))
        result = q.evaluate()
        reaches = 3 + unrelated <= DELTA_LOG_SIZE
        assert result.stats["result_cache"] == "miss"
        assert result.stats["maintained"] == reaches
        if reaches:
            assert result.stats["delta_rows"] == 1
        assert result.answers == Database(db.instance).evaluate(JOIN, ("x", "y")).answers
        # the newest entry sits behind a full log of T writes; one more
        # write to R is maintained from it
        db.insert("R", (61, 1))
        result = q.evaluate()
        assert result.stats["maintained"] and result.stats["delta_rows"] == 1
        assert result.answers == Database(db.instance).evaluate(JOIN, ("x", "y")).answers

    def test_write_to_two_read_relations_recomputes(self):
        db, q = self.setup_db()
        writes = [
            lambda: db.apply_delta(adds={"R": [(50, 1)], "S": [(1, 9)]}),  # one batch
            lambda: db.insert("R", (51, 2)) + db.insert("S", (2, 9)),  # two writes
        ]
        for write in writes:
            write()
            result = q.evaluate()
            assert result.stats["result_cache"] == "miss" and not result.stats["maintained"]
            assert result.answers == Database(db.instance).evaluate(JOIN, ("x", "y")).answers
        db.insert("S", (0, 9))
        assert q.evaluate().stats["maintained"]  # a single relation again

    def test_replace_and_restore_recompute(self):
        db, q = self.setup_db()
        db.replace({"R": [(1, 1)], "S": [(1, 2)]})
        assert not q.evaluate().stats["maintained"]
        db.insert("R", (2, 1))
        assert q.evaluate().stats["maintained"]
        db.restore(Instance({"R": [(3, 1)], "S": [(1, 2)]}), db.generation + 1, {"R": 9, "S": 9})
        db.insert("R", (4, 1))  # the log restarts at the restored state
        result = q.evaluate()
        assert not result.stats["maintained"] and result.answers == {(3, 2), (4, 2)}

    def test_unrelated_write_is_still_a_hit(self):
        db, q = self.setup_db()
        db.insert("T", (1,))
        assert q.evaluate().stats["result_cache"] == "hit"
        assert db.cache_stats["maintained"] == 0

    def test_plan_notes_name_what_is_maintained(self):
        db, _ = self.setup_db()
        notes = db.explain(JOIN, ("x", "y")).notes
        assert "answers maintained under writes to R, S (witness counting)" in notes
        (note,) = [n for n in db.explain(SELF_JOIN, ("x", "y")).notes if "writes" in n]
        assert note == "recomputed after writes: R: it is scanned 2 times (self-join)"
        (note,) = [n for n in db.explain("R(x, y) & exists z (S(y, z))").notes if "writes" in n]
        assert note == (
            "answers maintained under writes to R (witness counting); "
            "recomputed after writes to S: it is the right side of a semi-join"
        )


def skewed(sizes: dict[str, tuple[int, int]]) -> Instance:
    """``{name: (arity, rows)}``: rows ``(i % 7, …, i % 7, i)``, so joins match."""
    return Instance(
        {
            name: [(i % 7,) * (arity - 1) + (i,) for i in range(rows)]
            for name, (arity, rows) in sizes.items()
        }
    )


def explained_split(db: Database, text: str, head) -> tuple[set[str], set[str]]:
    """(maintained, recomputed) relations, as EXPLAIN's notes state them.

    A ``columnar`` plan's note names its maintained answers, an oracle
    plan's its maintained bracket bounds."""
    notes = db.explain(text, head).notes
    (cache,) = [n for n in notes if n.startswith("result is a pure function of relations")]
    reads = set(cache[cache.index("{") + 1 : cache.index("}")].split(", "))
    (note,) = [n for n in notes if "after writes" in n or "maintained under" in n]
    kept = set()
    for subject in ("answers", "bracket bounds"):
        prefix = f"{subject} maintained under writes to "
        if note.startswith(prefix):
            kept = set(note[len(prefix) : note.index(" (witness counting)")].split(", "))
    return kept, reads - kept


class TestExplainMatchesExecution:
    """EXPLAIN's maintenance note describes the plan a write then runs."""

    SHAPES = [
        ("exists v (R(u, v) & S(v))", ("u",), {"R": 2, "S": 1}),
        (JOIN, ("x", "y"), {"R": 2, "S": 2}),
        ("R(x, y) & exists z (S(y, z))", ("x", "y"), {"R": 2, "S": 2}),
        ("exists z, w (R(x, z) & S(z, w) & T(w, y))", ("x", "y"), {"R": 2, "S": 2, "T": 2}),
        ("exists z (R(x, z) & S(z, 3))", ("x",), {"R": 2, "S": 2}),
        (SELF_JOIN, ("x", "y"), {"R": 2}),
        # negation routes to the CWA oracle, whose bracket bounds are
        # maintained under writes to an anti-join's left side only
        ("exists y (R(x, y) & !S(y))", ("x",), {"R": 2, "S": 1}),
        ("R(x, y) & !S(y, x)", ("x", "y"), {"R": 2, "S": 2}),
        ("exists y, z (R(x, y) & S(y, z) & !T(z))", ("x",), {"R": 2, "S": 2, "T": 1}),
        ("exists y (R(x, y) & !R(y, x))", ("x",), {"R": 2}),
    ]
    #: row counts of the relations in name order (cycled): skewed both
    #: ways, even, and a three-way spread
    SKEWS = [(2, 200), (200, 2), (20, 20), (2, 60, 200)]

    @pytest.mark.parametrize("text, head, arities", SHAPES, ids=[s[0] for s in SHAPES])
    @pytest.mark.parametrize("counts", SKEWS, ids=["-".join(map(str, c)) for c in SKEWS])
    def test_each_read_relation_behaves_as_explained(
        self, kernel_path, text, head, arities, counts
    ):
        sizes = {
            name: (arity, counts[i % len(counts)])
            for i, (name, arity) in enumerate(sorted(arities.items()))
        }
        kept, recomputed = explained_split(Database(skewed(sizes)), text, head)
        assert kept | recomputed == set(arities)
        for name, (arity, _rows) in sizes.items():
            db = Database(skewed(sizes))
            q = db.query(text, head)
            q.evaluate()
            present = db.instance.tuples(name)
            row = next(r for k in itertools.count(3) if (r := (k,) * arity) not in present)
            assert db.insert(name, row) == 1
            result = q.evaluate()
            assert result.stats["result_cache"] == "miss"
            assert result.stats["maintained"] is (name in kept), (text, sizes, name)
            assert result.answers == Database(db.instance).evaluate(text, head).answers


class TestSupersededEntries:
    def test_a_write_stream_leaves_one_entry_per_query(self):
        db = Database({"R": [(1, Null("a")), (2, 3)], "S": [(3, 4)]}, semantics="cwa")
        texts = [JOIN, SELF_JOIN, "exists y (R(x, y) & !S(y, 4))"]
        db.evaluate_many(texts)
        for i in range(25):
            db.insert("R", (10 + i, 3))
            inserted = db.evaluate_many(texts)
            db.delete("R", (10 + i, 3))
            results = db.evaluate_many(texts)
            assert [r.stats["result_cache"] for r in inserted] == ["miss"] * 3
            assert [r.stats["result_cache"] for r in results] == ["miss"] * 3
        assert [r.method for r in results] == ["columnar", "columnar", "enumeration"]
        stats = db.cache_stats
        assert stats["entries"] == 3 and stats["evictions"] == 0
        # JOIN's answers and the oracle's bracket bounds are maintained
        # (50 writes each); SELF_JOIN recomputes
        assert stats["maintained"] == 100

    def test_a_late_put_does_not_bring_a_dead_key_back(self):
        db = Database({"R": [(1, 2)], "S": [(2, 3)]})
        q = db.query(JOIN, ("x", "y"))
        q.evaluate()
        (old_key,) = db._results
        stale = db._results[old_key]
        db.insert("R", (5, 2))
        q.evaluate()
        (new_key,) = db._results
        db._result_put(old_key, stale)  # a reader that snapshotted before the write
        assert list(db._results) == [new_key]
        assert q.evaluate().stats["result_cache"] == "hit"
