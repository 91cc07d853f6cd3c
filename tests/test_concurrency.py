"""Stress: parallel reader threads against a mutating writer on one Database.

Every result must correspond to a *consistent* generation — never a torn
mix of two instance states, whether it came from the result cache or a
fresh evaluation.  The writer swaps the whole content of relation ``R``
atomically (one ``apply_delta`` per swap, all rows tagged with the swap
number) while also hammering an unrelated relation to exercise
cache-hits-under-mutation; readers assert that every answer set they
ever observe is exactly one swap's rows, and that the tag matches the
per-relation generation the result reports.

A third test streams single-row and batched deltas into one relation of
a join while readers evaluate it: those reads are served by maintaining
the cached answers (witness counting), and every answer and its wire
text must be exactly the reference answer of the generation it reports.
"""

import random
import sys
import threading
import time

from repro.data.instance import Instance
from repro.data.jsonio import render_rows
from repro.data.values import Null
from repro.server import QueryService
from repro.session import Database

N_ROWS = 6
N_SWAPS = 120


def _rows(tag: int) -> list[tuple]:
    return [(f"t{tag}", i) for i in range(N_ROWS)]


def test_parallel_readers_with_mutating_writer():
    db = Database({"R": _rows(0), "Noise": [(0,)]})
    q = db.query("R(x, y)", vars=("x", "y"))
    errors: list[str] = []
    done = threading.Event()

    def writer():
        try:
            for tag in range(N_SWAPS):
                db.apply_delta(
                    adds={"R": _rows(tag + 1)}, removes={"R": _rows(tag)}
                )
                # unrelated churn: must never invalidate (or tear) R results
                db.insert("Noise", (tag + 1,))
                db.delete("Noise", (tag,))
        except Exception as err:  # noqa: BLE001 - surfaced via the assert
            errors.append(f"writer: {err!r}")
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                result = q.evaluate()
                tags = {row[0] for row in result.answers}
                if len(result.answers) != N_ROWS or len(tags) != 1:
                    errors.append(f"torn read: {sorted(result.answers)}")
                    return
                # the rows must be exactly the state of the generation the
                # result claims: R's per-relation counter g ↔ tag "t{g}"
                gen = result.stats["generations"]["R"]
                if tags != {f"t{gen}"}:
                    errors.append(f"generation mismatch: tags={tags} gen={gen}")
                    return
        except Exception as err:  # noqa: BLE001 - surfaced via the assert
            errors.append(f"reader: {err!r}")

    readers = [threading.Thread(target=reader) for _ in range(4)]
    w = threading.Thread(target=writer)
    for t in readers:
        t.start()
    w.start()
    w.join(60)
    for t in readers:
        t.join(60)
    assert not errors, errors[:5]
    final = q.evaluate()
    assert {row[0] for row in final.answers} == {f"t{N_SWAPS}"}
    assert db.rel_generation("R") == N_SWAPS
    # both Noise writes were effective every round as well
    assert db.rel_generation("Noise") == 2 * N_SWAPS


def test_concurrent_service_clients_with_mutations():
    """The same invariant through the serving layer (batch gate enabled)."""
    db = Database({"R": _rows(0)})
    service = QueryService(db)
    errors: list[str] = []
    done = threading.Event()
    swaps = 60

    def writer():
        try:
            for tag in range(swaps):
                response = service.handle(
                    {
                        "op": "delta",
                        "adds": {"R": [[f"t{tag + 1}", i] for i in range(N_ROWS)]},
                        "removes": {"R": [[f"t{tag}", i] for i in range(N_ROWS)]},
                    }
                )
                if not response["ok"]:
                    errors.append(f"writer: {response}")
                    return
        finally:
            done.set()

    def client():
        while not done.is_set():
            response = service.handle(
                {"op": "query", "query": "R(x, y)", "vars": ["x", "y"]}
            )
            if not response["ok"]:
                errors.append(f"client: {response}")
                return
            tags = {row[0] for row in response["answers"]}
            if len(response["answers"]) != N_ROWS or len(tags) != 1:
                errors.append(f"torn read: {response['answers']}")
                return

    clients = [threading.Thread(target=client) for _ in range(3)]
    w = threading.Thread(target=writer)
    for t in clients:
        t.start()
    w.start()
    w.join(60)
    for t in clients:
        t.join(60)
    assert not errors, errors[:5]


def test_concurrent_mutators_apply_every_effective_write():
    """Two writers hitting disjoint relations never lose each other's facts."""
    db = Database()
    per_writer = 150

    def writer(name: str):
        for i in range(per_writer):
            assert db.insert(name, (i,)) == 1

    threads = [
        threading.Thread(target=writer, args=(name,)) for name in ("A", "B")
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert db.instance.tuples("A") == {(i,) for i in range(per_writer)}
    assert db.instance.tuples("B") == {(i,) for i in range(per_writer)}
    assert db.generation == 2 * per_writer
    assert db.rel_generation("A") == per_writer


def test_maintained_reads_under_a_delta_stream():
    """Readers of one prepared join while a writer streams deltas into R:
    each answer equals the reference at a generation no older than the
    one the read observed, and its text renders that reference."""
    rng = random.Random(19)
    instance = Instance(
        {
            "R": [(i, i % 7) for i in range(60)] + [(99, Null("n"))],
            "S": [(k, 100 + k) for k in range(7)] + [(Null("n"), 9)],
        }
    )
    join, head = "exists z (R(x, z) & S(z, y))", ("x", "y")
    deltas, states = [], [instance]
    while len(deltas) < 150:
        rows = sorted(states[-1].tuples("R"), key=repr)
        adds = [(rng.randrange(200), rng.randrange(8)) for _ in range(rng.choice([1, 1, 3]))]
        removes = rng.sample(rows, rng.choice([0, 1, 1, 2]))
        new, changes = states[-1].with_delta({"R": adds}, {"R": removes})
        if changes:
            deltas.append((adds, removes))
            states.append(new)
    # naive evaluation by hand: nulls join as values, null rows drop
    refs = [
        frozenset(
            (x, y)
            for x, z in state.tuples("R")
            for z2, y in state.tuples("S")
            if z == z2 and not isinstance(x, Null) and not isinstance(y, Null)
        )
        for state in states
    ]
    texts = [render_rows("Q", ref) for ref in refs]

    db = Database(instance)
    q = db.query(join, head)
    errors: list[str] = []
    done = threading.Event()

    def writer():
        try:
            for adds, removes in deltas:
                db.apply_delta({"R": adds}, {"R": removes})
                time.sleep(0.001)  # let the readers in between writes
        except Exception as err:  # noqa: BLE001 - surfaced via the assert
            errors.append(f"writer: {err!r}")
        finally:
            done.set()

    def reader(batched: bool):
        try:
            while not done.is_set():
                observed = db.generation
                result = db.evaluate_many([q])[0] if batched else q.evaluate()
                gen = result.stats["generation"]
                if gen < observed:
                    errors.append(f"read at generation {gen} after observing {observed}")
                elif result.answers != refs[gen]:
                    errors.append(f"answers differ from the reference at generation {gen}")
                elif result.answer_set.to_json("Q") != texts[gen]:
                    errors.append(f"text differs from the reference at generation {gen}")
                if errors:
                    return
        except Exception as err:  # noqa: BLE001 - surfaced via the assert
            errors.append(f"reader: {err!r}")

    readers = [threading.Thread(target=reader, args=(i % 2 == 0,)) for i in range(4)]
    w = threading.Thread(target=writer)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave readers and the writer finely
    try:
        for t in readers:
            t.start()
        w.start()
        w.join(60)
        for t in readers:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [w, *readers])
    assert not errors, errors[:5]
    final = q.evaluate()
    assert db.generation == len(deltas) and final.answers == refs[-1]
    assert db.cache_stats["maintained"] > 0
