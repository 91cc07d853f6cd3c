"""The benchmark's three workloads: generated instances, op streams, references.

Every workload is a pure function of its seed.  :func:`build` returns a
:class:`Workload` whose ``instance`` is written to a JSON file for the
server, and whose :meth:`Workload.ops` yields the same op stream on
every call.  Ops are tuples:

* ``("query",)`` — the workload's one query;
* ``("insert", relation, row)`` / ``("delete", relation, row)``.

:func:`reference_digests` replays an op prefix over a plain-set model
of the instance and returns, per read, the digest of the reference
answers, so the load generator can check every answer the server sent.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator

#: the join every read of ``hot_read`` and ``write_mix`` evaluates
JOIN_QUERY = "exists z (R(x, z) & S(z, y))"
#: a CWA query with negation: Figure 1 cannot prove naive evaluation
#: exact, so it routes to the certain-answer oracle
ORACLE_QUERY = "exists y (R(x, y) & !S(y))"

#: ops per counted block: the ``stats`` op is snapshotted before the
#: timed window and after this many of its ops, so the counts repeat
#: exactly at a fixed seed however fast the host runs
COUNTED_OPS = {"hot_read": 1000, "write_mix": 1000, "oracle": 100}

NAMES = tuple(COUNTED_OPS)

#: the relations every workload's query reads: a write elsewhere cannot
#: change its answer, whatever the server caches
QUERY_RELATIONS = frozenset("RS")


@dataclass
class Workload:
    name: str
    seed: int
    query: str
    vars: tuple[str, ...]
    #: ``{relation: rows}``; cells are ints or ``"?label"`` nulls (the
    #: repro JSON instance format)
    instance: dict[str, list[list]]
    #: ``--data-dir`` serving (durable, default fsync policy)
    durable: bool = False
    #: ops run before the timed window (first plan, cache fill)
    warmup_ops: int = 20
    #: the rows the write stream inserts and deletes (``oracle``)
    toggles: list[list] = field(default_factory=list)
    #: timed-window ops the ``stats`` counts cover
    counted_ops: int = 0

    def ops(self) -> Iterator[tuple]:
        """The workload's op stream (infinite; the same on every call)."""
        return _STREAMS[self.name](self)


def _join_instance(rng: random.Random) -> dict[str, list[list]]:
    """The ROADMAP reference case: 1000 + 1000 rows, ~990 join answers.

    ``R(x, z)`` maps 999 distinct keys onto a permutation of the join
    column; ``S(z, y)`` covers 989 of those values plus 10 that match
    nothing.  One null row on each side join each other (``?j``), so
    the instance is incomplete yet naive evaluation stays exact.
    """
    zs = list(range(1000))
    rng.shuffle(zs)
    ys = list(range(10_000, 11_000))
    rng.shuffle(ys)
    r_rows = [[x, zs[x]] for x in range(999)] + [[999, "?j"]]
    s_keys = list(range(989)) + [5_000 + k for k in range(10)]
    s_rows = [[z, ys[i]] for i, z in enumerate(s_keys)] + [["?j", 20_000]]
    return {"R": r_rows, "S": s_rows, "T": [[0]]}


def _hot_read_ops(w: Workload) -> Iterator[tuple]:
    """95% reads; 5% inserts into ``T``, which the query never reads."""
    rng = random.Random(w.seed * 7919 + 1)
    for fresh in itertools.count(1):
        if rng.random() < 0.05:
            yield ("insert", "T", [fresh])
        else:
            yield ("query",)


def _write_mix_ops(w: Workload) -> Iterator[tuple]:
    """Alternate a single-row write to ``R`` with a read of the join.

    A write inserts a row absent from the instance and the next write
    deletes it, so the instance size stays flat.  The rows come from a
    fixed seeded pool of 32, each joining one ``S`` row, so every write
    changes the answer.
    """
    rng = random.Random(w.seed * 7919 + 2)
    pool = [[2_000 + k, rng.randrange(989)] for k in range(32)]
    while True:
        rng.shuffle(pool)
        for row in pool:
            yield ("insert", "R", row)
            yield ("query",)
            yield ("delete", "R", row)
            yield ("query",)


def _oracle_instance(rng: random.Random) -> tuple[dict[str, list[list]], list[list]]:
    """33 ``R`` rows (3 with nulls over 2 labels) and 5 ``S`` rows.

    The constants are 100..130 plus the nulls' 3 fresh values, so the
    pool holds 34 values, the valuation bound is 34**2 = 1156, and the
    oracle evaluates 1024 worlds per read.  Ten null-free rows are the
    toggle set; every constant of a toggle row also occurs in a static
    row, so toggling never changes the pool.

    The shape is the same for every seed; the seed only relabels the
    constants.  The oracle's cost depends on the shape, not on the
    labels, so runs with different seeds do the same work.
    """
    shape = random.Random(0)
    consts = list(range(100, 130))
    s_vals = shape.sample(consts, 5)
    outside = [c for c in consts if c not in s_vals]
    # odd toggle rows point into S (no answer), even ones outside it
    toggles = [[120 + k, (s_vals if k % 2 else outside)[shape.randrange(5)]]
               for k in range(10)]
    # 20 static rows keyed 100..119 whose second column covers the
    # toggle keys 120..129, so all 30 constants stay in the instance
    ys = list(range(120, 130)) + shape.sample(range(100, 120), 10)
    shape.shuffle(ys)
    r_rows = [[100 + k, y] for k, y in enumerate(ys)] + toggles
    r_rows += [[130, "?a"], ["?a", shape.choice(consts)], [130, "?b"]]
    labels = dict(zip(consts, rng.sample(consts, len(consts))))

    def relabel(row):
        return [labels.get(cell, cell) for cell in row]

    instance = {"R": [relabel(row) for row in r_rows], "S": [[labels[v]] for v in s_vals]}
    return instance, [relabel(row) for row in toggles]


def _oracle_ops(w: Workload) -> Iterator[tuple]:
    """Alternate toggling one of the ten null-free rows with the query.

    The toggles are walked in a fixed order twice, so the instance
    returns to its start state every 20 writes.
    """
    present = [True] * len(w.toggles)
    while True:
        for k in list(range(len(w.toggles))) * 2:
            op = "delete" if present[k] else "insert"
            present[k] = not present[k]
            yield (op, "R", w.toggles[k])
            yield ("query",)


_STREAMS = {"hot_read": _hot_read_ops, "write_mix": _write_mix_ops, "oracle": _oracle_ops}


def build(name: str, seed: int) -> Workload:
    if name not in COUNTED_OPS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(seed)
    common = {"name": name, "seed": seed, "counted_ops": COUNTED_OPS[name]}
    if name == "hot_read":
        return Workload(query=JOIN_QUERY, vars=("x", "y"), instance=_join_instance(rng),
                        **common)
    if name == "write_mix":
        # warm-up fills the 1024-entry result cache with dead-generation
        # entries (one per read after a write), so the heap is in steady
        # state before the window opens
        return Workload(query=JOIN_QUERY, vars=("x", "y"), instance=_join_instance(rng),
                        durable=True, warmup_ops=2 * 1040, **common)
    instance, toggles = _oracle_instance(rng)
    return Workload(query=ORACLE_QUERY, vars=("x",), instance=instance,
                    warmup_ops=4, toggles=toggles, **common)


def answer_digest(rows) -> tuple[int, int]:
    """Order-free digest of an answer list: ``(row count, set hash)``."""
    rows = frozenset(map(tuple, rows))
    return len(rows), hash(rows)


def _is_null(cell) -> bool:
    return isinstance(cell, str) and cell.startswith("?")


def naive_join(r, s) -> set:
    """Naive evaluation of :data:`JOIN_QUERY`: nulls join as values,
    answers carrying a null are dropped (the paper's definition)."""
    by_z: dict = {}
    for z, y in s:
        by_z.setdefault(z, []).append(y)
    return {
        (x, y)
        for x, z in r
        for y in by_z.get(z, ())
        if not _is_null(x) and not _is_null(y)
    }


def certain_not_in(r, s) -> set:
    """Certain answers of :data:`ORACLE_QUERY` under CWA, by brute force.

    Intersects the answers over every valuation of the nulls into the
    instance's constants plus ``#nulls + 1`` fresh values (enough for
    exactness on generic queries); a certain answer holds no fresh value.
    """
    cells = {c for row in r | s for c in row}
    nulls = sorted(c for c in cells if _is_null(c))
    pool = sorted(c for c in cells if not _is_null(c))
    fresh = [f"fresh{k}" for k in range(len(nulls) + 1)]
    result = None
    for values in itertools.product(pool + fresh, repeat=len(nulls)):
        v = dict(zip(nulls, values))
        excluded = {v.get(y, y) for (y,) in s}
        answers = {v.get(x, x) for x, y in r if v.get(y, y) not in excluded}
        result = answers if result is None else result & answers
    return {(x,) for x in result if x not in fresh}


_REFERENCES = {JOIN_QUERY: naive_join, ORACLE_QUERY: certain_not_in}


def reference_digests(w: Workload, ops: list[tuple]) -> list[tuple[int, int]]:
    """Replay ``ops`` over a plain-set model and digest each read's reference.

    The references are computed from the paper's definitions, with no
    code of the system under test, so a change to caching, routing or a
    backend cannot make the check agree with itself.  A reference is
    recomputed only when a write touched a relation the query reads.
    """
    model = {name: {tuple(row) for row in rows} for name, rows in w.instance.items()}
    reference = _REFERENCES[w.query]
    memo: dict = {}
    digests = []
    current = None
    for op in ops:
        if op[0] == "query":
            if current is None:
                # the op streams revisit states: memoise on their content
                state = (frozenset(model["R"]), frozenset(model["S"]))
                if state not in memo:
                    memo[state] = answer_digest(reference(*state))
                current = memo[state]
            digests.append(current)
        else:
            kind, relation, row = op
            rows = model.setdefault(relation, set())
            (rows.add if kind == "insert" else rows.discard)(tuple(row))
            if relation in QUERY_RELATIONS:
                current = None
    return digests
