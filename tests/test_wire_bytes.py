"""Late materialisation: the answer bytes on the wire, and no decoding.

A result-cache entry keeps the answers as dictionary codes plus their
rendered JSON text (:class:`repro.data.answers.AnswerSet`), and the
response writer splices that text into the line.  Two properties pin
the change:

* **the bytes are unchanged** — every response line, on a cache miss
  and a hit, for the ``query`` and ``batch`` ops, through
  ``handle_line`` and over TCP, equals the line the reference renderer
  ``json.dumps([encode_row(name, r) for r in sorted(answers, key=repr)])``
  gives for the same decoded answers;
* **the serving path decodes nothing** — a served ``columnar`` miss and
  the hit after it never call ``Dictionary.decode``/``decode_row``, and
  the cache keeps no decoded rows, while in-process callers still get
  ``EvalResult.answers`` as decoded tuples.

Both run with the numpy kernels and with the pure-Python ones; CI runs
this file again under ``REPRO_PURE_KERNELS=1``.
"""

import json
import socket

import pytest
from diffutil import (
    ARBITRARY_RELS,
    ARBITRARY_VARS,
    fuzz_rng,
    fuzz_trials,
    random_formula,
)

from repro.data.dictionary import Dictionary
from repro.data.instance import Instance
from repro.data.jsonio import encode_row
from repro.data.values import Null
from repro.logic import kernels
from repro.logic.transform import free_vars
from repro.server import QueryService, serve
from repro.session import Database

#: cells covering every JSON scalar shape an answer can carry: escaped
#: "?" strings, negative and huge ints, floats, booleans, JSON null and
#: strings json.dumps escapes
CELLS = [-3, 0, 1, 2, 10**20, 2.5, -0.5, True, False, None, "a", "?q", "??r", 'x"y', "é", "a, b"]
NULLS = [Null("n1"), Null("n2")]

JOIN = "exists z (R(x, z) & S(z, y))"


@pytest.fixture(params=["vector", "pure"])
def kernel_path(request, monkeypatch):
    if request.param == "pure":
        monkeypatch.setattr(kernels, "_np", None)
    return request.param


def random_instance(rng) -> Instance:
    rels = {}
    for name, arity in ARBITRARY_RELS.items():
        rels[name] = [
            tuple(
                rng.choice(NULLS) if rng.random() < 0.2 else rng.choice(CELLS)
                for _ in range(arity)
            )
            for _ in range(rng.randint(0, 6))
        ]
    return Instance(rels)


def random_case(rng):
    phi = random_formula(rng, rng.choice([1, 2, 3]), rng.sample(ARBITRARY_VARS, 2))
    head = sorted(v.name for v in free_vars(phi))
    return str(phi), head, random_instance(rng)


def reference(db: Database, text: str, vars_: list, mode: str = "auto") -> list:
    """The reference renderer over the decoded answers of the same query."""
    prepared = db.query(text, tuple(vars_))
    answers = prepared.evaluate(mode).answers
    name = prepared.query.name
    return [encode_row(name, row) for row in sorted(answers, key=repr)]


def reference_line(line: str, refs: list) -> str:
    """``line`` as the reference renderer writes it: same fields, answers
    re-rendered (one ref per ``results`` entry of a batch)."""
    response = json.loads(line)
    targets = response["results"] if "results" in response else [response]
    assert len(targets) == len(refs)
    for target, ref in zip(targets, refs):
        target["answers"] = ref
    return json.dumps(response)


def query_line(text: str, vars_: list, mode: str = "auto", **extra) -> str:
    return json.dumps({"op": "query", "query": text, "vars": vars_, "mode": mode, **extra})


class TestWireBytes:
    def test_random_queries_miss_hit_and_batch(self, kernel_path):
        rng = fuzz_rng("wire-bytes")
        served = 0
        for _ in range(fuzz_trials(60)):
            text, head, inst = random_case(rng)
            for mode in ("auto", "compiled"):
                service = QueryService(Database(inst))
                miss = service.handle_line(query_line(text, head, mode))
                if not json.loads(miss)["ok"]:
                    continue  # e.g. an enumeration guard: no answers to compare
                hit = service.handle_line(query_line(text, head, mode))
                want = reference(service.db, text, head, mode)
                assert miss == reference_line(miss, [want]), (text, inst)
                assert hit == reference_line(hit, [want]), (text, inst)
                assert json.loads(hit)["cache"] in ("hit", "uncacheable")
                # the in-process response compares equal to the parsed list
                request = {"op": "query", "query": text, "vars": head, "mode": mode}
                assert service.handle(request)["answers"] == want
                served += 1
            queries = [{"query": text, "vars": head}, {"query": JOIN, "vars": ["x", "y"]}]
            service = QueryService(Database(inst))
            line = service.handle_line(json.dumps({"op": "batch", "queries": queries}))
            if json.loads(line)["ok"]:
                refs = [reference(service.db, q["query"], q["vars"]) for q in queries]
                assert line == reference_line(line, refs), (text, inst)
        assert served > fuzz_trials(60)  # most random cases really served

    @pytest.mark.parametrize(
        "text, want",
        [
            ("exists u, v (R(u, v))", [[]]),
            ("exists u (R(u, u) & !R(u, u))", []),
            ("R(x, y) & !R(x, y)", []),
        ],
    )
    def test_boolean_and_empty_answers(self, kernel_path, text, want):
        inst = Instance({"R": [(1, 2)]})
        service = QueryService(Database(inst))
        for _ in ("miss", "hit"):
            line = service.handle_line(json.dumps({"op": "query", "query": text}))
            assert json.loads(line)["answers"] == want
            assert line == reference_line(line, [want])

    def test_request_id_spelling_a_splice_marker(self):
        # jsonio.dumps parks each answers text behind a marker string; an
        # echoed id that spells a marker must not be taken for one
        service = QueryService(Database({"R": [(1, 2)]}))
        for rid in ("\x00raw0\x00", "\x00raw1\x00"):
            line = service.handle_line(query_line("R(x, y)", ["x", "y"], id=rid))
            assert line == reference_line(line, [[[1, 2]]])
            assert json.loads(line)["id"] == rid

    def test_every_cell_shape_over_tcp(self, kernel_path):
        rows = [(c, 0 if i % 2 else "k") for i, c in enumerate(CELLS)] + [(NULLS[0], "k")]
        db = Database({"R": rows, "S": [("k", 7), (0, -1.5), (NULLS[0], 9)]})
        with serve(db) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                reader, writer = sock.makefile("r"), sock.makefile("w")
                for rid in range(2):  # a miss, then a hit
                    writer.write(query_line(JOIN, ["x", "y"], id=rid) + "\n")
                    writer.flush()
                    line = reader.readline().rstrip("\n")
                    want = reference(db, JOIN, ["x", "y"])
                    assert line == reference_line(line, [want])
                    assert json.loads(line)["cache"] == ("miss", "hit")[rid]
                    # every constant R row joins: one answer each
                    assert len(want) == len(db.instance.tuples("R")) - 1
        db.close()


class TestServingPathDecodesNothing:
    def test_columnar_miss_and_hit_decode_no_row(self, kernel_path, monkeypatch):
        calls = {"decode": 0}
        for attr in ("decode", "decode_row"):
            real = getattr(Dictionary, attr)

            def counted(self, *args, _real=real):
                calls["decode"] += 1
                return _real(self, *args)

            monkeypatch.setattr(Dictionary, attr, counted)
        rows = [(i, i % 7) for i in range(200)] + [(NULLS[0], 3), (9, NULLS[1])]
        db = Database({"R": rows, "S": [(k, -k) for k in range(7)] + [(NULLS[1], 1)]})
        service = QueryService(db)
        lines = [service.handle_line(query_line(JOIN, ["x", "y"])) for _ in range(2)]
        assert [json.loads(line)["cache"] for line in lines] == ["miss", "hit"]
        assert json.loads(lines[0])["method"] == "columnar"
        assert calls["decode"] == 0
        entries = list(db._results.values())
        assert entries and all(e.is_encoded and e._rows is None for e in entries)
        # in-process callers still read decoded tuples, decoded on demand
        result = db.query(JOIN, ("x", "y")).evaluate()
        assert result.stats["result_cache"] == "hit"
        # the shared null n2 joins itself, as naive evaluation says
        want = {(i, -(i % 7)) for i in range(200)} | {(9, 1)}
        assert result.answers == want
        assert calls["decode"] > 0
