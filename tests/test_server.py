"""The JSON-lines serving layer: QueryService ops, read isolation and the
TCP server."""

import json
import socket
import threading
import time

import pytest

from repro.data.values import Null
from repro.server import QueryService, serve
from repro.session import Database

X = Null("x")

JOIN = "exists z (R(x, z) & S(z, y))"


@pytest.fixture
def service():
    db = Database({"R": [(1, X)], "S": [(X, 4)]}, semantics="cwa")
    return QueryService(db)


class TestQueryServiceOps:
    def test_ping(self, service):
        assert service.handle({"op": "ping", "id": 7}) == {
            "ok": True, "pong": True, "id": 7,
            "proto": 2, "features": ["pipelining", "deadline_ms"],
        }

    def test_query_round_trip(self, service):
        response = service.handle(
            {"op": "query", "query": JOIN, "vars": ["x", "y"]}
        )
        assert response["ok"] and response["answers"] == [[1, 4]]
        assert response["exact"] and response["method"] == "columnar"

    def test_null_cells_encoded_on_the_wire(self, service):
        service.handle(
            {"op": "insert", "relation": "R", "rows": [["?y", "??lit"]]}
        )
        dump = service.handle({"op": "dump"})["instance"]
        assert ["?y", "??lit"] in dump["R"]
        assert service.db.instance.tuples("R") >= {(Null("y"), "?lit")}

    def test_insert_delete_delta(self, service):
        assert service.handle(
            {"op": "insert", "relation": "T", "rows": [[1], [2]]}
        )["changed"] == 2
        assert service.handle(
            {"op": "delete", "relation": "T", "rows": [[2], [9]]}
        )["changed"] == 1
        response = service.handle(
            {"op": "delta", "adds": {"T": [[5]]}, "removes": {"T": [[1]]}}
        )
        assert response["ok"] and response["changed"] == 2
        assert service.db.instance.tuples("T") == {(5,)}

    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "insert", "relation": "T", "rows": [[1]]},
            {"op": "delete", "relation": "R", "rows": [[1, "?x"]]},
            {"op": "delta", "adds": {"T": [[5]]}, "removes": {"S": [["?x", 4]]}},
        ],
        ids=["insert", "delete", "delta"],
    )
    def test_write_ack_carries_its_own_generation(self, service, monkeypatch, request_):
        """Another write published between ``apply_delta`` returning and
        the ack being built must not lend the ack its generation."""
        db = service.db
        records = []
        db.add_listener(lambda event: records.append(event.get("record")))
        apply_delta = db.apply_delta

        def then_another_write(adds=None, removes=None):
            written = apply_delta(adds, removes)
            apply_delta(adds={"U": [(len(records),)]})
            return written

        monkeypatch.setattr(db, "apply_delta", then_another_write)
        ack = service.handle(request_)
        own, later = records
        written = [own.get(side, {}).values() for side in ("adds", "removes")]
        assert ack["ok"] and ack["changed"] == sum(len(rows) for side in written for rows in side)
        assert ack["generation"] == own["g"] == 1
        assert db.generation == later["g"] == 2

    def test_mutation_preserves_unrelated_cache(self, service):
        service.handle({"op": "query", "query": JOIN, "vars": ["x", "y"]})
        service.handle({"op": "insert", "relation": "T", "rows": [[1]]})
        again = service.handle({"op": "query", "query": JOIN, "vars": ["x", "y"]})
        assert again["cache"] == "hit"

    def test_semantics_override(self, service):
        response = service.handle(
            {"op": "query", "query": "forall u . exists v . R(u, v)",
             "semantics": "owa"}
        )
        assert response["ok"] and response["method"] == "enumeration"

    def test_explain(self, service):
        response = service.handle({"op": "explain", "query": JOIN})
        assert response["ok"] and response["plan"]["backend"] == "columnar"

    def test_batch_op(self, service):
        response = service.handle(
            {"op": "batch", "queries": [
                {"query": JOIN, "vars": ["x", "y"]},
                {"query": "exists u, v (S(u, v))"},
            ]}
        )
        assert response["ok"] and len(response["results"]) == 2
        assert response["results"][0]["answers"] == [[1, 4]]
        assert all(r["batched"] for r in response["results"])

    def test_stats(self, service):
        service.handle({"op": "query", "query": JOIN})
        service.handle({"op": "insert", "relation": "T", "rows": [[1]]})
        stats = service.handle({"op": "stats"})
        assert stats["requests"]["queries"] == 1
        assert stats["requests"]["mutations"] == 1
        assert stats["semantics"] == "cwa"
        assert stats["generation"] == 1

    @pytest.mark.parametrize(
        "request_",
        [
            {"op": "nope"},
            {},
            {"op": "query"},
            {"op": "query", "query": "exists z ("},
            {"op": "query", "query": "R(x)", "semantics": "bogus"},
            {"op": "insert", "relation": "R"},
            {"op": "insert", "rows": [[1]]},
            {"op": "delta", "adds": [["R", 1]]},
            {"op": "delta", "adds": {"R": 5}},
            {"op": "query", "query": "R(x, y)", "vars": "xy"},
            {"op": "batch", "queries": ["R(x, y)"]},
            {"op": "batch", "queries": [{"query": "R(x, y)"}], "mode": ["x"]},
            {"op": "explain", "query": "R(x, y)", "mode": ["x"]},
            {"op": "delete", "rows": [[1]]},
        ],
    )
    def test_bad_requests_become_error_responses(self, service, request_):
        response = service.handle(request_)
        assert response["ok"] is False and response["error"]
        # the error names the bad field; it never leaks a Python internal
        for leak in ("object has no attribute", "unhashable type", "is not iterable"):
            assert leak not in response["error"]
        assert response["error"] not in ("'relation'", "'rows'")  # bare KeyError text

    @pytest.mark.parametrize("op", ["query", "explain", "batch"])
    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("vars", [1, 2], "'vars' must be a list of variable names"),
            ("vars", [["x"], "y"], "'vars' must be a list of variable names"),
            ("semantics", [], "unknown semantics []; choose from"),
        ],
        ids=["int-vars", "nested-vars", "list-semantics"],
    )
    def test_non_string_query_fields_get_typed_errors(self, service, op, field, value, error):
        spec = {"query": "R(x, y)", field: value}
        request = {"op": "batch", "queries": [spec]} if op == "batch" else {"op": op, **spec}
        response = service.handle(request)
        assert response["ok"] is False
        assert response["error"].startswith(error)

    @pytest.mark.parametrize(
        "fields, error",
        [
            ({"min_generation": True}, "'min_generation' must be a non-negative integer"),
            ({"min_generation": False}, "'min_generation' must be a non-negative integer"),
            (
                {"min_rel_generation": {"R": True}},
                "'min_rel_generation' must map relation names to integers",
            ),
            (
                {"min_generation": 0, "wait_timeout_s": True},
                "'wait_timeout_s' must be a non-negative number",
            ),
        ],
        ids=["true-generation", "false-generation", "true-rel-generation", "true-timeout"],
    )
    def test_boolean_staleness_fields_get_field_errors(self, service, fields, error):
        # a JSON boolean is no generation: it must not wait out the timeout
        # and answer stale
        request = {"op": "query", "query": "R(x, y)", "wait_timeout_s": 2.0, **fields}
        started = time.monotonic()
        response = service.handle(request)
        assert time.monotonic() - started < 1.0
        assert response == {"ok": False, "error": error}

    def test_arity_mismatch_is_a_schema_error(self, service):
        response = service.handle({"op": "query", "query": "R(x)"})
        assert response["ok"] is False
        assert response["error_type"] == "schema" and response["relation"] == "R"
        # the library still evaluates the atom as matching nothing
        assert service.db.query("R(x)").evaluate().answers == frozenset()

    def test_bad_json_line(self, service):
        response = json.loads(service.handle_line("{nope"))
        assert response["ok"] is False and "bad JSON" in response["error"]

    def test_error_counter(self, service):
        service.handle({"op": "nope"})
        assert service.handle({"op": "stats"})["requests"]["errors"] == 1


class TestBatchGate:
    """There is no batch gate: a query request never waits for another."""

    def test_single_request_is_batch_of_one(self, service):
        response = service.handle({"op": "query", "query": JOIN})
        assert response["ok"] and response["batched"] is False

    def test_stalled_query_does_not_block_another(self, monkeypatch):
        db = Database({"R": [(1, 2), (2, 3)]})
        service = QueryService(db)
        real = db.evaluate_many
        stalled = threading.Event()
        release = threading.Event()

        def slow(sources, *, mode="auto"):
            if not stalled.is_set():
                stalled.set()
                assert release.wait(10)
            return real(sources, mode=mode)

        monkeypatch.setattr(db, "evaluate_many", slow)
        responses = {}

        def client(i, text):
            responses[i] = service.handle({"op": "query", "query": text})

        first = threading.Thread(target=client, args=(0, "exists x (R(x, 2))"))
        first.start()
        try:
            assert stalled.wait(5)
            # same mode as the stalled read: answered while it still waits
            second = threading.Thread(target=client, args=(1, "exists x (R(x, 3))"))
            second.start()
            second.join(5)
            assert 1 in responses and responses[1]["ok"] and responses[1]["holds"]
            assert 0 not in responses
        finally:
            release.set()
            first.join(5)
        assert not first.is_alive() and not second.is_alive()
        assert responses[0]["ok"] and responses[0]["batched"] is False

    def test_bad_batchmate_does_not_poison_others(self):
        db = Database({"R": [(1, X)]}, semantics="cwa")
        db.limit = 1
        service = QueryService(db)
        bad = service.handle(
            {"op": "query", "query": "forall u . exists v . R(u, v)", "mode": "enumeration"}
        )
        assert bad["ok"] is False and "limit 1" in bad["error"]
        response = service.handle({"op": "query", "query": "exists z (R(1, z))"})
        assert response["ok"] and response["holds"]

    def test_only_a_multi_query_batch_op_is_batched(self, service):
        single = service.handle({"op": "batch", "queries": [{"query": JOIN}]})
        assert [r["batched"] for r in single["results"]] == [False]
        pair = service.handle(
            {"op": "batch", "queries": [{"query": JOIN}, {"query": "exists u (R(u, 1))"}]}
        )
        assert [r["batched"] for r in pair["results"]] == [True, True]
        assert service.handle({"op": "stats"})["requests"]["batched_requests"] == 2


class TestTCPServer:
    def _rpc(self, sock_file_pair, obj):
        reader, writer = sock_file_pair
        writer.write(json.dumps(obj) + "\n")
        writer.flush()
        return json.loads(reader.readline())

    def test_end_to_end_over_sockets(self):
        db = Database({"R": [(1, X)], "S": [(X, 4)]}, semantics="cwa")
        with serve(db) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                files = (sock.makefile("r"), sock.makefile("w"))
                assert self._rpc(files, {"op": "ping"})["pong"]
                got = self._rpc(
                    files, {"op": "query", "query": JOIN, "vars": ["x", "y"]}
                )
                assert got["answers"] == [[1, 4]]
                assert self._rpc(
                    files, {"op": "insert", "relation": "T", "rows": [[1]]}
                )["changed"] == 1
                assert self._rpc(
                    files, {"op": "query", "query": JOIN, "vars": ["x", "y"]}
                )["cache"] == "hit"
        db.close()

    def test_many_concurrent_clients(self):
        db = Database({"R": [(i, i + 1) for i in range(6)]})
        with serve(db, executor_threads=4) as server:
            errors = []

            def client(i):
                try:
                    with socket.create_connection(server.address, timeout=5) as sock:
                        files = (sock.makefile("r"), sock.makefile("w"))
                        for k in range(5):
                            got = self._rpc(
                                files,
                                {"op": "query", "query": f"exists x (R(x, {i}))"},
                            )
                            assert got["ok"], got
                except Exception as err:  # noqa: BLE001 - collected for the assert
                    errors.append(err)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            assert not errors
            stats = db.cache_stats
            assert stats["hits"] >= 8 * 5 - 8  # every repeat is a hit
        db.close()

    def test_blank_lines_ignored_and_id_echoed(self):
        db = Database({"R": [(1, 2)]})
        with serve(db) as server:
            with socket.create_connection(server.address, timeout=5) as sock:
                reader, writer = sock.makefile("r"), sock.makefile("w")
                writer.write("\n\n")
                writer.write(json.dumps({"op": "ping", "id": "abc"}) + "\n")
                writer.flush()
                assert json.loads(reader.readline())["id"] == "abc"
        db.close()
