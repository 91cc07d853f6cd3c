"""The JSON-lines serving layer: QueryService ops, the batch gate and the
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
            {"op": "query", "query": "R(x, y)", "vars": "xy"},
            {"op": "batch", "queries": ["R(x, y)"]},
            {"op": "batch", "queries": [{"query": "R(x, y)"}], "mode": ["x"]},
        ],
    )
    def test_bad_requests_become_error_responses(self, service, request_):
        response = service.handle(request_)
        assert response["ok"] is False and response["error"]
        # the error names the bad field; it never leaks a Python internal
        for leak in ("object has no attribute", "unhashable type"):
            assert leak not in response["error"]

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

    def test_bad_json_line(self, service):
        response = json.loads(service.handle_line("{nope"))
        assert response["ok"] is False and "bad JSON" in response["error"]

    def test_error_counter(self, service):
        service.handle({"op": "nope"})
        assert service.handle({"op": "stats"})["requests"]["errors"] == 1


class TestBatchGate:
    def test_single_request_is_batch_of_one(self, service):
        response = service.handle({"op": "query", "query": JOIN})
        assert response["ok"] and response["batched"] is False

    def test_concurrent_requests_coalesce(self, monkeypatch):
        db = Database({"R": [(1, 2), (2, 3)]})
        service = QueryService(db)
        real = db.evaluate_many
        calls = []
        first_entered = threading.Event()
        release = threading.Event()

        def slow(sources, *, mode="auto"):
            sources = list(sources)
            calls.append(len(sources))
            if len(calls) == 1:
                first_entered.set()
                assert release.wait(5)
            return real(sources, mode=mode)

        monkeypatch.setattr(db, "evaluate_many", slow)
        responses = {}

        def client(i, text):
            responses[i] = service.handle({"op": "query", "query": text})

        leader = threading.Thread(target=client, args=(0, "exists x (R(x, 2))"))
        leader.start()
        assert first_entered.wait(5)
        followers = [
            threading.Thread(target=client, args=(i, f"exists x (R(x, {i}))"))
            for i in (1, 2)
        ]
        for t in followers:
            t.start()
        # wait until both followers are queued behind the stalled leader
        deadline = time.time() + 5
        while time.time() < deadline:
            with service._batch._cond:
                if len(service._batch._pending.get("auto", [])) == 2:
                    break
            time.sleep(0.002)
        release.set()
        leader.join(5)
        for t in followers:
            t.join(5)
        assert calls == [1, 2]  # leader alone, then the two followers together
        assert responses[0]["batched"] is False
        assert responses[1]["batched"] and responses[2]["batched"]
        assert all(responses[i]["ok"] for i in responses)

    def test_bad_batchmate_does_not_poison_others(self, monkeypatch):
        db = Database({"R": [(1, X)]}, semantics="cwa")
        service = QueryService(db)

        def explode(sources, *, mode="auto"):
            raise ValueError("batch went sideways")

        monkeypatch.setattr(db, "evaluate_many", explode)
        response = service.handle({"op": "query", "query": "exists z (R(1, z))"})
        assert response["ok"] and response["holds"]  # individual fallback

    def test_batching_can_be_disabled(self):
        db = Database({"R": [(1, 2)]})
        service = QueryService(db, batch=False)
        response = service.handle({"op": "query", "query": "exists x (R(x, 2))"})
        assert response["ok"] and response["batched"] is False


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
