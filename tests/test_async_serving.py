"""The asyncio serving core: pipelining, admission control, deadlines.

The acceptance criteria of the async redesign live here:

* **pipelining round-trip** — N ops written on one connection before a
  single response is read, responses matched by ``id``, results
  identical to serial execution (and provably out of order when a slow
  op pipelines behind a fast one);
* **admission control** — once ``max_inflight`` is exceeded the server
  answers with a typed ``overloaded`` frame, never a hang or a silent
  drop, and the slot is released for the next request;
* **slowloris defence** — a partial-frame client is reaped on the idle
  timeout without ever occupying an admission slot;
* the :class:`~repro.client.AsyncClient` mirrors the sync policy
  (deadlines, retry, failover, read-your-writes) over one pipelined
  connection per endpoint.
"""

import asyncio
import gc
import json
import random
import re
import socket
import sys
import threading
import time

import pytest

from repro import faults
from repro.client import (
    AsyncClient,
    Client,
    DeadlineExceeded,
    FrameTooLargeError,
    IndeterminateWriteError,
    OverloadedServerError,
    StaleReadError,
)
from repro.core import certain as _certain
from repro.core import engine as _engine
from repro.core import plan as _plan
from repro.data.dictionary import EncodedRelation
from repro.data.jsonio import decode_relations, dumps
from repro.logic import columnar as _columnar
from repro.logic import kernels as _kernels
from repro.server import (
    FEATURES,
    PROTO_VERSION,
    AsyncServer,
    QueryService,
    serve,
)
from repro.session import Database
from repro.storage.store import Storage


def address_of(server) -> str:
    return f"{server.address[0]}:{server.address[1]}"


@pytest.fixture(autouse=True)
def clean_global_failpoints():
    yield
    faults.install(None)


class Wire:
    """A bare-socket JSON-lines peer: full control over frame timing."""

    def __init__(self, address, timeout=10.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")

    def send(self, request: dict) -> None:
        self.sock.sendall((json.dumps(request) + "\n").encode("utf-8"))

    def recv(self) -> dict:
        line = self.reader.readline()
        assert line, "server closed the connection instead of answering"
        return json.loads(line)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


INSTANCE = {"R": [(1, 2), (2, 3)], "S": [(2, 4)]}


class TestProtocolV2:
    def test_async_server_advertises_full_features(self):
        server = serve(Database(INSTANCE))
        try:
            with Client(server.address) as client:
                pong = client.ping()
                assert pong["proto"] == PROTO_VERSION == 2
                assert pong["features"] == list(FEATURES)
                stats = client.stats()
                assert stats["proto"] == 2
                assert stats["features"] == ["pipelining", "deadline_ms"]
        finally:
            server.shutdown()


class TestPipelining:
    QUERIES = [
        "R(x, y)",
        "S(x, y)",
        "exists z (R(x, z) & S(z, y))",
        "exists x (exists y (R(x, y)))",
        "R(x, y)",  # a duplicate must get its own correlated response
        "exists x (S(x, 9))",
    ]

    def test_pipelined_responses_match_serial_execution_by_id(self):
        # serial ground truth: the same ops against an identical session
        serial = QueryService(Database(INSTANCE))
        expected = {
            i: serial.handle({"op": "query", "query": text})
            for i, text in enumerate(self.QUERIES)
        }
        server = serve(Database(INSTANCE))
        try:
            wire = Wire(server.address)
            # every request leaves before any response is read
            for i, text in enumerate(self.QUERIES):
                wire.send({"id": i, "op": "query", "query": text})
            got = {}
            for _ in self.QUERIES:
                response = wire.recv()
                got[response["id"]] = response
            wire.close()
        finally:
            server.shutdown()
        assert set(got) == set(expected)
        for i, want in expected.items():
            assert got[i]["ok"], got[i]
            assert got[i]["answers"] == want["answers"]
            assert got[i]["holds"] == want["holds"]

    def test_responses_return_out_of_order(self):
        server = serve(Database(INSTANCE))
        try:
            wire = Wire(server.address)
            # a slow op first: an unreachable staleness floor parks its
            # executor thread for the full wait window
            wire.send({
                "id": "slow", "op": "query", "query": "R(x, y)",
                "min_generation": 99, "wait_timeout_s": 1.5,
            })
            wire.send({"id": "fast", "op": "ping"})
            first, second = wire.recv(), wire.recv()
            wire.close()
        finally:
            server.shutdown()
        assert first["id"] == "fast" and first["pong"]
        assert second["id"] == "slow" and second["error_type"] == "stale"


class TestAdmissionControl:
    def test_overload_is_a_typed_frame_never_a_hang_or_drop(self):
        service = QueryService(Database(INSTANCE))
        server = AsyncServer(service, max_inflight=1).start()
        try:
            wire = Wire(server.address)
            # every one of these waits out a 1s staleness window, so the
            # single slot stays occupied while the rest arrive
            for i in range(4):
                wire.send({
                    "id": i, "op": "query", "query": "R(x, y)",
                    "min_generation": 99, "wait_timeout_s": 1.0,
                })
            frames = [wire.recv() for _ in range(4)]  # all 4 answered
            kinds = sorted(frame["error_type"] for frame in frames)
            assert kinds.count("overloaded") == 3 and kinds.count("stale") == 1
            shed = next(f for f in frames if f["error_type"] == "overloaded")
            assert shed["max_inflight"] == 1 and shed["id"] in {0, 1, 2, 3}
            # the slot is released: the next request is served normally
            wire.send({"id": 9, "op": "ping"})
            assert wire.recv()["pong"]
            wire.close()
            assert service.handle({"op": "stats"})["requests"]["overloaded"] == 3
        finally:
            server.shutdown()

    def test_connection_limit_refused_with_typed_frame(self):
        service = QueryService(Database())
        server = AsyncServer(service, max_conns=1).start()
        try:
            keeper = Wire(server.address)
            keeper.send({"op": "ping"})
            keeper.recv()  # the connection is registered and live
            refused = Wire(server.address)
            frame = refused.recv()
            assert frame["error_type"] == "overloaded"
            assert frame["max_conns"] == 1
            keeper.close()
            refused.close()
        finally:
            server.shutdown()

    def test_overloaded_writes_are_safely_retried_by_the_client(self):
        service = QueryService(Database(INSTANCE))
        server = AsyncServer(service, max_inflight=1).start()
        try:
            blocker = Wire(server.address)
            blocker.send({
                "op": "query", "query": "R(x, y)",
                "min_generation": 99, "wait_timeout_s": 0.6,
            })
            time.sleep(0.05)  # the slot is now held
            with Client(
                server.address, retries=8, backoff_base=0.1, backoff_cap=0.3
            ) as client:
                # sheds at first (overloaded = not executed, retry is safe),
                # then lands once the blocker's wait expires
                assert client.insert("R", [[8, 9]])["changed"] == 1
            assert service.handle({"op": "stats"})["requests"]["overloaded"] >= 1
            blocker.close()
        finally:
            server.shutdown()


class TestDeadlines:
    def test_deadline_ms_answers_with_typed_frame_on_time(self):
        server = serve(Database(INSTANCE))
        try:
            wire = Wire(server.address)
            started = time.monotonic()
            wire.send({
                "id": 5, "op": "query", "query": "R(x, y)",
                "min_generation": 99, "wait_timeout_s": 5.0,
                "deadline_ms": 200,
            })
            frame = wire.recv()
            elapsed = time.monotonic() - started
            wire.close()
        finally:
            server.shutdown()
        assert frame["error_type"] == "deadline" and frame["id"] == 5
        assert frame["deadline_ms"] == 200
        assert 0.15 <= elapsed < 2.0  # answered at the deadline, not the wait

    def test_invalid_deadline_ms_is_a_request_error(self):
        server = serve(Database())
        try:
            wire = Wire(server.address)
            wire.send({"id": 1, "op": "ping", "deadline_ms": -3})
            frame = wire.recv()
            assert not frame["ok"] and "deadline_ms" in frame["error"]
            assert frame["id"] == 1
            wire.close()
        finally:
            server.shutdown()

    @pytest.mark.parametrize(
        "deadline_ms", [True, "100", 0, [5]], ids=["true", "text", "zero", "list"]
    )
    def test_deadline_ms_is_checked_before_a_cache_hit(self, deadline_ms):
        service = QueryService(Database(INSTANCE))
        service.handle({"op": "query", "query": "R(x, y)"})  # now a rendered hit
        server = AsyncServer(service).start()
        try:
            wire = Wire(server.address)
            wire.send({"id": 1, "op": "query", "query": "R(x, y)", "deadline_ms": deadline_ms})
            assert wire.recv() == {
                "ok": False, "error": "'deadline_ms' must be a positive number", "id": 1,
            }
            wire.close()
        finally:
            server.shutdown()

    def test_expired_deadline_holds_slot_until_the_op_finishes(self):
        service = QueryService(Database(INSTANCE))
        server = AsyncServer(service, max_inflight=1).start()
        try:
            wire = Wire(server.address)
            wire.send({
                "id": 1, "op": "query", "query": "R(x, y)",
                "min_generation": 99, "wait_timeout_s": 0.8,
                "deadline_ms": 100,
            })
            assert wire.recv()["error_type"] == "deadline"
            # the abandoned op still occupies the executor: admission
            # control keeps counting it until it truly completes
            wire.send({"id": 2, "op": "ping"})
            assert wire.recv()["error_type"] == "overloaded"
            time.sleep(1.0)  # the stale wait has now expired
            wire.send({"id": 3, "op": "ping"})
            assert wire.recv()["pong"]
            wire.close()
            assert service.handle({"op": "stats"})["requests"]["deadline_expired"] == 1
        finally:
            server.shutdown()


class TestSlowloris:
    def test_partial_frame_client_is_reaped_on_idle_timeout(self):
        service = QueryService(Database())
        server = AsyncServer(service, idle_timeout_s=0.3).start()
        try:
            victim = socket.create_connection(server.address, timeout=5.0)
            victim.sendall(b'{"op": "ping"')  # half a frame, then silence
            victim.settimeout(5.0)
            started = time.monotonic()
            assert victim.recv(4096) == b""  # reaped: EOF, not a hang
            assert time.monotonic() - started < 2.0
            victim.close()
        finally:
            server.shutdown()

    def test_slowloris_never_occupies_an_admission_slot(self):
        service = QueryService(Database(INSTANCE))
        server = AsyncServer(service, max_inflight=1, idle_timeout_s=5.0).start()
        try:
            loris = socket.create_connection(server.address, timeout=5.0)
            loris.sendall(b'{"op": "query", "query"')  # stalls mid-frame
            time.sleep(0.1)
            # a whole-frame client is served instantly: the stalled frame
            # was never admitted, so the only slot is free
            wire = Wire(server.address)
            wire.send({"op": "query", "query": "R(x, y)"})
            assert wire.recv()["answers"] == [[1, 2], [2, 3]]
            wire.close()
            loris.close()
        finally:
            server.shutdown()


class TestAsyncFailpoints:
    def test_hang_on_recv_is_latency_not_failure(self):
        server = serve(Database(INSTANCE))
        try:
            faults.install("server.recv=once:hang(300)")
            with Client(server.address) as client:
                started = time.monotonic()
                assert client.ping()["pong"]
                assert time.monotonic() - started >= 0.25
        finally:
            server.shutdown()

    def test_injected_send_drop_loses_the_response_not_the_server(self):
        server = serve(Database(INSTANCE))
        try:
            faults.install("server.send=once:drop-conn")
            with Client(server.address, retries=3, backoff_base=0.02) as client:
                # the first response is dropped (connection dies), the
                # idempotent retry reconnects and succeeds
                assert client.query("R(x, y)")["answers"] == [[1, 2], [2, 3]]
            with Client(server.address) as probe:
                assert probe.ping()["pong"]  # the server survived
        finally:
            server.shutdown()

    def test_injected_send_drop_makes_a_write_indeterminate(self):
        server = serve(Database(INSTANCE))
        try:
            faults.install("server.send=once:drop-conn")
            with Client(server.address) as client:
                with pytest.raises(IndeterminateWriteError):
                    client.insert("R", [[7, 7]])
        finally:
            server.shutdown()


class TestGracefulDrain:
    def test_inflight_response_is_written_during_drain(self):
        server = serve(Database(INSTANCE))
        wire = Wire(server.address)
        wire.send({
            "id": 1, "op": "query", "query": "R(x, y)",
            "min_generation": 99, "wait_timeout_s": 0.5,
        })
        time.sleep(0.1)  # the request is in an executor slot
        stopper = threading.Thread(target=server.shutdown, args=(5.0,))
        stopper.start()
        frame = wire.recv()  # still answered, mid-shutdown
        assert frame["id"] == 1 and frame["error_type"] == "stale"
        stopper.join(timeout=10)
        wire.close()


class TestAsyncClient:
    def test_round_trip_and_read_your_writes(self):
        server = serve(Database({"R": [(1, 2)]}))
        try:
            async def scenario():
                async with AsyncClient(server.address) as client:
                    assert (await client.query("R(x, y)"))["answers"] == [[1, 2]]
                    ack = await client.insert("R", [[3, 4]])
                    assert ack["changed"] == 1
                    assert client.last_write_generation == ack["generation"]
                    answers = (await client.query("R(x, y)"))["answers"]
                    assert {tuple(row) for row in answers} == {(1, 2), (3, 4)}
            asyncio.run(scenario())
        finally:
            server.shutdown()

    def test_out_of_order_responses_reach_their_callers(self):
        server = serve(Database(INSTANCE))
        try:
            async def scenario():
                async with AsyncClient(
                    server.address, retries=0, wait_timeout_s=1.2
                ) as client:
                    slow = asyncio.ensure_future(
                        client.query("R(x, y)", min_generation=99)
                    )
                    await asyncio.sleep(0.1)  # the slow query is in flight
                    started = time.monotonic()
                    pong = await client.ping()  # same connection, pipelined
                    assert pong["pong"]
                    assert time.monotonic() - started < 0.5
                    assert not slow.done()  # truly answered out of order
                    with pytest.raises(StaleReadError):
                        await slow
            asyncio.run(scenario())
        finally:
            server.shutdown()

    def test_fanout_preserves_input_order(self):
        server = serve(Database(INSTANCE))
        try:
            async def scenario():
                async with AsyncClient(server.address) as client:
                    payloads = [{"op": "query", "query": "R(x, y)"},
                                {"op": "ping"},
                                {"op": "query", "query": "S(x, y)"}]
                    results = await client.fanout(payloads, concurrency=2)
                    assert results[0]["answers"] == [[1, 2], [2, 3]]
                    assert results[1]["pong"] is True
                    assert results[2]["answers"] == [[2, 4]]
            asyncio.run(scenario())
        finally:
            server.shutdown()

    def test_fanout_return_exceptions_isolates_failures(self):
        server = serve(Database(INSTANCE))
        try:
            async def scenario():
                async with AsyncClient(server.address, retries=0) as client:
                    results = await client.fanout(
                        [{"op": "ping"}, {"op": "nope"}],
                        return_exceptions=True,
                    )
                    assert results[0]["pong"] is True
                    assert isinstance(results[1], Exception)
            asyncio.run(scenario())
        finally:
            server.shutdown()

    def test_overloaded_reads_retry_until_admitted(self):
        service = QueryService(Database(INSTANCE))
        server = AsyncServer(service, max_inflight=1).start()
        try:
            blocker = Wire(server.address)
            blocker.send({
                "op": "query", "query": "R(x, y)",
                "min_generation": 99, "wait_timeout_s": 0.6,
            })
            time.sleep(0.05)

            async def scenario():
                async with AsyncClient(
                    server.address, retries=8, backoff_base=0.1, backoff_cap=0.3
                ) as client:
                    assert (await client.query("R(x, y)"))["ok"]
            asyncio.run(scenario())
            assert service.handle({"op": "stats"})["requests"]["overloaded"] >= 1
            blocker.close()
        finally:
            server.shutdown()

    def test_overloaded_without_budget_surfaces_typed_error(self):
        service = QueryService(Database(INSTANCE))
        server = AsyncServer(service, max_inflight=1).start()
        try:
            blocker = Wire(server.address)
            blocker.send({
                "op": "query", "query": "R(x, y)",
                "min_generation": 99, "wait_timeout_s": 2.0,
            })
            time.sleep(0.05)

            async def scenario():
                async with AsyncClient(server.address, retries=0) as client:
                    with pytest.raises(OverloadedServerError) as err:
                        await client.query("S(x, y)")
                    assert err.value.fields["max_inflight"] == 1
            asyncio.run(scenario())
            blocker.close()
        finally:
            server.shutdown()

    def test_client_deadline_fires_on_schedule(self):
        server = serve(Database(INSTANCE))
        try:
            async def scenario():
                async with AsyncClient(
                    server.address, timeout=0.8, retries=10,
                    backoff_base=0.05, wait_timeout_s=5.0,
                ) as client:
                    started = time.monotonic()
                    with pytest.raises(DeadlineExceeded):
                        # an unreachable floor: the server would block for
                        # 5s, but the propagated deadline_ms and the
                        # client budget cut it off at 0.8s
                        await client.query("R(x, y)", min_generation=99)
                    elapsed = time.monotonic() - started
                    assert elapsed < 2.0
            asyncio.run(scenario())
        finally:
            server.shutdown()

    def test_reads_fail_over_to_a_replica_when_the_primary_dies(self):
        primary = serve(Database(INSTANCE))
        replica = serve(replicate_from=address_of(primary))
        try:
            with Client(primary.address) as seed:
                generation = seed.insert("R", [[5, 6]])["generation"]
            with Client(replica.address) as check:
                assert check.query("R(x, y)", min_generation=generation)["ok"]
            primary.shutdown()

            async def scenario():
                async with AsyncClient(
                    address_of(primary), [address_of(replica)],
                    retries=4, backoff_base=0.05,
                ) as client:
                    answers = (await client.query(
                        "R(x, y)", min_generation=generation
                    ))["answers"]
                    assert [5, 6] in answers
            asyncio.run(scenario())
        finally:
            primary.shutdown()
            replica.shutdown()


class TestReplicationOverAsync:
    def test_replicate_promote_and_read_your_writes(self):
        primary = serve(Database({"R": [(1, 2)]}))
        replica = serve(replicate_from=address_of(primary))
        try:
            with Client(primary.address) as writer:
                generation = writer.insert("R", [[3, 4]])["generation"]
            with Client(replica.address) as reader:
                response = reader.query("R(x, y)", min_generation=generation)
                assert {tuple(r) for r in response["answers"]} == {(1, 2), (3, 4)}
                assert reader.stats()["role"] == "replica"
            with Client(replica.address) as admin:
                assert admin.promote(address_of(replica))["role"] == "primary"
                assert admin.insert("R", [[5, 6]])["changed"] == 1
        finally:
            replica.shutdown()
            primary.shutdown()


class TestFrameLimits:
    """Lines past the 64 KiB ``StreamReader`` limit fail typed, never silently."""

    # ~70 KiB, just past the limit; ~10 MiB, far past it (the server must
    # drain the line's tail, or closing resets the connection under it)
    @pytest.mark.parametrize("n_rows", [1000, 150_000], ids=["70KiB", "10MiB"])
    def test_oversized_request_gets_a_typed_frame_and_nothing_runs(self, n_rows):
        server = serve(Database(INSTANCE))
        try:
            with Client(server.address, retries=3) as client:
                before = client.stats()["generation"]
                rows = [[i, "x" * 60] for i in range(n_rows)]
                with pytest.raises(FrameTooLargeError) as caught:
                    client.insert("R", rows)
                assert caught.value.error_type == "frame_too_large"
                assert caught.value.fields["max_frame_bytes"] == 2**16
                # the write was never parsed: the session is untouched, and
                # the client reconnects for its next request
                assert client.stats()["generation"] == before
                assert client.query("R(x, y)")["answers"] == [[1, 2], [2, 3]]
        finally:
            server.shutdown()

    def test_requests_before_an_oversized_line_still_get_answers(self):
        server = serve(Database(INSTANCE))
        try:
            wire = Wire(server.address)
            # a slow request first: it is still running when the oversized
            # line arrives behind it
            wire.send({
                "id": "slow", "op": "query", "query": "R(x, y)",
                "min_generation": 99, "wait_timeout_s": 0.3,
            })
            wire.sock.sendall(b'{"op": "ping", "pad": "' + b"x" * 70_000 + b'"}\n')
            frames = [wire.recv(), wire.recv()]
            assert wire.reader.readline() == ""  # then the server closes
            wire.close()
        finally:
            server.shutdown()
        rejected = [f for f in frames if f.get("error_type") == "frame_too_large"]
        assert len(rejected) == 1 and "id" not in rejected[0]
        assert {f.get("id") for f in frames} == {None, "slow"}

    def test_async_client_oversized_request_fails_typed(self):
        server = serve(Database(INSTANCE))
        try:
            async def scenario():
                async with AsyncClient(server.address, retries=3) as client:
                    before = (await client.stats())["generation"]
                    rows = [[i, "x" * 60] for i in range(1000)]
                    with pytest.raises(FrameTooLargeError):
                        await client.insert("R", rows)
                    assert (await client.stats())["generation"] == before

            asyncio.run(scenario())
        finally:
            server.shutdown()

    def test_oversized_response_fails_typed_without_retry(self):
        rows = [(i, i + 100_000) for i in range(5000)]  # ~80 KiB of answers
        server = serve(Database({"R": rows}))
        try:
            with Client(server.address) as admin:
                before = admin.stats()["requests"]["requests"]

            async def scenario():
                errors = []
                asyncio.get_running_loop().set_exception_handler(
                    lambda loop, context: errors.append(context)
                )
                async with AsyncClient(
                    server.address, retries=3, backoff_base=0.01
                ) as client:
                    with pytest.raises(FrameTooLargeError):
                        await client.query("R(x, y)")
                gc.collect()  # an unretrieved task exception reports here
                await asyncio.sleep(0)
                return errors

            assert asyncio.run(scenario()) == []
            with Client(server.address) as admin:
                after = admin.stats()["requests"]["requests"]
            # the query ran once (no retry); the second stats call is the +1
            assert after - before == 2
        finally:
            server.shutdown()


def handled_on(monkeypatch) -> dict:
    """Record, per request id, the name of the thread ``handle`` ran on."""
    threads = {}
    original = QueryService.handle

    def handle(self, request):
        if isinstance(request, dict) and "id" in request:
            threads[request["id"]] = threading.current_thread().name
        return original(self, request)

    monkeypatch.setattr(QueryService, "handle", handle)
    return threads


def maintained_on(monkeypatch) -> dict:
    """Record, per request id, the thread ``maintained_answers`` ran on.

    Patches ``handle`` to note which request is in flight on each
    thread; stack it on :func:`handled_on`, not under it.
    """
    threads, current = {}, threading.local()
    handle, maintained_answers = QueryService.handle, _columnar.maintained_answers

    def handle_spy(self, request):
        current.id = request.get("id") if isinstance(request, dict) else None
        try:
            return handle(self, request)
        finally:
            current.id = None

    def maintained_spy(*args, **kwargs):
        rid = getattr(current, "id", None)
        if rid is not None:
            threads[rid] = threading.current_thread().name
        return maintained_answers(*args, **kwargs)

    monkeypatch.setattr(QueryService, "handle", handle_spy)
    monkeypatch.setattr(_columnar, "maintained_answers", maintained_spy)
    return threads


def is_worker(thread_name: str) -> bool:
    return re.fullmatch(r"repro-async-\d+", thread_name) is not None


class TestInlineHits:
    """A query whose rendered answer is cached is answered on the event loop."""

    QUERIES = [
        {"query": "R(x, y)"},
        {"query": "exists z (R(x, z) & S(z, y))"},
        {"query": "S(x, y)", "vars": ["y", "x"]},
        {"query": "R(x, y)", "semantics": "owa"},
        {"query": "exists x (S(x, 9))"},
        {"query": "exists z (R(x, z) & !T(z))", "vars": ["x"]},
    ]

    def stream(self, seed: int, n: int = 160) -> list[dict]:
        """A seeded mix of repeated queries and writes to R, S and T."""
        rng = random.Random(seed)
        requests = []
        for i in range(n):
            if rng.random() < 0.8:
                request = {"op": "query", **rng.choice(self.QUERIES)}
            else:
                relation = rng.choice(["R", "S", "T"])
                row = [rng.randrange(5) for _ in range(1 if relation == "T" else 2)]
                request = {"op": rng.choice(["insert", "delete"]), "relation": relation,
                           "rows": [row]}
            requests.append({"id": i, **request})
        return requests

    def run_stream(self, requests: list[dict]) -> tuple[list[str], dict]:
        """Each request's response line from a live server, then its stats."""
        server = serve(Database(INSTANCE))
        try:
            wire = Wire(server.address)
            lines = []
            for request in requests:
                wire.send(request)
                lines.append(wire.reader.readline().rstrip("\n"))
            wire.send({"op": "stats"})
            stats = wire.recv()
            wire.close()
        finally:
            server.shutdown()
        return lines, stats

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_inline_hits_match_the_worker_path(self, monkeypatch, seed):
        requests = self.stream(seed)
        threads = handled_on(monkeypatch)
        maintained = maintained_on(monkeypatch)
        lines, stats = self.run_stream(requests)
        inline = [i for i, name in threads.items() if name == "repro-async-loop"]
        maintained_on_loop = {i for i, name in maintained.items() if name == "repro-async-loop"}
        # serial ground truth: the same requests against an identical session
        reference = QueryService(Database(INSTANCE))
        assert lines == [dumps(reference.handle(request)) for request in requests]
        # every line the loop served is a rendered hit, a write to the
        # in-memory session, or a miss whose maintenance ran on the loop
        hits = [i for i in inline if json.loads(lines[i]).get("cache") == "hit"]
        writes = [i for i in inline if requests[i]["op"] in ("insert", "delete")]
        misses = [i for i in inline if i not in hits and i not in writes]
        assert all(json.loads(lines[i])["cache"] == "miss" for i in misses)
        assert all(i in maintained_on_loop for i in misses)
        assert len(hits) >= 40

        # the same stream with the probe switched off: every request takes
        # the pool, and the counters move exactly as they did inline
        monkeypatch.setattr(QueryService, "serve_cached", lambda self, *args: None)
        threads.clear()
        pool_lines, pool_stats = self.run_stream(requests)
        assert all(is_worker(name) for name in threads.values())
        assert pool_lines == lines
        assert pool_stats["requests"] == stats["requests"]
        for counter in ("hits", "misses", "maintained", "uncacheable"):
            assert pool_stats["result_cache"][counter] == stats["result_cache"][counter]

    QUERY = {"op": "query", "query": "R(x, y)"}

    def decline_case(self, case: str, service: QueryService):
        """Put ``service`` where the probe declines; return (request, release)."""
        db = service.db
        if case == "lock-busy":
            holding, release = threading.Event(), threading.Event()

            def hold():
                with db._lock:
                    holding.set()
                    release.wait(10)

            holder = threading.Thread(target=hold)
            holder.start()
            holding.wait(10)
            return self.QUERY, release.set
        if case == "floor-unmet":
            request = {**self.QUERY, "min_generation": db.generation + 1, "wait_timeout_s": 10}
            # a write to a relation the query does not read meets the floor
            return request, lambda: db.insert("T", (7,))
        if case == "not-prepared":
            return {"op": "query", "query": "S(x, y)"}, None
        if case == "plan-stale":
            db.replace({**INSTANCE, "R": [(1, 2), (2, 3), (3, 4)]})
            return self.QUERY, None
        if case == "not-rendered":
            text = "exists z (R(x, z) & S(z, y))"
            assert db.query(text).evaluate().stats["result_cache"] == "miss"
            return {"op": "query", "query": text}, None
        raise AssertionError(case)

    EXPECTED = {
        "lock-busy": [[1, 2], [2, 3]],
        "floor-unmet": [[1, 2], [2, 3]],
        "not-prepared": [[2, 4]],
        "plan-stale": [[1, 2], [2, 3], [3, 4]],
        "not-rendered": [[1, 4]],
    }

    @pytest.mark.parametrize("case", list(EXPECTED))
    def test_probe_declines_and_the_pool_answers(self, monkeypatch, case):
        db = Database(INSTANCE)
        service = QueryService(db)
        service.handle(self.QUERY)  # R(x, y) is now a rendered hit
        assert service.serve_cached(self.QUERY, True) is not None
        request, release = self.decline_case(case, service)
        cache, counters = dict(db._result_stats), dict(service._counters)
        started = time.monotonic()
        assert service.serve_cached(request, True) is None
        assert time.monotonic() - started < 0.5  # declined, never waited
        assert db._result_stats == cache and service._counters == counters
        threads = handled_on(monkeypatch)
        server = AsyncServer(service).start()
        try:
            wire = Wire(server.address)
            wire.send({"id": "r", **request})
            if release is not None:
                time.sleep(0.2)  # the worker is now parked behind the lock or floor
                release()
            response = wire.recv()
            wire.close()
        finally:
            server.shutdown()
        assert response["ok"] and response["answers"] == self.EXPECTED[case], response
        assert is_worker(threads["r"])

    def test_concurrent_reads_and_writes_stay_consistent(self):
        # inline hits on the loop race writes and misses on the workers:
        # every answer must be the state at the generation it reports, and
        # no counter may lose an update
        service = QueryService(Database(INSTANCE))
        server = AsyncServer(service, executor_threads=4).start()
        reads = []

        def writer():
            # generation g holds (g + 1) // 2 new R rows: odd writes go to
            # R, even ones to T, which R(x, y) does not read
            with Client(server.address) as client:
                for i in range(80):
                    if i % 2:
                        client.insert("T", [[i]])
                    else:
                        client.insert("R", [[100 + i, 100 + i]])

        def reader():
            with Client(server.address) as client:
                for _ in range(100):
                    reads.append(client.query("R(x, y)"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)]
            threads += [threading.Thread(target=reader) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            with Client(server.address) as client:
                stats = client.stats()
        finally:
            sys.setswitchinterval(interval)
            server.shutdown()
        for response in reads:
            n = (response["generation"] + 1) // 2
            expected = [[1, 2], [2, 3]] + [[100 + 2 * i, 100 + 2 * i] for i in range(n)]
            assert sorted(response["answers"]) == sorted(expected), response["generation"]
        assert len(reads) == 300
        counters = stats["requests"]
        assert (counters["queries"], counters["mutations"]) == (300, 80)
        assert counters["requests"] == 300 + 80 + 1
        cache = stats["result_cache"]
        assert cache["hits"] + cache["misses"] == 300 and cache["hits"] > 0

    def test_cache_hit_is_served_while_the_only_slot_is_held(self):
        service = QueryService(Database(INSTANCE))
        server = AsyncServer(service, max_inflight=1).start()
        try:
            wire = Wire(server.address)
            wire.send({"id": 0, **self.QUERY})
            assert wire.recv()["cache"] == "miss"  # rendered from now on
            blocker = Wire(server.address)
            blocker.send({**self.QUERY, "min_generation": 99, "wait_timeout_s": 1.0})
            time.sleep(0.1)  # the blocker holds the only slot
            wire.send({"id": 1, **self.QUERY})
            hit = wire.recv()
            assert hit["id"] == 1 and hit["cache"] == "hit"
            assert hit["answers"] == [[1, 2], [2, 3]]
            wire.send({"id": 2, "op": "ping"})
            assert wire.recv()["error_type"] == "overloaded"
            assert blocker.recv()["error_type"] == "stale"
            wire.close()
            blocker.close()
        finally:
            server.shutdown()


class TestWorkerPool:
    BLOCKER = {"op": "query", "query": "R(x, y)", "min_generation": 99}

    def test_workers_start_lazily_up_to_executor_threads(self):
        server = AsyncServer(QueryService(Database(INSTANCE)), executor_threads=3).start()
        try:
            assert server._pool.threads == []  # nothing has run yet
            wire = Wire(server.address)
            wire.send({"op": "ping"})
            assert wire.recv()["pong"]
            assert [t.name for t in server._pool.threads] == ["repro-async-0"]
            for i in range(7):
                wire.send({"id": i, **self.BLOCKER, "wait_timeout_s": 0.2})
            frames = [wire.recv() for _ in range(7)]
            assert all(frame["error_type"] == "stale" for frame in frames)
            names = [t.name for t in server._pool.threads]
            assert names == ["repro-async-0", "repro-async-1", "repro-async-2"]
            wire.close()
        finally:
            server.shutdown()

    def test_shutdown_cancels_queued_jobs_and_stops_every_worker(self, monkeypatch):
        handled = handled_on(monkeypatch)
        server = AsyncServer(QueryService(Database(INSTANCE)), executor_threads=1).start()
        wire = Wire(server.address)
        wire.send({"id": "blocker", **self.BLOCKER, "wait_timeout_s": 0.5})
        time.sleep(0.1)  # the one worker is parked in the blocker
        for i in range(3):
            wire.send({"id": i, "op": "ping"})  # queued behind it
        time.sleep(0.1)
        workers = list(server._pool.threads)
        server.shutdown()
        for thread in workers:
            thread.join(5)
        assert not any(thread.is_alive() for thread in workers)
        assert not any(is_worker(t.name) and t in workers for t in threading.enumerate())
        assert list(handled) == ["blocker"]  # the queued pings were cancelled, never run
        wire.close()

    def test_a_raising_handle_frees_its_slot(self, monkeypatch):
        original = QueryService.handle

        def handle(self, request):
            if request.get("op") == "query":
                raise RuntimeError("boom")
            return original(self, request)

        monkeypatch.setattr(QueryService, "handle", handle)
        server = AsyncServer(QueryService(Database(INSTANCE)), max_inflight=1).start()
        try:
            wire = Wire(server.address)
            wire.send({"id": 1, **self.BLOCKER})  # raises on the worker: no answer
            time.sleep(0.2)
            wire.send({"id": 2, "op": "ping"})
            frame = wire.recv()
            assert frame["id"] == 2 and frame["pong"]  # admitted: the slot was freed
            wire.close()
        finally:
            server.shutdown()


class TestInlineBoundedWork:
    """Writes to an in-memory session and maintained reads run on the loop.

    The loop runs a request itself when it can neither wait nor
    enumerate: a rendered hit, a read maintained by witness counting, or
    a write to a session with no storage.  Oracle reads, full
    evaluations, durable writes and floor waits stay on the pool.
    """

    INSTANCE = {
        "R": [[1, 2], [2, 3], [3, "?a"]],
        "S": [[2, 5], [3, 6], ["?a", 7]],
        "T": [[3]],
    }
    JOIN = {"query": "exists z (R(x, z) & S(z, y))", "vars": ["x", "y"]}
    #: a CWA negation: a bracketed certain-answer oracle read
    ORACLE = {"query": "exists y (R(x, y) & !T(y))", "vars": ["x"]}
    #: the same negation run naively: maintained under writes to R, but
    #: recomputed after writes to T, the anti-join's negated side
    NAIVE_NEGATION = {**ORACLE, "mode": "columnar"}
    QUERIES = [JOIN, {"query": "R(x, y)"}, ORACLE, NAIVE_NEGATION]
    CELLS = [1, 2, 3, 4, "?a", "?b"]

    def database(self, path=None) -> Database:
        return Database(decode_relations(self.INSTANCE), path=path)

    def row(self, rng, relation):
        return [rng.choice(self.CELLS) for _ in range(1 if relation == "T" else 2)]

    def stream(self, seed: int, n: int = 240) -> list[dict]:
        """Reads of the three queries (repeats make hits) and writes to
        R, S and T, null rows and two-relation deltas included."""
        rng = random.Random(seed)
        requests = []
        for i in range(n):
            draw = rng.random()
            if draw < 0.6:
                request = {"op": "query", **rng.choice(self.QUERIES)}
            elif draw < 0.93:
                relation = rng.choice("RRST")
                request = {"op": rng.choice(["insert", "delete"]), "relation": relation,
                           "rows": [self.row(rng, relation)]}
            else:
                request = {"op": "delta", "adds": {"R": [self.row(rng, "R")]},
                           "removes": {"S": [self.row(rng, "S")]}}
            requests.append({"id": i, **request})
        return requests

    def run_stream(self, db: Database, requests: list[dict]) -> tuple[list[str], dict]:
        server = serve(db)
        try:
            wire = Wire(server.address)
            lines = []
            for request in requests:
                wire.send(request)
                lines.append(wire.reader.readline().rstrip("\n"))
            wire.send({"op": "stats"})
            stats = wire.recv()
            wire.close()
        finally:
            server.shutdown()
        return lines, stats

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_inline_equals_pooled(self, monkeypatch, seed):
        requests = self.stream(seed)
        threads = handled_on(monkeypatch)
        maintained = maintained_on(monkeypatch)
        lines, stats = self.run_stream(self.database(), requests)
        on_loop = {i for i, name in threads.items() if name == "repro-async-loop"}
        maintained_on_loop = {i for i, name in maintained.items() if name == "repro-async-loop"}
        reference = QueryService(self.database())
        assert lines == [dumps(reference.handle(request)) for request in requests]
        writes = [r for r in requests if r["op"] != "query"]
        assert sum(r["id"] in on_loop for r in writes) == len(writes) >= 60
        # a read on the loop is a rendered hit or maintained there
        for r in requests:
            if r["op"] == "query" and r["id"] in on_loop:
                cache = json.loads(lines[r["id"]])["cache"]
                assert cache == "hit" or r["id"] in maintained_on_loop
        oracle = [r["id"] for r in requests if r.get("query") == self.ORACLE["query"]
                  and "mode" not in r]
        for i in oracle:  # bracketed: a hit or the pool
            assert i not in on_loop or json.loads(lines[i])["cache"] == "hit"
        assert stats["result_cache"]["maintained"] >= len(maintained_on_loop) >= 20

        # the same stream with the inline path off: every request takes the
        # pool, and the lines and counters are the ones served inline
        monkeypatch.setattr(QueryService, "serve_cached", lambda self, *args: None)
        threads.clear()
        pool_lines, pool_stats = self.run_stream(self.database(), requests)
        assert all(is_worker(name) for name in threads.values())
        assert pool_lines == lines
        assert pool_stats["requests"] == stats["requests"]
        for counter in ("hits", "misses", "maintained", "uncacheable"):
            assert pool_stats["result_cache"][counter] == stats["result_cache"][counter]

    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
    def test_what_never_runs_on_the_loop(self, monkeypatch, tmp_path, durable):
        on_loop: dict[str, int] = {}
        calls: dict[str, int] = {}

        def spy_on(owner, name):
            original = getattr(owner, name)

            def spy(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                if threading.current_thread().name == "repro-async-loop":
                    on_loop[name] = on_loop.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        spy_on(_engine, "execute_plan")
        spy_on(_certain, "certain_answers")
        spy_on(_plan, "make_plan")
        spy_on(Storage, "append_record")
        spy_on(Storage, "sync")
        threads = handled_on(monkeypatch)
        requests = self.stream(4, n=160)
        db = self.database(str(tmp_path / "data") if durable else None)
        try:
            lines, _ = self.run_stream(db, requests)
        finally:
            db.close()
        assert all(json.loads(line)["ok"] for line in lines)
        assert on_loop == {}
        assert calls["execute_plan"] and calls["certain_answers"] and calls["make_plan"]
        assert bool(calls.get("append_record")) == bool(calls.get("sync")) == durable
        writes = {r["id"] for r in requests if r["op"] != "query"}
        loop_ids = {i for i, name in threads.items() if name == "repro-async-loop"}
        # durable writes wait for their fsync on the pool; maintained reads
        # still run on the loop
        assert bool(writes & loop_ids) != durable
        assert loop_ids - writes

    WRITE = {"op": "insert", "relation": "R", "rows": [[4, 2]]}
    READ = {"op": "query", **JOIN}

    def primed(self, rendered: bool = True) -> tuple[QueryService, Database]:
        """A session where the join is a maintained read and R takes writes.

        Unless ``rendered``, the join's entry never rendered, so a read
        maintained from it would render every row.
        """
        db = self.database()
        service = QueryService(db)
        if rendered:
            service.handle(self.READ)  # a counted entry, rendered
        else:
            db.query(self.JOIN["query"], self.JOIN["vars"]).evaluate()
        db.insert("R", (5, 2))
        with db.bounded(self.JOIN["query"], self.JOIN["vars"]) as bounded:
            assert bounded is rendered
        with db.bounded(None) as bounded:
            assert bounded
        return service, db

    @pytest.mark.parametrize(
        "case, kind",
        [
            ("lock-busy", "write"),
            ("lock-busy", "maintained-read"),
            ("floor-unmet", "maintained-read"),  # writes carry no floors
            ("slots-held", "write"),
            ("slots-held", "maintained-read"),
            ("unrendered-entry", "maintained-read"),
        ],
    )
    def test_probe_declines_and_counts_nothing(self, case, kind):
        service, db = self.primed(rendered=case != "unrendered-entry")
        request = dict(self.WRITE if kind == "write" else self.READ)
        holding, done = threading.Event(), threading.Event()

        def hold():
            with db._lock:
                holding.set()
                done.wait(10)

        holder = threading.Thread(target=hold)
        if case == "lock-busy":
            holder.start()
            holding.wait(10)
        elif case == "floor-unmet":
            request.update(min_generation=db.generation + 1, wait_timeout_s=10)
        cache, counters = dict(db._result_stats), dict(service._counters)
        generation = db.generation
        started = time.monotonic()
        try:
            assert service.serve_cached(request, case != "slots-held") is None
            assert time.monotonic() - started < 0.5  # declined, never waited
        finally:
            done.set()
            if holder.is_alive():
                holder.join(10)
        assert not holder.is_alive()
        assert db._result_stats == cache and service._counters == counters
        assert db.generation == generation

    def test_held_slots_shed_a_maintained_read(self):
        # the in-memory write's case is test_overloaded_writes_are_safely_retried_by_the_client
        service, db = self.primed()
        server = AsyncServer(service, max_inflight=1).start()
        try:
            blocker = Wire(server.address)
            blocker.send({**self.READ, "min_generation": 99, "wait_timeout_s": 1.0})
            time.sleep(0.1)  # the blocker holds the only slot
            wire = Wire(server.address)
            wire.send({"id": 1, **self.READ})
            assert wire.recv()["error_type"] == "overloaded"
            assert blocker.recv()["error_type"] == "stale"
            wire.send({"id": 2, **self.READ})  # the slot is free again
            served = wire.recv()
            assert served["ok"] and served["id"] == 2
            assert served["answers"] == [[1, 5], [2, 6], [3, 7], [5, 5]]
            wire.close()
            blocker.close()
        finally:
            server.shutdown()
        assert service.handle({"op": "stats"})["requests"]["overloaded"] == 1

    def test_a_write_to_a_read_relation_is_maintained_on_the_loop(self):
        # a write to R makes R(x, y) a miss that witness counting
        # maintains: the probe admits it, and the response and counters
        # are the ones the worker path gives
        db = Database(INSTANCE)
        service = QueryService(db)
        query = {"op": "query", "query": "R(x, y)"}
        service.handle(query)  # a counted entry, rendered
        db.insert("R", (3, 4))
        reference = QueryService(Database(INSTANCE))
        reference.handle(query)
        reference.db.insert("R", (3, 4))
        response = service.serve_cached(query, True)
        assert response == reference.handle(query)
        assert response["answers"] == [[1, 2], [2, 3], [3, 4]]
        assert response["cache"] == "miss"
        assert db.cache_stats == reference.db.cache_stats
        assert db.cache_stats["maintained"] == 1

    def walked(self, monkeypatch) -> dict[str, int]:
        """Record, per thread, the most rows any kernel or executor step
        read or returned: kernel inputs, executor node results, and the
        relations whose index or sort runs were built."""
        most: dict[str, int] = {}

        def note(n):
            name = threading.current_thread().name
            most[name] = max(most.get(name, 0), n)

        def spy(owner, name, size):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                n = size(*args)
                result = original(*args, **kwargs)
                note(n if n is not None else len(result))
                return result

            monkeypatch.setattr(owner, name, wrapper)

        def kernel_rows(left, right, *rest):
            return max(left.n_rows, right.n_rows)

        def index_rows(rel, positions):
            return 0 if rel.has_index(positions) else rel.n_rows

        def sort_rows(rel, position):
            return 0 if position in rel._sorted_rows else rel.n_rows

        for kernel in ("sort_merge_join", "sort_merge_join_project", "semi_join"):
            spy(_kernels, kernel, kernel_rows)
        spy(_columnar, "_eval", lambda *args: None)
        spy(EncodedRelation, "index", index_rows)
        spy(EncodedRelation, "sorted_rows", sort_rows)
        return most

    def test_maintenance_on_the_loop_walks_only_the_written_rows(self, monkeypatch):
        # R has 20000 rows and S 2000.  A read maintained after a write to
        # R probes S's index with the written row, so it runs on the loop
        # once that index is built; until then, and after a write to S (the
        # join's right side, which makes the read walk all of R), the pool
        # runs it
        n = 20_000
        db = Database({"R": [(i, i) for i in range(n)], "S": [(z, -z) for z in range(0, n, 10)]})
        threads = handled_on(monkeypatch)
        maintained = maintained_on(monkeypatch)
        most = self.walked(monkeypatch)
        server = serve(db)
        try:
            wire = Wire(server.address)
            steps = [
                self.READ,  # 0: a full evaluation, on the pool
                {"op": "insert", "relation": "R", "rows": [[n + 1, 10]]},
                self.READ,  # 2: S has no index yet: the pool builds it
                {"op": "insert", "relation": "S", "rows": [[n + 2, 7]]},
                self.READ,  # 4: S moved: maintaining it walks R, on the pool
                {"op": "insert", "relation": "R", "rows": [[n + 3, 20]]},
                self.READ,  # 6: the written S is not encoded yet: the pool
                {"op": "insert", "relation": "R", "rows": [[n + 4, 30]]},
                self.READ,  # 8: R moved, S's index is built: the loop
            ]
            lines = []
            for i, request in enumerate(steps):
                wire.send({"id": i, **request})
                lines.append(wire.recv())
            wire.close()
        finally:
            server.shutdown()
        assert all(line["ok"] for line in lines)
        answers = lines[8]["answers"]
        assert [[n + 1, -10], [n + 3, -20], [n + 4, -30]] == [a for a in answers if a[0] > n]
        assert len(answers) == n // 10 + 3
        assert [lines[i]["cache"] for i in (2, 4, 6, 8)] == ["miss"] * 4
        assert all(threads[i] == "repro-async-loop" for i in (1, 3, 5, 7))
        assert all(is_worker(maintained[i]) for i in (2, 4, 6))
        assert maintained[8] == threads[8] == "repro-async-loop"
        # the spy sees R being walked on the pool, and nothing like it on the loop
        assert max(most[name] for name in most if is_worker(name)) >= n
        assert most.get("repro-async-loop", 0) <= 16

    def test_a_write_to_the_right_side_stays_on_the_pool(self, monkeypatch):
        # R has 20000 rows and S 10, so a write to R merges against S with
        # no index needed and runs on the loop.  A write to S would walk R:
        # the pool runs it, even once S is encoded again
        n = 20_000
        db = Database({"R": [(i, i) for i in range(n)], "S": [(z, -z) for z in range(10)]})
        threads = handled_on(monkeypatch)
        maintained = maintained_on(monkeypatch)
        most = self.walked(monkeypatch)
        server = serve(db)
        try:
            wire = Wire(server.address)
            steps = [
                self.READ,  # 0: a full evaluation, on the pool
                {"op": "insert", "relation": "S", "rows": [[n + 1, 7]]},
                {"op": "query", "query": "S(x, y)"},  # 2: encodes the written S
                self.READ,  # 3: S moved: maintaining it walks R, on the pool
                {"op": "insert", "relation": "R", "rows": [[n + 2, 3]]},
                self.READ,  # 5: R moved: a merge against S's 11 rows, the loop
            ]
            lines = []
            for i, request in enumerate(steps):
                wire.send({"id": i, **request})
                lines.append(wire.recv())
            wire.close()
        finally:
            server.shutdown()
        assert all(line["ok"] for line in lines)
        assert sorted(lines[5]["answers"]) == [[i, -i] for i in range(10)] + [[n + 2, -3]]
        assert is_worker(maintained[3]) and maintained[5] == "repro-async-loop"
        assert max(most[name] for name in most if is_worker(name)) >= n
        assert most.get("repro-async-loop", 0) <= 16

    def test_a_negated_relation_must_be_encoded_first(self):
        # R is empty, so the first run never read T's rows: a read
        # maintained after a write to R would encode T, then build its
        # row set, on the loop
        db = Database({"R": [], "T": [(i,) for i in range(1000)]})
        service = QueryService(db)
        read = {
            "op": "query",
            "query": "exists y (R(x, y) & !T(y))",
            "vars": ["x"],
            "mode": "columnar",
        }
        assert service.handle(read)["answers"] == []
        db.insert("R", (1, 5))
        assert service.serve_cached(read, True) is None  # T is not encoded
        # a semi-join probes T's index: T is encoded, its row set is not
        service.handle({"op": "query", "query": "exists y (R(x, y) & T(y))", "vars": ["x"]})
        assert service.serve_cached(read, True) is None
        assert service.handle(read)["answers"] == []  # maintained; T's row set built
        db.insert("R", (2, 2000))
        response = service.serve_cached(read, True)
        assert response["answers"] == [[2]] and response["cache"] == "miss"
        assert db.cache_stats["maintained"] == 2
