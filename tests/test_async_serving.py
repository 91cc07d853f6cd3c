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
import socket
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
from repro.server import (
    FEATURES,
    PROTO_VERSION,
    AsyncServer,
    QueryService,
    serve,
)
from repro.session import Database


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
