"""The two transport shells around the policy core, over real sockets.

* a cold :class:`~repro.client.AsyncClient` burst shares one in-flight
  connect per endpoint: one server connection, and nothing left running
  after ``aclose()``;
* both clients own the wire ``id``: a caller-supplied ``id`` never
  reaches the wire (where two in-flight requests could collide on it)
  and is handed back on the response.
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.client import AsyncClient, Client, ServerError, TransportError
from repro.server import AsyncServer, QueryService, serve
from repro.session import Database

INSTANCE = {"R": [(1, 2), (2, 3)], "S": [(2, 4)]}


class TestColdConnect:
    def test_a_cold_fanout_opens_one_connection(self):
        # the server refuses every connection past the first, so any
        # second socket the client opened would fail a retries=0 request
        service = QueryService(Database(INSTANCE))
        server = AsyncServer(service, max_conns=1).start()
        try:
            async def scenario():
                async with AsyncClient(server.address, retries=0) as client:
                    return await client.fanout([{"op": "ping"}] * 8)

            responses = asyncio.run(scenario())
            assert [r["pong"] for r in responses] == [True] * 8
            assert service.handle({"op": "stats"})["requests"]["overloaded"] == 0
        finally:
            server.shutdown()

    def test_aclose_after_a_cold_fanout_leaves_no_task_running(self):
        server = serve(Database(INSTANCE))
        try:
            async def scenario():
                client = AsyncClient(server.address)
                await client.fanout([{"op": "ping"}] * 8)
                await client.aclose()
                return [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]

            assert asyncio.run(scenario()) == []
        finally:
            server.shutdown()

    def test_aclose_during_a_connect_fails_it_typed(self):
        server = serve(Database(INSTANCE))
        try:
            async def scenario():
                client = AsyncClient(server.address, retries=0)
                pending = asyncio.ensure_future(client.ping())
                await asyncio.sleep(0)  # the ping now waits on the shared connect
                await client.aclose()
                (outcome,) = await asyncio.gather(pending, return_exceptions=True)
                leftover = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
                return outcome, leftover

            outcome, leftover = asyncio.run(scenario())
            assert isinstance(outcome, TransportError) and leftover == []
        finally:
            server.shutdown()


class TestCallerIds:
    def test_async_requests_sharing_a_caller_id_both_get_answers(self):
        server = serve(Database(INSTANCE))
        try:
            async def scenario():
                async with AsyncClient(server.address, timeout=1.0) as client:
                    await client.ping()  # both requests share the warm connection
                    started = time.monotonic()
                    responses = await client.fanout(
                        [
                            {"op": "query", "query": "R(x, y)", "id": 7},
                            {"op": "query", "query": "S(x, y)", "id": 7},
                        ]
                    )
                    return responses, time.monotonic() - started

            (first, second), elapsed = asyncio.run(scenario())
            assert first["answers"] == [[1, 2], [2, 3]] and first["id"] == 7
            assert second["answers"] == [[2, 4]] and second["id"] == 7
            assert elapsed < 1.0
        finally:
            server.shutdown()

    def test_async_unhashable_caller_id_is_handed_back(self):
        server = serve(Database(INSTANCE))
        try:
            async def scenario():
                async with AsyncClient(server.address) as client:
                    pong = await client.request({"op": "ping", "id": [1]})
                    with pytest.raises(ServerError) as caught:
                        await client.request({"op": "nope", "id": [2]})
                    return pong, caught.value

            pong, error = asyncio.run(scenario())
            assert pong["pong"] and pong["id"] == [1]
            assert error.fields["id"] == [2]
        finally:
            server.shutdown()

    def test_sync_client_sends_its_own_id_and_hands_the_callers_back(self):
        seen = []
        listener = socket.create_server(("127.0.0.1", 0))

        def answer():
            # a recording peer: keeps the wire id of every request it answers
            conn, _ = listener.accept()
            with conn, conn.makefile("r", encoding="utf-8") as lines:
                for line in lines:
                    request = json.loads(line)
                    seen.append(request["id"])
                    reply = {"id": request["id"], "ok": request["op"] == "ping"}
                    conn.sendall((json.dumps(reply) + "\n").encode("utf-8"))

        peer = threading.Thread(target=answer, daemon=True)
        peer.start()
        try:
            with Client(listener.getsockname()) as client:
                pong = client.request({"op": "ping", "id": 7})
                with pytest.raises(ServerError) as caught:
                    client.request({"op": "nope", "id": [1]})
            assert seen == [1, 2]
            assert pong["id"] == 7
            assert caught.value.fields["id"] == [1]
        finally:
            listener.close()
            peer.join(timeout=5)
        assert not peer.is_alive()
