"""Serving quickstart: the JSON-lines query server and a socket client.

Starts ``repro``'s server in-process (exactly what ``python -m repro
serve db.json`` runs), then talks to it over a real TCP socket the way
any external client would: certain-answer queries, incremental
mutations, explicit batches, and the stats endpoint.  The key behaviour
to watch is the result cache — a write to a relation the query never
reads leaves the cached answer valid (``"cache": "hit"``), while a
write to a read relation transparently invalidates it.

Run with::

    PYTHONPATH=src python examples/serving.py
"""

import json
import socket

from repro.data.values import Null
from repro.server import serve
from repro.session import Database


class Client:
    """A minimal JSON-lines client: one request per line, one response back."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=10)
        self.reader = self.sock.makefile("r", encoding="utf-8")
        self.writer = self.sock.makefile("w", encoding="utf-8")

    def call(self, **request):
        self.writer.write(json.dumps(request) + "\n")
        self.writer.flush()
        response = json.loads(self.reader.readline())
        assert response["ok"], response
        return response

    def close(self):
        self.sock.close()


def main() -> None:
    x = Null("x")
    db = Database(
        {"R": [(1, x), (2, 3)], "S": [(x, 4)], "Audit": [("boot", 0)]},
        semantics="cwa",
    )
    server = serve(db)  # picks a free port; `repro serve` is the CLI twin
    print(f"serving on {server.address[0]}:{server.address[1]}")

    client = Client(server.address)
    join = "exists z (R(x, z) & S(z, y))"

    # 1. a certain-answer query: ⊥x joins R and S, so (1, 4) is certain
    first = client.call(op="query", query=join, vars=["x", "y"])
    print(f"answers={first['answers']} cache={first['cache']}")
    assert first["answers"] == [[1, 4]] and first["exact"]

    # 2. a write to a relation the join never reads: the cached result
    #    survives (per-relation generations), so the re-query is a hit
    client.call(op="insert", relation="Audit", rows=[["req", 1]])
    again = client.call(op="query", query=join, vars=["x", "y"])
    print(f"after unrelated write: cache={again['cache']}")
    assert again["cache"] == "hit" and again["answers"] == first["answers"]

    # 3. a write to a *read* relation invalidates exactly that entry;
    #    null-carrying rows are fine on the wire ("?y" is the null ⊥y) —
    #    and (2, ⊥y) is rightly NOT a certain answer (nulls never are)
    client.call(op="insert", relation="S", rows=[[3, "?y"]])
    third = client.call(op="query", query=join, vars=["x", "y"])
    print(f"after related write:   cache={third['cache']} answers={third['answers']}")
    assert third["cache"] == "miss"
    assert third["answers"] == [[1, 4]]
    # ... but (2, ⊥y) IS a possible join row: ask under the Boolean reading
    possible = client.call(op="query", query="exists y (R(2, 3) & S(3, y))")
    assert possible["holds"]

    # 4. an explicit batch answers every query from one snapshot (evaluate_many)
    batch = client.call(
        op="batch",
        queries=[
            {"query": "exists u (Audit(u, 1))"},
            {"query": join, "vars": ["x", "y"]},
        ],
    )
    assert [r["holds"] for r in batch["results"]] == [True, True]

    # 5. bulk delta: several relations in one atomic generation
    delta = client.call(
        op="delta", adds={"R": [[9, 9]]}, removes={"Audit": [["boot", 0]]}
    )
    assert delta["changed"] == 2

    stats = client.call(op="stats")
    cache = stats["result_cache"]
    print(
        f"served {stats['requests']['requests']} requests; result cache "
        f"{cache['hits']} hits / {cache['misses']} misses"
    )
    assert cache["hits"] >= 1 and stats["requests"]["mutations"] == 3

    client.close()
    server.shutdown()
    db.close()
    print("serving example OK.")


if __name__ == "__main__":
    main()
