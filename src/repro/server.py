"""An asyncio JSON-lines query server over one shared :class:`Database`.

The serving layer that turns the engine from one-shot evaluation into a
long-lived service:

* :class:`QueryService` — the transport-free core: it translates JSON
  request objects (``{"op": "query", ...}``) into session operations,
  counts what it serves, and **coalesces concurrent query requests into
  one** :meth:`~repro.session.Database.evaluate_many` **batch** via a
  group-commit gate, so compatible certain-answer requests that arrive
  while another batch is running share one pool build and one core
  check;
* :class:`AsyncServer` — the serving core: one asyncio event loop
  multiplexing thousands of connections with per-connection request
  **pipelining** (``id``-correlated, out-of-order responses),
  semaphore-bounded **admission control** (typed ``overloaded`` frames
  instead of unbounded queueing), server-enforced ``deadline_ms``, and
  ``drain()`` backpressure.  ``repro serve`` (:mod:`repro.cli`) wires
  it to a command line; ``docs/serving.md`` is the architecture tour.

Concurrency model: the :class:`~repro.session.Database` is already
thread-safe (immutable instance snapshots + per-relation generation
counters), so executor threads call straight into it.  Mutations apply
atomically; readers either hit the generation-keyed result cache or
evaluate against a consistent snapshot.

When the shared session is durable (``Database(path=...)``), mutations
are journaled/fsync'd before they are acknowledged, the ``checkpoint``
op forces a snapshot + log truncation, and ``repro serve --data-dir``
checkpoints on graceful shutdown.  See ``docs/wire-protocol.md`` for
the full op reference and ``docs/persistence.md`` for the durability
contract.

Replication (:mod:`repro.replication`) rides the same wire: the
``replicate`` op turns its connection into a WAL frame stream served by
the node's :class:`~repro.replication.feed.ReplicationFeed`; a node
started with ``replicate_from=`` tails a primary, rejects writes with a
typed ``read_only`` error, and honours ``min_generation`` bounds on
``query``/``batch`` (waiting up to ``wait_timeout_s``, then answering
with a typed ``stale`` error carrying its applied position); the
``promote`` op flips a replica writable.  ``docs/replication.md`` has
the full contract.

Wire format (cells follow :mod:`repro.data.jsonio` — ``"?x"`` is the
null ⊥x, ``"??x"`` the constant ``"?x"``)::

    → {"id": 1, "op": "query", "query": "exists z (R(x,z) & S(z,y))"}
    ← {"id": 1, "ok": true, "answers": [[1, 4]], "exact": true, ...}
    → {"id": 2, "op": "insert", "relation": "S", "rows": [[9, 9]]}
    ← {"id": 2, "ok": true, "changed": 1, "generation": 1}
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Iterator

from repro import faults as _faults
from repro.core.analyzer import FIGURE_1
from repro.data.jsonio import RawJSON, decode_row, dumps, instance_to_json
from repro.replication.feed import ReplicationFeed
from repro.replication.replica import ReplicaTailer
from repro.session import Database, DegradedError, PreparedQuery

__all__ = [
    "FEATURES",
    "PROTO_VERSION",
    "AsyncServer",
    "QueryService",
    "serve",
]

#: wire-protocol version reported by ``ping`` and ``stats``.  v2 added
#: the ``id``-echo pipelining contract, the typed ``overloaded`` frame
#: and the ``deadline_ms`` request field (see ``docs/wire-protocol.md``)
PROTO_VERSION = 2

#: the optional protocol features every node serves, advertised by
#: ``ping`` and ``stats``
FEATURES = ("pipelining", "deadline_ms")


class _Reject(Exception):
    """A typed error response: ``fields`` ride along beside ``error``.

    Raised by ops that must say *why* structurally (``stale``,
    ``read_only``) so clients can react — redirect to the primary,
    retry with a longer deadline — without parsing prose.
    """

    def __init__(self, error: str, **fields):
        super().__init__(error)
        self.fields = {"error": error, **fields}


class _Pending:
    """One query request waiting in the batch gate."""

    __slots__ = ("prepared", "result", "error", "done", "group_size")

    def __init__(self, prepared: PreparedQuery):
        self.prepared = prepared
        self.result = None
        self.error: Exception | None = None
        self.done = False
        self.group_size = 0


class _BatchGate:
    """Group-commit for query requests.

    A thread arriving for a given mode when no batch is running becomes
    the *leader*: it drains every compatible request currently queued
    (its own plus whatever piled up while the previous batch ran) and
    evaluates them in one ``evaluate_many`` call.  Followers wait; when
    the batch completes, the leader steps down and any follower whose
    request is still queued is woken to lead the next round — so a
    leader serves exactly one batch and no request's latency depends on
    the arrival rate of later ones.  A lone request is a batch of one:
    no timers, no artificial latency.
    """

    def __init__(self, db: Database):
        self._db = db
        self._cond = threading.Condition()
        self._pending: dict[str, list[_Pending]] = {}
        self._leaders: set[str] = set()

    def evaluate(self, prepared: PreparedQuery, mode: str = "auto"):
        """Evaluate through the gate; returns ``(EvalResult, group_size)``."""
        item = _Pending(prepared)
        with self._cond:
            self._pending.setdefault(mode, []).append(item)
            while not item.done and mode in self._leaders:
                self._cond.wait()
            if not item.done:
                # no batch in flight: lead one round with whatever queued
                self._leaders.add(mode)
                batch = self._pending.pop(mode)
        if not item.done:
            try:
                self._run(batch, mode)
            finally:
                with self._cond:
                    self._leaders.discard(mode)
                    self._cond.notify_all()
        if item.error is not None:
            raise item.error
        return item.result, item.group_size

    def _run(self, batch: list[_Pending], mode: str) -> None:
        try:
            results = self._db.evaluate_many(
                [item.prepared for item in batch], mode=mode
            )
            for item, result in zip(batch, results):
                item.result = result
                item.group_size = len(batch)
        except Exception:
            # one bad request must not poison its batch-mates: fall back
            # to individual evaluation so each request gets its own
            # result or its own error
            for item in batch:
                try:
                    item.result = item.prepared.evaluate(mode)
                    item.group_size = 1
                except Exception as err:  # noqa: BLE001 - reported per request
                    item.error = err
        finally:
            with self._cond:
                for item in batch:
                    item.done = True
                self._cond.notify_all()


class QueryService:
    """Translate JSON requests into operations on one shared session.

    Transport-free: :meth:`handle` takes and returns plain dicts (the
    TCP server, tests and benchmarks all call it directly).  Thread-safe
    — any number of handler threads may call it concurrently.

    >>> from repro.session import Database
    >>> service = QueryService(Database({"R": [(1, 2)]}))
    >>> service.handle({"id": 1, "op": "query", "query": "R(x, y)"})["answers"]
    [[1, 2]]
    >>> service.handle({"op": "insert", "relation": "R", "rows": [[3, 4]]})["changed"]
    1
    >>> service.handle({"op": "nope"})["ok"]
    False
    """

    #: request fields every op understands
    _COMMON = ("id", "op")

    def __init__(
        self,
        db: Database,
        *,
        batch: bool = True,
        feed: ReplicationFeed | None = None,
        tailer: ReplicaTailer | None = None,
    ):
        self.db = db
        self._batch = _BatchGate(db) if batch else None
        #: the replication feed serving downstream replicas (``None`` = off)
        self.feed = feed
        #: the tailer streaming from an upstream primary; its presence
        #: makes this node a replica (writes rejected) until ``promote``
        self.tailer = tailer
        self._replica_mode = tailer is not None
        self._lock = threading.Lock()
        self._counters = {
            "requests": 0,
            "queries": 0,
            "mutations": 0,
            "batched_requests": 0,
            "replicate_streams": 0,
            "overloaded": 0,
            "deadline_expired": 0,
            "errors": 0,
        }
        self._started = perf_counter()

    @property
    def role(self) -> str:
        """``"primary"`` or ``"replica"`` (flipped by the ``promote`` op)."""
        return "replica" if self._replica_mode else "primary"

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def handle(self, request: dict) -> dict:
        """Serve one request object; never raises (errors become responses)."""
        with self._lock:
            self._counters["requests"] += 1
        rid = request.get("id") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
            op = request.get("op")
            handler = getattr(self, f"_op_{op}", None)
            if op is None or handler is None:
                raise ValueError(f"unknown op {op!r}")
            response = handler(request)
        except _Reject as err:
            with self._lock:
                self._counters["errors"] += 1
            response = {"ok": False, **err.fields}
        except DegradedError as err:
            # the durability layer refused the write: a *typed* error so
            # clients can distinguish "not applied" from a generic 500
            with self._lock:
                self._counters["errors"] += 1
            response = {
                "ok": False,
                "error": str(err),
                "error_type": "degraded",
                "health": self.db.health,
                "role": self.role,
            }
        except Exception as err:  # noqa: BLE001 - service boundary: a bad
            # request (parse recursion, schema violation, expansion limit,
            # …) must become an error *response*, never kill the worker
            # thread serving the connection
            with self._lock:
                self._counters["errors"] += 1
            response = {"ok": False, "error": str(err) or repr(err)}
        if rid is not None:
            response["id"] = rid
        return response

    def handle_line(self, line: str) -> str:
        """One JSON-lines exchange: request text in, response text out."""
        try:
            request = json.loads(line)
        except json.JSONDecodeError as err:
            with self._lock:
                self._counters["requests"] += 1
                self._counters["errors"] += 1
            return json.dumps({"ok": False, "error": f"bad JSON: {err}"})
        return dumps(self.handle(request))

    def replicate_stream(self, request: dict) -> Iterator[dict | str]:
        """Serve one replica: hello, then frames from the feed, forever."""
        with self._lock:
            self._counters["requests"] += 1
            self._counters["replicate_streams"] += 1
        if self.feed is None:
            with self._lock:
                self._counters["errors"] += 1
            yield {"ok": False, "error": "replication feed is disabled on this node"}
            return
        position = request.get("position") or {}
        generation = position.get("generation", 0)
        if not isinstance(generation, int) or generation < 0:
            with self._lock:
                self._counters["errors"] += 1
            yield {"ok": False, "error": "'position.generation' must be a non-negative integer"}
            return
        announced = (request.get("replica") or {}).get("address")
        link = self.feed.register(announced if isinstance(announced, str) else None)
        try:
            yield {"ok": True, "frame": "hello", "role": self.role,
                   "generation": self.db.generation}
            yield from self.feed.stream(generation, link, resync=bool(request.get("resync")))
        finally:
            self.feed.unregister(link)

    # ------------------------------------------------------------------
    # replication guards
    # ------------------------------------------------------------------

    def _require_primary(self) -> None:
        """Reject mutations on a replica with a typed ``read_only`` error."""
        if not self._replica_mode:
            return
        fields: dict = {"error_type": "read_only", "role": "replica"}
        if self.tailer is not None:
            fields["primary"] = self.tailer.primary_address
        raise _Reject(
            "read_only: this node is a replica; send writes to the primary", **fields
        )

    def _wait_fresh(self, request: dict) -> None:
        """Honour ``min_generation`` bounds, or raise a typed ``stale`` error.

        The staleness contract: the query either runs against state at
        least as new as the requested floor(s), or the client gets a
        ``stale`` frame carrying this node's applied position — never a
        silently stale answer.
        """
        min_g = request.get("min_generation")
        min_rel = request.get("min_rel_generation")
        if min_g is None and not min_rel:
            return
        if min_g is not None and (not isinstance(min_g, int) or min_g < 0):
            raise ValueError("'min_generation' must be a non-negative integer")
        if min_rel is not None and (
            not isinstance(min_rel, dict)
            or not all(
                isinstance(name, str) and isinstance(gen, int)
                for name, gen in min_rel.items()
            )
        ):
            raise ValueError("'min_rel_generation' must map relation names to integers")
        timeout = request.get("wait_timeout_s", 2.0)
        if not isinstance(timeout, (int, float)) or timeout < 0:
            raise ValueError("'wait_timeout_s' must be a non-negative number")
        if self.db.wait_for_generation(min_g, min_rel, timeout=float(timeout)):
            return
        position = self.db.position
        raise _Reject(
            f"stale: applied position {position['generation']} has not reached "
            f"the requested floor within {timeout}s",
            error_type="stale",
            stale=True,
            role=self.role,
            generation=position["generation"],
            rel_generations=position["rel_generations"],
            min_generation=min_g,
            min_rel_generation=min_rel,
        )

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------

    def bump(self, counter: str, by: int = 1) -> None:
        """Thread-safely increment a service counter (transport hooks).

        The async transport accounts for work the service never sees —
        requests shed at admission (``overloaded``), deadlines that
        expired while an op was still running (``deadline_expired``) —
        so ``stats`` reports them alongside the served ops.
        """
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + by

    def _op_ping(self, request: dict) -> dict:
        return {
            "ok": True,
            "pong": True,
            "proto": PROTO_VERSION,
            "features": list(FEATURES),
        }

    def _prepare(self, request: dict) -> PreparedQuery:
        text = request.get("query")
        if not isinstance(text, str) or not text:
            raise ValueError("'query' must be non-empty query text")
        vars_ = request.get("vars")
        if vars_ is not None and not (
            isinstance(vars_, list) and all(isinstance(v, str) for v in vars_)
        ):
            raise ValueError("'vars' must be a list of variable names")
        semantics = request.get("semantics")
        if semantics is not None and not (isinstance(semantics, str) and semantics in FIGURE_1):
            raise ValueError(
                f"unknown semantics {semantics!r}; choose from {sorted(FIGURE_1)}"
            )
        return self.db.query(
            text, tuple(vars_) if vars_ is not None else None, semantics=semantics
        )

    @staticmethod
    def _mode(request: dict) -> str:
        mode = request.get("mode", "auto")
        if not isinstance(mode, str):
            raise ValueError("'mode' must be a backend name or 'auto'")
        return mode

    def _render(self, prepared: PreparedQuery, result, group_size: int = 1) -> dict:
        # the answers' wire text, rendered once per result-cache entry;
        # the response writer (jsonio.dumps) splices it in as is
        payload = {
            "ok": True,
            "answers": RawJSON(result.answer_set.to_json(prepared.query.name)),
            "holds": result.holds,
            "exact": result.exact,
            "direction": result.direction,
            "method": result.method,
            "cache": result.stats.get("result_cache"),
            "generation": result.stats.get("generation"),
            "batched": group_size > 1,
        }
        if group_size > 1:
            with self._lock:
                self._counters["batched_requests"] += 1
        return payload

    def _op_query(self, request: dict) -> dict:
        self._wait_fresh(request)
        prepared = self._prepare(request)
        mode = self._mode(request)
        with self._lock:
            self._counters["queries"] += 1
        if self._batch is not None:
            result, group_size = self._batch.evaluate(prepared, mode)
        else:
            result, group_size = prepared.evaluate(mode), 1
        return self._render(prepared, result, group_size)

    def _op_batch(self, request: dict) -> dict:
        """An explicit client-side batch: one evaluate_many, one response."""
        self._wait_fresh(request)  # one staleness bound covers the whole batch
        specs = request.get("queries")
        if not isinstance(specs, list) or not all(isinstance(s, dict) for s in specs):
            raise ValueError("'queries' must be a list of query objects")
        mode = self._mode(request)
        prepared = [self._prepare(spec) for spec in specs]
        with self._lock:
            self._counters["queries"] += len(prepared)
        results = self.db.evaluate_many(prepared, mode=mode)
        return {
            "ok": True,
            "results": [
                self._render(p, r, len(prepared)) for p, r in zip(prepared, results)
            ],
        }

    def _rows(self, request: dict, field: str = "rows") -> list[tuple]:
        relation = request.get("relation")
        if not isinstance(relation, str) or not relation:
            raise ValueError("'relation' must be a non-empty string")
        rows = request.get(field)
        if not isinstance(rows, list):
            raise ValueError(f"'{field}' must be a list of rows")
        return [decode_row(relation, row) for row in rows]

    def _mutated(self, changed: int) -> dict:
        with self._lock:
            self._counters["mutations"] += 1
        return {"ok": True, "changed": changed, "generation": self.db.generation}

    def _op_insert(self, request: dict) -> dict:
        self._require_primary()
        return self._mutated(
            self.db.insert(request["relation"], *self._rows(request))
        )

    def _op_delete(self, request: dict) -> dict:
        self._require_primary()
        return self._mutated(
            self.db.delete(request["relation"], *self._rows(request))
        )

    def _op_delta(self, request: dict) -> dict:
        self._require_primary()

        def decode_side(side) -> dict[str, list[tuple]] | None:
            mapping = request.get(side)
            if mapping is None:
                return None
            if not isinstance(mapping, dict):
                raise ValueError(f"'{side}' must map relation names to row lists")
            return {
                name: [decode_row(name, row) for row in rows]
                for name, rows in mapping.items()
            }

        return self._mutated(
            self.db.apply_delta(decode_side("adds"), decode_side("removes"))
        )

    def _op_checkpoint(self, request: dict) -> dict:
        """Force a snapshot + WAL truncation on a durable session.

        On a memory-only session this reports ``checkpointed: false``
        rather than erroring — clients can issue it unconditionally.
        """
        written = self.db.checkpoint()
        response = {
            "ok": True,
            "checkpointed": written,
            "generation": self.db.generation,
        }
        stats = self.db.storage_stats
        if stats is not None:
            response["storage"] = stats
        return response

    def _op_health(self, request: dict) -> dict:
        """The session's health state machine, for monitors and clients.

        ``state`` is ``"ok"`` or ``"degraded"`` (mutations refused, see
        :class:`~repro.session.DegradedError`); while degraded,
        ``reason``/``since`` describe the durability failure and a
        successful ``checkpoint`` op heals the node.
        """
        return {
            "ok": True,
            **self.db.health,
            "role": self.role,
            "generation": self.db.generation,
        }

    def _op_promote(self, request: dict) -> dict:
        """Flip a replica writable: stop the tailer, checkpoint, serve writes.

        The failover step.  Idempotent — promoting a primary reports
        ``promoted: false`` and changes nothing.  The checkpoint makes
        the promotion durable: a restart of a durable node recovers the
        exact position it was promoted at.
        """
        with self._lock:
            was_replica = self._replica_mode
            self._replica_mode = False
        if self.tailer is not None:
            self.tailer.stop()
        checkpointed = self.db.checkpoint()
        return {
            "ok": True,
            "promoted": was_replica,
            "role": self.role,
            "checkpointed": checkpointed,
            "generation": self.db.generation,
        }

    def _op_replicate(self, request: dict) -> dict:
        # reached only by direct dict callers: the TCP path routes the op
        # to AsyncServer._serve_replicate/replicate_stream instead
        raise ValueError(
            "'replicate' is a streaming op: it holds its connection open and "
            "is only served over the TCP transport"
        )

    def _op_explain(self, request: dict) -> dict:
        prepared = self._prepare(request)
        mode = request.get("mode", "auto")
        return {"ok": True, "plan": prepared.plan(mode).to_dict()}

    def _op_dump(self, request: dict) -> dict:
        return {"ok": True, "instance": json.loads(instance_to_json(self.db.instance))}

    def _op_stats(self, request: dict) -> dict:
        with self._lock:
            counters = dict(self._counters)
        db = self.db
        response = {
            "ok": True,
            "proto": PROTO_VERSION,
            "features": list(FEATURES),
            "uptime_s": perf_counter() - self._started,
            "requests": counters,
            "result_cache": db.cache_stats,
            "generation": db.generation,
            "fact_count": db.instance.fact_count(),
            "relations": list(db.instance.relations),
            "semantics": db.semantics.key,
            "durable": db.path is not None,
            "role": self.role,
            "health": db.health,
        }
        replication: dict = {"role": self.role, "position": db.position}
        if self.tailer is not None:
            replication["tailer"] = self.tailer.status
        if self.feed is not None:
            replication["feed"] = self.feed.stats
        response["replication"] = replication
        storage = db.storage_stats
        if storage is not None:
            response["storage"] = storage
        return response

    def close(self) -> None:
        """Stop the replication machinery (idempotent).

        Ends every live ``replicate`` stream and the tailer thread; the
        TCP server calls this on shutdown.  The session itself stays
        open — it belongs to the caller.
        """
        if self.tailer is not None:
            self.tailer.stop()
        if self.feed is not None:
            self.feed.close()


#: the longest request line the server reads: asyncio's default
#: ``StreamReader`` limit.  A longer line is answered with a typed
#: ``frame_too_large`` frame and the connection is closed.
_LINE_LIMIT = 2**16

#: how long input after an oversized line is discarded before close
_DISCARD_S = 1.0


class _AsyncConn:
    """Per-connection state on the event loop: writer + in-flight tasks."""

    __slots__ = ("reader", "writer", "write_lock", "tasks")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        #: serialises response writes: pipelined tasks finish in any
        #: order, but each response line must hit the socket whole
        self.write_lock = asyncio.Lock()
        self.tasks: set[asyncio.Task] = set()


class AsyncServer:
    """An asyncio front end for a :class:`QueryService` (protocol v2).

    One event loop multiplexes every connection, so an idle client
    costs a heap object instead of a parked thread; the blocking
    session work still runs on a bounded :class:`ThreadPoolExecutor`,
    feeding the :class:`_BatchGate` group-commit.  What it adds:

    * **pipelining** — each request line becomes its own task; a client
      may send N requests before reading anything, and responses are
      written as they finish, **out of order**, correlated by the
      echoed ``id``;
    * **admission control** — at most ``max_inflight`` requests may
      occupy executor slots; the next one is shed *immediately* with a
      typed ``overloaded`` frame (never queued unboundedly, never a
      silent drop), and ``max_conns`` bounds accepted connections the
      same way;
    * **deadlines** — a request carrying ``deadline_ms`` gets at most
      that long of server residency; past it the client receives a
      typed ``deadline`` frame while the already-running op finishes
      in the background (its admission slot is held until it does);
    * **backpressure** — every write awaits ``drain()``, so a client
      that stops reading suspends its own responses instead of
      ballooning server memory, and ``idle_timeout_s`` reaps
      connections (slowloris included) that go silent mid-frame.

    Replication rides along: a ``replicate`` request hands its
    connection to a dedicated pump thread that walks the blocking
    :meth:`QueryService.replicate_stream` generator and ships frames
    through the loop, so one slow replica never stalls queries.

    Runs purely async (``await server.start_async()`` /
    ``await server.shutdown_async()``) or behind a sync facade
    (``start()`` spins a daemon thread owning the loop; ``shutdown()``
    joins it), which ``repro serve``, tests and benchmarks use.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int = 64,
        max_conns: int = 1024,
        idle_timeout_s: float = 0.0,
        executor_threads: int = 8,
    ):
        self.service = service
        self._host = host
        self._port = port
        self.max_inflight = max(1, max_inflight)
        self.max_conns = max(1, max_conns)
        self.idle_timeout_s = idle_timeout_s
        self.executor_threads = max(1, executor_threads)
        self.address: tuple[str, int] | None = None
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._conns: set[_AsyncConn] = set()
        self._tasks: set[asyncio.Task] = set()
        self._inflight = 0
        self._draining = False
        # sync-facade state
        self._thread: threading.Thread | None = None
        self._stop_requested: asyncio.Event | None = None
        self._drain_timeout_s = 0.0
        self._startup_error: BaseException | None = None
        self._done = threading.Event()

    # ------------------------------------------------------------------
    # async lifecycle
    # ------------------------------------------------------------------

    async def start_async(self) -> "AsyncServer":
        """Bind and start accepting on the running event loop."""
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_threads, thread_name_prefix="repro-async"
        )
        self._server = await asyncio.start_server(
            self._handle_conn, self._host, self._port, limit=_LINE_LIMIT
        )
        self.address = self._server.sockets[0].getsockname()[:2]
        return self

    async def shutdown_async(self, drain_timeout_s: float = 0.0) -> None:
        """Stop accepting, optionally drain in-flight requests, then close.

        Replication streams never count as in-flight (they are ended by
        ``service.close()``), and past the drain window remaining
        connections are torn down hard.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {task for task in self._tasks if not task.done()}
        if drain_timeout_s > 0 and pending:
            await asyncio.wait(pending, timeout=drain_timeout_s)
        # end replication streams first: their pump threads are parked
        # inside the feed and exit when it closes
        self.service.close()
        for conn in list(self._conns):
            conn.writer.close()
        await asyncio.sleep(0)  # let per-connection loops notice
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # sync facade
    # ------------------------------------------------------------------

    def start(self) -> "AsyncServer":
        """Run the event loop on a daemon thread and block until bound.

        A no-op on a running server, so ``with serve(...) as server``
        keeps the listener :func:`serve` already bound.
        """
        if self._thread is not None:
            return self
        started = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main(started)),
            daemon=True,
            name="repro-async-loop",
        )
        self._thread.start()
        started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    async def _main(self, started: threading.Event) -> None:
        try:
            try:
                await self.start_async()
                self._stop_requested = asyncio.Event()
            except BaseException as err:  # noqa: BLE001 - reported in start()
                self._startup_error = err
                return
            finally:
                started.set()
            await self._stop_requested.wait()
            await self.shutdown_async(self._drain_timeout_s)
        finally:
            self._done.set()

    def serve_forever(self) -> None:
        """Park the calling thread until :meth:`shutdown` (the CLI's loop).

        The event loop runs on its own thread; this wait keeps the main
        thread interruptible, so Ctrl-C / ``SIGTERM`` land here and the
        caller's ``finally`` can run a graceful :meth:`shutdown`.
        """
        while not self._done.wait(0.2):
            pass

    def shutdown(self, drain_timeout_s: float = 0.0) -> None:
        """Thread-safe shutdown of a :meth:`start`-ed server (idempotent)."""
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._drain_timeout_s = drain_timeout_s
        loop, stop = self._loop, self._stop_requested
        if loop is not None and stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                pass  # loop already closing
        thread.join(timeout=drain_timeout_s + 10)

    def __enter__(self) -> "AsyncServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # per-connection loop
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _AsyncConn(reader, writer)
        try:
            try:
                await _faults.async_fire("server.accept")
            except OSError:
                return  # injected accept failure: dropped before serving
            if self._draining or len(self._conns) >= self.max_conns:
                # typed refusal, never a silent drop: the client learns
                # *why* before the connection closes
                self.service.bump("requests")
                self.service.bump("overloaded")
                self.service.bump("errors")
                await self._write(
                    conn,
                    json.dumps(
                        {
                            "ok": False,
                            "error": f"overloaded: connection limit "
                            f"({self.max_conns}) reached",
                            "error_type": "overloaded",
                            "max_conns": self.max_conns,
                        }
                    ),
                )
                return
            self._conns.add(conn)
            await self._read_requests(conn)
        except Exception:  # noqa: BLE001 - a broken connection must never
            pass  # surface as an unhandled-task error
        finally:
            if conn.tasks:
                # half-close etiquette: in-flight pipelined responses are
                # still written (or fail against the closed socket)
                await asyncio.gather(*list(conn.tasks), return_exceptions=True)
            self._conns.discard(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, ConnectionError):
                pass

    async def _read_requests(self, conn: _AsyncConn) -> None:
        while True:
            try:
                if self.idle_timeout_s > 0:
                    line = await asyncio.wait_for(
                        conn.reader.readline(), self.idle_timeout_s
                    )
                else:
                    line = await conn.reader.readline()
            except asyncio.TimeoutError:
                return  # idle (or slowloris mid-frame): reap the connection
            except ValueError:
                # the line outgrew the StreamReader limit (asyncio's 64 KiB
                # default) and was never parsed: say so, then close
                await self._reject_oversized(conn)
                return
            except OSError:
                return
            if not line:
                return  # EOF
            try:
                # an injected recv failure loses the request *before* any
                # processing — the client never learns its fate
                await _faults.async_fire("server.recv")
            except OSError:
                return
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            if self._draining:
                return  # draining: no new requests on this connection
            try:
                request = json.loads(text)
            except ValueError:
                request = None
            if isinstance(request, dict) and request.get("op") == "replicate":
                # the connection becomes a replication stream until EOF
                await self._serve_replicate(conn, request)
                return
            task = asyncio.create_task(self._serve_request(conn, request, text))
            conn.tasks.add(task)
            self._tasks.add(task)
            task.add_done_callback(conn.tasks.discard)
            task.add_done_callback(self._tasks.discard)

    async def _reject_oversized(self, conn: _AsyncConn) -> None:
        """Answer an over-limit request line with a typed frame, then close.

        The request was never parsed, so the frame carries no ``id`` and
        nothing ran.  Requests parsed before it still get their responses.
        The server then half-closes and discards input until the client
        closes (for at most :data:`_DISCARD_S`): closing with unread input
        would reset the connection, and a reset may destroy the frame
        before the client reads it.
        """
        self.service.bump("requests")
        self.service.bump("errors")
        await self._respond_obj(
            conn,
            {
                "ok": False,
                "error": f"frame_too_large: request line exceeds the "
                f"{_LINE_LIMIT}-byte frame limit",
                "error_type": "frame_too_large",
                "max_frame_bytes": _LINE_LIMIT,
            },
            None,
        )
        if conn.tasks:
            await asyncio.gather(*list(conn.tasks), return_exceptions=True)

        async def discard() -> None:
            while await conn.reader.read(_LINE_LIMIT):
                pass

        try:
            conn.writer.write_eof()
            await asyncio.wait_for(discard(), _DISCARD_S)
        except (asyncio.TimeoutError, OSError):
            pass

    # ------------------------------------------------------------------
    # per-request task
    # ------------------------------------------------------------------

    def _release_slot(self, fut: asyncio.Future) -> None:
        self._inflight -= 1
        if not fut.cancelled():
            fut.exception()  # consume: handle() never raises

    async def _serve_request(self, conn: _AsyncConn, request, text: str) -> None:
        try:
            if not isinstance(request, dict):
                # malformed JSON (or a non-object): the service's own
                # error path, inline — it never touches the session
                await self._respond(conn, self.service.handle_line(text))
                return
            rid = request.get("id")
            deadline_ms = request.get("deadline_ms")
            if deadline_ms is not None and (
                isinstance(deadline_ms, bool)
                or not isinstance(deadline_ms, (int, float))
                or deadline_ms <= 0
            ):
                self.service.bump("requests")
                self.service.bump("errors")
                await self._respond_obj(
                    conn,
                    {"ok": False, "error": "'deadline_ms' must be a positive number"},
                    rid,
                )
                return
            if self._inflight >= self.max_inflight:
                # admission control: shed *now* with a typed frame rather
                # than queue without bound — the client knows nothing ran
                self.service.bump("requests")
                self.service.bump("overloaded")
                self.service.bump("errors")
                await self._respond_obj(
                    conn,
                    {
                        "ok": False,
                        "error": f"overloaded: {self.max_inflight} requests "
                        f"already in flight",
                        "error_type": "overloaded",
                        "max_inflight": self.max_inflight,
                    },
                    rid,
                )
                return
            self._inflight += 1
            fut = self._loop.run_in_executor(
                self._executor, self.service.handle, request
            )
            fut.add_done_callback(self._release_slot)
            if deadline_ms is not None:
                try:
                    # shield: the executor job cannot be interrupted, so a
                    # blown deadline abandons the wait (the slot stays
                    # held until the job truly finishes) and answers now
                    response = await asyncio.wait_for(
                        asyncio.shield(fut), deadline_ms / 1000.0
                    )
                except asyncio.TimeoutError:
                    self.service.bump("deadline_expired")
                    response = {
                        "ok": False,
                        "error": f"deadline: request exceeded its "
                        f"deadline_ms={deadline_ms} budget",
                        "error_type": "deadline",
                        "deadline_ms": deadline_ms,
                    }
            else:
                response = await fut
            await self._respond_obj(conn, response, rid)
        except Exception:  # noqa: BLE001 - client went away mid-response;
            pass  # the response is lost, the connection already dead

    async def _write(self, conn: _AsyncConn, data: str) -> None:
        async with conn.write_lock:
            conn.writer.write((data + "\n").encode("utf-8"))
            await conn.writer.drain()  # socket-level backpressure

    async def _respond(self, conn: _AsyncConn, data: str) -> None:
        try:
            # an injected send failure loses the *response*: the request
            # was processed, the client cannot know — the
            # indeterminate-write case
            await _faults.async_fire("server.send")
        except OSError:
            conn.writer.close()  # the client sees EOF, not silence forever
            return
        await self._write(conn, data)

    async def _respond_obj(self, conn: _AsyncConn, response: dict, rid) -> None:
        if rid is not None and "id" not in response:
            response["id"] = rid
        await self._respond(conn, dumps(response))

    # ------------------------------------------------------------------
    # replication streaming
    # ------------------------------------------------------------------

    async def _serve_replicate(self, conn: _AsyncConn, request: dict) -> None:
        """Pump the blocking frame generator through the loop, until EOF.

        The generator (hello → deltas/snapshots/heartbeats, forever)
        blocks inside the feed, so it runs on its own daemon thread and
        ships each frame via ``run_coroutine_threadsafe`` — which blocks
        the pump until the frame is drained, propagating socket
        backpressure all the way into the feed's ring buffer.
        """
        loop = self._loop
        stream = self.service.replicate_stream(request)

        def pump() -> None:
            try:
                for frame in stream:
                    data = frame if isinstance(frame, str) else json.dumps(frame)
                    asyncio.run_coroutine_threadsafe(
                        self._write(conn, data), loop
                    ).result()
            except BaseException:  # noqa: BLE001 - replica went away, loop
                pass  # closed, or the feed ended the stream mid-frame
            finally:
                stream.close()  # unregister the replica link
                try:
                    loop.call_soon_threadsafe(conn.writer.close)
                except RuntimeError:
                    pass  # loop already closed at shutdown

        threading.Thread(
            target=pump, daemon=True, name="repro-async-replicate"
        ).start()
        try:
            # the replica sends nothing further: park until it disconnects
            while await conn.reader.read(4096):
                pass
        except (OSError, ValueError):
            pass
        conn.writer.close()  # ends the pump at its next frame


def serve(
    db: Database | None = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_inflight: int = 64,
    max_conns: int = 1024,
    idle_timeout_s: float = 0.0,
    executor_threads: int = 8,
    batch: bool = True,
    instance=None,
    semantics: str = "cwa",
    path: str | None = None,
    replicate_from: str | tuple | None = None,
    feed: bool = True,
    heartbeat_s: float = 2.0,
    backoff_base: float = 0.2,
    backoff_cap: float = 5.0,
) -> AsyncServer:
    """Build an :class:`AsyncServer` around ``db`` (or a fresh session) and start it.

    Returns the started server; ``server.address`` carries the bound
    ``(host, port)``.  The server runs its loop on a daemon thread and
    the caller owns shutdown — callers that want to *own* the loop
    build an :class:`AsyncServer` directly and
    ``await server.start_async()``::

        with serve(Database({"R": [(1, 2)]})) as server:
            ...  # connect to server.address

    ``max_inflight``, ``max_conns``, ``idle_timeout_s`` and
    ``executor_threads`` are the transport's admission controls (see
    :class:`AsyncServer`).  ``path`` makes the fresh session durable
    (``Database(path=...)``): opening recovers the directory's
    snapshot + WAL, and every acknowledged mutation is journaled.

    ``replicate_from="HOST:PORT"`` makes the node a **replica**: a
    :class:`~repro.replication.replica.ReplicaTailer` streams the
    primary's WAL into ``db`` (started only after the listener is
    bound, so the tailer can announce this node's own address), and
    writes are rejected with a typed ``read_only`` error until the
    ``promote`` op.  Every node serves the ``replicate`` op itself
    unless ``feed=False``, so replicas can be chained.
    """
    if db is None:
        db = Database(instance, semantics=semantics, path=path)
    replication_feed = ReplicationFeed(db, heartbeat_s=heartbeat_s) if feed else None
    tailer = None
    if replicate_from is not None:
        tailer = ReplicaTailer(
            db, replicate_from, backoff_base=backoff_base, backoff_cap=backoff_cap
        )
    service = QueryService(db, batch=batch, feed=replication_feed, tailer=tailer)
    server = AsyncServer(
        service,
        host=host,
        port=port,
        max_inflight=max_inflight,
        max_conns=max_conns,
        idle_timeout_s=idle_timeout_s,
        executor_threads=executor_threads,
    ).start()
    if tailer is not None:
        tailer.announce = f"{server.address[0]}:{server.address[1]}"
        tailer.start()
    return server
