"""Self-healing wire clients for the JSON-lines serving protocol.

Both clients wrap the raw socket conversation of
``docs/wire-protocol.md`` in the retry/deadline/failover policy a
caller facing real networks needs, and that policy is written once: a
**sans-IO core** (the pattern of h11, https://sans-io.readthedocs.io/)
that does no I/O.  It is a generator that yields what it wants done —
an *exchange* ``(endpoint, payload, deadline)`` or a *sleep* of ``s``
seconds — and is sent the decoded response, or has the transport error
thrown into it.  :class:`Client` drives it over blocking sockets and
:class:`AsyncClient` over asyncio; each shell's ``request`` is a short
loop around its own ``_exchange``.  The policy:

* **per-op deadlines** — every public method is bounded by ``timeout``
  seconds of wall clock, connection attempts included; a blown deadline
  raises :class:`DeadlineExceeded`, never hangs;
* **capped-exponential retry with jitter** for *idempotent* requests
  (reads, ``ping``, admin ops): transport errors and injected drops are
  retried against the next endpoint in rotation, so a primary kill is
  invisible to readers as long as any replica still answers;
* **typed-error passthrough** for mutations: a ``degraded`` frame
  (the durability layer refused the write — see
  :class:`repro.session.DegradedError`) or a ``stale`` frame surfaces
  as a typed exception carrying the server's structured fields, never
  as prose to re-parse; a ``read_only`` frame triggers one redirect to
  the primary the replica announced;
* **bounded-staleness reads** — the client tracks the highest
  generation any of its own acknowledged writes reached and stamps it
  as ``min_generation`` on subsequent reads (read-your-writes), so a
  read failing over to a lagging replica either waits for the write it
  just made or fails ``stale`` and rotates, never silently rewinds;
* **honest write semantics** — a mutation is retried only while the
  client can prove it never reached a server (connection refused before
  anything was sent).  Once request bytes may have left, a transport
  failure raises :class:`IndeterminateWriteError`: the write may or may
  not have applied, and only the caller knows whether re-issuing it is
  idempotent for their data;
* **client-owned request ids** — the wire ``id`` is always the client's
  own sequence number, so requests never collide on the connection; a
  caller-supplied ``id`` is handed back on the response.

An ``overloaded`` frame (the async server shedding load at admission)
is retryable by definition — the request was never executed — so it is
retried with backoff for every op; a server-side ``deadline`` frame is
retried for reads and surfaced as :class:`IndeterminateWriteError` for
writes (the op may still complete after the server stopped waiting).
:class:`AsyncClient` adds true **pipelining**: one connection per
endpoint shared by every coroutine, many requests in flight, responses
matched back by their echoed ``id`` even when the server answers out of
order, plus a bounded :meth:`AsyncClient.fanout` scatter helper.

>>> from repro.client import Client
>>> from repro.server import serve
>>> from repro.session import Database
>>> with serve(Database({"R": [(1, 2)]})) as server:
...     client = Client(server.address)
...     client.query("R(x, y)")["answers"]
...     client.insert("R", [[3, 4]])["changed"]
...     client.close()
[[1, 2]]
1
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
from time import monotonic, sleep
from typing import Callable, Iterable, Mapping, Sequence

from repro.replication.replica import parse_address

__all__ = [
    "AsyncClient",
    "Client",
    "ClientError",
    "DeadlineExceeded",
    "DegradedServerError",
    "FrameTooLargeError",
    "IndeterminateWriteError",
    "OverloadedServerError",
    "ReadOnlyServerError",
    "ServerError",
    "StaleReadError",
    "TransportError",
]


class ClientError(Exception):
    """Base class for everything :class:`Client` raises on purpose."""


class TransportError(ClientError):
    """No server could be reached (or kept its connection) in time."""


class DeadlineExceeded(TransportError):
    """The per-op deadline expired before any server answered."""


class IndeterminateWriteError(ClientError):
    """A mutation was sent but its fate is unknown (connection died).

    The server may or may not have applied the write.  The client never
    auto-retries out of this state — re-issuing is the caller's call,
    made safe by checking generation counters (``stats``/``health``) or
    by the mutation's natural idempotence (set semantics: re-inserting
    a present row changes nothing).
    """


class ServerError(ClientError):
    """The server answered with an error frame; ``fields`` carries it.

    ``error_type`` is the structured discriminator (``"degraded"``,
    ``"read_only"``, ``"stale"``, or ``None`` for untyped errors).
    """

    def __init__(self, fields: dict):
        super().__init__(fields.get("error", "server error"))
        self.fields = fields
        self.error_type: str | None = fields.get("error_type")


class DegradedServerError(ServerError):
    """The node is in degraded read-only mode; the write was refused.

    The write was **not** applied.  ``fields["health"]`` carries the
    node's health record; an operator ``checkpoint`` heals the node.
    """


class ReadOnlyServerError(ServerError):
    """The node is a replica; ``primary`` names where writes go."""

    @property
    def primary(self) -> str | None:
        return self.fields.get("primary")


class StaleReadError(ServerError):
    """The node could not reach the requested ``min_generation`` in time."""


class OverloadedServerError(ServerError):
    """The server shed this request at admission (``--max-inflight`` /
    ``--max-conns`` exceeded).

    The request was **never executed** — shedding happens before the op
    touches the session — so re-sending is safe for every op, mutations
    included.  Both clients retry it with backoff (rotating endpoints
    for reads) while the deadline allows.
    """


class FrameTooLargeError(ServerError):
    """A line outgrew the 64 KiB frame limit; nothing was retried.

    Raised for a ``frame_too_large`` frame (the server refused to parse
    the request line, so nothing ran and the connection closes) and by
    :class:`AsyncClient` for a response line it cannot read.  Re-sending
    the same frame would fail the same way, so neither client retries.
    """


def _typed_error(response: dict) -> ServerError:
    kind = response.get("error_type")
    if kind == "degraded":
        return DegradedServerError(response)
    if kind == "read_only":
        return ReadOnlyServerError(response)
    if kind == "stale":
        return StaleReadError(response)
    if kind == "overloaded":
        return OverloadedServerError(response)
    if kind == "frame_too_large":
        return FrameTooLargeError(response)
    return ServerError(response)


#: ops safe to re-send after an ambiguous failure (no server-side effects,
#: or effects that are idempotent by definition, like ``checkpoint``)
IDEMPOTENT_OPS = frozenset(
    {"ping", "query", "batch", "explain", "dump", "stats", "health", "checkpoint", "promote"}
)
#: idempotent ops that may be answered by *any* endpoint in the rotation
FAILOVER_OPS = frozenset({"ping", "query", "batch", "explain", "dump"})


class _ClientCore:
    """What both clients share: endpoints, policy state and the policy core."""

    def __init__(
        self,
        primary: str | tuple,
        replicas: Iterable[str | tuple] = (),
        *,
        timeout: float = 5.0,
        connect_timeout: float = 1.0,
        retries: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        read_your_writes: bool = True,
        wait_timeout_s: float = 2.0,
        jitter: Callable[[], float] = random.random,
    ):
        self._primary = parse_address(primary)
        self._endpoints: list[tuple[str, int]] = [self._primary]
        for replica in replicas:
            addr = parse_address(replica)
            if addr not in self._endpoints:
                self._endpoints.append(addr)
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = max(0, retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.read_your_writes = read_your_writes
        self.wait_timeout_s = wait_timeout_s
        self._jitter = jitter
        self._rotation = 0
        #: highest generation an acknowledged write of *this client* reached
        self.last_write_generation = 0
        self._conns: dict = {}
        self._seq = 0

    @property
    def primary_address(self) -> str:
        host, port = self._primary
        return f"{host}:{port}"

    @property
    def endpoints(self) -> list[str]:
        return [f"{host}:{port}" for host, port in self._endpoints]

    def _adopt_primary(self, endpoint: tuple[str, int]) -> None:
        self._primary = endpoint
        if endpoint not in self._endpoints:
            self._endpoints.insert(0, endpoint)

    # ------------------------------------------------------------------
    # payload builders for the typed helpers
    # ------------------------------------------------------------------

    def _query_payload(
        self,
        query: str,
        vars: Sequence[str] | None,
        semantics: str | None,
        mode: str,
        min_generation: int | None,
        min_rel_generation: Mapping[str, int] | None,
    ) -> dict:
        payload: dict = {"op": "query", "query": query, "mode": mode}
        if vars is not None:
            payload["vars"] = list(vars)
        if semantics is not None:
            payload["semantics"] = semantics
        if min_generation is not None:
            payload["min_generation"] = min_generation
            payload["wait_timeout_s"] = self.wait_timeout_s
        if min_rel_generation:
            payload["min_rel_generation"] = dict(min_rel_generation)
            payload.setdefault("wait_timeout_s", self.wait_timeout_s)
        return payload

    @staticmethod
    def _delta_payload(adds: Mapping[str, list] | None, removes: Mapping[str, list] | None) -> dict:
        payload: dict = {"op": "delta"}
        if adds:
            payload["adds"] = dict(adds)
        if removes:
            payload["removes"] = dict(removes)
        return payload

    # ------------------------------------------------------------------
    # the policy core
    # ------------------------------------------------------------------

    def _policy(
        self,
        payload: dict,
        endpoint: str | tuple | None = None,
        *,
        stamp_deadline: bool = False,
        clock: Callable[[], float] = monotonic,
    ):
        """Run one request's policy as a generator that does no I/O.

        Yields ``(endpoint, payload, deadline)`` to ask for one exchange
        and is then sent the decoded response, or has the exchange's
        :class:`ClientError` thrown in; yields a float to ask for a sleep
        of that many seconds and is then sent ``None``.  Returns the
        ``ok: true`` response; raises a typed :class:`ClientError`
        otherwise.  ``endpoint`` pins the request to one node;
        ``stamp_deadline`` puts the remaining budget on idempotent
        requests as ``deadline_ms``; ``clock`` reads the time the
        deadline is measured in.
        """
        op = payload.get("op")
        self._seq += 1
        # the wire id is always ours, so in-flight requests can never
        # collide; a caller's id only goes back on the response
        wire = {"id": self._seq, **payload}
        wire["id"] = self._seq
        deadline = clock() + self.timeout
        pinned = parse_address(endpoint) if endpoint is not None else None
        idempotent = op in IDEMPOTENT_OPS
        can_rotate = idempotent and pinned is None and op in FAILOVER_OPS
        if (
            self.read_your_writes
            and op in ("query", "batch")
            and self.last_write_generation > 0
            and "min_generation" not in wire
        ):
            wire["min_generation"] = self.last_write_generation
            wire["wait_timeout_s"] = self.wait_timeout_s
        redirected = False
        last_error: ClientError | None = None
        for attempt in range(self.retries + 1):
            if pinned is not None:
                target = pinned
            elif can_rotate:
                target = self._endpoints[self._rotation % len(self._endpoints)]
            else:
                target = self._primary
            sent = wire
            if stamp_deadline and idempotent and "deadline_ms" not in wire:
                remaining_ms = int((deadline - clock()) * 1000)
                if remaining_ms > 0:
                    sent = {**wire, "deadline_ms": remaining_ms}
            try:
                response = yield target, sent, deadline
            except DeadlineExceeded:
                raise
            except IndeterminateWriteError as err:
                if not idempotent:
                    raise  # bytes may have left: surface the ambiguity, never re-send
                last_error = TransportError(str(err))  # ambiguity is free for reads
            except TransportError as err:
                last_error = err  # the connect itself failed: nothing was sent
            else:
                if "id" in payload:
                    response["id"] = payload["id"]
                if response.get("ok"):
                    generation = response.get("generation")
                    if not idempotent and isinstance(generation, int):
                        self.last_write_generation = max(self.last_write_generation, generation)
                    if op == "promote" and pinned is not None:
                        self._adopt_primary(pinned)
                    return response
                error = _typed_error(response)
                kind = error.error_type
                if kind == "deadline" and not idempotent:
                    # the server stopped waiting, but the op it handed to a
                    # worker may still complete — the indeterminate-write
                    # case, so surface it and never auto-re-send
                    raise IndeterminateWriteError(str(error)) from error
                if kind == "read_only" and error.primary and not idempotent:
                    if redirected or pinned is not None:
                        raise error
                    # the write was refused, not applied: following the
                    # announced primary once is safe
                    self._adopt_primary(parse_address(error.primary))
                    redirected = True
                    continue
                stale_elsewhere = kind == "stale" and can_rotate and len(self._endpoints) > 1
                if kind not in ("overloaded", "deadline") and not stale_elsewhere:
                    raise error
                # shed at admission (nothing ran), a read the server gave
                # up on, or a lagging node another endpoint may have
                # overtaken: back off and try again
                last_error = error
            if can_rotate:
                self._rotation += 1
            if attempt < self.retries:
                delay = min(self.backoff_base * 2**attempt, self.backoff_cap)
                delay *= 0.5 + 0.5 * min(1.0, max(0.0, self._jitter()))
                remaining = deadline - clock()
                if remaining <= 0:
                    raise DeadlineExceeded("retry budget exhausted")
                if delay >= remaining:
                    # the schedule wants to sleep past the caller's deadline:
                    # burn only what is left and fail *on* the deadline instead
                    # of waking late for an attempt that cannot finish
                    yield remaining
                    raise DeadlineExceeded("deadline expired during retry backoff")
                yield delay
        raise last_error if last_error is not None else TransportError("no endpoints")


class Client(_ClientCore):
    """A resilient JSON-lines client over one primary and its replicas.

    Parameters
    ----------
    primary:
        ``"host:port"`` (or an ``(host, port)`` pair) of the node that
        accepts writes;
    replicas:
        additional read endpoints; idempotent reads rotate across
        ``[primary, *replicas]`` on failure;
    timeout:
        per-operation wall-clock deadline in seconds (connects, sends,
        retries and backoff sleeps all count against it);
    retries:
        attempts per operation beyond the first;
    backoff_base / backoff_cap:
        capped exponential retry schedule: attempt *n* sleeps roughly
        ``min(base * 2**n, cap)`` seconds, jittered to half;
    read_your_writes:
        stamp the client's own highest acknowledged write generation as
        ``min_generation`` on reads that do not set one (default on);
    wait_timeout_s:
        how long a server may block to satisfy a ``min_generation``
        floor before answering ``stale``;
    jitter:
        a ``() -> float in [0, 1)`` hook, injectable for deterministic
        tests.

    One socket per endpoint is kept open and reused across requests;
    any transport error tears that connection down so the next attempt
    reconnects from scratch.  Instances are **not** thread-safe — use
    one per thread (the server multiplexes fine).
    """

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Close every cached connection (idempotent)."""
        for sock, _reader in self._conns.values():
            try:
                sock.close()
            except OSError:
                pass
        self._conns.clear()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _drop(self, endpoint: tuple[str, int]) -> None:
        conn = self._conns.pop(endpoint, None)
        if conn is not None:
            try:
                conn[0].close()
            except OSError:
                pass

    def _connect(self, endpoint: tuple[str, int], deadline: float):
        cached = self._conns.get(endpoint)
        if cached is not None:
            return cached
        budget = min(self.connect_timeout, deadline - monotonic())
        if budget <= 0:
            raise DeadlineExceeded(f"deadline expired connecting to {endpoint}")
        try:
            sock = socket.create_connection(endpoint, timeout=budget)
        except OSError as err:
            raise TransportError(f"cannot connect to {endpoint}: {err}") from err
        reader = sock.makefile("r", encoding="utf-8", newline="\n")
        self._conns[endpoint] = (sock, reader)
        return sock, reader

    def _exchange(self, endpoint: tuple[str, int], payload: dict, deadline: float) -> dict:
        """One request/response on one endpoint; raises on any failure.

        Transport failures *after* the request bytes may have left are
        tagged by re-raising :class:`IndeterminateWriteError` — the
        caller decides whether its op makes that ambiguity safe.
        """
        sock, reader = self._connect(endpoint, deadline)
        remaining = deadline - monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(f"deadline expired before sending to {endpoint}")
        line = json.dumps(payload) + "\n"
        try:
            sock.settimeout(remaining)
            sock.sendall(line.encode("utf-8"))
            response = reader.readline()
        except OSError as err:
            self._drop(endpoint)
            if isinstance(err, socket.timeout):
                raise IndeterminateWriteError(
                    f"no response from {endpoint} within the deadline"
                ) from err
            raise IndeterminateWriteError(
                f"connection to {endpoint} failed mid-request: {err}"
            ) from err
        if not response:
            # clean EOF: the server closed without answering (drained,
            # crashed, or an injected drop) — the request's fate is unknown
            self._drop(endpoint)
            raise IndeterminateWriteError(f"{endpoint} closed the connection mid-request")
        try:
            decoded = json.loads(response)
        except ValueError as err:
            self._drop(endpoint)
            raise TransportError(f"undecodable response from {endpoint}: {err}") from err
        if decoded.get("error_type") == "frame_too_large":
            self._drop(endpoint)  # the server closes after this frame
        return decoded

    # ------------------------------------------------------------------
    # the driver
    # ------------------------------------------------------------------

    def request(self, payload: dict, *, endpoint: str | tuple | None = None) -> dict:
        """Send one raw request object with the full resilience policy.

        The escape hatch the typed helpers build on.  ``endpoint`` pins
        the request to one node (admin ops on a specific replica);
        otherwise idempotent reads rotate over every endpoint and
        mutations go to the primary.  Returns the decoded ``ok: true``
        response; raises a typed :class:`ClientError` otherwise.
        """
        policy = self._policy(payload, endpoint)
        try:
            step = next(policy)
            while True:
                if isinstance(step, tuple):
                    try:
                        response = self._exchange(*step)
                    except ClientError as err:
                        step = policy.throw(err)
                    else:
                        step = policy.send(response)
                else:
                    sleep(step)
                    step = policy.send(None)
        except StopIteration as done:
            return done.value

    # ------------------------------------------------------------------
    # typed helpers
    # ------------------------------------------------------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def query(
        self,
        query: str,
        *,
        vars: Sequence[str] | None = None,
        semantics: str | None = None,
        mode: str = "auto",
        min_generation: int | None = None,
        min_rel_generation: Mapping[str, int] | None = None,
    ) -> dict:
        return self.request(
            self._query_payload(query, vars, semantics, mode, min_generation, min_rel_generation)
        )

    def insert(self, relation: str, rows: Iterable[Sequence]) -> dict:
        return self.request({"op": "insert", "relation": relation, "rows": list(rows)})

    def delete(self, relation: str, rows: Iterable[Sequence]) -> dict:
        return self.request({"op": "delete", "relation": relation, "rows": list(rows)})

    def apply_delta(
        self, adds: Mapping[str, list] | None = None, removes: Mapping[str, list] | None = None
    ) -> dict:
        return self.request(self._delta_payload(adds, removes))

    def checkpoint(self, *, endpoint: str | tuple | None = None) -> dict:
        """Force a snapshot (the degraded-mode healing op)."""
        return self.request({"op": "checkpoint"}, endpoint=endpoint)

    def promote(self, endpoint: str | tuple) -> dict:
        """Flip the replica at ``endpoint`` writable and adopt it as primary."""
        return self.request({"op": "promote"}, endpoint=endpoint)

    def stats(self, *, endpoint: str | tuple | None = None) -> dict:
        return self.request({"op": "stats"}, endpoint=endpoint)

    def health(self, *, endpoint: str | tuple | None = None) -> dict:
        return self.request({"op": "health"}, endpoint=endpoint)


class _AsyncConn:
    """One live pipelined connection: reader task + id-keyed waiters."""

    __slots__ = ("endpoint", "reader", "writer", "pending", "reader_task", "write_lock")

    def __init__(self, endpoint: tuple[str, int], reader, writer):
        self.endpoint = endpoint
        self.reader = reader
        self.writer = writer
        #: request id → Future resolved by the reader task
        self.pending: dict[object, asyncio.Future] = {}
        self.reader_task: asyncio.Task | None = None
        self.write_lock = asyncio.Lock()


class AsyncClient(_ClientCore):
    """The :class:`Client` policy on asyncio, with true pipelining.

    Same parameters, endpoints, deadlines, retry/backoff, failover
    rotation, read-your-writes floor and honest-write semantics as the
    sync client — both drive the one policy core — plus:

    * **pipelining** — each endpoint gets one connection shared by every
      coroutine of the owning event loop (concurrent first requests wait
      on one shared connect); any number of requests may be in flight at
      once, and responses are matched back to their callers by the
      echoed ``id``, so out-of-order completion (a protocol-v2 server
      answers fast ops while a slow one still runs) just works;
    * **deadline propagation** — unless the caller set its own,
      idempotent requests carry ``deadline_ms`` equal to the client's
      remaining budget, so a v2 server stops working on a request its
      client has already given up on;
    * :meth:`fanout` — a bounded ``asyncio.gather`` helper for the
      scatter half of scatter/gather workloads.

    Instances belong to one event loop.  A request whose response does
    not arrive in time abandons only its own ``id`` — the connection
    and its other in-flight requests stay live.

    >>> import asyncio
    >>> from repro.client import AsyncClient
    >>> from repro.server import serve
    >>> from repro.session import Database
    >>> async def demo():
    ...     server = serve(Database({"R": [(1, 2)]}))
    ...     try:
    ...         async with AsyncClient(server.address) as client:
    ...             responses = await client.fanout(
    ...                 [{"op": "query", "query": "R(x, y)"}] * 3, concurrency=2
    ...             )
    ...             return [r["answers"] for r in responses]
    ...     finally:
    ...         server.shutdown()
    >>> asyncio.run(demo())
    [[[1, 2]], [[1, 2]], [[1, 2]]]
    """

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------

    async def aclose(self) -> None:
        """Close every cached connection and in-flight connect (idempotent)."""
        conns = list(self._conns.values())
        self._conns.clear()
        tasks = []
        for conn in conns:
            if isinstance(conn, _AsyncConn):
                conn.writer.close()
                conn = conn.reader_task
            conn.cancel()
            tasks.append(conn)
        await asyncio.gather(*tasks, return_exceptions=True)

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    def _abandon(self, conn: _AsyncConn) -> None:
        """Drop a connection whose transport failed mid-request."""
        if self._conns.get(conn.endpoint) is conn:
            del self._conns[conn.endpoint]
        conn.writer.close()  # wakes the reader task, which fails the pending

    async def _read_loop(self, conn: _AsyncConn) -> None:
        """Resolve pipelined responses to their waiters, by echoed id."""
        failure: ClientError | None = None
        try:
            while True:
                line = await conn.reader.readline()
                if not line:
                    break  # clean EOF
                try:
                    response = json.loads(line)
                except ValueError as err:
                    failure = TransportError(
                        f"undecodable response from {conn.endpoint}: {err}"
                    )
                    break
                rid = response.get("id")
                if rid is None and response.get("error_type") == "frame_too_large":
                    # an unparsed request line: the server answers what is
                    # still running, then closes — whatever is pending at
                    # EOF was never parsed
                    failure = FrameTooLargeError(response)
                    continue
                fut = conn.pending.pop(rid, None)
                if fut is not None and not fut.done():
                    fut.set_result(response)
        except ValueError as err:
            # a response line past the StreamReader limit (64 KiB): the
            # rest of the stream is unframed, and a retry would fetch the
            # same answer again
            failure = FrameTooLargeError(
                {
                    "error": f"response from {conn.endpoint} exceeds the "
                    f"64 KiB frame limit: {err}",
                    "error_type": "frame_too_large",
                }
            )
        except OSError as err:
            failure = TransportError(f"connection to {conn.endpoint} failed: {err}")
        finally:
            if self._conns.get(conn.endpoint) is conn:
                del self._conns[conn.endpoint]
            conn.writer.close()
            if failure is None:
                # the server closed without answering (drained, crashed,
                # injected drop): every in-flight request's fate is unknown
                failure = IndeterminateWriteError(
                    f"{conn.endpoint} closed the connection mid-request"
                )
            for fut in conn.pending.values():
                if not fut.done():
                    fut.set_exception(failure)
            conn.pending.clear()

    async def _connect(self, endpoint: tuple[str, int], deadline: float) -> _AsyncConn:
        """The endpoint's live connection, opening it if there is none.

        ``_conns`` maps an endpoint to its live :class:`_AsyncConn` or to
        the one in-flight connect task every concurrent caller awaits, so
        a cold burst opens a single socket.
        """
        conn = self._conns.get(endpoint)
        if isinstance(conn, _AsyncConn):
            return conn
        budget = min(self.connect_timeout, deadline - monotonic())
        if budget <= 0:
            raise DeadlineExceeded(f"deadline expired connecting to {endpoint}")
        if conn is None:
            conn = self._conns[endpoint] = asyncio.ensure_future(self._open(endpoint))
        try:
            # shielded: a caller giving up must not cancel the shared connect
            return await asyncio.wait_for(asyncio.shield(conn), budget)
        except asyncio.TimeoutError as err:
            raise TransportError(f"cannot connect to {endpoint}: {err}") from err
        except asyncio.CancelledError:
            if not conn.cancelled():
                raise  # this caller was cancelled, not the connect
            raise TransportError(f"client closed while connecting to {endpoint}") from None

    async def _open(self, endpoint: tuple[str, int]) -> _AsyncConn:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*endpoint), self.connect_timeout
            )
        except (OSError, asyncio.TimeoutError) as err:
            self._conns.pop(endpoint, None)
            raise TransportError(f"cannot connect to {endpoint}: {err}") from err
        conn = _AsyncConn(endpoint, reader, writer)
        conn.reader_task = asyncio.create_task(self._read_loop(conn))
        self._conns[endpoint] = conn
        return conn

    async def _exchange(
        self, endpoint: tuple[str, int], payload: dict, deadline: float
    ) -> dict:
        """One pipelined request/response on one endpoint; raises on failure.

        A response that never arrives abandons only this request's id;
        other requests multiplexed on the connection are untouched.
        """
        conn = await self._connect(endpoint, deadline)
        remaining = deadline - monotonic()
        if remaining <= 0:
            raise DeadlineExceeded(f"deadline expired before sending to {endpoint}")
        rid = payload["id"]
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        conn.pending[rid] = fut
        data = (json.dumps(payload) + "\n").encode("utf-8")
        try:
            async with conn.write_lock:
                conn.writer.write(data)
                await asyncio.wait_for(conn.writer.drain(), remaining)
        except (OSError, asyncio.TimeoutError) as err:
            conn.pending.pop(rid, None)
            self._abandon(conn)
            raise IndeterminateWriteError(
                f"connection to {endpoint} failed mid-request: {err}"
            ) from err
        remaining = deadline - monotonic()
        try:
            return await asyncio.wait_for(fut, remaining if remaining > 0 else 0)
        except asyncio.TimeoutError as err:
            conn.pending.pop(rid, None)
            raise IndeterminateWriteError(
                f"no response from {endpoint} within the deadline"
            ) from err

    # ------------------------------------------------------------------
    # the driver
    # ------------------------------------------------------------------

    async def request(self, payload: dict, *, endpoint: str | tuple | None = None) -> dict:
        """Send one raw request object with the full resilience policy.

        The async twin of :meth:`Client.request`: the same policy core,
        plus ``deadline_ms`` propagation on idempotent requests.
        """
        policy = self._policy(payload, endpoint, stamp_deadline=True)
        try:
            step = next(policy)
            while True:
                if isinstance(step, tuple):
                    try:
                        response = await self._exchange(*step)
                    except ClientError as err:
                        step = policy.throw(err)
                    else:
                        step = policy.send(response)
                else:
                    await asyncio.sleep(step)
                    step = policy.send(None)
        except StopIteration as done:
            return done.value

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------

    async def fanout(
        self,
        payloads: Iterable[dict],
        *,
        concurrency: int = 64,
        return_exceptions: bool = False,
    ) -> list:
        """Issue many requests concurrently, bounded by ``concurrency``.

        Results come back in input order.  With ``return_exceptions``
        each failed slot holds its :class:`ClientError` instead of the
        first failure cancelling the whole gather.
        """
        semaphore = asyncio.Semaphore(max(1, concurrency))

        async def one(payload: dict):
            async with semaphore:
                return await self.request(payload)

        return list(
            await asyncio.gather(
                *(one(payload) for payload in payloads),
                return_exceptions=return_exceptions,
            )
        )

    # ------------------------------------------------------------------
    # typed helpers
    # ------------------------------------------------------------------

    async def ping(self) -> dict:
        return await self.request({"op": "ping"})

    async def query(
        self,
        query: str,
        *,
        vars: Sequence[str] | None = None,
        semantics: str | None = None,
        mode: str = "auto",
        min_generation: int | None = None,
        min_rel_generation: Mapping[str, int] | None = None,
    ) -> dict:
        return await self.request(
            self._query_payload(query, vars, semantics, mode, min_generation, min_rel_generation)
        )

    async def insert(self, relation: str, rows: Iterable[Sequence]) -> dict:
        return await self.request({"op": "insert", "relation": relation, "rows": list(rows)})

    async def delete(self, relation: str, rows: Iterable[Sequence]) -> dict:
        return await self.request({"op": "delete", "relation": relation, "rows": list(rows)})

    async def apply_delta(
        self, adds: Mapping[str, list] | None = None, removes: Mapping[str, list] | None = None
    ) -> dict:
        return await self.request(self._delta_payload(adds, removes))

    async def checkpoint(self, *, endpoint: str | tuple | None = None) -> dict:
        """Force a snapshot (the degraded-mode healing op)."""
        return await self.request({"op": "checkpoint"}, endpoint=endpoint)

    async def promote(self, endpoint: str | tuple) -> dict:
        """Flip the replica at ``endpoint`` writable and adopt it as primary."""
        return await self.request({"op": "promote"}, endpoint=endpoint)

    async def stats(self, *, endpoint: str | tuple | None = None) -> dict:
        return await self.request({"op": "stats"}, endpoint=endpoint)

    async def health(self, *, endpoint: str | tuple | None = None) -> dict:
        return await self.request({"op": "health"}, endpoint=endpoint)
