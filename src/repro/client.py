"""A self-healing wire client for the JSON-lines serving protocol.

:class:`Client` wraps the raw socket conversation of
``docs/wire-protocol.md`` in the retry/deadline/failover policy a
caller facing real networks needs:

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
  idempotent for their data.

:class:`AsyncClient` is the same policy on asyncio with one addition —
true **pipelining**: one connection per endpoint shared by every
coroutine, many requests in flight, responses matched back by their
echoed ``id`` even when the server answers out of order, plus a
bounded :meth:`AsyncClient.fanout` scatter helper.  An ``overloaded``
frame (the async server shedding load at admission) is retryable by
definition — the request was never executed — and both clients do so
with backoff; a server-side ``deadline`` frame is retried for reads
and surfaced as :class:`IndeterminateWriteError` for writes (the op
may still complete after the server stopped waiting).

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


def _backoff_delay(base: float, cap: float, attempt: int, jitter: Callable[[], float]) -> float:
    """Capped-exponential backoff for attempt *n*, jittered to half."""
    delay = min(base * (2**attempt), cap)
    return delay * (0.5 + 0.5 * min(1.0, max(0.0, jitter())))


def _retryable_frame(error: ServerError) -> bool:
    """Server frames a client may transparently retry for *idempotent* ops.

    ``overloaded`` — shed at admission, nothing ran; ``deadline`` — the
    server gave up inside its own ``deadline_ms`` budget, and re-running
    a read is free.  Mutations treat ``deadline`` differently (the op
    may still complete server-side): see the request cores.
    """
    return isinstance(error, OverloadedServerError) or error.error_type == "deadline"


class Client:
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
        attempts per idempotent operation beyond the first;
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
        self._conns: dict[tuple[str, int], tuple[socket.socket, object]] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------

    @property
    def primary_address(self) -> str:
        host, port = self._primary
        return f"{host}:{port}"

    @property
    def endpoints(self) -> list[str]:
        return [f"{host}:{port}" for host, port in self._endpoints]

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

    def _sleep(self, attempt: int, deadline: float) -> None:
        delay = _backoff_delay(self.backoff_base, self.backoff_cap, attempt, self._jitter)
        remaining = deadline - monotonic()
        if remaining <= 0:
            raise DeadlineExceeded("retry budget exhausted")
        if delay >= remaining:
            # the schedule wants to sleep past the caller's deadline:
            # burn only what is left and fail *on* the deadline instead
            # of waking late for an attempt that cannot finish
            sleep(remaining)
            raise DeadlineExceeded("deadline expired during retry backoff")
        sleep(delay)

    # ------------------------------------------------------------------
    # the request core
    # ------------------------------------------------------------------

    def request(self, payload: dict, *, endpoint: str | tuple | None = None) -> dict:
        """Send one raw request object with the full resilience policy.

        The escape hatch the typed helpers build on.  ``endpoint`` pins
        the request to one node (admin ops on a specific replica);
        otherwise idempotent reads rotate over every endpoint and
        mutations go to the primary.  Returns the decoded ``ok: true``
        response; raises a typed :class:`ClientError` otherwise.
        """
        op = payload.get("op")
        self._seq += 1
        payload = {"id": self._seq, **payload}
        deadline = monotonic() + self.timeout
        pinned = parse_address(endpoint) if endpoint is not None else None
        if op in IDEMPOTENT_OPS:
            return self._request_idempotent(payload, deadline, pinned)
        return self._request_mutation(payload, deadline, pinned)

    def _stamp_read_floor(self, payload: dict) -> dict:
        if (
            self.read_your_writes
            and payload.get("op") in ("query", "batch")
            and self.last_write_generation > 0
            and "min_generation" not in payload
        ):
            payload = {
                **payload,
                "min_generation": self.last_write_generation,
                "wait_timeout_s": self.wait_timeout_s,
            }
        return payload

    def _request_idempotent(
        self, payload: dict, deadline: float, pinned: tuple[str, int] | None
    ) -> dict:
        payload = self._stamp_read_floor(payload)
        can_rotate = pinned is None and payload.get("op") in FAILOVER_OPS
        endpoints = [pinned] if pinned is not None else self._endpoints
        last_error: ClientError | None = None
        for attempt in range(self.retries + 1):
            if can_rotate:
                endpoint = endpoints[self._rotation % len(endpoints)]
            else:
                endpoint = endpoints[0] if pinned is not None else self._primary
            try:
                response = self._exchange(endpoint, payload, deadline)
            except DeadlineExceeded:
                raise
            except (TransportError, IndeterminateWriteError) as err:
                # idempotent: ambiguity is free to retry — rotate away
                last_error = (
                    err
                    if isinstance(err, TransportError)
                    else TransportError(str(err))
                )
                if can_rotate:
                    self._rotation += 1
            else:
                if response.get("ok"):
                    return response
                error = _typed_error(response)
                if isinstance(error, StaleReadError) and can_rotate and len(endpoints) > 1:
                    # this node is lagging; another may have caught up
                    last_error = error
                    self._rotation += 1
                elif _retryable_frame(error):
                    # shed at admission or timed out server-side: the read
                    # never completed, so back off and try again
                    last_error = error
                    if can_rotate:
                        self._rotation += 1
                else:
                    raise error
            if attempt < self.retries:
                self._sleep(attempt, deadline)
        raise last_error if last_error is not None else TransportError("no endpoints")

    def _request_mutation(
        self, payload: dict, deadline: float, pinned: tuple[str, int] | None
    ) -> dict:
        endpoint = pinned if pinned is not None else self._primary
        redirected = False
        last_error: ClientError | None = None
        for attempt in range(self.retries + 1):
            try:
                response = self._exchange(endpoint, payload, deadline)
            except DeadlineExceeded:
                raise
            except TransportError as err:
                # the connect itself failed: nothing was sent, retry is safe
                last_error = err
            except IndeterminateWriteError:
                # bytes may have left — surface the ambiguity, never re-send
                raise
            else:
                if response.get("ok"):
                    generation = response.get("generation")
                    if isinstance(generation, int):
                        self.last_write_generation = max(
                            self.last_write_generation, generation
                        )
                    return response
                error = _typed_error(response)
                if isinstance(error, OverloadedServerError):
                    # shed at admission: the write never ran, retry is safe
                    last_error = error
                elif error.error_type == "deadline":
                    # the server stopped waiting, but the op it handed to
                    # a worker may still complete — the indeterminate-write
                    # case, so surface it and never auto-re-send
                    raise IndeterminateWriteError(str(error)) from error
                elif (
                    isinstance(error, ReadOnlyServerError)
                    and error.primary
                    and not redirected
                    and pinned is None
                ):
                    # the write was refused, not applied: following the
                    # announced primary once is safe
                    endpoint = parse_address(error.primary)
                    self._primary = endpoint
                    if endpoint not in self._endpoints:
                        self._endpoints.insert(0, endpoint)
                    redirected = True
                    continue
                else:
                    raise error
            if attempt < self.retries:
                self._sleep(attempt, deadline)
        raise last_error if last_error is not None else TransportError("no endpoints")

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
        return self.request(payload)

    def insert(self, relation: str, rows: Iterable[Sequence]) -> dict:
        return self.request({"op": "insert", "relation": relation, "rows": list(rows)})

    def delete(self, relation: str, rows: Iterable[Sequence]) -> dict:
        return self.request({"op": "delete", "relation": relation, "rows": list(rows)})

    def apply_delta(
        self,
        adds: Mapping[str, list] | None = None,
        removes: Mapping[str, list] | None = None,
    ) -> dict:
        payload: dict = {"op": "delta"}
        if adds:
            payload["adds"] = dict(adds)
        if removes:
            payload["removes"] = dict(removes)
        return self.request(payload)

    def checkpoint(self, *, endpoint: str | tuple | None = None) -> dict:
        """Force a snapshot (the degraded-mode healing op)."""
        return self.request({"op": "checkpoint"}, endpoint=endpoint)

    def promote(self, endpoint: str | tuple) -> dict:
        """Flip the replica at ``endpoint`` writable and adopt it as primary."""
        response = self.request({"op": "promote"}, endpoint=endpoint)
        self._primary = parse_address(endpoint)
        if self._primary not in self._endpoints:
            self._endpoints.insert(0, self._primary)
        return response

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


class AsyncClient:
    """The :class:`Client` policy on asyncio, with true pipelining.

    Same endpoints, deadlines, retry/backoff, failover rotation,
    read-your-writes floor and honest-write semantics as the sync
    client — every policy note on :class:`Client` holds here — plus:

    * **pipelining** — each endpoint gets one connection shared by every
      coroutine of the owning event loop; any number of requests may be
      in flight at once, and responses are matched back to their callers
      by the echoed ``id``, so out-of-order completion (a protocol-v2
      server answers fast ops while a slow one still runs) just works;
    * **deadline propagation** — unless disabled (or the caller set its
      own), idempotent requests carry ``deadline_ms`` equal to the
      client's remaining budget, so a v2 server stops working on a
      request its client has already given up on;
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
        propagate_deadline: bool = True,
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
        self.propagate_deadline = propagate_deadline
        self._jitter = jitter
        self._rotation = 0
        self.last_write_generation = 0
        self._conns: dict[tuple[str, int], _AsyncConn] = {}
        self._seq = 0

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------

    @property
    def primary_address(self) -> str:
        host, port = self._primary
        return f"{host}:{port}"

    @property
    def endpoints(self) -> list[str]:
        return [f"{host}:{port}" for host, port in self._endpoints]

    async def aclose(self) -> None:
        """Close every cached connection (idempotent)."""
        conns = list(self._conns.values())
        self._conns.clear()
        for conn in conns:
            if conn.reader_task is not None:
                conn.reader_task.cancel()
            conn.writer.close()
        for conn in conns:
            if conn.reader_task is not None:
                await asyncio.gather(conn.reader_task, return_exceptions=True)

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
        conn = self._conns.get(endpoint)
        if conn is not None:
            return conn
        budget = min(self.connect_timeout, deadline - monotonic())
        if budget <= 0:
            raise DeadlineExceeded(f"deadline expired connecting to {endpoint}")
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*endpoint), budget
            )
        except (OSError, asyncio.TimeoutError) as err:
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

    async def _sleep(self, attempt: int, deadline: float) -> None:
        delay = _backoff_delay(self.backoff_base, self.backoff_cap, attempt, self._jitter)
        remaining = deadline - monotonic()
        if remaining <= 0:
            raise DeadlineExceeded("retry budget exhausted")
        if delay >= remaining:
            await asyncio.sleep(remaining)
            raise DeadlineExceeded("deadline expired during retry backoff")
        await asyncio.sleep(delay)

    # ------------------------------------------------------------------
    # the request core
    # ------------------------------------------------------------------

    async def request(self, payload: dict, *, endpoint: str | tuple | None = None) -> dict:
        """Send one raw request object with the full resilience policy.

        The async twin of :meth:`Client.request`: same endpoint
        selection, same typed errors, same honest-write rules.
        """
        op = payload.get("op")
        self._seq += 1
        payload = {"id": self._seq, **payload}
        deadline = monotonic() + self.timeout
        pinned = parse_address(endpoint) if endpoint is not None else None
        if op in IDEMPOTENT_OPS:
            return await self._request_idempotent(payload, deadline, pinned)
        return await self._request_mutation(payload, deadline, pinned)

    def _stamp_read_floor(self, payload: dict) -> dict:
        if (
            self.read_your_writes
            and payload.get("op") in ("query", "batch")
            and self.last_write_generation > 0
            and "min_generation" not in payload
        ):
            payload = {
                **payload,
                "min_generation": self.last_write_generation,
                "wait_timeout_s": self.wait_timeout_s,
            }
        return payload

    def _stamp_deadline(self, payload: dict, deadline: float) -> dict:
        """Propagate the remaining budget as ``deadline_ms`` (reads only)."""
        if not self.propagate_deadline or "deadline_ms" in payload:
            return payload
        remaining_ms = int((deadline - monotonic()) * 1000)
        if remaining_ms <= 0:
            return payload
        return {**payload, "deadline_ms": remaining_ms}

    async def _request_idempotent(
        self, payload: dict, deadline: float, pinned: tuple[str, int] | None
    ) -> dict:
        payload = self._stamp_read_floor(payload)
        can_rotate = pinned is None and payload.get("op") in FAILOVER_OPS
        endpoints = [pinned] if pinned is not None else self._endpoints
        last_error: ClientError | None = None
        for attempt in range(self.retries + 1):
            if can_rotate:
                endpoint = endpoints[self._rotation % len(endpoints)]
            else:
                endpoint = endpoints[0] if pinned is not None else self._primary
            try:
                response = await self._exchange(
                    endpoint, self._stamp_deadline(payload, deadline), deadline
                )
            except DeadlineExceeded:
                raise
            except (TransportError, IndeterminateWriteError) as err:
                # idempotent: ambiguity is free to retry — rotate away
                last_error = (
                    err
                    if isinstance(err, TransportError)
                    else TransportError(str(err))
                )
                if can_rotate:
                    self._rotation += 1
            else:
                if response.get("ok"):
                    return response
                error = _typed_error(response)
                if isinstance(error, StaleReadError) and can_rotate and len(endpoints) > 1:
                    # this node is lagging; another may have caught up
                    last_error = error
                    self._rotation += 1
                elif _retryable_frame(error):
                    last_error = error
                    if can_rotate:
                        self._rotation += 1
                else:
                    raise error
            if attempt < self.retries:
                await self._sleep(attempt, deadline)
        raise last_error if last_error is not None else TransportError("no endpoints")

    async def _request_mutation(
        self, payload: dict, deadline: float, pinned: tuple[str, int] | None
    ) -> dict:
        endpoint = pinned if pinned is not None else self._primary
        redirected = False
        last_error: ClientError | None = None
        for attempt in range(self.retries + 1):
            try:
                response = await self._exchange(endpoint, payload, deadline)
            except DeadlineExceeded:
                raise
            except TransportError as err:
                # the connect itself failed: nothing was sent, retry is safe
                last_error = err
            except IndeterminateWriteError:
                # bytes may have left — surface the ambiguity, never re-send
                raise
            else:
                if response.get("ok"):
                    generation = response.get("generation")
                    if isinstance(generation, int):
                        self.last_write_generation = max(
                            self.last_write_generation, generation
                        )
                    return response
                error = _typed_error(response)
                if isinstance(error, OverloadedServerError):
                    # shed at admission: the write never ran, retry is safe
                    last_error = error
                elif error.error_type == "deadline":
                    raise IndeterminateWriteError(str(error)) from error
                elif (
                    isinstance(error, ReadOnlyServerError)
                    and error.primary
                    and not redirected
                    and pinned is None
                ):
                    endpoint = parse_address(error.primary)
                    self._primary = endpoint
                    if endpoint not in self._endpoints:
                        self._endpoints.insert(0, endpoint)
                    redirected = True
                    continue
                else:
                    raise error
            if attempt < self.retries:
                await self._sleep(attempt, deadline)
        raise last_error if last_error is not None else TransportError("no endpoints")

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
        return await self.request(payload)

    async def insert(self, relation: str, rows: Iterable[Sequence]) -> dict:
        return await self.request(
            {"op": "insert", "relation": relation, "rows": list(rows)}
        )

    async def delete(self, relation: str, rows: Iterable[Sequence]) -> dict:
        return await self.request(
            {"op": "delete", "relation": relation, "rows": list(rows)}
        )

    async def apply_delta(
        self,
        adds: Mapping[str, list] | None = None,
        removes: Mapping[str, list] | None = None,
    ) -> dict:
        payload: dict = {"op": "delta"}
        if adds:
            payload["adds"] = dict(adds)
        if removes:
            payload["removes"] = dict(removes)
        return await self.request(payload)

    async def checkpoint(self, *, endpoint: str | tuple | None = None) -> dict:
        return await self.request({"op": "checkpoint"}, endpoint=endpoint)

    async def promote(self, endpoint: str | tuple) -> dict:
        """Flip the replica at ``endpoint`` writable and adopt it as primary."""
        response = await self.request({"op": "promote"}, endpoint=endpoint)
        self._primary = parse_address(endpoint)
        if self._primary not in self._endpoints:
            self._endpoints.insert(0, self._primary)
        return response

    async def stats(self, *, endpoint: str | tuple | None = None) -> dict:
        return await self.request({"op": "stats"}, endpoint=endpoint)

    async def health(self, *, endpoint: str | tuple | None = None) -> dict:
        return await self.request({"op": "health"}, endpoint=endpoint)
