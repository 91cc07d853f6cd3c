"""The primary side of log shipping: a bounded ring over the WAL stream.

A :class:`ReplicationFeed` observes one :class:`~repro.session.Database`
through its listener hook and keeps the most recent wire-format delta
records in an in-memory deque, **pre-encoded** as the exact JSON lines
the wire will carry (encode once, ship to every replica).  The ring
maintains one invariant: it holds a *dense* run of generations
``(floor, top]`` — every record in it has generation exactly one above
its predecessor.  Three things can break density upstream, and each
resets the ring instead of lying about it:

* the buffer cap evicting old records (``floor`` rises);
* a session transition no WAL record describes (``replace()``, knob
  assignments, ``restore()``) — surfaced as a ``reset`` event;
* compaction is *not* one of them: a checkpoint truncates the log but
  the ring keeps its history, so replicas slightly behind the snapshot
  can still catch up by deltas.

:meth:`stream` serves one replica: delta frames whenever the requested
position is inside the ring, a full **snapshot bootstrap** whenever it
is not (before the floor — compacted away — or past the top — a
diverged timeline), and ``heartbeat`` frames on idle so replicas can
distinguish "caught up" from "dead primary".  Frames are yielded with
no feed lock held — a replica blocked on a slow socket can never stall
the primary's writers.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from itertools import islice
from time import monotonic
from typing import TYPE_CHECKING, Iterator

from repro import faults as _faults
from repro.data.jsonio import encode_relations

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints only
    from repro.session import Database

__all__ = ["ReplicaLink", "ReplicationFeed"]

#: delta frames handed out per lock acquisition while a replica catches up
CHUNK = 64


class ReplicaLink:
    """One connected replica's progress, as the feed sees it."""

    __slots__ = ("id", "address", "sent_generation", "sent_bytes", "snapshots", "connected_at")

    def __init__(self, link_id: int, address: str | None):
        self.id = link_id
        #: the serve address the replica announced (``None`` for anonymous tailers)
        self.address = address
        self.sent_generation = 0
        self.sent_bytes = 0
        self.snapshots = 0
        self.connected_at = monotonic()


class ReplicationFeed:
    """Serve the ``replicate`` op for one primary session.

    Construction seeds the ring from the session's current WAL (under
    the session lock, so the listener tail continues densely) and
    registers the feed as a listener; :meth:`close` unhooks it and ends
    every live stream.
    """

    def __init__(self, db: Database, *, max_records: int = 8192, heartbeat_s: float = 2.0):
        self._db = db
        self.heartbeat_s = heartbeat_s
        self._max_records = max(1, max_records)
        self._cond = threading.Condition()
        #: ring of (generation, pre-encoded frame line, frame bytes)
        self._records: deque[tuple[int, str, int]] = deque()
        self._bytes = 0
        self._floor = 0  # generation *before* the first buffered record
        self._top = 0  # generation of the last buffered record
        self._resets = 0
        self._closed = False
        self._links: dict[int, ReplicaLink] = {}
        self._link_seq = 0
        with db._lock:
            for record in db.raw_wal_records():
                self._ingest(record)
            if not self._records:
                self._floor = self._top = db.generation
            db.add_listener(self._on_event)

    # ------------------------------------------------------------------
    # the session side (events arrive under the session lock)
    # ------------------------------------------------------------------

    def _on_event(self, event: dict) -> None:
        if event.get("type") == "delta":
            self._ingest(event["record"])
        elif event.get("type") == "reset":
            self._reset(event["generation"])

    def _ingest(self, record: dict) -> None:
        g = int(record["g"])
        frame: dict = {"frame": "delta", "generation": g, "rel_generations": record.get("rg", {})}
        for side in ("adds", "removes"):
            if record.get(side):
                frame[side] = record[side]
        line = json.dumps(frame, separators=(",", ":"))
        size = len(line) + 1  # the newline ships too
        with self._cond:
            if self._closed:
                return
            if self._records and g != self._top + 1:
                # a non-dense record should be impossible (resets arrive as
                # reset events) — treat it as one rather than ship a gap
                self._records.clear()
                self._bytes = 0
                self._resets += 1
            if not self._records:
                self._floor = g - 1
            self._records.append((g, line, size))
            self._bytes += size
            self._top = g
            while len(self._records) > self._max_records:
                _, _, dropped = self._records.popleft()
                self._bytes -= dropped
                self._floor += 1
            self._cond.notify_all()

    def _reset(self, generation: int) -> None:
        with self._cond:
            if self._closed:
                return
            self._records.clear()
            self._bytes = 0
            self._floor = self._top = int(generation)
            self._resets += 1
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # the wire side
    # ------------------------------------------------------------------

    def register(self, address: str | None) -> ReplicaLink:
        """Track one connected replica; pair with :meth:`unregister`."""
        with self._cond:
            self._link_seq += 1
            link = ReplicaLink(self._link_seq, address)
            self._links[link.id] = link
            return link

    def unregister(self, link: ReplicaLink) -> None:
        with self._cond:
            self._links.pop(link.id, None)

    def stream(
        self, from_generation: int, link: ReplicaLink, *, resync: bool = False
    ) -> Iterator[dict | str]:
        """Frames for one replica, starting after ``from_generation``.

        Yields pre-encoded JSON lines (``str``) for delta frames and
        plain dicts for snapshot/heartbeat frames; the server encodes
        the latter.  Never yields while holding the feed lock.  Ends
        when the feed is closed (server shutdown); socket errors on the
        consumer side simply abandon the generator.

        The ``feed.yield`` failpoint fires before every frame ships —
        an injected ``drop-conn`` kills this one stream (the replica
        reconnects from its durable position), a ``hang`` stalls it.
        """
        for frame in self._stream(int(from_generation), link, resync=resync):
            _faults.fire("feed.yield")
            yield frame

    def _stream(
        self, from_generation: int, link: ReplicaLink, *, resync: bool = False
    ) -> Iterator[dict | str]:
        sent = int(from_generation)
        # position 0 is "never synced": generation 0 on the primary may be a
        # *seeded* instance, so the empty state cannot be assumed equivalent
        need_snapshot = bool(resync) or sent == 0
        while True:
            batch: list[tuple[int, str, int]] | None = None
            with self._cond:
                if self._closed:
                    return
                if not need_snapshot and (sent < self._floor or sent > self._top):
                    need_snapshot = True
                if not need_snapshot:
                    if sent < self._top:
                        skip = sent - self._floor
                        batch = list(islice(self._records, skip, skip + CHUNK))
                    elif not self._cond.wait(self.heartbeat_s):
                        if self._closed:
                            return
                        batch = []  # idle: fall through to a heartbeat
                    else:
                        continue  # something changed; re-evaluate
            if need_snapshot:
                frame, generation = self._snapshot_frame()
                sent = generation
                need_snapshot = False
                with self._cond:
                    link.sent_generation = sent
                    link.snapshots += 1
                yield frame
            elif batch:
                for generation, line, size in batch:
                    sent = generation
                    with self._cond:
                        link.sent_generation = sent
                        link.sent_bytes += size
                    yield line
            else:
                yield {"frame": "heartbeat", "generation": self._db.generation}

    def _snapshot_frame(self) -> tuple[dict, int]:
        """A full-state bootstrap frame (state captured atomically)."""
        db = self._db
        with db._lock:
            instance = db.instance
            position = db.position
        frame = {
            "frame": "snapshot",
            "generation": position["generation"],
            "rel_generations": position["rel_generations"],
            "instance": encode_relations(instance),
        }
        return frame, position["generation"]

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def stats(self) -> dict:
        """Ring state and per-replica lag, for the ``stats`` wire op."""
        with self._cond:
            top = self._top
            replicas = []
            for link in sorted(self._links.values(), key=lambda peer: peer.id):
                if link.sent_generation >= self._floor:
                    lag_bytes = sum(
                        size for g, _line, size in self._records if g > link.sent_generation
                    )
                else:  # pre-floor: at least the whole ring is missing
                    lag_bytes = self._bytes
                replicas.append(
                    {
                        "address": link.address,
                        "sent_generation": link.sent_generation,
                        "lag_generations": max(0, top - link.sent_generation),
                        "lag_bytes": lag_bytes,
                        "snapshots_sent": link.snapshots,
                        "connected_s": round(monotonic() - link.connected_at, 3),
                    }
                )
            return {
                "buffered_records": len(self._records),
                "buffered_bytes": self._bytes,
                "floor_generation": self._floor,
                "top_generation": top,
                "resets": self._resets,
                "replicas": replicas,
            }

    def close(self) -> None:
        """Unhook from the session and terminate every live stream."""
        self._db.remove_listener(self._on_event)
        with self._cond:
            self._closed = True
            self._records.clear()
            self._bytes = 0
            self._cond.notify_all()
