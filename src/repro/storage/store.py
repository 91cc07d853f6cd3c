"""One data directory = one durable session: snapshot + WAL + recovery.

:class:`Storage` owns a directory with two files::

    <data-dir>/snapshot.repro   latest checkpoint (atomic-replace published)
    <data-dir>/wal.repro        deltas acknowledged since that checkpoint

Recovery (:meth:`Storage.open`) is *load snapshot, replay the WAL
tail*: each replayed record re-applies its effective delta through
:meth:`~repro.data.instance.Instance.with_delta` and restores the exact
generation counters the session had when it acknowledged the write.  A
torn final record (crash mid-append) is ignored and truncated; records
the snapshot already contains (a crash between snapshot publish and log
truncate) are skipped by comparing generations — replay is idempotent.

Compaction (:meth:`checkpoint`) writes a fresh snapshot and truncates
the log; :meth:`should_compact` makes it size- and age-triggered
(``wal_max_bytes`` / ``wal_max_age_s``), checked by the session after
each acknowledged write.  The WAL doubles as a deterministic workload
trace: :meth:`Storage.trace` yields the decoded delta stream in
acknowledgement order, which the benchmark harness replays to measure
recovery cost against log length.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable, Iterator, Mapping

from repro import faults as _faults
from repro.data.instance import Instance
from repro.data.jsonio import decode_relations, encode_relations
from repro.storage.snapshot import SnapshotState, read_snapshot, write_snapshot
from repro.storage.wal import WriteAheadLog

__all__ = ["RecoveryInfo", "Storage", "encode_delta_record"]

SNAPSHOT_NAME = "snapshot.repro"
WAL_NAME = "wal.repro"


@dataclass(frozen=True)
class RecoveryInfo:
    """What :meth:`Storage.open` found and did (surfaced by ``repro recover``)."""

    #: generation stored in the snapshot (0 when no snapshot existed)
    snapshot_generation: int
    #: complete WAL records replayed on top of the snapshot
    wal_records: int
    #: WAL records skipped because the snapshot already contained them
    wal_skipped: int
    #: trailing bytes of a torn final record, ignored and truncated
    torn_bytes: int
    #: did a snapshot file exist at all?
    had_snapshot: bool


def encode_delta_record(
    changes: Mapping[str, tuple[frozenset, frozenset]],
    generation: int,
    rel_gens: Mapping[str, int],
) -> dict:
    """One effective delta as the WAL's wire-format record.

    ``changes`` is exactly what :meth:`Instance.with_delta` reported
    (effective adds/removes per touched relation); ``generation`` and
    ``rel_gens`` are the counters *after* the write, so replay restores
    them bit-identically.  The same record is journaled locally and
    shipped to replicas — one encoding, zero drift.
    """
    record: dict = {
        "g": generation,
        "rg": {name: rel_gens[name] for name in sorted(changes)},
    }
    adds = encode_relations({name: sides[0] for name, sides in changes.items() if sides[0]})
    removes = encode_relations({name: sides[1] for name, sides in changes.items() if sides[1]})
    if adds:
        record["adds"] = adds
    if removes:
        record["removes"] = removes
    return record


class Storage:
    """The persistence engine behind ``Database(path=...)``.

    Not a public entry point on its own — the session layer drives it —
    but usable directly for tooling (``repro recover`` does).  All
    methods that touch the session's counters take them as arguments:
    the session lock, not this class, serialises state transitions.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: bool = True,
        wal_max_bytes: int = 4 * 1024 * 1024,
        wal_max_age_s: float | None = None,
        faults: "_faults.FaultRegistry | None" = None,
    ):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.wal_max_bytes = wal_max_bytes
        self.wal_max_age_s = wal_max_age_s
        #: failpoint registry threaded into the WAL and snapshot writer
        #: (``None`` = the process-global one, armed via REPRO_FAILPOINTS)
        self.faults = _faults.coerce(faults)
        self.snapshot_path = self.path / SNAPSHOT_NAME
        self.wal = WriteAheadLog(self.path / WAL_NAME, fsync=fsync, faults=self.faults)
        self.recovery: RecoveryInfo | None = None
        self._snapshot_generation = 0

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def open(self) -> SnapshotState:
        """Recover the durable state: snapshot + WAL-tail replay.

        Returns the recovered :class:`SnapshotState` (instance +
        generation counters) and leaves the WAL positioned for
        appending with any torn tail truncated.  A fresh or empty data
        directory recovers to the empty instance at generation 0.
        """
        had_snapshot = self.snapshot_path.exists()
        if had_snapshot:
            state = read_snapshot(self.snapshot_path)
        else:
            state = SnapshotState(Instance.empty())
        records, torn = self.wal.replay()
        instance = state.instance
        generation = state.generation
        rel_gens = dict(state.rel_gens)
        replayed = skipped = 0
        for record in records:
            if record["g"] <= state.generation:
                # the snapshot was published after this record but the
                # crash hit before the log was truncated: already applied
                skipped += 1
                continue
            instance, _changes = instance.with_delta(
                decode_relations(record.get("adds") or {}),
                decode_relations(record.get("removes") or {}),
            )
            generation = record["g"]
            for name, gen in record.get("rg", {}).items():
                rel_gens[name] = gen
            replayed += 1
        self.wal.open_for_append()
        self.recovery = RecoveryInfo(
            snapshot_generation=state.generation,
            wal_records=replayed,
            wal_skipped=skipped,
            torn_bytes=torn,
            had_snapshot=had_snapshot,
        )
        self._snapshot_generation = state.generation
        return SnapshotState(instance, generation, rel_gens)

    def trace(self) -> Iterator[dict]:
        """The decoded WAL as a workload trace, in acknowledgement order.

        Yields ``{"generation", "adds", "removes"}`` per record with
        rows decoded to real cells — a deterministic mutation stream the
        benchmark harness replays against fresh sessions.
        """
        records, _torn = self.wal.replay()
        for record in records:
            yield {
                "generation": record["g"],
                "adds": decode_relations(record.get("adds") or {}),
                "removes": decode_relations(record.get("removes") or {}),
            }

    # ------------------------------------------------------------------
    # journaling
    # ------------------------------------------------------------------

    def append_record(self, record: dict) -> int:
        """Append an already-encoded record (see :func:`encode_delta_record`)."""
        return self.wal.append(record)

    def raw_records(self) -> list[dict]:
        """The wire-format records currently in the log, oldest first.

        Unlike :meth:`trace` this is safe on a **live** log: it re-reads
        the file without disturbing the append position (the replication
        feed seeds from it under the session lock).
        """
        return self.wal.buffered_records()

    def sync(self, upto: int) -> None:
        """Group-commit fsync up to ``upto`` (the durability point)."""
        self.wal.sync(upto)

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------

    def should_compact(self) -> bool:
        """Has the WAL outgrown its size or age budget?"""
        if self.wal.record_bytes == 0:
            return False
        if self.wal.record_bytes >= self.wal_max_bytes:
            return True
        return self.wal_max_age_s is not None and self.wal.age_seconds() >= self.wal_max_age_s

    def checkpoint(self, state: SnapshotState) -> bool:
        """Write a fresh snapshot of ``state`` and truncate the log.

        The caller must hold the session lock so ``state`` and the log
        cannot drift apart between the two steps.  Publishing is
        crash-ordered: the snapshot lands via atomic replace *before*
        the truncate, and replay skips WAL records the snapshot already
        covers — so a crash between the two steps double-applies
        nothing.  Returns ``False`` when the state is already fully
        snapshotted and the log is empty (nothing to do) — unless a
        failed append left the log's tail dirty, in which case the
        truncation must happen regardless.
        """
        if (
            self.wal.record_count == 0
            and not self.wal.dirty_tail
            and self._snapshot_generation == state.generation
        ):
            if self.snapshot_path.exists():
                return False
        write_snapshot(self.snapshot_path, state, fsync=self.fsync, faults=self.faults)
        self._snapshot_generation = state.generation
        self.wal.truncate()
        return True

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def stats(self) -> dict[str, Hashable]:
        """Counters for ``stats`` endpoints and tests."""
        return {
            "path": str(self.path),
            "fsync": self.fsync,
            "wal_bytes": self.wal.record_bytes,
            "wal_records": self.wal.record_count,
            "snapshot_generation": self._snapshot_generation,
            "snapshot_bytes": (
                self.snapshot_path.stat().st_size if self.snapshot_path.exists() else 0
            ),
        }

    def close(self) -> None:
        self.wal.close()
