"""Durable serving: snapshot + write-ahead-log persistence for sessions.

``Database(path="...")`` turns a memory-only session into a durable
one.  The division of labour:

* :mod:`repro.storage.framing` — the checksummed frame both files are
  built from;
* :mod:`repro.storage.snapshot` — the versioned, checksummed,
  binary-framed snapshot of (instance rows + generation counters),
  published by atomic replace;
* :mod:`repro.storage.wal` — the append-only write-ahead log of
  effective deltas, group-commit fsync'd, torn-tail tolerant;
* :mod:`repro.storage.store` — :class:`Storage`, the engine tying the
  two together: recovery = latest snapshot + WAL-tail replay, plus
  size/age-triggered compaction.

The durability contract, in one sentence: **a mutation acknowledged by
a durable session survives** ``kill -9`` **and recovers bit-identically
(rows and generation counters)**; unacknowledged writes may or may not
survive, but never partially.  See ``docs/persistence.md`` for the file
formats and the crash-ordering argument.

>>> import tempfile
>>> from repro.session import Database
>>> with tempfile.TemporaryDirectory() as d:
...     db = Database(path=d)
...     _ = db.insert("R", (1, 2))
...     db.close()
...     Database(path=d).instance.tuples("R")
frozenset({(1, 2)})
"""

from repro.storage.snapshot import SnapshotError, SnapshotState, read_snapshot, write_snapshot
from repro.storage.store import RecoveryInfo, Storage
from repro.storage.wal import WalError, WriteAheadLog

__all__ = [
    "RecoveryInfo",
    "SnapshotError",
    "SnapshotState",
    "Storage",
    "WalError",
    "WriteAheadLog",
    "read_snapshot",
    "write_snapshot",
]
