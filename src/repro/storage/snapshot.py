"""Versioned binary-framed snapshots of a session's durable state.

A snapshot captures everything recovery needs to rebuild a
:class:`~repro.session.Database` exactly: the instance's rows, the
total mutation counter (``generation``) and the per-relation generation
counters — so the result-cache keys a client computed before a restart
stay meaningful after it.

File layout (all integers little-endian)::

    8s  magic  b"REPROSNP"
    u16 format version
    u32 header length | header JSON | u32 crc32(header JSON)
    one frame per relation, in header order:
        u32 length | JSON row list | u32 crc32(payload)

The header JSON carries ``{"generation", "rel_gens", "relations":
[[name, n_rows], ...]}``; each relation frame is the JSON list of its
rows as :func:`repro.data.jsonio.encode_rows` writes them
(``"?x"`` = null ⊥x, ``"??x"`` = the constant ``"?x"``; rows sorted for
deterministic bytes), in the frames of :mod:`repro.storage.framing`.

Snapshots are written to a temporary sibling and published with
``os.replace`` + directory fsync, so a crash mid-write leaves the old
snapshot intact; every frame is checksummed, and a bad magic, a future
format version or a failed checksum raises :class:`SnapshotError`
instead of loading garbage.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import faults as _faults
from repro.data.instance import Instance
from repro.data.jsonio import decode_rows, encode_rows
from repro.storage.framing import _HEADER, _frame, _fsync_dir, _read_frame

__all__ = ["SnapshotError", "SnapshotState", "read_snapshot", "write_snapshot"]

MAGIC = b"REPROSNP"
FORMAT_VERSION = 1


class SnapshotError(Exception):
    """The snapshot cannot be loaded: foreign file, future version, rot."""


@dataclass(frozen=True)
class SnapshotState:
    """What a snapshot stores: the instance plus its generation counters."""

    instance: Instance
    generation: int = 0
    rel_gens: dict[str, int] = field(default_factory=dict)


def write_snapshot(
    path: str | os.PathLike,
    state: SnapshotState,
    *,
    fsync: bool = True,
    faults: "_faults.FaultRegistry | None" = None,
) -> int:
    """Atomically write ``state`` to ``path``; returns the byte size.

    The write goes to ``<path>.tmp`` first and is published with
    ``os.replace``, so readers (and a crash) only ever see either the
    previous complete snapshot or the new one.  A failed write leaves
    the previous snapshot untouched and removes the temporary file
    (best-effort), so a full disk does not accumulate half-snapshots.

    Failpoints: ``snapshot.write`` (errno, or ``torn-write`` — half the
    blob reaches the temporary file, which is then discarded),
    ``snapshot.replace`` (the publish itself), ``snapshot.dir_fsync``.
    """
    registry = _faults.coerce(faults)
    instance = state.instance
    frames: list[bytes] = []
    header_relations: list[list] = []
    for name in instance.relations:  # sorted; one relation encoded at a time
        rows = encode_rows(name, instance.tuples(name))
        payload = json.dumps(rows, separators=(",", ":")).encode("utf-8")
        frames.append(_frame(payload))
        header_relations.append([name, len(rows)])
    header = json.dumps(
        {
            "generation": state.generation,
            "rel_gens": dict(state.rel_gens),
            "relations": header_relations,
        },
        separators=(",", ":"),
    ).encode("utf-8")
    blob = _HEADER.pack(MAGIC, FORMAT_VERSION) + _frame(header) + b"".join(frames)

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        action = registry.fire("snapshot.write", tearable=True)
        with open(tmp, "wb") as handle:
            if action is not None:  # torn-write: half the blob lands
                handle.write(blob[: len(blob) // 2])
                handle.flush()
                raise OSError(
                    errno.EIO,
                    f"failpoint snapshot.write: injected torn write "
                    f"({len(blob) // 2} of {len(blob)} bytes flushed)",
                )
            handle.write(blob)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        registry.fire("snapshot.replace")
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass  # best-effort cleanup; the torn tmp is never published
        raise
    if fsync:
        registry.fire("snapshot.dir_fsync")
        _fsync_dir(path.parent)
    return len(blob)


def _checked_frame(blob: bytes, pos: int, path: Path, what: str) -> tuple[bytes, int]:
    frame = _read_frame(blob, pos)
    if frame is None:
        raise SnapshotError(f"{path}: truncated {what} frame at byte {pos}")
    if frame[0] is None:
        raise SnapshotError(f"{path}: checksum mismatch in {what} frame at byte {pos}")
    return frame


def read_snapshot(path: str | os.PathLike) -> SnapshotState:
    """Load and verify a snapshot; raises :class:`SnapshotError` on any rot.

    A missing file is *not* an error here — callers treat it as "no
    snapshot yet" — so only an existing-but-unreadable file raises.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise SnapshotError(f"{path}: file too short to be a snapshot")
    magic, version = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise SnapshotError(f"{path}: not a repro snapshot (bad magic {magic!r})")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"{path}: snapshot format version {version} is not supported "
            f"(this build reads version {FORMAT_VERSION}); refusing to guess"
        )
    header_bytes, pos = _checked_frame(blob, _HEADER.size, path, "header")
    try:
        header = json.loads(header_bytes)
    except ValueError as err:
        raise SnapshotError(f"{path}: undecodable header: {err}") from None
    relations: dict[str, list[tuple]] = {}
    for entry in header.get("relations", []):
        name, n_rows = entry
        payload, pos = _checked_frame(blob, pos, path, f"relation {name!r}")
        try:
            rows = decode_rows(name, json.loads(payload))
        except ValueError as err:
            raise SnapshotError(f"{path}: undecodable rows for {name!r}: {err}") from None
        if len(rows) != n_rows:
            raise SnapshotError(
                f"{path}: relation {name!r} has {len(rows)} rows, header says {n_rows}"
            )
        relations[name] = rows
    if pos != len(blob):
        raise SnapshotError(f"{path}: {len(blob) - pos} trailing bytes after the last frame")
    return SnapshotState(
        instance=Instance(relations),
        generation=int(header.get("generation", 0)),
        rel_gens={str(k): int(v) for k, v in header.get("rel_gens", {}).items()},
    )
