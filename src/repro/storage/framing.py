"""The checksummed frame both storage files are built from.

Each file starts with ``8s magic | u16 format version``; the rest is a
run of frames (all integers little-endian)::

    u32 payload length | payload bytes | u32 crc32(payload)

The write-ahead log holds one frame per record; a snapshot holds a
header frame and one frame per relation.  What a bad frame means
differs per file (a torn log tail is expected, a torn snapshot is rot),
so :func:`_read_frame` reports and the callers decide.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

_HEADER = struct.Struct("<8sH")
_U32 = struct.Struct("<I")


def _frame(payload: bytes) -> bytes:
    """``payload`` framed with its length and checksum."""
    return _U32.pack(len(payload)) + payload + _U32.pack(zlib.crc32(payload))


def _read_frame(blob: bytes, pos: int) -> tuple[bytes | None, int] | None:
    """The frame starting at ``pos`` as ``(payload, end)``.

    ``payload`` is ``None`` when the checksum fails; the whole result is
    ``None`` when the frame runs past the end of ``blob``.
    """
    if pos + _U32.size > len(blob):
        return None
    (length,) = _U32.unpack_from(blob, pos)
    end = pos + _U32.size + length + _U32.size
    if end > len(blob):
        return None
    payload = blob[pos + _U32.size : end - _U32.size]
    (crc,) = _U32.unpack_from(blob, end - _U32.size)
    return (payload if zlib.crc32(payload) == crc else None), end


def _fsync_dir(path: Path) -> None:
    """fsync the containing directory so renames/creates are durable."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # e.g. platforms without directory fds
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
