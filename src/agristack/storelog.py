"""Append-only record log with per-record checksums.

One log file per channel. Each record is a big-endian (length, crc32) header
followed by the payload bytes. Appends are flushed (and fsynced by default)
before the caller acknowledges anything built on them. Replay tolerates a
torn trailing record, which is discarded and physically truncated away; a
corrupt record anywhere else aborts recovery with its byte offset.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

_HEADER = struct.Struct(">II")
MAX_RECORD_BYTES = 1 << 20


class CorruptLogError(RuntimeError):
    def __init__(self, path: Path, offset: int, detail: str):
        super().__init__(f"{path}: corrupt record at offset {offset}: {detail}")
        self.path = path
        self.offset = offset


def fsync_directory(path: Path) -> None:
    """Make the entries of directory `path` durable: a file created or
    renamed there survives a power loss only once this returns."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class RecordLog:
    def __init__(self, path: str | Path, fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self._fh = None

    def _handle(self):
        if self._fh is None or self._fh.closed:
            created = not self.path.exists()
            self._fh = open(self.path, "ab")
            if created and self.fsync:
                fsync_directory(self.path.parent)
        return self._fh

    def append(self, payload: bytes) -> None:
        if len(payload) > MAX_RECORD_BYTES:
            raise ValueError(f"record of {len(payload)} bytes exceeds maximum")
        fh = self._handle()
        fh.write(_HEADER.pack(len(payload), zlib.crc32(payload)) + payload)
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def replay(self) -> list[bytes]:
        """Read all intact records; truncate a torn tail off the file."""
        self.close()
        if not self.path.exists():
            return []
        data = self.path.read_bytes()
        size = len(data)
        records: list[bytes] = []
        offset = 0
        while offset + _HEADER.size <= size:  # else a torn header at the tail
            length, crc = _HEADER.unpack_from(data, offset)
            if length > MAX_RECORD_BYTES:
                raise CorruptLogError(self.path, offset, f"record length {length}")
            start = offset + _HEADER.size
            end = start + length
            if end > size:
                break  # torn payload at tail
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                raise CorruptLogError(self.path, offset, "checksum mismatch")
            records.append(payload)
            offset = end
        if offset < size:
            with open(self.path, "r+b") as fh:
                fh.truncate(offset)
        return records
