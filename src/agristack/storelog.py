"""Append-only record log with per-record checksums.

One log file per channel. Each record is a big-endian (length, crc32) header
followed by the payload bytes. Appends are written (and fsynced by default)
before the caller acknowledges anything built on them; an append that fails
is cut back off the file before the error reaches the caller. Replay
tolerates a torn trailing record, which is discarded and physically truncated
away; a corrupt record anywhere else aborts recovery with its byte offset.
"""

from __future__ import annotations

import errno
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
    """One channel's log. `append` either makes its record the last one in
    the file, or raises and leaves the file ending where it did.

    The handle is unbuffered, so no bytes of a failed append wait in a
    buffer to be written later. A failed write or fsync is not retried:
    after a failed fsync the kernel may already have dropped the dirty pages
    (Rebello et al., "Can Applications Recover from fsync Failures?", USENIX
    ATC 2020), so the record is cut off and the error raised. If cutting it
    off fails too, the log refuses appends until `replay` reopens it.
    """

    def __init__(self, path: str | Path, fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self._fh = None
        self._end = 0           # where the last acknowledged record ends
        self._fenced = False

    def _handle(self):
        if self._fh is None or self._fh.closed:
            created = not self.path.exists()
            fh = open(self.path, "ab", buffering=0)
            if created and self.fsync:
                try:
                    fsync_directory(self.path.parent)
                except BaseException:
                    # the next append creates the file again and syncs that
                    fh.close()
                    self.path.unlink(missing_ok=True)
                    raise
            self._fh = fh
            self._end = fh.tell()   # append mode opens at the end
        return self._fh

    def append(self, payload: bytes) -> None:
        if len(payload) > MAX_RECORD_BYTES:
            raise ValueError(f"record of {len(payload)} bytes exceeds maximum")
        if self._fenced:
            raise OSError(errno.EIO, f"{self.path}: a failed append could not be"
                                     f" cut off; replay the log before appending")
        record = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        fh = self._handle()
        try:
            written = fh.write(record)
            if written != len(record):
                raise OSError(errno.EIO, f"{self.path}: short write, {written} of"
                                         f" {len(record)} bytes")
            if self.fsync:
                os.fsync(fh.fileno())
        except BaseException:
            self._cut_back()
            raise
        self._end += len(record)

    def _cut_back(self) -> None:
        """Truncate the file to the end of the last acknowledged record."""
        try:
            os.ftruncate(self._fh.fileno(), self._end)
            if self.fsync:
                os.fsync(self._fh.fileno())
        except OSError:
            self._fenced = True
            self.close()

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()

    def replay(self) -> list[bytes]:
        """Read all intact records; truncate a torn tail off the file.

        A record whose length runs past the end of the file is a torn tail
        only if no intact record starts after its header; otherwise its
        length is corrupt, and the records after it were acknowledged.
        """
        self.close()
        self._fenced = False
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
                follower = _next_record(data, start)
                if follower is not None:
                    raise CorruptLogError(
                        self.path, offset, f"record length {length} runs past the"
                        f" end of the file, but a record starts at offset {follower}")
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


def _next_record(data: bytes, start: int) -> int | None:
    """The offset of the first nonempty record at or after `start` whose
    checksum holds, or None. An empty record is not counted: its header is
    eight zero bytes, which a torn tail can hold."""
    size = len(data)
    for offset in range(start, size - _HEADER.size + 1):
        length, crc = _HEADER.unpack_from(data, offset)
        end = offset + _HEADER.size + length
        if 0 < length and end <= size and zlib.crc32(data[end - length:end]) == crc:
            return offset
    return None
