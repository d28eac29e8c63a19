"""Append-only record log with per-record checksums.

One log file per channel. Each record is a big-endian (length, crc32) header
followed by the payload bytes. Appends are written (and fsynced by default)
before the caller acknowledges anything built on them; an append that fails
is cut back off the file before the error reaches the caller. Replay
tolerates a torn trailing record, which is discarded and physically truncated
away; a corrupt record anywhere else aborts recovery with its byte offset.
Replay can start after a prefix of the file that the caller has checked
against a crc32 it kept (see `covered`), and read only the records after it.
Every fsync, rename and truncation of a data dir is made in this module; a
whole file, such as the registry or a snapshot, is written by `replace_file`.
"""

from __future__ import annotations

import errno
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable

_HEADER = struct.Struct(">II")
MAX_RECORD_BYTES = 1 << 20
_CRC_BLOCK = 1 << 20    # prefix_crc reads this much at a time


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


def replace_file(path: Path, chunks: Iterable[bytes], fsync: bool) -> None:
    """Make `path` hold the bytes of `chunks`, all or nothing: write them to
    `path.name + ".tmp"` and rename that over `path`; with `fsync`, make the
    file and then the rename durable. On any failure the temporary file is
    removed, and `path` holds its old bytes, or the new ones once renamed."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if fsync:
        fsync_directory(path.parent)


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
        self._crc = 0           # crc32 of the bytes before _end; None if unknown
        self._fenced = False

    def _open(self):
        """Open the file for appends, creating it if need be."""
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
        end = fh.tell()     # append mode opens at the end
        if end != self._end:    # bytes this object neither read nor wrote
            self._end, self._crc = end, None
        return fh

    def append(self, payload: bytes) -> None:
        if len(payload) > MAX_RECORD_BYTES:
            raise ValueError(f"record of {len(payload)} bytes exceeds maximum")
        if self._fenced:
            raise OSError(errno.EIO, f"{self.path}: a failed append could not be"
                                     f" cut off; replay the log before appending")
        record = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        fh = self._fh
        if fh is None or fh.closed:
            fh = self._open()
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
        if self._crc is not None:
            self._crc = zlib.crc32(record, self._crc)

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

    def covered(self) -> tuple[int, int] | None:
        """(length, crc32) of the file's first bytes as this object read them
        in `replay` and wrote them in `append`: the bytes of every record
        acknowledged so far. None if it cannot vouch for them: after a failed
        cut-back, or when it appended to bytes it did not replay."""
        if self._fenced or self._crc is None:
            return None
        return self._end, self._crc

    def prefix_crc(self, length: int) -> int | None:
        """The crc32 of the file's first `length` bytes, read 1 MiB at a time;
        None if the file is shorter or missing."""
        crc = 0
        try:
            with open(self.path, "rb") as fh:
                while length > 0:
                    block = fh.read(min(length, _CRC_BLOCK))
                    if not block:
                        return None
                    crc = zlib.crc32(block, crc)
                    length -= len(block)
        except FileNotFoundError:
            return None
        return crc

    def replay(self, start: int = 0, crc: int = 0) -> list[bytes]:
        """Read the intact records after the file's first `start` bytes, a
        prefix that ends at a record boundary and whose crc32, checked by the
        caller, is `crc`; truncate a torn tail off the file.

        A record whose length runs past the end of the file is a torn tail
        only if no intact record starts after its header; otherwise its
        length is corrupt, and the records after it were acknowledged.
        """
        self.close()
        self._fenced = False
        self._end, self._crc = 0, 0
        if not self.path.exists():
            return []
        with open(self.path, "rb") as fh:
            fh.seek(start)
            data = fh.read()
        size = len(data)
        records: list[bytes] = []
        offset = 0
        while offset + _HEADER.size <= size:  # else a torn header at the tail
            length, record_crc = _HEADER.unpack_from(data, offset)
            if length > MAX_RECORD_BYTES:
                raise CorruptLogError(self.path, start + offset, f"record length {length}")
            body = offset + _HEADER.size
            end = body + length
            if end > size:
                follower = _next_record(data, body)
                if follower is not None:
                    raise CorruptLogError(
                        self.path, start + offset, f"record length {length} runs past"
                        f" the end of the file, but a record starts at offset"
                        f" {start + follower}")
                break  # torn payload at tail
            payload = data[body:end]
            if zlib.crc32(payload) != record_crc:
                raise CorruptLogError(self.path, start + offset, "checksum mismatch")
            records.append(payload)
            offset = end
        if offset < size:
            with open(self.path, "r+b") as fh:
                fh.truncate(start + offset)
        self._end = start + offset
        self._crc = zlib.crc32(memoryview(data)[:offset], crc)
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
