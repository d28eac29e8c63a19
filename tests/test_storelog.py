from __future__ import annotations

import ast
import errno
import os
import stat
import struct
import zlib
from pathlib import Path

import pytest

from agristack import storelog
from agristack.storelog import CorruptLogError, RecordLog


def make_log(tmp_path, payloads, fsync=False):
    log = RecordLog(tmp_path / "chan.log", fsync=fsync)
    for payload in payloads:
        log.append(payload)
    log.close()
    return log


def test_replay_returns_appended_records(tmp_path):
    payloads = [f"record-{i}".encode() for i in range(10)]
    log = make_log(tmp_path, payloads)
    assert log.replay() == payloads


def test_empty_and_missing_files_replay_empty(tmp_path):
    log = RecordLog(tmp_path / "nothing.log")
    assert log.replay() == []
    (tmp_path / "empty.log").write_bytes(b"")
    assert RecordLog(tmp_path / "empty.log").replay() == []


def test_torn_trailing_record_is_discarded_and_truncated(tmp_path):
    payloads = [f"record-{i}".encode() for i in range(10)]
    log = make_log(tmp_path, payloads)
    data = log.path.read_bytes()
    log.path.write_bytes(data[:-4])  # rip bytes off the final record
    assert log.replay() == payloads[:-1]
    # file physically truncated back to the last good record
    fresh = RecordLog(log.path, fsync=False)
    assert fresh.replay() == payloads[:-1]


def test_torn_header_is_discarded(tmp_path):
    payloads = [b"alpha", b"beta"]
    log = make_log(tmp_path, payloads)
    with open(log.path, "ab") as fh:
        fh.write(struct.pack(">I", 5))  # half a header, no crc
    assert log.replay() == payloads


def test_append_after_torn_tail_recovery(tmp_path):
    log = make_log(tmp_path, [b"one", b"two"])
    data = log.path.read_bytes()
    log.path.write_bytes(data + b"\x00\x00")
    assert log.replay() == [b"one", b"two"]
    log.append(b"three")
    log.close()
    assert RecordLog(log.path, fsync=False).replay() == [b"one", b"two", b"three"]


def test_corrupt_interior_record_refuses_with_offset(tmp_path):
    payloads = [b"a" * 20, b"b" * 20, b"c" * 20]
    log = make_log(tmp_path, payloads)
    raw = bytearray(log.path.read_bytes())
    # flip one payload byte of the middle record (header is 8 bytes)
    middle_offset = 8 + 20
    raw[middle_offset + 8 + 3] ^= 0xFF
    log.path.write_bytes(bytes(raw))
    with pytest.raises(CorruptLogError) as err:
        log.replay()
    assert err.value.offset == middle_offset


def test_tail_torn_at_every_byte_of_the_last_record(tmp_path):
    payloads = [b"alpha", b"bravo-charlie", b"delta-echo-foxtrot"]
    log = make_log(tmp_path, payloads)
    data = log.path.read_bytes()
    good_end = len(data) - 8 - len(payloads[-1])
    for cut in range(good_end, len(data)):  # header and payload alike
        log.path.write_bytes(data[:cut])
        assert log.replay() == payloads[:2]
        assert log.path.stat().st_size == good_end


def test_zero_filled_torn_tail_is_still_a_torn_tail(tmp_path):
    # a file system may extend a file with zeros that were never written;
    # eight of them read as an empty record whose checksum holds
    log = make_log(tmp_path, [b"alpha", b"bravo-charlie-delta-echo"])
    data = log.path.read_bytes()
    good_end = 8 + len(b"alpha")
    log.path.write_bytes(data[:good_end + 8 + 2] + bytes(10))
    assert log.replay() == [b"alpha"]
    assert log.path.stat().st_size == good_end


@pytest.mark.parametrize("length, crc_flip, detail", [
    ((1 << 20) + 1, 0, "record length"),
    (21, 0, "checksum mismatch"),      # runs into the next header
    (19, 0, "checksum mismatch"),      # stops short of its payload
    (20, 1, "checksum mismatch"),      # one bit of the crc flipped
    # past the end of the file, like a torn tail, but a record follows
    (1000, 0, "runs past the end of the file, but a record starts at offset 56"),
], ids=["over-maximum", "one-long", "one-short", "crc", "past-the-end"])
def test_bad_length_or_crc_in_the_middle_record_reports_its_offset(
        tmp_path, length, crc_flip, detail):
    payloads = [b"a" * 20, b"b" * 20, b"c" * 20]
    log = make_log(tmp_path, payloads)
    raw = bytearray(log.path.read_bytes())
    middle_offset = 8 + 20
    _, crc = struct.unpack_from(">II", raw, middle_offset)
    struct.pack_into(">II", raw, middle_offset, length, crc ^ crc_flip)
    log.path.write_bytes(bytes(raw))
    with pytest.raises(CorruptLogError, match=detail) as err:
        log.replay()
    assert err.value.offset == middle_offset
    assert log.path.read_bytes() == raw  # nothing truncated


def test_absurd_length_reports_corruption(tmp_path):
    log = RecordLog(tmp_path / "chan.log", fsync=False)
    log.append(b"fine")
    log.close()
    with open(log.path, "ab") as fh:
        fh.write(struct.pack(">II", 1 << 30, 0))
        fh.write(b"xxxx")
    with pytest.raises(CorruptLogError):
        log.replay()


def test_oversized_record_rejected_on_append(tmp_path):
    log = RecordLog(tmp_path / "chan.log", fsync=False)
    with pytest.raises(ValueError):
        log.append(b"x" * ((1 << 20) + 1))


def _record_fsyncs(monkeypatch):
    """Replace os.fsync with a recorder of whether each fd is a directory."""
    calls = []
    monkeypatch.setattr(os, "fsync",
                        lambda fd: calls.append(stat.S_ISDIR(os.fstat(fd).st_mode)))
    return calls


def test_creating_the_log_fsyncs_its_directory_once(tmp_path, monkeypatch):
    calls = _record_fsyncs(monkeypatch)
    log = RecordLog(tmp_path / "chan.log", fsync=True)
    log.append(b"one")
    log.append(b"two")
    log.close()
    log.append(b"three")  # reopens the existing file
    log.close()
    # the directory entry of the new file before the first record is synced
    assert calls == [True, False, False, False]


def test_log_without_fsync_makes_no_fsync_call(tmp_path, monkeypatch):
    calls = _record_fsyncs(monkeypatch)
    make_log(tmp_path, [b"one", b"two"], fsync=False)
    assert calls == []


def test_log_refuses_appends_when_a_failed_append_cannot_be_cut_off(tmp_path, monkeypatch):
    log = RecordLog(tmp_path / "chan.log", fsync=True)
    log.append(b"one")

    class BrokenOs:
        def fsync(self, fd):
            raise OSError(errno.EIO, "injected fsync failure")

        def ftruncate(self, fd, length):
            raise OSError(errno.EIO, "injected truncate failure")

        def __getattr__(self, name):
            return getattr(os, name)

    monkeypatch.setattr(storelog, "os", BrokenOs())
    with pytest.raises(OSError, match="injected fsync failure"):
        log.append(b"two")
    monkeypatch.setattr(storelog, "os", os)
    size = log.path.stat().st_size
    with pytest.raises(OSError, match="replay the log"):
        log.append(b"three")
    assert log.path.stat().st_size == size  # nothing written
    # "two" was written in full, so a reopen keeps it
    assert log.replay() == [b"one", b"two"]
    log.append(b"three")
    log.close()
    assert RecordLog(log.path).replay() == [b"one", b"two", b"three"]


# -- replay after a checked prefix ----------------------------------------------

RECORD = 8 + len(b"record-0")       # each record of `ten_records`


def ten_records(tmp_path):
    payloads = [f"record-{i}".encode() for i in range(10)]
    return make_log(tmp_path, payloads), payloads


def test_replay_after_a_checked_prefix_reads_only_the_records_after_it(tmp_path):
    log, payloads = ten_records(tmp_path)
    data = log.path.read_bytes()
    assert log.prefix_crc(4 * RECORD) == zlib.crc32(data[:4 * RECORD])
    assert log.prefix_crc(len(data)) == zlib.crc32(data)
    assert log.prefix_crc(len(data) + 1) is None
    assert RecordLog(tmp_path / "missing.log").prefix_crc(0) is None
    assert log.replay(4 * RECORD, zlib.crc32(data[:4 * RECORD])) == payloads[4:]
    assert log.covered() == (len(data), zlib.crc32(data))
    assert log.replay(len(data), zlib.crc32(data)) == []
    assert log.covered() == (len(data), zlib.crc32(data))


def test_replay_after_a_prefix_refuses_and_truncates_at_file_offsets(tmp_path):
    log, payloads = ten_records(tmp_path)
    data = log.path.read_bytes()
    start, crc = 4 * RECORD, zlib.crc32(data[:4 * RECORD])
    flipped = bytearray(data)
    flipped[7 * RECORD + 9] ^= 0xFF
    log.path.write_bytes(bytes(flipped))
    with pytest.raises(CorruptLogError) as err:
        log.replay(start, crc)
    assert err.value.offset == 7 * RECORD
    log.path.write_bytes(data[:-3])
    assert log.replay(start, crc) == payloads[4:9]
    assert log.path.read_bytes() == data[:9 * RECORD]
    assert log.covered() == (9 * RECORD, zlib.crc32(data[:9 * RECORD]))


def test_covered_vouches_only_for_bytes_the_log_read_or_wrote(tmp_path):
    log = make_log(tmp_path, [b"one", b"two"])
    data = log.path.read_bytes()
    assert log.covered() == (len(data), zlib.crc32(data))
    other = RecordLog(log.path, fsync=False)
    other.append(b"three")              # after bytes it did not replay
    other.close()
    assert other.covered() is None
    assert other.replay() == [b"one", b"two", b"three"]
    other.append(b"four")
    other.close()
    data = log.path.read_bytes()
    assert other.covered() == (len(data), zlib.crc32(data))


# what makes a data dir's files and renames durable, or cuts a log back
_DURABILITY_CALLS = {"os.fsync", "os.replace", "os.ftruncate", "fsync_directory",
                     "storelog.fsync_directory"}


def _durability_calls(source: str) -> set[str]:
    """The names of _DURABILITY_CALLS that `source` calls or imports from os."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found.update(f"os.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            found.add(node.func.id)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name)):
            found.add(f"{node.func.value.id}.{node.func.attr}")
    return found & _DURABILITY_CALLS


def test_only_storelog_syncs_renames_or_truncates():
    """Every fsync, rename and truncation of a data dir is made in storelog,
    the one module the fault tests patch."""
    own = Path(storelog.__file__)
    assert _durability_calls(own.read_text(encoding="utf-8")) == {
        "os.fsync", "os.replace", "os.ftruncate", "fsync_directory"}
    found = {str(path.relative_to(own.parent)): calls
             for path in sorted(own.parent.rglob("*.py")) if path != own
             if (calls := _durability_calls(path.read_text(encoding="utf-8")))}
    assert found == {}
