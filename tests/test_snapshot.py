"""Snapshots of channel rows written by ChannelService.close.

Every start on a data dir must give what a replay of the whole log gives:
the same rows, or the same error. Most tests here recover a data dir twice,
once as it is and once from a copy without its snapshots, and compare.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import tempfile
import zlib
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agristack import service as service_module
from agristack import storelog
from agristack.wire import feeds_body
from agristack.service import (MAX_RESULTS, ChannelService, CorruptStateError,
                               _encode_entry, _field_object, _write_snapshot,
                               format_timestamp)
from agristack.storelog import CorruptLogError, RecordLog
from tests.conftest import FIELD_LABELS, WRITE_KEY
from tests.test_service import InjectedFaults
from tests.test_service import rows as page_rows

BASE = datetime(2024, 12, 15, 10, tzinfo=timezone.utc)
CHUNK = service_module._DECODE_CHUNK
SNAP = "channel_1.snap"
LOG = "channel_1.log"


def entry_at(i: int) -> tuple[datetime, dict[int, str]]:
    """The created_at and values of entry `i` in these tests."""
    return BASE + timedelta(seconds=10 * i), {1: f"{i}.5", 3: str(i % 7)}


def row(i: int) -> tuple[int, str, dict[str, str]]:
    """Entry `i` as a channel holds it: id, created_at text, "f" object."""
    at, values = entry_at(i)
    return i, format_timestamp(at), {str(k): v for k, v in values.items()}


def write(service: ChannelService, first: int, n: int) -> list[tuple]:
    """Write entries `first`.. `first + n - 1` to channel 1; their rows."""
    for i in range(first, first + n):
        at, values = entry_at(i)
        assert service.update(WRITE_KEY, values, at) == i
    return [row(i) for i in range(first, first + n)]


def new_service(data_dir: Path, n: int = 0, fsync: bool = False) -> tuple:
    """A service on a new data dir with one channel that holds `n` entries;
    and their rows."""
    service = ChannelService(data_dir=data_dir, fsync=fsync)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    return service, write(service, 1, n)


def drop(service: ChannelService) -> None:
    """Let `service` go as a killed process would: the handles of its logs
    close, and no snapshot is written."""
    for channel in service.channels():
        service._state(channel.id).log.close()


def rows(service: ChannelService, channel_id: int = 1) -> list[tuple]:
    page = service.read_feeds(channel_id, results=MAX_RESULTS)
    return page_rows(page)


def columns_of(rows: list[tuple]) -> tuple[list[str], dict[str, list]]:
    """`rows` as a channel keeps them: created_at texts, and a column of
    values or None for each field name any row has, in index order."""
    names = sorted({name for _, _, f in rows for name in f})
    return [t for _, t, _ in rows], {name: [f.get(name) for _, _, f in rows] for name in names}


def recovered(data_dir: Path):
    """What a start on `data_dir` gives: the rows of each channel, or the
    type of the error it raises and its text, with the dir's path masked.
    The service is then dropped, so the dir keeps the snapshots it had."""
    try:
        service = ChannelService(data_dir=data_dir, fsync=False)
    except (CorruptLogError, CorruptStateError) as exc:
        return type(exc), str(exc).replace(str(data_dir), "DIR")
    try:
        return {c.id: rows(service, c.id) for c in service.channels()}
    finally:
        drop(service)


def same_as_full_replay(data_dir: Path):
    """Recover `data_dir` and a copy of it without snapshots, made first;
    assert that both give the same, and return it."""
    bare = data_dir.with_name(data_dir.name + "-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(data_dir, bare, ignore=shutil.ignore_patterns("*.snap"))
    expected = recovered(bare)
    assert recovered(data_dir) == expected
    return expected


@pytest.fixture
def replayed(monkeypatch):
    """The number of records each RecordLog.replay call returns."""
    counts = []
    replay = RecordLog.replay

    def counting(self, *args, **kwargs):
        records = replay(self, *args, **kwargs)
        counts.append(len(records))
        return records

    monkeypatch.setattr(RecordLog, "replay", counting)
    return counts


def log_prefix(data_dir: Path) -> tuple[int, int]:
    """(length, crc32) of the whole log of channel 1."""
    log = RecordLog(data_dir / LOG, fsync=False)
    log.replay()
    return log.covered()


# -- the snapshot path ------------------------------------------------------


def test_a_clean_reopen_loads_the_snapshot_and_replays_no_record(tmp_path, replayed):
    service, expected = new_service(tmp_path, 2 * CHUNK + 3)
    service.close()
    snap = tmp_path / SNAP
    written = snap.read_bytes()
    revived = ChannelService(data_dir=tmp_path, fsync=False)
    assert replayed == [0]
    assert rows(revived) == expected
    assert revived.update(WRITE_KEY, {1: "1.0"}, entry_at(2 * CHUNK + 4)[0]) == 2 * CHUNK + 4
    drop(revived)
    again = ChannelService(data_dir=tmp_path, fsync=False)
    assert replayed[1:] == [1]              # only the record after the snapshot
    again.close()
    # the close snapshotted the grown log; a start that adds nothing does not
    assert snap.read_bytes() != written
    written = snap.read_bytes()
    ChannelService(data_dir=tmp_path, fsync=False).close()
    assert snap.read_bytes() == written
    assert replayed[2:] == [0]


def test_a_stale_snapshot_is_used_and_the_later_records_replayed(tmp_path, replayed):
    service, expected = new_service(tmp_path, CHUNK + 1)
    service.close()
    service = ChannelService(data_dir=tmp_path, fsync=False)
    expected += write(service, CHUNK + 2, 40)
    drop(service)
    replayed.clear()
    assert same_as_full_replay(tmp_path) == {1: expected}
    assert replayed == [len(expected), 40]    # the copy without, then with


def test_a_snapshot_followed_by_a_torn_tail(tmp_path):
    service, expected = new_service(tmp_path, 30)
    service.close()
    length = (tmp_path / LOG).stat().st_size
    at, values = entry_at(31)
    torn = _encode_entry(31, format_timestamp(at),
                         _field_object({1: values[1]}, set())[1])
    with open(tmp_path / LOG, "ab") as fh:
        fh.write(storelog._HEADER.pack(len(torn), 0) + torn[:9])
    assert same_as_full_replay(tmp_path) == {1: expected}
    assert (tmp_path / LOG).stat().st_size == length


def test_a_snapshot_longer_than_the_log_is_not_used(tmp_path, replayed):
    service, expected = new_service(tmp_path, 50)
    service.close()
    log = RecordLog(tmp_path / LOG, fsync=False)
    records = log.replay()
    (tmp_path / LOG).unlink()
    for payload in records[:20]:
        log.append(payload)
    log.close()
    replayed.clear()
    assert same_as_full_replay(tmp_path) == {1: expected[:20]}
    assert replayed == [20, 20]


@pytest.mark.parametrize("where", [0, 30, 200, 6000, -12, -3])
def test_a_snapshot_with_a_flipped_byte_is_not_used(tmp_path, replayed, where):
    service, expected = new_service(tmp_path, CHUNK + 10)
    service.close()
    data = bytearray((tmp_path / SNAP).read_bytes())
    data[where] ^= 0x01
    (tmp_path / SNAP).write_bytes(bytes(data))
    replayed.clear()
    assert same_as_full_replay(tmp_path) == {1: expected}
    assert replayed == [CHUNK + 10, CHUNK + 10]


def test_deleting_the_snapshot_loses_nothing(tmp_path):
    service, expected = new_service(tmp_path, 70)
    service.close()
    (tmp_path / SNAP).unlink()
    revived = ChannelService(data_dir=tmp_path, fsync=False)
    assert rows(revived) == expected
    revived.close()
    assert (tmp_path / SNAP).exists()       # the close wrote it again


# -- hand-built snapshots whose crcs hold ------------------------------------

# Each spoils the columns of entries 1..CHUNK + 10 in a way a replay refuses.

def _rows_back_in_time(times, columns):
    times[5], times[6] = times[6], times[5]


def _rows_value_not_a_string(times, columns):
    columns["1"][CHUNK + 2] = 2.5


def _rows_field_index_9(times, columns):
    columns["9"] = [None] * len(times)
    columns["9"][3], columns["1"][3] = columns["1"][3], None


def _column_shorter_than_its_chunk(times, columns):
    del columns["3"][-1]


@pytest.mark.parametrize("spoil", [_rows_back_in_time, _rows_value_not_a_string,
                                   _rows_field_index_9, _column_shorter_than_its_chunk])
def test_a_snapshot_whose_rows_a_replay_refuses_is_not_used(tmp_path, spoil):
    service, expected = new_service(tmp_path, CHUNK + 10)
    service.close()
    times, columns = columns_of(expected)
    spoil(times, columns)
    _write_snapshot(tmp_path / SNAP, *log_prefix(tmp_path), times, columns, fsync=False)
    assert same_as_full_replay(tmp_path) == {1: expected}


@pytest.mark.parametrize("spoil", [_rows_back_in_time, _rows_value_not_a_string,
                                   _rows_field_index_9])
def test_a_log_with_rows_a_replay_refuses_raises_with_a_snapshot_of_them(tmp_path, spoil):
    new_service(tmp_path)[0].close()
    times, columns = columns_of([row(i) for i in range(1, CHUNK + 11)])
    spoil(times, columns)
    log = RecordLog(tmp_path / LOG, fsync=False)
    for i, at in enumerate(times, start=1):
        f = {name: column[i - 1] for name, column in columns.items()
             if column[i - 1] is not None}
        log.append(json.dumps({"id": i, "at": at, "f": f}, separators=(",", ":")).encode())
    log.close()
    _write_snapshot(tmp_path / SNAP, *log_prefix(tmp_path), times, columns, fsync=False)
    kind, text = same_as_full_replay(tmp_path)
    assert kind is CorruptStateError and text.startswith("channel 1: entry ")


# -- columns ------------------------------------------------------------------


def test_a_column_first_written_after_a_chunk_boundary_round_trips(tmp_path, replayed):
    # field 2 is first written in the snapshot's second chunk, so its column
    # starts with CHUNK + 3 Nones; field 7 is not one the channel declares
    service, expected = new_service(tmp_path, CHUNK + 3)
    for i, values in enumerate([{2: "1.25", 1: "4.5"}, {7: "-3"}, {1: "0.5", 7: "8"}],
                               start=CHUNK + 4):
        at = entry_at(i)[0]
        assert service.update(WRITE_KEY, values, at) == i
        expected.append((i, format_timestamp(at), {str(k): v for k, v in values.items()}))
    expected += write(service, CHUNK + 7, 2)
    bodies = [feeds_body(service.read_feeds(1), only_field, {}) for only_field in (None, 2)]
    service.close()
    page = ChannelService(data_dir=tmp_path, fsync=False).read_feeds(1)
    assert replayed == [0]
    assert list(page.columns) == ["1", "2", "3", "7"]
    assert page.columns["2"][:CHUNK + 3] == [None] * (CHUNK + 3)
    assert [feeds_body(page, only_field, {}) for only_field in (None, 2)] == bodies
    assert same_as_full_replay(tmp_path) == {1: expected}


def write_format_1_snapshot(path: Path, length: int, crc: int, entries: list[tuple]) -> None:
    """A snapshot of `entries`, (id, created_at text, "f" object) each, in
    the first format: each chunk's "f" objects as one JSON array."""
    lines = [b"agristack-snapshot-1 %d %d %d\n" % (length, crc, len(entries))]
    for i in range(0, len(entries), CHUNK):
        chunk = entries[i:i + CHUNK]
        lines.append(" ".join(t for _, t, _ in chunk).encode() + b"\n")
        lines.append(json.dumps([f for _, _, f in chunk], separators=(",", ":")).encode()
                     + b"\n")
    body = b"".join(lines)
    path.write_bytes(body + b"%08x\n" % zlib.crc32(body))


def test_a_format_1_snapshot_is_replaced_after_a_full_replay(tmp_path, replayed):
    service, expected = new_service(tmp_path, CHUNK + 5)
    drop(service)
    write_format_1_snapshot(tmp_path / SNAP, *log_prefix(tmp_path), expected)
    replayed.clear()
    revived = ChannelService(data_dir=tmp_path, fsync=False)
    assert replayed == [CHUNK + 5]
    assert rows(revived) == expected
    revived.close()
    assert (tmp_path / SNAP).read_bytes().startswith(b"agristack-snapshot-2 ")
    again = ChannelService(data_dir=tmp_path, fsync=False)
    assert replayed[1:] == [0]
    assert rows(again) == expected
    drop(again)


# -- every refusal of a bad log holds with a snapshot present -----------------


# Each spoils the record of entry 6, which starts at `offset` and whose
# payload is `data[offset + 8:end]`, in a way a replay refuses.

def _record_checksum(data: bytearray, offset: int, end: int) -> None:
    data[offset + 12] ^= 0x01


def _record_length_past_the_end(data: bytearray, offset: int, end: int) -> None:
    storelog._HEADER.pack_into(data, offset, 1 << 19, 0)


def _rewrite(data: bytearray, offset: int, end: int, old: bytes, new: bytes) -> None:
    """Replace `old` in the payload by `new`, as long, under a valid crc."""
    payload = bytes(data[offset + 8:end]).replace(old, new)
    data[offset + 8:end] = payload
    storelog._HEADER.pack_into(data, offset, len(payload), zlib.crc32(payload))


def _record_value_not_a_string(data: bytearray, offset: int, end: int) -> None:
    _rewrite(data, offset, end, b'"1":"6.5"', b'"1":6.5  ')


def _record_goes_back(data: bytearray, offset: int, end: int) -> None:
    _rewrite(data, offset, end, format_timestamp(entry_at(6)[0]).encode(),
             b"2000-01-01T00:00:00Z")


@pytest.mark.parametrize("spoil", [_record_checksum, _record_length_past_the_end,
                                   _record_value_not_a_string, _record_goes_back])
@pytest.mark.parametrize("in_tail", [False, True], ids=["in-snapshot", "after-snapshot"])
def test_every_refusal_of_a_bad_log_holds_with_a_snapshot_present(tmp_path, spoil, in_tail):
    service, _ = new_service(tmp_path, 3 if in_tail else 12)
    service.close()
    if in_tail:
        service = ChannelService(data_dir=tmp_path, fsync=False)
        write(service, 4, 9)
        drop(service)
    assert (tmp_path / SNAP).exists()
    data = bytearray((tmp_path / LOG).read_bytes())
    offsets, offset = [], 0
    while offset < len(data):
        offsets.append(offset)
        offset += storelog._HEADER.size + storelog._HEADER.unpack_from(data, offset)[0]
    spoil(data, offsets[5], offsets[6])
    (tmp_path / LOG).write_bytes(bytes(data))
    kind, text = same_as_full_replay(tmp_path)
    if kind is CorruptLogError:
        assert text.startswith(f"DIR/{LOG}: corrupt record at offset {offsets[5]}: ")
    else:
        assert kind is CorruptStateError and text.startswith("channel 1: entry 6 ")


# -- faults ------------------------------------------------------------------


def close_under_faults(service, faults, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(storelog, "open", faults.open_file, raising=False)
        m.setattr(storelog, "os", faults)
        service.close()


def test_a_failed_snapshot_write_leaves_the_log_and_the_earlier_snapshot(
        tmp_path, monkeypatch, replayed):
    def scenario(data_dir, faults):
        service, expected = new_service(data_dir, CHUNK + 4, fsync=True)
        service.close()
        service = ChannelService(data_dir=data_dir, fsync=True)
        expected += write(service, CHUNK + 5, 20)
        close_under_faults(service, faults, monkeypatch)
        return expected

    clean = InjectedFaults()
    scenario(tmp_path / "clean", clean)
    # the file's writes, its flush and fsync, the rename, the directory's fsync
    assert clean.points == ["write"] * 4 + ["flush", "fsync", "rename", "fsync"]
    for n, point in enumerate(clean.points, start=1):
        data_dir = tmp_path / str(n)
        expected = scenario(data_dir, InjectedFaults(n))
        # no temporary file is left
        assert sorted(p.name for p in data_dir.iterdir()) == [
            LOG, SNAP, "channels.json"], point
        assert same_as_full_replay(data_dir) == {1: expected}, point
        # the earlier snapshot is in place, or the new one if the rename held
        assert replayed[-1] == (0 if n == len(clean.points) else 20), point


def test_close_closes_every_log_when_a_snapshot_write_fails(tmp_path, monkeypatch,
                                                            caplog):
    service, _ = new_service(tmp_path, 5, fsync=True)
    service.create_channel("d", FIELD_LABELS, write_key="TESTWRITEKEY0002", rate_limit_s=0.0)
    assert service.update("TESTWRITEKEY0002", {1: "1.0"}) == 1
    close_under_faults(service, InjectedFaults(1), monkeypatch)
    assert all(service._state(c.id).log._fh.closed for c in service.channels())
    assert "channel 1: snapshot not written: " in caplog.text
    assert not (tmp_path / SNAP).exists()
    assert (tmp_path / "channel_2.snap").exists()


# written by close before storelog.replace_file wrote snapshots (commit 24d2c39)
PINNED_SNAPSHOT = Path(__file__).with_name("golden") / SNAP


def test_a_snapshot_keeps_its_pinned_bytes(tmp_path):
    """Two chunks of entries, and a column, field 2's, that entry 2 starts."""
    service, _ = new_service(tmp_path)
    for i in range(1, 301):
        at, values = entry_at(i)
        if i > 1:
            values[2] = f"-{i}"
        assert service.update(WRITE_KEY, values, at) == i
    service.close()
    assert (tmp_path / SNAP).read_bytes() == PINNED_SNAPSHOT.read_bytes()


def test_a_fenced_log_gets_no_snapshot(tmp_path, monkeypatch):
    service, expected = new_service(tmp_path, 3, fsync=True)

    class BrokenOs:
        def fsync(self, fd):
            raise OSError(errno.EIO, "injected fsync failure")

        def ftruncate(self, fd, length):
            raise OSError(errno.EIO, "injected truncate failure")

        def __getattr__(self, name):
            return getattr(os, name)

    with monkeypatch.context() as m:
        m.setattr(storelog, "os", BrokenOs())
        with pytest.raises(OSError, match="injected fsync failure"):
            write(service, 4, 1)
    assert service._state(1).log.covered() is None
    service.close()
    assert not (tmp_path / SNAP).exists()
    # the record whose fsync failed reached the file, so a start keeps it
    assert same_as_full_replay(tmp_path) == {1: expected + [row(4)]}


# -- a model of writes, closes, kills and torn tails ---------------------------


sessions = st.lists(st.tuples(st.integers(0, 2 * CHUNK + 2),     # entries written
                              st.booleans(),                     # closed, or killed
                              st.integers(0, 40)),               # torn bytes after
                    min_size=1, max_size=5)


@settings(max_examples=25, deadline=None)
@given(sessions=sessions)
def test_reopened_rows_match_the_model_with_and_without_snapshots(sessions):
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "d"
        service, model = new_service(data_dir)
        for n, closed, torn in sessions:
            model += write(service, len(model) + 1, n)
            if closed:
                service.close()
            else:
                drop(service)
            if torn:
                at, values = entry_at(len(model) + 1)
                payload = _encode_entry(len(model) + 1, format_timestamp(at),
                                        _field_object({1: values[1]}, set())[1])
                with open(data_dir / LOG, "ab") as fh:
                    fh.write((storelog._HEADER.pack(len(payload), 0) + payload)[:torn])
            assert same_as_full_replay(data_dir) == {1: model}
            service = ChannelService(data_dir=data_dir, fsync=False)
            assert rows(service) == model
        service.close()
