from __future__ import annotations

import errno
import json
import math
import os
import shutil
import stat
import sys
import tempfile
import threading
import time
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agristack import storelog
from agristack import service as service_module
from agristack.wire import feed_doc, feeds_body
from agristack.service import (MAX_FIELDS, MAX_RESULTS, AuthError, BadRequestError,
                               Channel, ChannelService, CorruptStateError,
                               FeedEntry, FeedPage, UnknownChannelError, _check_order,
                               _decode_entries, _encode_entry, format_timestamp,
                               parse_timestamp)
from agristack.storelog import RecordLog
from tests.conftest import FIELD_LABELS, WRITE_KEY
from tests.test_httpd import reference_feeds_body

T = lambda s: parse_timestamp(s)  # noqa: E731


def feeds(page) -> list[dict]:
    """The entries of `page` as a feed body lists them."""
    return feed_doc(page)["feeds"]


def rows(page) -> list[tuple[int, str, dict[str, str]]]:
    """Each entry of `page`: its id, created_at text and "f" object, the
    values it has by field name."""
    return [(i, page.times[i - 1], {name: column[i - 1] for name, column in page.columns.items()
                                    if column[i - 1] is not None})
            for i in page.ids]


def rows_of(entries) -> list[tuple[int, str, dict[str, str]]]:
    """`rows` of FeedEntry values."""
    return [(e.entry_id, format_timestamp(e.created_at),
             {str(k): v for k, v in e.fields.items()}) for e in entries]


def test_first_write_gets_entry_id_one(memory_service):
    assert memory_service.update(WRITE_KEY, {1: "22.04"}) == 1
    assert memory_service.update(WRITE_KEY, {1: "22.10"}) == 2


def test_wrong_key_rejected_and_nothing_persisted(memory_service):
    with pytest.raises(AuthError):
        memory_service.update("WRONGKEY00000000", {1: "22.04"})
    assert rows(memory_service.read_feeds(1)) == []


def test_rate_limit_returns_zero(clock):
    service = ChannelService(clock=clock)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=15.0)
    assert service.update(WRITE_KEY, {1: "1.0"}) == 1
    clock.advance(5.0)
    assert service.update(WRITE_KEY, {1: "2.0"}) == 0
    clock.advance(10.0)  # 15 s since the accepted write
    assert service.update(WRITE_KEY, {1: "3.0"}) == 2


def test_rate_limited_write_not_persisted(clock):
    service = ChannelService(clock=clock)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=15.0)
    service.update(WRITE_KEY, {1: "1.0"})
    clock.advance(1.0)
    service.update(WRITE_KEY, {1: "2.0"})
    assert [d["field1"] for d in feeds(service.read_feeds(1))] == ["1.0"]


def test_accepted_writes_spaced_at_least_interval(clock):
    service = ChannelService(clock=clock)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=15.0)
    accepted_at = []
    for _ in range(100):
        if service.update(WRITE_KEY, {1: "1"}) != 0:
            accepted_at.append(clock.now)
        clock.advance(4.0)
    gaps = [(b - a).total_seconds() for a, b in zip(accepted_at, accepted_at[1:])]
    assert all(gap >= 15.0 for gap in gaps)


def test_empty_fields_rejected(memory_service):
    with pytest.raises(BadRequestError):
        memory_service.update(WRITE_KEY, {})


def test_malformed_field_values_rejected(memory_service):
    for bad in ("abc", "1.2.3", "nan", "inf", ""):
        with pytest.raises(BadRequestError):
            memory_service.update(WRITE_KEY, {1: bad})
    with pytest.raises(BadRequestError):
        memory_service.update(WRITE_KEY, {9: "1.0"})


def test_field_values_stored_verbatim(memory_service):
    memory_service.update(WRITE_KEY, {1: "22.04", 3: "030.50", 4: "1"})
    [(_, _, fields)] = rows(memory_service.read_feeds(1))
    assert fields == {"1": "22.04", "3": "030.50", "4": "1"}


def test_created_at_defaults_to_service_clock(memory_service, clock):
    memory_service.update(WRITE_KEY, {1: "1.0"})
    [entry] = feeds(memory_service.read_feeds(1))
    assert parse_timestamp(entry["created_at"]) == clock.now


def test_rate_limit_holds_for_writes_that_carry_created_at(tmp_path, clock):
    # the service clock, not created_at, paces a rate-limited channel
    service = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=15.0)
    assert service.update(WRITE_KEY, {1: "1.0"}, created_at=T("2024-12-15T09:00:00Z")) == 1
    clock.advance(5.0)
    assert service.update(WRITE_KEY, {1: "2.0"}, created_at=T("2024-12-15T09:00:10Z")) == 0
    service.close()
    assert len(RecordLog(tmp_path / "channel_1.log", fsync=False).replay()) == 1
    assert [d["field1"] for d in feeds(service.read_feeds(1))] == ["1.0"]


def test_out_of_order_created_at_rejected(memory_service):
    memory_service.update(WRITE_KEY, {1: "1"}, created_at=T("2024-12-15T10:00:10Z"))
    with pytest.raises(BadRequestError):
        memory_service.update(WRITE_KEY, {1: "2"}, created_at=T("2024-12-15T10:00:05Z"))


def test_read_feeds_last_n_ascending(memory_service):
    for i in range(5):
        memory_service.update(WRITE_KEY, {1: f"{i}.0"},
                              created_at=T(f"2024-12-15T10:00:0{i}Z"))
    page = memory_service.read_feeds(1, results=3)
    assert [d["entry_id"] for d in feeds(page)] == [3, 4, 5]


def test_read_feeds_results_zero(memory_service):
    memory_service.update(WRITE_KEY, {1: "1.0"})
    page = memory_service.read_feeds(1, results=0)
    assert rows(page) == []
    assert page.channel.name == "field-station"


def test_read_feeds_window(memory_service):
    for i in range(5):
        memory_service.update(WRITE_KEY, {1: f"{i}.0"},
                              created_at=T(f"2024-12-15T10:00:0{i}Z"))
    page = memory_service.read_feeds(1, start=T("2024-12-15T10:00:01Z"),
                                     end=T("2024-12-15T10:00:03Z"))
    assert [d["entry_id"] for d in feeds(page)] == [2, 3, 4]
    empty = memory_service.read_feeds(1, start=T("2024-12-15T11:00:00Z"),
                                      end=T("2024-12-15T12:00:00Z"))
    assert rows(empty) == []


def test_window_bounds_with_a_fraction_of_a_second(memory_service):
    # entries are stored to the second; a bound between two seconds keeps
    # the entries on its side of it
    for i in range(5):
        memory_service.update(WRITE_KEY, {1: f"{i}.0"},
                              created_at=T(f"2024-12-15T10:00:0{i}Z"))
    half = timedelta(milliseconds=500)
    page = memory_service.read_feeds(1, start=T("2024-12-15T10:00:01Z") + half,
                                     end=T("2024-12-15T10:00:03Z") + half)
    assert [d["entry_id"] for d in feeds(page)] == [3, 4]


def test_unknown_channel(memory_service):
    with pytest.raises(UnknownChannelError):
        memory_service.read_feeds(42)


def test_private_channel_requires_read_key(clock):
    service = ChannelService(clock=clock)
    service.create_channel("private", FIELD_LABELS, write_key=WRITE_KEY,
                           read_key="READKEY123456789", rate_limit_s=0.0)
    service.update(WRITE_KEY, {1: "1.0"})
    with pytest.raises(AuthError):
        service.read_feeds(1)
    page = service.read_feeds(1, read_key="READKEY123456789")
    assert len(feeds(page)) == 1


def test_read_your_writes(memory_service):
    entry_id = memory_service.update(WRITE_KEY, {2: "1013.05"})
    page = memory_service.read_feeds(1)
    assert feeds(page)[-1]["entry_id"] == entry_id
    assert feeds(page)[-1]["field2"] == "1013.05"


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(0, "x", WRITE_KEY, {1: "T"})
    with pytest.raises(ValueError):
        Channel(1, "x", "short", {1: "T"})
    with pytest.raises(ValueError):
        Channel(1, "x", WRITE_KEY, {1: "T"}, read_key=WRITE_KEY)
    with pytest.raises(ValueError):
        Channel(1, "x", WRITE_KEY, {9: "T"})


def test_duplicate_write_key_rejected(memory_service):
    with pytest.raises(ValueError):
        memory_service.create_channel("other", FIELD_LABELS, write_key=WRITE_KEY)


# ---------------------------------------------------------------------------
# persistence


def test_recovery_restores_entries_and_next_id(tmp_path, clock):
    service = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    for i in range(10):
        service.update(WRITE_KEY, {1: f"{i}.5"})
    service.close()

    revived = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    page = revived.read_feeds(1)
    assert [d["entry_id"] for d in feeds(page)] == list(range(1, 11))
    assert [d["field1"] for d in feeds(page)] == [f"{i}.5" for i in range(10)]
    assert revived.update(WRITE_KEY, {1: "10.5"}) == 11
    revived.close()


def test_recovery_discards_torn_final_record(tmp_path, clock):
    service = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    for i in range(10):
        service.update(WRITE_KEY, {1: f"{i}.5"})
    service.close()

    log_path = tmp_path / "channel_1.log"
    raw = log_path.read_bytes()
    log_path.write_bytes(raw[: len(raw) - 7])  # half-written final record

    revived = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    page = revived.read_feeds(1)
    assert [d["entry_id"] for d in feeds(page)] == list(range(1, 10))
    assert revived.update(WRITE_KEY, {1: "9.5"}) == 10  # continues without gaps
    revived.close()


def test_recovery_of_empty_data_dir(tmp_path, clock):
    service = ChannelService(data_dir=tmp_path, clock=clock)
    assert service.channels() == []


def test_recovery_refuses_corrupt_interior_record(tmp_path, clock):
    from agristack.storelog import CorruptLogError

    service = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    for i in range(3):
        service.update(WRITE_KEY, {1: f"{i}.0"})
    service.close()

    log_path = tmp_path / "channel_1.log"
    raw = bytearray(log_path.read_bytes())
    raw[12] ^= 0xFF  # flip a payload byte of the first record
    log_path.write_bytes(bytes(raw))

    with pytest.raises(CorruptLogError) as err:
        ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    assert err.value.offset == 0


class InjectedFaults:
    """Stands in for storelog's `os` and, by `open_file`, its `open`.

    Numbers each write, flush, fsync and rename made while `armed`, and
    fails number `fail_at` in the way `how` says: "raise" before any byte,
    "partial" after three bytes, or "short", a write that returns after
    three bytes without an error."""

    def __init__(self, fail_at: int = 0, how: str = "raise"):
        self.fail_at = fail_at
        self.how = how
        self.points: list[str] = []
        self.armed = True

    def _fails(self, kind: str) -> bool:
        if not self.armed:
            return False
        self.points.append(kind)
        return len(self.points) == self.fail_at

    def open_file(self, *args, **kwargs):
        return _FaultyFile(open(*args, **kwargs), self)

    def fsync(self, fd):
        if self._fails("fsync"):
            raise OSError(errno.EIO, "injected fsync failure")
        os.fsync(fd)

    def replace(self, src, dst):
        if self._fails("rename"):
            raise OSError(errno.EIO, "injected rename failure")
        os.replace(src, dst)

    def __getattr__(self, name):
        return getattr(os, name)


class _FaultyFile:
    def __init__(self, fh, faults: InjectedFaults):
        self._fh = fh
        self._faults = faults

    def write(self, data):
        if not self._faults._fails("write"):
            return self._fh.write(data)
        if self._faults.how == "raise":
            raise OSError(errno.ENOSPC, "injected write failure")
        self._fh.write(data[:3])
        if self._faults.how == "partial":
            raise OSError(errno.ENOSPC, "injected write failure")
        return 3

    def flush(self):
        if self._faults._fails("flush"):
            raise OSError(errno.EIO, "injected flush failure")
        self._fh.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def write_under_faults(data_dir, faults, monkeypatch, writes=4):
    """`writes` updates, then one more, on a fresh fsynced channel with
    `faults` in place; returns the (entry_id, value) pairs acknowledged, and
    the values whose update raised."""
    service = ChannelService(data_dir=data_dir, fsync=True)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    monkeypatch.setattr(storelog, "open", faults.open_file, raising=False)
    monkeypatch.setattr(storelog, "os", faults)
    try:
        acked, failed = [], []
        for i in range(writes):
            value = f"{i}.5"
            try:
                acked.append((service.update(WRITE_KEY, {1: value}), value))
            except OSError:
                failed.append(value)
        faults.armed = False
        # the channel takes the next write, under the next id
        assert service.update(WRITE_KEY, {1: "9.5"}) == len(acked) + 1
        acked.append((len(acked) + 1, "9.5"))
    finally:
        service.close()
        monkeypatch.undo()
    return acked, failed


def test_a_failed_append_stores_nothing_and_the_channel_goes_on(tmp_path, monkeypatch):
    clean = InjectedFaults()
    write_under_faults(tmp_path / "clean", clean, monkeypatch)
    cases = [(n, how) for n, kind in enumerate(clean.points, start=1)
             for how in (("raise", "partial", "short") if kind == "write" else ("raise",))]
    assert {kind for kind in clean.points} == {"write", "fsync"}
    for n, how in cases:
        data_dir = tmp_path / f"{n}-{how}"
        acked, failed = write_under_faults(data_dir, InjectedFaults(n, how), monkeypatch)
        assert len(failed) == 1, (n, how)
        revived = ChannelService(data_dir=data_dir, fsync=False)
        try:
            stored = [(d["entry_id"], d["field1"]) for d in feeds(revived.read_feeds(1))]
        finally:
            revived.close()
        assert stored == acked, (n, how)


def test_channel_metadata_survives_restart(tmp_path, clock):
    service = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    service.create_channel("station", FIELD_LABELS, write_key=WRITE_KEY,
                           read_key="READKEY123456789", rate_limit_s=7.5)
    service.close()
    revived = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    ch = revived.channel(1)
    assert ch.name == "station"
    assert ch.write_key == WRITE_KEY
    assert ch.read_key == "READKEY123456789"
    assert ch.rate_limit_s == 7.5
    assert ch.fields == {1: "Temperature", 2: "Pressure", 3: "Moisture", 4: "Rain"}


# channels.json as written before the registry was derived from Channel
EARLIER_REGISTRY = """{
  "channels": [
    {
      "id": 1,
      "name": "station",
      "write_key": "FIELDSTATIONKEY1",
      "read_key": "READKEY123456789",
      "fields": {
        "1": "Temperature",
        "3": "Moisture"
      },
      "rate_limit_s": 7.5
    },
    {
      "id": 2,
      "name": "open",
      "write_key": "OPENCHANNELKEY02",
      "read_key": null,
      "fields": {
        "1": "Temperature",
        "2": "Pressure"
      },
      "rate_limit_s": 15.0
    }
  ]
}"""
REGISTRY_CHANNELS = [
    Channel(1, "station", "FIELDSTATIONKEY1", {1: "Temperature", 3: "Moisture"},
            read_key="READKEY123456789", rate_limit_s=7.5),
    Channel(2, "open", "OPENCHANNELKEY02", {1: "Temperature", 2: "Pressure"},
            read_key=None, rate_limit_s=15.0),
]


def test_recovery_reads_the_earlier_registry_format(tmp_path, clock):
    (tmp_path / "channels.json").write_text(EARLIER_REGISTRY, encoding="utf-8")
    revived = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    assert revived.channels() == REGISTRY_CHANNELS
    assert all(type(k) is int for ch in revived.channels() for k in ch.fields)
    revived.close()


def test_registry_round_trip_keeps_every_channel_value(tmp_path, clock):
    service = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    for ch in REGISTRY_CHANNELS:
        service.create_channel(ch.name, ch.fields, write_key=ch.write_key,
                               read_key=ch.read_key, rate_limit_s=ch.rate_limit_s)
    service.close()
    revived = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    assert revived.channels() == REGISTRY_CHANNELS
    revived.close()


# channels.json for REGISTRY_CHANNELS as written before storelog.replace_file
# wrote it (commit 24d2c39)
PINNED_REGISTRY = (
    b'{"channels": [{"id": 1, "name": "station", "write_key": "FIELDSTATIONKEY1",'
    b' "fields": {"1": "Temperature", "3": "Moisture"}, "read_key": "READKEY123456789",'
    b' "rate_limit_s": 7.5}, {"id": 2, "name": "open", "write_key": "OPENCHANNELKEY02",'
    b' "fields": {"1": "Temperature", "2": "Pressure"}, "read_key": null,'
    b' "rate_limit_s": 15.0}]}')


def test_registry_keeps_its_pinned_bytes(tmp_path, clock):
    service = ChannelService(data_dir=tmp_path, clock=clock, fsync=True)
    for ch in REGISTRY_CHANNELS:
        service.create_channel(ch.name, ch.fields, write_key=ch.write_key,
                               read_key=ch.read_key, rate_limit_s=ch.rate_limit_s)
    assert (tmp_path / "channels.json").read_bytes() == PINNED_REGISTRY
    service.close()


SECOND_KEY = "TESTWRITEKEY0002"


def create_under_faults(data_dir, faults, monkeypatch):
    """A fsynced service on `data_dir` whose channel 1 holds one entry, after
    an attempt to create channel 2 with `faults` in place, and whether that
    attempt raised."""
    service = ChannelService(data_dir=data_dir, fsync=True)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    assert service.update(WRITE_KEY, {1: "1.5"}) == 1
    with monkeypatch.context() as m:
        m.setattr(storelog, "open", faults.open_file, raising=False)
        m.setattr(storelog, "os", faults)
        try:
            service.create_channel("d", FIELD_LABELS, write_key=SECOND_KEY, rate_limit_s=0.0)
        except OSError:
            return service, True
    return service, False


def test_a_failed_create_stores_no_channel_and_takes_no_write(tmp_path, monkeypatch):
    clean = InjectedFaults()
    service, raised = create_under_faults(tmp_path / "clean", clean, monkeypatch)
    service.close()
    assert not raised
    # the temp file's write, flush and fsync, the rename, the directory's fsync
    assert clean.points == ["write", "flush", "fsync", "rename", "fsync"]
    for n, point in enumerate(clean.points, start=1):
        data_dir = tmp_path / str(n)
        service, raised = create_under_faults(data_dir, InjectedFaults(n), monkeypatch)
        try:
            assert raised, point
            with pytest.raises(AuthError):
                service.update(SECOND_KEY, {1: "2.5"})
            # no temporary file is left
            assert sorted(p.name for p in data_dir.iterdir()) == [
                "channel_1.log", "channels.json"], point
            # a restart now finds channel 2 only if the rename held
            copy = tmp_path / f"{n}-restart"
            shutil.copytree(data_dir, copy)
            revived = ChannelService(data_dir=copy, fsync=False)
            assert [c.id for c in revived.channels()] == (
                [1, 2] if n == len(clean.points) else [1]), point
            assert feeds(revived.read_feeds(1))[0]["field1"] == "1.5"
            revived.close()
            # the failed create used up no id
            assert service.create_channel("d", FIELD_LABELS, write_key=SECOND_KEY,
                                          rate_limit_s=0.0).id == 2, point
            assert service.update(SECOND_KEY, {1: "2.5"}) == 1
        finally:
            service.close()
        revived = ChannelService(data_dir=data_dir, fsync=False)
        assert [c.id for c in revived.channels()] == [1, 2], point
        assert feeds(revived.read_feeds(2))[0]["field1"] == "2.5", point
        revived.close()


def _record_fsyncs(monkeypatch, registry):
    """Replace os.fsync with a recorder of (is a directory, registry exists)."""
    calls = []

    def fsync(fd):
        calls.append((stat.S_ISDIR(os.fstat(fd).st_mode), registry.exists()))

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


def test_registry_save_fsyncs_file_then_directory(tmp_path, clock, monkeypatch):
    calls = _record_fsyncs(monkeypatch, tmp_path / "channels.json")
    service = ChannelService(data_dir=tmp_path, clock=clock, fsync=True)
    service.create_channel("station", FIELD_LABELS, write_key=WRITE_KEY)
    # the temp file before it is renamed over channels.json, then the directory
    assert calls == [(False, False), (True, True)]
    service.close()


def test_registry_save_without_fsync_makes_no_fsync_call(tmp_path, clock, monkeypatch):
    calls = _record_fsyncs(monkeypatch, tmp_path / "channels.json")
    service = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    service.create_channel("station", FIELD_LABELS, write_key=WRITE_KEY)
    service.create_channel("other", FIELD_LABELS)
    assert service.update(WRITE_KEY, {1: "1.0"}) == 1
    assert calls == []
    service.close()


def test_concurrent_writers_get_gapless_ids(clock):
    service = ChannelService(clock=clock)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    ids: list[int] = []
    lock = threading.Lock()

    def writer(n):
        got = [service.update(WRITE_KEY, {1: f"{i}.0"}) for i in range(n)]
        with lock:
            ids.extend(got)

    threads = [threading.Thread(target=writer, args=(50,)) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(ids) == list(range(1, 401))


def test_a_naive_time_is_taken_as_utc_by_writes_reads_and_clients(memory_service,
                                                                  monkeypatch):
    monkeypatch.setenv("TZ", "ABC+3")  # a local zone three hours west of UTC
    time.tzset()
    try:
        naive = datetime(2024, 12, 15, 10, 0, 0)
        # what HttpServiceClient sends, and LocalServiceClient hands update
        assert format_timestamp(naive) == "2024-12-15T10:00:00Z"
        memory_service.update(WRITE_KEY, {1: "1.0"}, created_at=naive)
        page = memory_service.read_feeds(1, start=naive, end=naive)
    finally:
        monkeypatch.undo()
        time.tzset()
    assert ([parse_timestamp(d["created_at"]) for d in feeds(page)]
            == [naive.replace(tzinfo=timezone.utc)])


def test_timestamp_roundtrip():
    ts = datetime(2024, 12, 15, 10, 0, 0, tzinfo=timezone.utc)
    assert parse_timestamp(format_timestamp(ts)) == ts
    assert format_timestamp(parse_timestamp("2025-01-01T00:00:00Z")) == "2025-01-01T00:00:00Z"
    assert parse_timestamp("2025-01-01T00:00:00Z").tzinfo == timezone.utc
    for bad in ("2024-12-15 10:00:00", "2025-1-1T00:00:00Z", "2025-01-01T00:00:00+00:00",
                "2025-13-01T00:00:00Z", "2025-01-01T00:00:00Z "):
        with pytest.raises(BadRequestError):
            parse_timestamp(bad)


@settings(max_examples=300, deadline=None)
@given(st.datetimes(min_value=datetime(1, 1, 1),
                    max_value=datetime(9999, 12, 31, 23, 59, 59)))
@example(datetime(1, 1, 1))
@example(datetime(999, 12, 31, 23, 59, 59))
def test_format_timestamp_inverts_parse_in_every_year(dt):
    text = (f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}"
            f"T{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}Z")
    assert format_timestamp(parse_timestamp(text)) == text


def test_pre_1000_created_at_survives_a_restart(tmp_path, clock):
    service = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    at = parse_timestamp("0999-01-01T00:00:00Z")
    assert service.update(WRITE_KEY, {1: "1.0"}, created_at=at) == 1
    service.close()

    revived = ChannelService(data_dir=tmp_path, clock=clock, fsync=False)
    try:
        page = revived.read_feeds(1)
    finally:
        revived.close()
    assert [parse_timestamp(d["created_at"]) for d in feeds(page)] == [at]
    assert '"created_at":"0999-01-01T00:00:00Z"' in feeds_body(page, None, {})


def test_field_values_must_be_ascii_decimals_in_full(memory_service):
    # each would be written into feed bodies unescaped if it were stored
    for bad in ("1\n", "1 ", "\u0663", "1\u0663"):
        with pytest.raises(BadRequestError):
            memory_service.update(WRITE_KEY, {1: bad})
    assert rows(memory_service.read_feeds(1)) == []


# -- windowed reads -------------------------------------------------------------

BASE = datetime(2024, 12, 15, 10, 0, 0, tzinfo=timezone.utc)


@settings(max_examples=200, deadline=None)
@given(offsets=st.lists(st.integers(0, 5), max_size=30),
       results=st.one_of(st.none(), st.integers(0, 35)),
       start=st.one_of(st.none(), st.integers(-1, 40)),
       end=st.one_of(st.none(), st.integers(-1, 40)))
def test_read_feeds_matches_brute_force_filter(offsets, results, start, end):
    # small steps, many zero, so runs of equal created_at are common
    service = ChannelService()
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    at = lambda s: BASE + timedelta(seconds=s)  # noqa: E731
    written = []
    t = 0
    for step in offsets:
        t += step
        written.append((service.update(WRITE_KEY, {1: str(t)}, created_at=at(t)), at(t)))

    page = service.read_feeds(1, results=results,
                              start=None if start is None else at(start),
                              end=None if end is None else at(end))

    want = [(i, ts) for i, ts in written
            if (start is None or ts >= at(start)) and (end is None or ts <= at(end))]
    n = MAX_RESULTS if results is None else results
    want = want[max(0, len(want) - n):]
    assert [(d["entry_id"], parse_timestamp(d["created_at"])) for d in feeds(page)] == want


DECLARED = {1: "T", 2: "P", 4: "R"}
reading = st.from_regex(r"-?[0-9]{1,3}\.[0-9][0-9]", fullmatch=True)
compact_ops = st.lists(st.one_of(
    # an update: the step from the last created_at, often 0, and the values
    st.tuples(st.just("update"), st.integers(-1, 3),
              st.dictionaries(st.integers(1, 5), reading, min_size=1)),
    # a read: results, start and end as offsets from the base, only_field
    st.tuples(st.just("read"), st.one_of(st.none(), st.integers(0, 12)),
              st.one_of(st.none(), st.integers(-1, 30)),
              st.one_of(st.none(), st.integers(-1, 30)),
              st.sampled_from([None, 1, 4]))),
    max_size=30)


@settings(max_examples=60, deadline=None)
@given(ops=compact_ops,
       base=st.sampled_from([BASE, datetime(999, 12, 31, 23, 59, 55, tzinfo=timezone.utc)]))
def test_compact_state_serves_what_a_list_of_feed_entries_would(ops, base):
    at = lambda s: base + timedelta(seconds=s)  # noqa: E731
    reference: list[FeedEntry] = []

    def window(results, start, end) -> tuple[FeedEntry, ...]:
        want = [e for e in reference if (start is None or e.created_at >= start)
                and (end is None or e.created_at <= end)]
        return tuple(want[max(0, len(want) - (MAX_RESULTS if results is None
                                              else results)):])

    reads = []
    memo: dict[int, str] = {}
    with tempfile.TemporaryDirectory() as data_dir:
        service = ChannelService(data_dir=data_dir, fsync=False)
        try:
            channel = service.create_channel("c", DECLARED, write_key=WRITE_KEY,
                                             rate_limit_s=0.0)
            t = 0
            for op in ops:
                if op[0] == "update":
                    _, step, values = op
                    if reference and at(t + step) < reference[-1].created_at:
                        with pytest.raises(BadRequestError):
                            service.update(WRITE_KEY, values, created_at=at(t + step))
                        continue
                    t += step
                    entry_id = service.update(WRITE_KEY, values, created_at=at(t))
                    reference.append(FeedEntry(entry_id, at(t), dict(values)))
                    continue
                _, results, start, end, only_field = op
                kwargs = dict(results=results, start=None if start is None else at(start),
                              end=None if end is None else at(end))
                want = window(**kwargs)
                page = service.read_feeds(1, **kwargs)
                with patch.object(service_module, "FeedEntry", wraps=FeedEntry) as built:
                    full = feeds_body(page, None, memo)
                    one = feeds_body(page, only_field, memo)
                assert built.call_count == 0
                assert rows(page) == rows_of(want)
                assert full == reference_feeds_body(channel, want)
                assert one == reference_feeds_body(channel, want, only_field)
                reads.append((kwargs, only_field))
        finally:
            service.close()
        revived = ChannelService(data_dir=data_dir, fsync=False)
        revived.close()
    for kwargs, only_field in reads:
        page, again = service.read_feeds(1, **kwargs), revived.read_feeds(1, **kwargs)
        assert rows(again) == rows(page) == rows_of(window(**kwargs))
        assert feeds_body(again, None, {}) == feeds_body(page, None, memo)
        assert (feeds_body(again, only_field, {})
                == feeds_body(page, only_field, memo))


def test_entries_view_builds_an_entry_only_when_it_is_indexed(memory_service):
    # the benchmark sizes read spans by len(page.entries), and checks a
    # reopened channel through page.entries[-1] and by iterating the view
    at = lambda s: BASE + timedelta(seconds=s)  # noqa: E731
    for i in range(3):
        memory_service.update(WRITE_KEY, {1: f"{i}.5", 3: "1"}, created_at=at(i))
    page = memory_service.read_feeds(1, results=2)
    with patch.object(service_module, "FeedEntry", wraps=FeedEntry) as built:
        assert len(page.entries) == 2
    assert built.call_count == 0
    want = [FeedEntry(i + 1, at(i), {1: f"{i}.5", 3: "1"}) for i in (1, 2)]
    assert page.entries[-1] == want[-1]
    assert list(page.entries) == want
    with pytest.raises(IndexError):
        page.entries[2]


def test_concurrent_reads_and_writes_see_consistent_pages(clock):
    service = ChannelService(clock=clock)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    problems: list[str] = []

    def writer():
        for i in range(300):
            service.update(WRITE_KEY, {1: f"{i}.0", 3: "1"})

    memo: dict[int, str] = {}

    def reader():
        for _ in range(150):
            page = service.read_feeds(1, results=50)
            ids = [d["entry_id"] for d in feeds(page)]
            if ids and ids != list(range(ids[0], ids[-1] + 1)):
                problems.append(f"ids not contiguous: {ids}")
            if json.loads(feeds_body(page, None, memo)) != feed_doc(page):
                problems.append("body differs from its entries")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=f) for f in (writer, writer, reader, reader, reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert problems == []
    assert [d["entry_id"] for d in feeds(service.read_feeds(1, results=1))] == [600]


# -- the log entry codec ------------------------------------------------------


def record(entry: FeedEntry) -> bytes:
    """The log record of `entry`, as update writes it; its values may be any
    text, as in a log written before update checked them."""
    f = {str(k): v for k, v in sorted(entry.fields.items())}
    return _encode_entry(entry.entry_id, format_timestamp(entry.created_at),
                         json.dumps(f, separators=(",", ":")))


def reference_encode_entry(entry: FeedEntry) -> bytes:
    """The log record as json.dumps of a dict wrote it, before the template."""
    doc = {
        "id": entry.entry_id,
        "at": format_timestamp(entry.created_at),
        "f": {str(k): v for k, v in sorted(entry.fields.items())},
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def reference_decode_entry(raw: bytes) -> FeedEntry:
    """One record decoded on its own, as recovery did before chunking."""
    doc = json.loads(raw.decode("utf-8"))
    return FeedEntry(
        entry_id=doc["id"],
        created_at=parse_timestamp(doc["at"]),
        fields={int(k): v for k, v in doc["f"].items()},
    )


CHUNK = service_module._DECODE_CHUNK
any_text = st.text(st.characters(exclude_categories=()), max_size=6)  # surrogates too
decimal_text = st.from_regex(service_module.NUMBER_RE, fullmatch=True)


def entries_with(indices):
    return st.builds(
        FeedEntry,
        entry_id=st.integers(1, 10**12),
        created_at=st.datetimes(min_value=datetime(1, 1, 1),
                                max_value=datetime(9999, 12, 31, 23, 59, 59),
                                timezones=st.just(timezone.utc)),
        fields=st.dictionaries(indices, st.one_of(any_text, decimal_text), max_size=8),
    )


log_entries = entries_with(st.integers(0, 99))


@settings(max_examples=150, deadline=None)
@given(entry=log_entries)
def test_encode_entry_matches_the_json_dumps_reference(entry):
    assert record(entry) == reference_encode_entry(entry)


# -- the write path against the validation and record it replaced -----------


def reference_field_values(values):
    """An entry's "f" object, as update checked and built it before one pass
    did both."""
    if not values:
        raise BadRequestError("at least one field value is required")
    cleaned: dict[int, str] = {}
    for k, v in values.items():
        try:
            index = int(k)
        except (TypeError, ValueError):
            raise BadRequestError(f"bad field index {k!r}") from None
        if not 1 <= index <= MAX_FIELDS:
            raise BadRequestError(f"field index {k} outside 1..{MAX_FIELDS}")
        text = str(v)
        if (not service_module.NUMBER_RE.fullmatch(text)
                or not math.isfinite(float(text))):
            raise BadRequestError(f"field{k} value {text!r} is not a decimal number")
        cleaned[index] = text
    return {str(k): v for k, v in sorted(cleaned.items())}


def reference_record(entry_id: int, at: str, values) -> bytes:
    doc = {"id": entry_id, "at": at, "f": reference_field_values(values)}
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def reference_format_timestamp(ts: datetime) -> str:
    """format_timestamp as it was, with astimezone for every time."""
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc).isoformat()[:19] + "Z"


field_keys = st.one_of(
    st.sampled_from([1, "1", True, False, 0, 9, "x", 3, "4", " 5", "6 ", "1_0", "\u0663",
                     "\uff17", 2.0, 2.5, -1, None, b"1", "+2", "0x1"]),
    st.integers(1, MAX_FIELDS), st.integers(-3, 12), st.text(max_size=3))
field_values = st.one_of(
    decimal_text, st.one_of(
        st.sampled_from(["1_0", " 1", "1 ", "\u0663", "\u0661.5", "nan", "NaN", "inf",
                         "-Infinity", "1e999", "-1e999", "1e-999", "+.5e-3", "5.", ".",
                         "", "0x10", "1.5\n", "\"1\"", "21.50", "-0", "00.0"]),
        st.integers(-10**20, 10**20), st.floats(), st.booleans(), st.none(),
        st.decimals(allow_nan=True), any_text))
# lists of pairs, so that keys arrive in any order and one index can come twice
field_mappings = st.lists(st.tuples(field_keys, field_values), max_size=10).map(dict)


def outcome(write):
    """What `write()` returns, or the message of the BadRequestError it raises."""
    try:
        return write()
    except BadRequestError as exc:
        return BadRequestError, str(exc)


@pytest.fixture(scope="module")
def logged_service(tmp_path_factory):
    """One data-dir service, without fsync, with channel 1, shared by the
    examples of a property test."""
    service = ChannelService(data_dir=tmp_path_factory.mktemp("logged"), fsync=False)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    yield service
    service.close()


@settings(max_examples=400, deadline=None)
@given(values=field_mappings, warm=st.booleans())
@example(values={1: "1", "1": "2.5", True: "3"}, warm=False)
@example(values={4: "1", 2: "2", 3: "nan", 1: "x"}, warm=True)
@example(values={"1_0": "1"}, warm=False)
@example(values={" 1": "+.5e-3", 2: "5.", 3: 1e300}, warm=False)
@example(values={0: "1", 9: "1"}, warm=False)
@example(values={2.5: "1.0", 2.0: "2", True: "3"}, warm=True)
def test_update_refuses_or_logs_as_the_reference(logged_service, values, warm):
    # warm: the second write finds the texts the first one accepted
    want = outcome(lambda: reference_record(1, "2024-12-15T10:00:00Z", values))
    service = logged_service
    service._accepted.clear()   # so that the first write is a cold one
    # channel 1 afresh, on an empty log: creating a channel per example would
    # rewrite a registry that grows with each one
    previous = service._state(1)
    previous.log.close()
    previous.log.path.unlink(missing_ok=True)   # made by the first append
    service._channels[1] = service_module._ChannelState(meta=previous.meta,
                                                        log=service._open_log(1))
    got = [outcome(lambda: service.update(WRITE_KEY, values, created_at=BASE))
           for _ in range(1 + warm)]
    logged = RecordLog(previous.log.path, fsync=False).replay()
    if isinstance(want, tuple):
        assert got == [want] * (1 + warm)
        assert logged == []
    else:
        assert got == list(range(1, 2 + warm))
        assert logged == [want.replace(b'"id":1,', b'"id":%d,' % i) for i in got]


def test_a_refused_text_stays_refused_after_the_accepted_set_is_emptied(memory_service,
                                                                        monkeypatch):
    monkeypatch.setattr(service_module, "_ACCEPTED_MAX", 4)
    accepted = memory_service._accepted
    refused = ["nan", "1e999", "1_0", "\u0663", " 1"]
    for i in range(11):
        assert memory_service.update(WRITE_KEY, {1: f"{i}.5"}) == i + 1
        assert len(accepted) <= 4
        for text in refused:
            with pytest.raises(BadRequestError, match=r"^field1 value .* is not a decimal"):
                memory_service.update(WRITE_KEY, {1: text})
    assert accepted == {"8.5", "9.5", "10.5"}   # emptied after 0.5..3.5, 4.5..7.5


def test_writer_threads_share_the_accepted_set_without_a_lock(clock, monkeypatch):
    monkeypatch.setattr(service_module, "_ACCEPTED_MAX", 8)
    service = ChannelService(clock=clock)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    problems: list[str] = []
    sizes: list[int] = []

    def writer(n):
        for i in range(200):
            service.update(WRITE_KEY, {1: f"{n}.{i % 13}", 2: f"{i % 7}"})
            try:
                service.update(WRITE_KEY, {1: f"{n}.{i % 13}", 2: "nan"})
                problems.append("nan accepted")
            except BadRequestError:
                pass
            sizes.append(len(service._accepted))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert problems == []
    assert "nan" not in service._accepted
    # a race can only empty the set early or let each thread add one past
    # the bound
    assert max(sizes) <= 8 + len(threads)
    page = service.read_feeds(1)
    assert len(page.ids) == 1200
    assert "nan" not in page.columns["2"]


@settings(max_examples=300, deadline=None)
@given(st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
                    timezones=st.one_of(
                        st.none(), st.just(timezone.utc),
                        st.just(timezone(timedelta(hours=5, minutes=30))),
                        st.timedeltas(timedelta(hours=-23, minutes=-59),
                                      timedelta(hours=23, minutes=59)).map(timezone))))
@example(datetime(2024, 12, 15, 10))
@example(datetime(2024, 12, 15, 10, tzinfo=timezone.utc))
@example(datetime(2024, 12, 15, 10, tzinfo=timezone(timedelta(hours=5, minutes=30))))
@example(datetime(1, 1, 2, tzinfo=timezone.utc))
@example(datetime(999, 12, 31, 23, 59, 59, 999999))
@example(datetime(2024, 12, 15, 10, 0, 0, 123456, tzinfo=timezone.utc))
def test_format_timestamp_matches_the_astimezone_formula(ts):
    assert format_timestamp(ts) == reference_format_timestamp(ts)


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@settings(max_examples=5, deadline=None)
@given(entries=st.lists(entries_with(st.integers(1, MAX_FIELDS)), min_size=1, max_size=4))
def test_decode_entries_matches_the_per_record_reference(n, entries):
    records = [record(replace(entries[i % len(entries)], entry_id=i + 1)) for i in range(n)]
    times, columns = _decode_entries(records)
    assert list(columns) == sorted(columns)
    assert all(len(column) == n for column in columns.values())
    decoded = rows(FeedPage(None, range(1, n + 1), times, columns))
    assert decoded == rows_of(reference_decode_entry(r) for r in records)


def test_intact_records_are_parsed_one_chunk_at_a_time(monkeypatch):
    parsed = []
    loads = json.loads
    monkeypatch.setattr(service_module.json, "loads",
                        lambda text: parsed.append(len(text)) or loads(text))
    records = [record(FeedEntry(i, BASE, {1: "1.0"})) for i in range(1, 2 * CHUNK + 2)]
    assert len(_decode_entries(records)[0]) == 2 * CHUNK + 1
    assert len(parsed) == 3


def _entries_at(seconds, legacy_at=None):
    """Records of entries 1.. created `seconds` after BASE; the entry at
    position `legacy_at` holds a value only a record-by-record decode takes."""
    return [record(FeedEntry(i, BASE + timedelta(seconds=s),
                             {1: "[" if i - 1 == legacy_at else "1.0"}))
            for i, s in enumerate(seconds, start=1)]


@pytest.mark.parametrize("seconds, legacy_at, back", [
    ([5, 1, 9], None, 2),
    ([5, 1, 9], 2, 2),                  # decoded record by record
    (list(range(CHUNK)) + [CHUNK - 2] + list(range(CHUNK, CHUNK + 9)), None, CHUNK + 1),
    (list(range(CHUNK)) + [CHUNK - 2] + list(range(CHUNK, CHUNK + 9)), CHUNK + 3, CHUNK + 1),
], ids=["three-entries", "per-record", "chunk-boundary", "chunk-boundary-per-record"])
def test_log_whose_created_at_goes_back_is_corrupt_state(tmp_path, seconds, legacy_at, back):
    # reads bisect the created_at texts: with entries at 10:00:05, 10:00:01
    # and 10:00:09, the window 10:00:00..10:00:02 would return entries 1 and 2
    service = ChannelService(data_dir=tmp_path, fsync=False)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    service.close()
    log = RecordLog(tmp_path / "channel_1.log", fsync=False)
    for payload in _entries_at(seconds, legacy_at):
        log.append(payload)
    log.close()
    at, before = (format_timestamp(BASE + timedelta(seconds=seconds[i]))
                  for i in (back - 1, back - 2))
    with pytest.raises(CorruptStateError, match=rf"^channel 1: entry {back} created_at"
                       rf" {at} is before entry {back - 1}'s {before}$"):
        ChannelService(data_dir=tmp_path, fsync=False)


def test_entries_with_equal_created_at_are_in_order():
    _check_order([format_timestamp(BASE)] * (CHUNK + 2))


def write_log(tmp_path, payloads):
    """A one-channel data dir whose log holds entry 1, then `payloads`."""
    service = ChannelService(data_dir=tmp_path, fsync=False)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    service.update(WRITE_KEY, {1: "1.0"}, created_at=BASE)
    service.close()
    log = RecordLog(tmp_path / "channel_1.log", fsync=False)
    for payload in payloads:
        log.append(payload)
    log.close()


ENTRY_2 = record(FeedEntry(2, BASE, {1: "2.0"}))
ENTRY_3 = record(FeedEntry(3, BASE, {1: "3.0"}))
AT = b'"at":"2024-12-15T10:00:00Z"'


@pytest.mark.parametrize("payload", [
    b"not json",
    b"",
    ENTRY_2 + b" " + ENTRY_2,
    ENTRY_2 + b"," + ENTRY_3,
    b'{' + AT + b',"f":{"1":"2.0"}}',
    b'{"id":2,"f":{"1":"2.0"}}',
    b'{"id":2,' + AT + b'}',
    b'{"id":2,"at":"999-01-01T00:00:00Z","f":{"1":"2.0"}}',
    b'{"id":2,' + AT + b',"f":{"one":"2.0"}}',
    b'{"id":2,' + AT + b',"f":["2.0"]}',
    b'[2]',
    b'\xff',
    # no read could serve these: feed bodies render fields 1..8 as strings
    b'{"id":2,' + AT + b',"f":{"1":2.0}}',
    b'{"id":2,' + AT + b',"f":{"1":null}}',
    b'{"id":2,' + AT + b',"f":{"9":"2.0"}}',
    b'{"id":2,' + AT + b',"f":{"0":"2.0"}}',
    b'{"id":2,' + AT + b',"f":{"01":"2.0"}}',
    b'{"id":2,"at":"2024-13-15T10:00:00Z","f":{"1":"2.0"}}',
    b'{"id":2,"at":"2024-12-15T10:00:00+00:00","f":{"1":"2.0"}}',
], ids=["not-json", "empty", "two-values", "two-values-comma", "no-id", "no-at",
        "no-f", "short-year", "bad-field-index", "f-not-object", "array",
        "not-utf8", "value-not-string", "value-null", "field-index-9",
        "field-index-0", "field-index-not-canonical", "month-13", "utc-offset"])
def test_record_that_is_not_one_entry_is_corrupt_state(tmp_path, payload):
    write_log(tmp_path, [payload, ENTRY_3])
    with pytest.raises(CorruptStateError, match=r"^channel 1: entry 2 "):
        ChannelService(data_dir=tmp_path, fsync=False)


@pytest.mark.parametrize("second, third", [
    # the separator would fall inside a string
    (ENTRY_2 + b',{"id":3,' + AT + b',"f":{"1":"', b'3.0"}}'),
    # ... after an object's member, where a key follows
    (b'{"id":2,' + AT, b'"f":{"1":"2.0"}},' + ENTRY_3),
    # ... inside an array, hidden by a repeated key
    (b'{"id":2,"f":[{"x":{}}', b'{"x":{}}],' + AT + b',"f":{"1":"2.0"}},' + ENTRY_3),
], ids=["in-string", "in-object", "in-array"])
def test_entries_split_across_records_are_corrupt_state(tmp_path, second, third):
    # joined by a bare comma, each pair parses as entries 2 and 3, though
    # neither record is one entry on its own
    write_log(tmp_path, [second, third])
    with pytest.raises(CorruptStateError, match=r"^channel 1: entry 2 "):
        ChannelService(data_dir=tmp_path, fsync=False)


def test_corrupt_record_position_counts_across_chunks():
    records = [record(FeedEntry(i, BASE, {1: "1.0"})) for i in range(1, 2 * CHUNK + 2)]
    records[CHUNK + 5] = b"not json"
    with pytest.raises(CorruptStateError, match=rf"^entry {CHUNK + 6} is not"):
        _decode_entries(records)
    records[CHUNK + 5] = record(FeedEntry(CHUNK + 7, BASE, {1: "1.0"}))
    with pytest.raises(CorruptStateError,
                       match=rf"^entry_id {CHUNK + 7} at position {CHUNK + 6};"):
        _decode_entries(records)
