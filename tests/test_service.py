from __future__ import annotations

import json
import os
import stat
import sys
import threading
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agristack import httpd
from agristack import service as service_module
from agristack.httpd import feeds_body
from agristack.service import (MAX_RESULTS, AuthError, BadRequestError, Channel,
                               ChannelService, UnknownChannelError,
                               format_timestamp, parse_timestamp)
from tests.conftest import FIELD_LABELS, WRITE_KEY

T = lambda s: parse_timestamp(s)  # noqa: E731


def test_first_write_gets_entry_id_one(memory_service):
    assert memory_service.update(WRITE_KEY, {1: "22.04"}) == 1
    assert memory_service.update(WRITE_KEY, {1: "22.10"}) == 2


def test_wrong_key_rejected_and_nothing_persisted(memory_service):
    with pytest.raises(AuthError):
        memory_service.update("WRONGKEY00000000", {1: "22.04"})
    assert memory_service.read_feeds(1).entries == ()


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
    entries = service.read_feeds(1).entries
    assert [e.fields[1] for e in entries] == ["1.0"]


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
    entry = memory_service.read_feeds(1).entries[0]
    assert entry.fields == {1: "22.04", 3: "030.50", 4: "1"}


def test_created_at_defaults_to_service_clock(memory_service, clock):
    memory_service.update(WRITE_KEY, {1: "1.0"})
    entry = memory_service.read_feeds(1).entries[0]
    assert entry.created_at == clock.now


def test_out_of_order_created_at_rejected(memory_service):
    memory_service.update(WRITE_KEY, {1: "1"}, created_at=T("2024-12-15T10:00:10Z"))
    with pytest.raises(BadRequestError):
        memory_service.update(WRITE_KEY, {1: "2"}, created_at=T("2024-12-15T10:00:05Z"))


def test_read_feeds_last_n_ascending(memory_service):
    for i in range(5):
        memory_service.update(WRITE_KEY, {1: f"{i}.0"},
                              created_at=T(f"2024-12-15T10:00:0{i}Z"))
    page = memory_service.read_feeds(1, results=3)
    assert [e.entry_id for e in page.entries] == [3, 4, 5]


def test_read_feeds_results_zero(memory_service):
    memory_service.update(WRITE_KEY, {1: "1.0"})
    page = memory_service.read_feeds(1, results=0)
    assert page.entries == ()
    assert page.channel.name == "field-station"


def test_read_feeds_window(memory_service):
    for i in range(5):
        memory_service.update(WRITE_KEY, {1: f"{i}.0"},
                              created_at=T(f"2024-12-15T10:00:0{i}Z"))
    page = memory_service.read_feeds(1, start=T("2024-12-15T10:00:01Z"),
                                     end=T("2024-12-15T10:00:03Z"))
    assert [e.entry_id for e in page.entries] == [2, 3, 4]
    empty = memory_service.read_feeds(1, start=T("2024-12-15T11:00:00Z"),
                                      end=T("2024-12-15T12:00:00Z"))
    assert empty.entries == ()


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
    assert len(page.entries) == 1


def test_read_your_writes(memory_service):
    entry_id = memory_service.update(WRITE_KEY, {2: "1013.05"})
    page = memory_service.read_feeds(1)
    assert page.entries[-1].entry_id == entry_id
    assert page.entries[-1].fields[2] == "1013.05"


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
    assert [e.entry_id for e in page.entries] == list(range(1, 11))
    assert [e.fields[1] for e in page.entries] == [f"{i}.5" for i in range(10)]
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
    assert [e.entry_id for e in page.entries] == list(range(1, 10))
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


def test_timestamp_roundtrip():
    ts = datetime(2024, 12, 15, 10, 0, 0, tzinfo=timezone.utc)
    assert parse_timestamp(format_timestamp(ts)) == ts
    assert format_timestamp(parse_timestamp("2025-01-01T00:00:00Z")) == "2025-01-01T00:00:00Z"
    assert parse_timestamp("2025-01-01T00:00:00Z").tzinfo == timezone.utc
    for bad in ("2024-12-15 10:00:00", "2025-1-1T00:00:00Z", "2025-01-01T00:00:00+00:00",
                "2025-13-01T00:00:00Z", "2025-01-01T00:00:00Z "):
        with pytest.raises(BadRequestError):
            parse_timestamp(bad)


def test_field_values_must_be_ascii_decimals_in_full(memory_service):
    # each would be written into feed bodies unescaped if it were stored
    for bad in ("1\n", "1 ", "\u0663", "1\u0663"):
        with pytest.raises(BadRequestError):
            memory_service.update(WRITE_KEY, {1: bad})
    assert memory_service.read_feeds(1).entries == ()


# -- windowed reads and the rendered-entry memo -------------------------------

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
    assert [(e.entry_id, e.created_at) for e in page.entries] == want


def test_each_entry_is_rendered_once_across_polls(memory_service, monkeypatch):
    for i in range(50):
        memory_service.update(WRITE_KEY, {1: f"{i}.5", 4: "0"})
    rendered = []

    render_entry = httpd.render_entry

    def counting_render(entry, keys):
        rendered.append(entry.entry_id)
        return render_entry(entry, keys)

    monkeypatch.setattr(httpd, "render_entry", counting_render)
    first = feeds_body(memory_service.read_feeds(1, results=40))
    second = feeds_body(memory_service.read_feeds(1, results=40))
    assert first == second
    assert rendered == list(range(11, 51))


def test_rendered_memo_keeps_the_newest_window_and_stays_bounded(memory_service,
                                                                monkeypatch):
    monkeypatch.setattr(service_module, "MAX_RESULTS", 10)
    at = lambda s: BASE + timedelta(seconds=s)  # noqa: E731
    for i in range(1, 101):
        memory_service.update(WRITE_KEY, {1: f"{i}.5"}, created_at=at(i))
    feeds_body(memory_service.read_feeds(1))  # the newest ten, 91..100
    for i in range(10, 86, 5):  # older windows, enough to force sweeps
        page = memory_service.read_feeds(1, end=at(i))
        feeds_body(page)
        assert len(page.rendered) <= 3 * 10  # 2 x MAX_RESULTS, then one window
    assert set(range(91, 101)) <= set(page.rendered)


def test_concurrent_reads_and_writes_see_consistent_pages(clock):
    service = ChannelService(clock=clock)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    problems: list[str] = []

    def writer():
        for i in range(300):
            service.update(WRITE_KEY, {1: f"{i}.0", 3: "1"})

    def reader():
        for _ in range(150):
            page = service.read_feeds(1, results=50)
            ids = [e.entry_id for e in page.entries]
            if ids and ids != list(range(ids[0], ids[-1] + 1)):
                problems.append(f"ids not contiguous: {ids}")
            body = json.loads(feeds_body(page))["feeds"]
            if [(d["entry_id"], d["field1"]) for d in body] != [
                    (e.entry_id, e.fields[1]) for e in page.entries]:
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
    assert service.read_feeds(1, results=1).entries[0].entry_id == 600
