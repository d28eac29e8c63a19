"""Wire-protocol conformance against a live HTTP server."""
from __future__ import annotations

import errno
import io
import json
import logging
import re
import socket
import sys
import tempfile
import threading
import time
from datetime import datetime, timedelta, timezone
from http.client import HTTPException, LineTooLong
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from agristack import httpd, storelog, wire
from agristack.httpd import ChannelHttpServer
from agristack import service as service_module
from agristack.client import HttpServiceClient, ServiceUnavailable
from agristack.service import (ChannelService, FeedEntry, UnknownChannelError,
                               _encode_entry, format_timestamp)
from agristack.storelog import RecordLog
from tests.conftest import WRITE_KEY, HttpSession, http_get

BASE = datetime(2024, 12, 15, 10, 0, 0, tzinfo=timezone.utc)

GOLDEN_FEEDS_BODY = (
    '{"channel":{"id":1,"name":"field-station","field1":"Temperature",'
    '"field2":"Pressure","field3":"Moisture","field4":"Rain"},'
    '"feeds":['
    '{"created_at":"2024-12-15T10:00:00Z","entry_id":1,"field1":"22.04",'
    '"field2":"1013.05","field3":"30.00","field4":"0"},'
    '{"created_at":"2024-12-15T10:00:15Z","entry_id":2,"field1":"22.10",'
    '"field2":null,"field3":"29.80","field4":"1"}'
    ']}'
)

GOLDEN_FIELD_BODY = (
    '{"channel":{"id":1,"name":"field-station","field1":"Temperature"},'
    '"feeds":['
    '{"created_at":"2024-12-15T10:00:00Z","entry_id":1,"field1":"22.04"},'
    '{"created_at":"2024-12-15T10:00:15Z","entry_id":2,"field1":"22.10"}'
    ']}'
)


def _update(server, **params):
    return http_get(f"{server.endpoint}/update", params=params, timeout=5)


def write_golden_entries(server):
    r1 = _update(server, api_key=WRITE_KEY, field1="22.04", field2="1013.05",
                 field3="30.00", field4="0", created_at="2024-12-15T10:00:00Z")
    r2 = _update(server, api_key=WRITE_KEY, field1="22.10", field3="29.80",
                 field4="1", created_at="2024-12-15T10:00:15Z")
    return r1, r2


def test_update_returns_decimal_entry_id(http_server):
    r1, r2 = write_golden_entries(http_server)
    assert (r1.status_code, r1.text) == (200, "1")
    assert (r2.status_code, r2.text) == (200, "2")
    assert r1.headers["Content-Type"].startswith("text/plain")


def test_update_bad_key_is_401(http_server):
    r = _update(http_server, api_key="NOPE000000000000", field1="1.0")
    assert r.status_code == 401
    assert r.text == "0"


def test_update_missing_key_is_401(http_server):
    r = http_get(f"{http_server.endpoint}/update?field1=1.0", timeout=5)
    assert r.status_code == 401


def test_update_malformed_value_is_400(http_server):
    r = _update(http_server, api_key=WRITE_KEY, field1="not-a-number")
    assert r.status_code == 400
    assert r.text == "0"


def test_update_without_fields_is_400(http_server):
    r = _update(http_server, api_key=WRITE_KEY)
    assert r.status_code == 400


def test_update_bad_created_at_is_400(http_server):
    r = _update(http_server, api_key=WRITE_KEY, field1="1.0",
                created_at="yesterday")
    assert r.status_code == 400


def test_feeds_body_matches_golden_fixture_byte_for_byte(http_server):
    write_golden_entries(http_server)
    r = http_get(f"{http_server.endpoint}/channels/1/feeds.json",
                 params={"results": 3}, timeout=5)
    assert r.status_code == 200
    assert r.headers["Content-Type"].startswith("application/json")
    assert r.text == GOLDEN_FEEDS_BODY
    assert r.content == GOLDEN_FEEDS_BODY.encode("utf-8")


def test_single_field_body_matches_golden_fixture(http_server):
    write_golden_entries(http_server)
    r = http_get(f"{http_server.endpoint}/channels/1/fields/1.json",
                 params={"results": 3}, timeout=5)
    assert r.status_code == 200
    assert r.text == GOLDEN_FIELD_BODY


def test_feeds_results_and_window_filters(http_server):
    write_golden_entries(http_server)
    r = http_get(f"{http_server.endpoint}/channels/1/feeds.json",
                 params={"results": 1}, timeout=5)
    assert [e["entry_id"] for e in r.json()["feeds"]] == [2]
    r = http_get(
        f"{http_server.endpoint}/channels/1/feeds.json",
        params={"start": "2024-12-15T10:00:00Z", "end": "2024-12-15T10:00:10Z"},
        timeout=5)
    assert [e["entry_id"] for e in r.json()["feeds"]] == [1]
    r = http_get(f"{http_server.endpoint}/channels/1/feeds.json",
                 params={"results": 0}, timeout=5)
    body = r.json()
    assert body["feeds"] == []
    assert body["channel"]["id"] == 1


def test_unknown_channel_is_404(http_server):
    r = http_get(f"{http_server.endpoint}/channels/99/feeds.json", timeout=5)
    assert r.status_code == 404
    assert r.json() == {"error": "channel not found"}


def test_unknown_endpoint_is_404(http_server):
    r = http_get(f"{http_server.endpoint}/nope", timeout=5)
    assert r.status_code == 404


def test_unknown_field_is_404(http_server):
    write_golden_entries(http_server)
    r = http_get(f"{http_server.endpoint}/channels/1/fields/7.json", timeout=5)
    assert r.status_code == 404


def test_bad_results_param_is_400(http_server):
    r = http_get(f"{http_server.endpoint}/channels/1/feeds.json",
                 params={"results": "many"}, timeout=5)
    assert r.status_code == 400


def test_rate_limit_body_is_zero_with_success_status(memory_service, clock):
    from agristack.httpd import ChannelHttpServer
    memory_service.create_channel("limited", ["Temperature"],
                                  write_key="LIMITEDKEY000001", rate_limit_s=15.0)
    server = ChannelHttpServer(memory_service).start()
    try:
        r = _update(server, api_key="LIMITEDKEY000001", field1="1.0")
        assert (r.status_code, r.text) == (200, "1")
        clock.advance(5.0)
        r = _update(server, api_key="LIMITEDKEY000001", field1="2.0")
        assert (r.status_code, r.text) == (200, "0")
    finally:
        server.stop()


def test_concurrent_http_writers_preserve_gapless_ids(http_server):
    results: list[str] = []
    lock = threading.Lock()

    def hammer():
        got = []
        with HttpSession() as session:
            for i in range(25):
                r = session.get(f"{http_server.endpoint}/update",
                                params={"api_key": WRITE_KEY, "field1": f"{i}.0"})
                got.append(r.text)
        with lock:
            results.extend(got)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(int(x) for x in results) == list(range(1, 101))


def write_long_feed(service: ChannelService, entries: int = 800) -> None:
    """Write enough entries that a read of them all is a body of more than
    _ONE_WRITE_MAX bytes, which goes out as two sends."""
    for i in range(entries):
        service.update(WRITE_KEY, {1: f"{i}.0", 2: "1013.25", 3: "30.00", 4: "0"})


def test_keepalive_requests_do_not_wait_for_delayed_ack(memory_service, http_server):
    # A long reply is two sends; if the second waits on the client's delayed
    # ACK (Nagle), every request costs ~40 ms and 100 of them ~4 s.
    with HttpSession() as session:
        started = time.perf_counter()
        for i in range(50):
            r = session.get(f"{http_server.endpoint}/update",
                            params={"api_key": WRITE_KEY, "field1": f"{i}.0"})
            assert (r.status_code, r.text) == (200, str(i + 1))
        writes_s = time.perf_counter() - started
        write_long_feed(memory_service)
        started = time.perf_counter()
        for _ in range(50):
            r = session.get(f"{http_server.endpoint}/channels/1/feeds.json",
                            params={"results": 850})
            assert r.status_code == 200 and len(r.content) > httpd._ONE_WRITE_MAX
        reads_s = time.perf_counter() - started
    assert writes_s < 1.0, f"50 keep-alive writes took {writes_s:.2f}s"
    assert reads_s < 1.0, f"50 keep-alive reads took {reads_s:.2f}s"


def test_a_reply_under_64_kib_is_one_write(memory_service, http_server, monkeypatch):
    writes: list[int] = []
    setup = httpd._Handler.setup

    def recording_setup(self):
        setup(self)
        write = self.wfile.write
        self.wfile.write = lambda data: writes.append(len(data)) or write(data)

    monkeypatch.setattr(httpd._Handler, "setup", recording_setup)
    write_long_feed(memory_service)
    with HttpSession() as session:
        small = session.get(f"{http_server.endpoint}/update",
                            params={"api_key": WRITE_KEY, "field1": "1.0"})
        long = session.get(f"{http_server.endpoint}/channels/1/feeds.json")
    assert small.text == "801" and len(long.content) > httpd._ONE_WRITE_MAX
    # the small reply's head and body, then the long one's head, then its body
    assert len(writes) == 3 and writes[0] > len(small.content)
    assert writes[2] == len(long.content)
    # the Date text made once a second is the one the stdlib makes each time
    for t in (0, 1734256800.75, time.time()):
        assert httpd._http_date(int(t)) == BaseHTTPRequestHandler.date_time_string(None, t)


def test_stop_returns_without_waiting_out_the_stdlib_poll(memory_service):
    # serve_forever notices shutdown only between polls, so stop() can take a
    # whole poll interval; the stdlib default of 0.5 s would fail this bound.
    from agristack.httpd import ChannelHttpServer
    started = time.perf_counter()
    server = ChannelHttpServer(memory_service).start()
    server.stop()
    elapsed = time.perf_counter() - started
    assert elapsed < 0.25, f"start() then stop() took {elapsed:.2f}s"
    assert not server._thread.is_alive()


def test_stop_returns_when_serve_forever_never_ran(memory_service):
    server = ChannelHttpServer(memory_service)
    # in a daemon thread, so that a hang fails the test instead of the suite
    stopping = threading.Thread(target=server.stop, daemon=True)
    stopping.start()
    stopping.join(5)
    assert not stopping.is_alive()
    with pytest.raises(OSError):  # the socket is closed
        socket.create_connection((server.host, server.port), timeout=1).close()


def test_idle_connection_is_closed(http_server, monkeypatch):
    assert httpd._Handler.timeout is not None  # shipped: idle clients are dropped
    monkeypatch.setattr(httpd._Handler, "timeout", 0.2)
    with socket.create_connection((http_server.host, http_server.port), timeout=5) as idle:
        started = time.perf_counter()
        assert idle.recv(1) == b""      # the server closed it without a reply
        elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"idle connection held for {elapsed:.2f}s"


def test_update_that_cannot_be_stored_is_503_on_an_open_connection(tmp_path, clock,
                                                                   monkeypatch):
    service = ChannelService(data_dir=tmp_path, clock=clock, fsync=True)
    service.create_channel("c", ["A"], write_key=WRITE_KEY, rate_limit_s=0.0)
    server = httpd.ChannelHttpServer(service).start()
    try:
        client = HttpServiceClient(server.endpoint, write_key=WRITE_KEY)
        assert client.update({1: "1.0"}) == 1
        sock = client._conn.sock
        fsync = storelog.os.fsync
        failures = [OSError(errno.EIO, "injected fsync failure")]

        def fail_once(fd):
            if failures:
                raise failures.pop()
            fsync(fd)

        monkeypatch.setattr(storelog.os, "fsync", fail_once)
        with pytest.raises(ServiceUnavailable, match="status 503"):
            client.update({1: "2.0"})
        assert not failures
        assert client.update({1: "3.0"}) == 2
        assert client._conn.sock is sock        # the 503 kept the connection
    finally:
        server.stop()
        service.close()
    revived = ChannelService(data_dir=tmp_path, fsync=False)
    try:
        page = revived.read_feeds(1)
        assert [e.fields for e in page.entries] == [{1: "1.0"}, {1: "3.0"}]
    finally:
        revived.close()


# -- feeds_body against the dict-and-json.dumps rendering it replaced ---------

def reference_feeds_body(channel, entries, only_field=None) -> str:
    """The feed body of `entries` (FeedEntry values) of `channel`."""
    def wanted(k):
        return only_field is None or k == only_field

    head = {"id": channel.id, "name": channel.name}
    head.update({f"field{k}": channel.fields[k]
                 for k in sorted(channel.fields) if wanted(k)})
    feeds = []
    for e in entries:
        doc = {"created_at": format_timestamp(e.created_at), "entry_id": e.entry_id}
        doc.update({f"field{k}": e.fields.get(k)
                    for k in sorted(channel.fields) if wanted(k)})
        feeds.append(doc)
    return json.dumps({"channel": head, "feeds": feeds}, separators=(",", ":"))


def test_recovered_values_that_need_escaping_render_as_json_dumps(tmp_path):
    # update now refuses these, but logs written before it checked values in
    # full can hold them, and recovery keeps them as they were
    service = ChannelService(data_dir=tmp_path, fsync=False)
    service.create_channel("c", ["A", "B", "C"], write_key=WRITE_KEY, rate_limit_s=0.0)
    service.close()
    log = RecordLog(tmp_path / "channel_1.log", fsync=False)
    at = datetime(2024, 12, 15, tzinfo=timezone.utc)
    log.append(_encode_entry(1, format_timestamp(at),
                             json.dumps({"1": "1\n", "2": "\u0663", "3": "2.5"},
                                        separators=(",", ":"))))
    log.close()

    entries = [FeedEntry(1, at, {1: "1\n", 2: "\u0663", 3: "2.5"})]
    revived = ChannelService(data_dir=tmp_path, fsync=False)
    try:
        memo: dict[int, str] = {}
        for only_field in (None, None, 1, 2):  # the second full read is memoized
            page = revived.read_feeds(1)
            body = wire.feeds_body(page, only_field, memo)
            assert body == reference_feeds_body(page.channel, entries, only_field)
            assert wire.feed_doc(page, only_field) == json.loads(body)
            assert json.loads(body)["feeds"][0].get("field1", "1\n") == "1\n"
    finally:
        revived.close()


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.dictionaries(st.integers(1, 3), st.text(), min_size=1),
                     min_size=1, max_size=4))
@example(rows=[{1: '"\\', 2: "\ud800", 3: "\U0001f331\x00\x7f\u2028"}])
def test_recovered_values_of_any_text_render_as_json_dumps(rows):
    # raw log records, as a log written before update checked values could
    # hold; read back from the log, then from the snapshot close() writes
    at = datetime(2024, 12, 15, tzinfo=timezone.utc)
    entries = [FeedEntry(entry_id, at, values)
               for entry_id, values in enumerate(rows, start=1)]
    with tempfile.TemporaryDirectory() as tmp:
        service = ChannelService(data_dir=tmp, fsync=False)
        service.create_channel("c", ["A", "B", "C"], write_key=WRITE_KEY, rate_limit_s=0.0)
        service.close()
        log = RecordLog(Path(tmp) / "channel_1.log", fsync=False)
        for e in entries:
            log.append(_encode_entry(e.entry_id, format_timestamp(at), json.dumps(
                {str(k): v for k, v in e.fields.items()}, separators=(",", ":"))))
        log.close()
        for _ in range(2):
            revived = ChannelService(data_dir=tmp, fsync=False)
            try:
                memo: dict[int, str] = {}
                for only_field in (None, None, 1, 2, 3):  # the second full read is memoized
                    page = revived.read_feeds(1)
                    body = wire.feeds_body(page, only_field, memo)
                    assert body == reference_feeds_body(page.channel, entries, only_field)
                    assert wire.feed_doc(page, only_field) == json.loads(body)
            finally:
                revived.close()
        assert (Path(tmp) / "channel_1.snap").exists()


decimals = st.one_of(st.integers().map(str),
                     st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.sampled_from(["030.50", ".5", "5.", "+1", "-0", "1E-3"]))


@settings(max_examples=100, deadline=None)
@given(declared=st.sets(st.integers(1, 8), min_size=1, max_size=8),
       rows=st.lists(st.tuples(st.integers(0, 100000),
                               st.dictionaries(st.integers(1, 8), decimals, min_size=1)),
                     max_size=12),
       results=st.integers(0, 14))
@example(declared={1, 2}, rows=[(0, {1: "1"}), (5, {2: "2", 3: "3"})], results=0)
def test_feeds_body_matches_reference_rendering(declared, rows, results):
    # rows may leave declared fields out and carry undeclared ones
    service = ChannelService()
    channel = service.create_channel("st\u00e5tion \"n\"",
                                     {k: f"L{k}" for k in declared},
                                     write_key=WRITE_KEY, rate_limit_s=0.0)
    at = datetime(2024, 12, 15, tzinfo=timezone.utc)
    written = []
    for step, values in rows:
        at += timedelta(seconds=step)
        entry_id = service.update(WRITE_KEY, values, created_at=at)
        written.append(FeedEntry(entry_id, at, values))
    want = written[max(0, len(written) - results):]
    memo: dict[int, str] = {}
    for only_field in [None, *sorted(declared)]:
        for _ in range(2):  # the second full read comes from the memo
            page = service.read_feeds(1, results=results)
            body = wire.feeds_body(page, only_field, memo)
            assert body == reference_feeds_body(channel, want, only_field)
            assert wire.feed_doc(page, only_field) == json.loads(body)
    for undeclared in sorted(set(range(1, 9)) - declared)[:1]:
        page = service.read_feeds(1, results=results)
        with pytest.raises(UnknownChannelError, match=f"channel has no field {undeclared}"):
            wire.feeds_body(page, undeclared, memo)
        with pytest.raises(UnknownChannelError, match=f"channel has no field {undeclared}"):
            wire.feed_doc(page, undeclared)


def test_feed_doc_is_built_afresh_for_each_read(memory_service):
    memory_service.update(WRITE_KEY, {1: "22.04", 3: "30.00"})
    first = wire.feed_doc(memory_service.read_feeds(1))
    want = json.loads(json.dumps(first))
    first["channel"]["field1"] = "x"
    first["feeds"][0]["field1"] = "x"
    first["feeds"].append({})
    page = memory_service.read_feeds(1)
    assert wire.feed_doc(page) == want
    assert json.loads(wire.feeds_body(page, None, {})) == want


# -- the per-channel memo of entry texts --------------------------------------

def memos_given(monkeypatch) -> list[dict[int, str]]:
    """The memo each feeds_body call of the handler is given, in call order."""
    given = []
    feeds_body = httpd.feeds_body

    def spy(page, only_field, memo):
        given.append(memo)
        return feeds_body(page, only_field, memo)

    monkeypatch.setattr(httpd, "feeds_body", spy)
    return given


def poll(server, channel_id=1, **params):
    """The body of a GET of channel `channel_id`'s feeds.json."""
    r = http_get(f"{server.endpoint}/channels/{channel_id}/feeds.json",
                 params=params, timeout=5)
    assert r.status_code == 200
    return r.text


def test_each_entry_is_rendered_once_across_polls(memory_service, http_server,
                                                  monkeypatch):
    for i in range(50):
        memory_service.update(WRITE_KEY, {1: f"{i}.5", 4: "0"})
    encoded = []
    encode = wire._encode

    def counting_encode(doc):
        if "entry_id" in doc:  # a feed item, not a channel header or a body
            encoded.append(doc["entry_id"])
        return encode(doc)

    monkeypatch.setattr(wire, "_encode", counting_encode)
    given = memos_given(monkeypatch)
    first = poll(http_server, results=40)
    second = poll(http_server, results=40)
    assert first == second
    assert encoded == list(range(11, 51))
    assert given[0] is given[1]
    assert sorted(given[0]) == list(range(11, 51))


def test_rendered_memo_keeps_the_newest_window_and_stays_bounded(memory_service,
                                                                http_server,
                                                                monkeypatch):
    monkeypatch.setattr(service_module, "MAX_RESULTS", 10)
    at = lambda s: BASE + timedelta(seconds=s)  # noqa: E731
    for i in range(1, 101):
        memory_service.update(WRITE_KEY, {1: f"{i}.5"}, created_at=at(i))
    given = memos_given(monkeypatch)
    poll(http_server)  # the newest ten, 91..100
    for i in range(10, 86, 5):  # older windows, enough to force sweeps
        poll(http_server, end=format_timestamp(at(i)))
        assert len(given[-1]) <= 3 * 10  # 2 x MAX_RESULTS, then one window
    assert all(memo is given[0] for memo in given)
    assert set(range(91, 101)) <= set(given[0])


def test_sweeps_racing_polls_leave_each_body_whole(memory_service, monkeypatch):
    monkeypatch.setattr(service_module, "MAX_RESULTS", 10)
    at = lambda s: BASE + timedelta(seconds=s)  # noqa: E731
    for i in range(1, 201):
        memory_service.update(WRITE_KEY, {1: f"{i}.5"}, created_at=at(i))
    memo: dict[int, str] = {}
    problems: list[str] = []

    def poller(offset):
        for i in range(offset, 200, 7):
            page = memory_service.read_feeds(1, end=at(i))
            try:
                if json.loads(wire.feeds_body(page, None, memo)) != wire.feed_doc(page):
                    problems.append(f"body of the poll up to {i} differs")
            except Exception as exc:  # a thread's error would not fail the test
                problems.append(repr(exc))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=poller, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert problems == []
    assert len(memo) <= 3 * 10 + 4 * 10  # a sweep each, then a window each


def test_channels_behind_one_server_keep_their_own_memos(memory_service, http_server):
    other = memory_service.create_channel("other-station", ["Humidity", "Wind"],
                                          write_key="OTHERWRITEKEY001", rate_limit_s=0.0)
    station = memory_service.channel(1)
    entries = {station.id: [], other.id: []}
    for i in range(1, 6):
        created_at = BASE + timedelta(seconds=i)
        for channel, key, values in ((station, WRITE_KEY, {1: f"{i}.5", 3: "30"}),
                                     (other, other.write_key, {1: f"-{i}", 2: "7"})):
            entry_id = memory_service.update(key, values, created_at=created_at)
            entries[channel.id].append(FeedEntry(entry_id, created_at, values))
    for _ in range(2):  # the second poll of each channel comes from its memo
        for channel in (station, other):
            assert poll(http_server, channel.id) == reference_feeds_body(
                channel, entries[channel.id])


# -- the client's reader of feed bodies ---------------------------------------

def _same(got, want) -> bool:
    """Equal, and of the same types in the same key order; NaN equals NaN."""
    return repr(got) == repr(want)


def _is_feed_doc(doc) -> bool:
    return (isinstance(doc, dict) and isinstance(doc.get("channel"), dict)
            and isinstance(doc.get("feeds"), list)
            and all(isinstance(item, dict) for item in doc["feeds"]))


def _change(doc: dict) -> None:
    """Change everything in `doc` a caller could, nested values included."""
    doc["channel"]["changed"] = True
    for item in doc["feeds"]:
        for value in list(item.values()):
            if isinstance(value, list):
                value.append("changed")
            elif isinstance(value, dict):
                value["changed"] = True
        item["changed"] = True
    doc["feeds"].append({"changed": True})


def _check_reads(reads: list[tuple[str, str]], memo: wire.FeedReplies) -> None:
    """Read each (target, body) with one shared memo: each result is
    json.loads of the body, or both raise; changing a result changes no later
    read; and after each read, each kept reply is plain, its feeds text
    parses to its kept items, and all of them hold at most 2 x MAX_RESULTS
    items."""
    for target, body in reads:
        try:
            want = json.loads(body)
        except ValueError:
            want = None
        if _is_feed_doc(want):
            got = wire.parse_feeds_body(body, memo, target)
            assert _same(got, want)
            _change(got)
        else:
            with pytest.raises(ValueError):
                wire.parse_feeds_body(body, memo, target)
        kept = memo.by_target.values()
        assert memo.items == sum(len(items) for _, _, items in kept)
        assert memo.items <= 2 * service_module.MAX_RESULTS
        for text, start, items in kept:
            end = len(text) - 2
            assert wire._is_plain(text, start, end, len(items))
            assert _same(json.loads(text[start - 1:end + 1]), items)


def _feeds_text(inner: str) -> str:
    return '{"channel":{"id":1},"feeds":[' + inner + "]}"


TRICKY = st.sampled_from(["},{", '"', "\\", "[", "]", "{", "}", ",", ":", " ", "\n",
                          "\x00", "\x1f", "\x7f", "\u2028", "\U0001f331", "\ud800",
                          ',"feeds":[', '"},{"'])
texts = st.lists(st.one_of(TRICKY, st.text(max_size=3)), max_size=4).map("".join)
scalars = st.one_of(st.none(), texts, st.integers(), st.booleans(), st.floats())
values = st.one_of(scalars, st.lists(scalars, max_size=2),
                   st.dictionaries(texts, scalars, max_size=2))
keys = st.one_of(st.sampled_from(["created_at", "entry_id", "field1"]), texts)
items = st.dictionaries(keys, values, max_size=4)
# items as a feed body carries them, with no "{" or "[" or whitespace in them
flat_items = st.dictionaries(keys, scalars, max_size=4).filter(
    lambda item: not any(c in wire._encode(item)[1:] for c in "{[ \n\r\t"))
# how a body lays its doc out: as feeds_body does, or as another server might
LAYOUTS = {
    "wire": wire._encode,
    "spaced": json.dumps,                       # "}, {" between items
    "indented": lambda doc: json.dumps(doc, indent=1),
    "unescaped": lambda doc: json.dumps(doc, separators=(",", ":"), ensure_ascii=False),
    "sorted": lambda doc: json.dumps(doc, separators=(",", ":"), sort_keys=True),
    "feeds-first": lambda doc: wire._encode({"feeds": doc["feeds"],
                                              "channel": doc["channel"]}),
}


@settings(max_examples=100, deadline=None)
@given(pool=st.lists(flat_items, min_size=1, max_size=5)
       | st.lists(items, min_size=1, max_size=5),
       channel=st.dictionaries(texts, scalars, max_size=3),
       # each read under one of two targets, so that a read often goes on
       # from the last one under its target
       reads=st.lists(st.tuples(st.sampled_from("ab"), st.one_of(
           # pool items laid out, most often as the wire does, then one span
           # of the body replaced, often near an end (a negative place counts
           # from the end), or none. The items are any, or (drop, add): the
           # last run of items under the target, less `drop` from its front,
           # and `add` more at its back, as a steady poll reads them
           st.tuples(st.tuples(st.integers(0, 2), st.integers(1, 3))
                     | st.lists(st.integers(0, 9), max_size=6),
                     st.just("wire") | st.sampled_from(sorted(LAYOUTS)),
                     st.none() | st.tuples(st.integers(-12, 12) | st.integers(0, 999),
                                           st.integers(0, 2), TRICKY | st.text(max_size=2))),
           st.text() | st.lists(st.one_of(TRICKY, st.sampled_from(['{"a":1}', '"a":1', "{}"])),
                                max_size=5).map("".join).map(_feeds_text))), min_size=2, max_size=6))
@example(pool=[{"a": "},{"}, {"b": [{"c": 1}, {"d": 2}]}, {}],
         channel={"x": 1, "feeds": [{"a": "},{"}]},
         reads=[("a", ([0, 1, 2, 0], "wire", None)), ("a", ([2, 1, 0], "wire", None)),
                ("a", ([0, 1], "spaced", None)), ("a", ([], "wire", None))])
@example(pool=[{"a": [1], "b": {"c": 2}}], channel={},      # nested values, read twice
         reads=[("a", ([0], "wire", None)), ("a", ([0, 0], "wire", None))])
@example(pool=[{"a": 1}, {"b": "x"}, {"c": None}], channel={},  # steady polls
         reads=[("a", ([0, 1], "wire", None)), ("b", ([2], "wire", None)),
                ("a", ([1, 2], "wire", None)), ("a", ([1, 2], "wire", None)),
                ("a", ([2, 0], "wire", (-3, 1, "2")))])
def test_reads_with_one_memo_equal_json_loads(pool, channel, reads):
    bodies = []
    runs = {"a": [], "b": []}
    for target, read in reads:
        if isinstance(read, str):
            bodies.append((target, read))
            continue
        indices, layout, edit = read
        if isinstance(indices, tuple):
            drop, add = indices
            run = runs[target]
            after = run[-1] + 1 if run else 0
            indices = runs[target] = run[drop:] + list(range(after, after + add))
        body = LAYOUTS[layout]({"channel": channel,
                                "feeds": [pool[i % len(pool)] for i in indices]})
        if edit is not None:
            at, length, text = edit
            at %= len(body) + 1
            body = body[:at] + text + body[at + length:]
        bodies.append((target, body))
    with mock.patch.object(service_module, "MAX_RESULTS", 2):  # so that the memo fills
        _check_reads(bodies, wire.FeedReplies())


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.lists(items, max_size=4).map(lambda feed: wire._encode(feed)[1:-1]),
                 st.lists(st.one_of(TRICKY, texts, st.sampled_from(
                     ['{"a":1}', '{"a":{"b":1}}', '{"a":"{"}', "{}", ""])), max_size=6
                          ).map("".join)))
@example('{"a":1},{"b":"x"}')                   # plain
@example('{"a":"},{"},{"b":1}')                 # a "},{" in a string
@example('{"a":{"b":1}},{"c":2}')               # a nested value
@example('{"a":[{"b":1},{"c":2}]}')
@example('{"a":"x y"},{"b":1}')                 # whitespace
@example('{"a":1}, {"b":1}')
def test_a_plain_text_splits_at_each_separator_into_its_items(text):
    try:
        items = json.loads(f"[{text}]")
    except ValueError:
        return
    if not items or not all(type(item) is dict for item in items):
        return
    if wire._is_plain(text, 0, len(text), len(items)):
        pieces = text[1:-1].split("},{")
        assert len(pieces) == len(items)
        for piece, item in zip(pieces, items):
            assert _same(json.loads(f"{{{piece}}}"), item)


def test_each_rule_of_the_reader_falls_back_to_one_parse_of_the_body():
    memo = wire.FeedReplies()
    bodies = [
        '{"CHANNEL":{},"feeds":[]}',             # not the head feeds_body writes
        '{"channel":{},"feeds":[{"a":1}]]',      # nor the end
        '{"channel":[1],"feeds":[]}',            # C is not an object
        '{"channel":{"a":1}x,"feeds":[]}',       # nor is it one whole object
        '{"channel":{},"feeds":[1,2]}',          # F is not all objects
        '{"channel":{},"feeds":[ {"a":1}]}',     # F holds whitespace
        '{"channel":{},"feeds":[x"a":1}]}',
        '{"channel":{},"feeds":[{"a":1} ]}',
        '{"channel":{},"feeds":[{"a":1 ]}',
        '{"channel":{},"feeds":[{"a":1},{"b":2} ,{"c":3}]}',
        '{"channel":{"x":1,"feeds":[1]},"feeds":[{"a":1}]}',  # a cut inside C
        '{"channel":{},"feeds":[{"a":"},{"},{"b":"x"}]}',     # a "{" in a string
        '{"channel":{},"feeds":[{"a":[{"b":1},{"c":2}]}]}',   # nested values
        '{"channel":{},"feeds":[]}x',
        '{"channel":{},"feeds":[]}',
        '{"channel":{},"feeds":{}}',
        '<html>proxy error</html>',
        '',
    ]
    _check_reads([("t", body) for body in bodies], memo)
    assert memo.by_target == {}   # only a plain reply is kept
    _check_reads([("t", '{"channel":{},"feeds":[{"a":1},{"b":"x"}]}')], memo)
    assert list(memo.by_target) == ["t"] and memo.items == 2


def _count_parses(monkeypatch) -> list[str]:
    """The texts wire gives json.loads, in call order."""
    given = []

    def loads(text):
        given.append(text)
        return json.loads(text)

    monkeypatch.setattr(wire, "json", SimpleNamespace(loads=loads))
    return given


# (kept feeds text, new feeds text, what the new one is parsed from), each
# read under one target
OVERLAPS = [
    ('{"id":1},{"id":2}', '{"id":2},{"id":3}', ['[{"id":3}]']),     # a steady poll
    ('{"id":1},{"id":2}', '{"id":1},{"id":2}', []),                 # a read again
    ('{"id":1},{"id":2}', '{"id":2}', []),
    # the probe is also in a string of the kept reply, which is not plain
    ('{"a":"{\\"id\\":2}{}"},{"id":2}', '{},{"id":3}', ['[{},{"id":3}]']),
    ('{"a":"{}"},{"id":2}', '{},{"id":3}', ['[{},{"id":3}]']),
    # the overlap ends inside an item
    ('{"id":1},{"id":2},{"v":"a"}', '{"id":2},{"v":"b"},{"id":3}',
     ['[{"id":2},{"v":"b"},{"id":3}]']),
    ('{"id":1},{"id":2},{"id":3,"v":"a"}', '{"id":2},{"id":3,"v":"ab"}',
     ['[{"id":2},{"id":3,"v":"ab"}]']),
    ('{"id":1},{"id":2}', '{"id":2,"v":1},{"id":3}', ['[{"id":2,"v":1},{"id":3}]']),
    # a new text that is not JSON, though it starts with the kept one's end
    ('{"id":1},{"id":2}', '{"id":1},{"id":2},',
     ['[{"id":1},{"id":2},]', _feeds_text('{"id":1},{"id":2},')]),
    ('{"id":1},{"id":2}', '{"id":1},{"id":2}x{"id":3}',
     ['[{"id":1},{"id":2}x{"id":3}]', _feeds_text('{"id":1},{"id":2}x{"id":3}')]),
    ('{"id":1}', '"id":1},{"id":2}', ['["id":1},{"id":2}]', _feeds_text('"id":1},{"id":2}')]),
    # the new tail holds whitespace or a nested value: read, not kept
    ('{"id":1}', '{"id":1},{"id": 2}', ['[{"id": 2}]']),
    ('{"id":1}', '{"id":1},{"id":2,"v":[1]}', ['[{"id":2,"v":[1]}]']),
    ('{"id":1}', '{"id":1},{"id":2,"v":{"w":1}}', ['[{"id":2,"v":{"w":1}}]']),
    ('{"id":1}', '{"id":1}, {"id":2}', ['[{"id":1}, {"id":2}]']),
    # repeated item texts
    ('{"a":1},{"b":2},{"a":1}', '{"a":1},{"c":3}', ['[{"a":1},{"c":3}]']),
    ('{"a":1},{"a":1}', '{"a":1},{"a":1},{"a":1}', ['[{"a":1}]']),
    # a shorter reply that is a prefix of the kept one
    ('{"id":1},{"id":2},{"id":3}', '{"id":1},{"id":2}', ['[{"id":1},{"id":2}]']),
    # an empty feed list, kept or new
    ('{"id":1}', '', ['[]']),
    ('', '{"id":1}', ['[{"id":1}]']),
]


def test_each_refusal_of_an_overlap_parses_the_new_feeds_whole(monkeypatch):
    parsed = _count_parses(monkeypatch)
    for kept, new, want in OVERLAPS:
        memo = wire.FeedReplies()
        _check_reads([("t", _feeds_text(kept))], memo)
        parsed.clear()
        _check_reads([("t", _feeds_text(new))], memo)
        assert parsed == want, (kept, new)


def test_an_item_is_parsed_once_and_each_read_has_its_own_dicts(monkeypatch):
    parsed = _count_parses(monkeypatch)
    memo = wire.FeedReplies()
    doc = {"channel": {"id": 1}, "feeds": [{"entry_id": i, "field1": f"{i}.5"}
                                           for i in range(1, 4)]}
    first = wire.parse_feeds_body(wire._encode(doc), memo, "poll")
    assert parsed == [wire._encode(doc["feeds"])]
    doc["feeds"].append({"entry_id": 4, "field1": None})
    second = wire.parse_feeds_body(wire._encode(doc), memo, "poll")
    assert parsed[1:] == ['[{"entry_id":4,"field1":null}]']
    assert first["feeds"] == second["feeds"][:3]
    assert all(a is not b for a, b in zip(first["feeds"], second["feeds"]))
    assert second == doc


def test_short_reads_between_polls_leave_the_polls_items_in_the_memo(monkeypatch):
    monkeypatch.setattr(service_module, "MAX_RESULTS", 4)   # the memo holds 8 items
    parsed = _count_parses(monkeypatch)
    memo = wire.FeedReplies()
    polls = []
    for r in range(4):  # a poll of 4 entries, then a table, a plot and a new window
        ids = list(range(r + 1, r + 5))
        for target, read in (("poll", ids), ("table", ids[-1:]), ("plot", ids[-1:]),
                             (f"window{r}", [20 + 2 * r, 21 + 2 * r])):
            doc = {"channel": {}, "feeds": [{"entry_id": i} for i in read]}
            parsed.clear()
            assert wire.parse_feeds_body(wire._encode(doc), memo, target) == doc
            assert memo.items <= 8
            if target == "poll":
                polls.append(parsed[:])
        assert "poll" in memo.by_target
    # from the second round on, a window read fills the memo; each poll
    # parses only its new entry
    assert polls == [[wire._encode([{"entry_id": i} for i in range(1, 5)])],
                     ['[{"entry_id":5}]'], ['[{"entry_id":6}]'], ['[{"entry_id":7}]']]


def test_a_thousand_window_targets_keep_at_most_2_x_max_results_items(monkeypatch):
    monkeypatch.setattr(service_module, "MAX_RESULTS", 4)
    memo = wire.FeedReplies()
    for i in range(1000):   # 0 to 3 entries a window, each under its own target
        doc = {"channel": {}, "feeds": [{"entry_id": 4 * i + k} for k in range(i % 4)]}
        assert wire.parse_feeds_body(wire._encode(doc), memo, f"window{i}") == doc
        assert memo.items == sum(len(items) for _, _, items in memo.by_target.values()) <= 8
    assert len(memo.by_target) <= 8


# -- the request parser against the stdlib's ---------------------------------

class StdlibHandler(httpd._Handler):
    """The handler with the stdlib's parse_request, and replies sent through
    send_response, send_header and end_headers, as before it did either
    itself."""

    parse_request = BaseHTTPRequestHandler.parse_request

    def _reply(self, status, body, content_type):
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


INTERIM = b"HTTP/1.1 100 Continue\r\n\r\n"
PROBE = b"GET /nope HTTP/1.1\r\n\r\n"


def _read_reply(sock) -> tuple[bytes, bool]:
    """The bytes of one reply, after any `100 Continue`, and whether the
    peer closed the connection. A reply with no status line ends at EOF."""
    data = b""
    while True:
        head, blank, body = data.removeprefix(INTERIM).partition(b"\r\n\r\n")
        if blank and data.startswith(b"HTTP/"):
            length = re.search(rb"\r\nContent-Length: (\d+)", head)
            if length and len(body) >= int(length[1]):
                return data, False
        try:
            chunk = sock.recv(65536)
        except ConnectionResetError:  # closed with our request unread
            chunk = b""
        if not chunk:
            return data, True
        data += chunk


def exchange(server, raw: bytes, eof: bool = False) -> tuple[bytes, bool]:
    """Send `raw` on a new connection to `server`, and EOF after it if `eof`:
    the reply, and whether the connection then serves another request."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        try:
            sock.sendall(raw)
        except (BrokenPipeError, ConnectionResetError):
            pass  # refused before it was all read; the reply is still there
        if eof:
            sock.shutdown(socket.SHUT_WR)
        reply, closed = _read_reply(sock)
        if closed or eof:
            return reply, False
        try:
            sock.sendall(PROBE)
            probe, _ = _read_reply(sock)
        except (BrokenPipeError, ConnectionResetError):
            probe = b""
        return reply, probe.startswith(b"HTTP/1.1 404 ")


def fields_of(reply: bytes) -> tuple[bytes | None, list[bytes], bytes]:
    """(status line, header lines with the Date value masked, body); a reply
    with no status line is all body."""
    if not reply.removeprefix(INTERIM).startswith(b"HTTP/"):
        return None, [], reply
    head, _, body = reply.partition(b"\r\n\r\n")
    status, *headers = head.split(b"\r\n")
    return status, [re.sub(rb"^Date: .*", b"Date: -", h) for h in headers], body


FEEDS = b"GET /channels/1/feeds.json"
LONG = b"x" * 65537

WIRE_CASES = {
    "keep-alive GET": FEEDS + b" HTTP/1.1\r\nHost: x\r\n\r\n",
    "HTTP/1.0": FEEDS + b" HTTP/1.0\r\n\r\n",
    "HTTP/1.0 keep-alive": FEEDS + b" HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    "Connection: close": FEEDS + b" HTTP/1.1\r\nConnection: close\r\n\r\n",
    "CONNECTION: Close": FEEDS + b" HTTP/1.1\r\nCONNECTION: Close\r\n\r\n",
    "empty request line": b"\r\n",
    "four words": FEEDS + b" x HTTP/1.1\r\n\r\n",
    "99 headers": FEEDS + b" HTTP/1.1\r\n" + b"X: y\r\n" * 99 + b"\r\n",
    "100 headers": FEEDS + b" HTTP/1.1\r\n" + b"X: y\r\n" * 100 + b"\r\n",
    "101 headers": FEEDS + b" HTTP/1.1\r\n" + b"X: y\r\n" * 101 + b"\r\n",
    "65,537-byte header line": FEEDS + b" HTTP/1.1\r\nX: " + LONG[:65532] + b"\r\n\r\n",
    "65,537-byte request line": b"GET /" + LONG[:65521] + b" HTTP/1.1\r\n\r\n",
    "header with no colon": FEEDS + b" HTTP/1.1\r\nHost: x\r\nno colon here\r\n\r\n",
    "leading //": b"GET //channels/1/feeds.json HTTP/1.1\r\n\r\n",
    "unsupported method": b"POST /update HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    "unknown endpoint": b"GET /nope HTTP/1.1\r\n\r\n",
    "bad write key": b"GET /update?api_key=NOPE&field1=1 HTTP/1.1\r\n\r\n",
}


@pytest.fixture
def wire_servers(memory_service, http_server):
    """(the server, one on the same service with StdlibHandler)"""
    write_golden_entries(http_server)
    reference = ChannelHttpServer(memory_service)
    reference._httpd.RequestHandlerClass = StdlibHandler
    reference.start()
    yield http_server, reference
    reference.stop()


def test_wire_case_lines_are_as_long_as_named():
    assert len(WIRE_CASES["65,537-byte header line"].split(b"\r\n")[1]) + 2 == 65537
    assert len(WIRE_CASES["65,537-byte request line"].split(b"\r\n")[0]) + 2 == 65537


@pytest.mark.parametrize("case", sorted(WIRE_CASES))
def test_request_parsing_replies_as_the_stdlib_does(wire_servers, case):
    server, reference = wire_servers
    raw = WIRE_CASES[case]
    got, want = exchange(server, raw), exchange(reference, raw)
    assert fields_of(got[0]) == fields_of(want[0])
    assert got[1] == want[1]


def test_eof_in_the_head_ends_it_as_the_stdlib_does(wire_servers):
    server, reference = wire_servers
    raw = FEEDS + b" HTTP/1.1\r\nHost: x\r\n"
    got, want = exchange(server, raw, eof=True), exchange(reference, raw, eof=True)
    assert fields_of(got[0]) == fields_of(want[0])
    assert got[0].startswith(b"HTTP/1.1 200 OK\r\n")
    assert got[0].endswith(GOLDEN_FEEDS_BODY.encode())


def test_the_wire_cases_cover_each_outcome(wire_servers):
    server, _ = wire_servers
    statuses = {case: fields_of(exchange(server, raw)[0])[0]
                for case, raw in WIRE_CASES.items()}
    assert statuses["keep-alive GET"] == b"HTTP/1.1 200 OK"
    assert statuses["leading //"] == b"HTTP/1.1 200 OK"
    assert statuses["101 headers"] == b"HTTP/1.1 431 Too many headers"
    assert statuses["65,537-byte request line"] == b"HTTP/1.1 414 Request-URI Too Long"
    assert exchange(server, WIRE_CASES["keep-alive GET"])[1] is True
    assert exchange(server, WIRE_CASES["HTTP/1.0"])[1] is False
    assert exchange(server, WIRE_CASES["empty request line"]) == (b"", False)


# Request lines the stdlib answers with the error page alone, no status line
# and no headers, as HTTP/0.9 is answered; the handler sends a whole reply.
REQUEST_LINE_ERRORS = {
    "one word": (b"GET\r\n\r\n", b"HTTP/1.1 400 Bad request syntax ('GET')"),
    "HTTP/2.0": (FEEDS + b" HTTP/2.0\r\n\r\n", b"HTTP/1.1 505 Invalid HTTP version (2.0)"),
    "HTTP/1.x": (FEEDS + b" HTTP/1.x\r\n\r\n",
                 b"HTTP/1.1 400 Bad request version ('HTTP/1.x')"),
}


def _is_error_reply(reply: bytes, status: bytes) -> bool:
    """Whether `reply` is a whole send_error reply with status line `status`
    that closes the connection."""
    got, headers, body = fields_of(reply)
    return (got == status and b"Connection: close" in headers
            and b"Content-Type: text/html;charset=utf-8" in headers
            and f"Content-Length: {len(body)}".encode() in headers)


@pytest.mark.parametrize("case", sorted(REQUEST_LINE_ERRORS))
def test_request_line_errors_get_a_status_line_where_the_stdlib_sent_none(wire_servers,
                                                                         case):
    server, reference = wire_servers
    raw, status = REQUEST_LINE_ERRORS[case]
    got, want = exchange(server, raw), exchange(reference, raw)
    assert fields_of(want[0])[0] is None      # the stdlib: the page alone
    assert _is_error_reply(got[0], status)
    assert fields_of(got[0])[2] == want[0]    # the same page
    assert got[1] is want[1] is False


def test_two_word_http_0_9_request_is_refused_where_the_stdlib_served_it(wire_servers):
    server, reference = wire_servers
    raw = FEEDS + b"\r\n\r\n"
    got, want = exchange(server, raw), exchange(reference, raw)
    assert want == (GOLDEN_FEEDS_BODY.encode(), False)  # HTTP/0.9: the body alone
    assert got[1] is False
    assert _is_error_reply(
        got[0], b"HTTP/1.1 400 Bad request syntax ('GET /channels/1/feeds.json')")
    assert b"Message: Bad request syntax ('GET /channels/1/feeds.json')" in got[0]


def test_expect_100_continue_gets_the_reply_alone(wire_servers):
    # a GET has no body to wait for, so the server may leave the 100 out
    server, reference = wire_servers
    raw = FEEDS + b" HTTP/1.1\r\nExpect: 100-continue\r\n\r\n"
    got, want = exchange(server, raw), exchange(reference, raw)
    assert want[0].startswith(INTERIM)
    assert fields_of(got[0]) == fields_of(want[0].removeprefix(INTERIM))
    assert got[1] == want[1] is True


DIGITS = b"1" * 5000        # past int()'s limit of 4300 digits
NOT_FOUND = b'{"error":"channel not found"}'
# request targets with a number that int() cannot read, and the reply each gets
UNREADABLE_NUMBERS = {
    "field with a superscript index": (
        b"/update?api_key=" + WRITE_KEY.encode() + b"&field%C2%B2=1", b"400 Bad Request", b"0"),
    "5000-digit field index": (
        b"/update?api_key=" + WRITE_KEY.encode() + b"&field" + DIGITS + b"=1",
        b"400 Bad Request", b"0"),
    "5000-digit channel id": (b"/channels/" + DIGITS + b"/feeds.json", b"404 Not Found",
                              NOT_FOUND),
    "5000-digit field in the path": (b"/channels/1/fields/" + DIGITS + b".json",
                                     b"404 Not Found", NOT_FOUND),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_NUMBERS))
def test_a_number_int_cannot_read_gets_a_whole_reply(http_server, case):
    target, status, body = UNREADABLE_NUMBERS[case]
    reply, served_again = exchange(http_server, b"GET " + target + b" HTTP/1.1\r\n\r\n")
    got_status, _, got_body = fields_of(reply)
    assert (got_status, got_body) == (b"HTTP/1.1 " + status, body)
    assert served_again


def test_read_head_keeps_the_stdlibs_limits():
    head = b"A: 1\r\nb :  two  \r\nA: 3\r\nno colon\r\n\r\nrest"
    rfile = io.BytesIO(head)
    assert wire.read_head(rfile) == {"a": "1", "b": "two"}
    assert rfile.read() == b"rest"
    assert wire.read_head(io.BytesIO(b"A: 1\n")) == {"a": "1"}  # EOF ends a head
    assert len(wire.read_head(io.BytesIO(b"X: y\r\n" * 99 + b"\r\n"))) == 1
    with pytest.raises(HTTPException, match="got more than 100 headers"):
        wire.read_head(io.BytesIO(b"X: y\r\n" * 100 + b"\r\n"))
    assert wire.read_head(io.BytesIO(b"X: " + b"y" * 65531 + b"\r\n")) == {"x": "y" * 65531}
    with pytest.raises(LineTooLong):
        wire.read_head(io.BytesIO(b"X: " + b"y" * 65532 + b"\r\n"))


def test_debug_log_has_one_line_per_request(http_server, caplog):
    caplog.set_level(logging.DEBUG, logger=httpd.log.name)
    client = HttpServiceClient(http_server.endpoint, write_key=WRITE_KEY)
    assert client.update({1: "1.0"}) == 1
    client.read_feeds(1)
    with pytest.raises(UnknownChannelError):
        client.read_feeds(9)
    lines = [r.getMessage() for r in caplog.records if r.name == httpd.log.name]
    assert len(lines) == 3
    assert lines[0].startswith('127.0.0.1 "GET /update?api_key=')
    assert lines[0].endswith(' HTTP/1.1" 200 -')
    assert lines[1] == '127.0.0.1 "GET /channels/1/feeds.json HTTP/1.1" 200 -'
    assert lines[2] == '127.0.0.1 "GET /channels/9/feeds.json HTTP/1.1" 404 -'


def test_access_log_line_is_not_formatted_unless_debug_is_on(http_server, caplog,
                                                             monkeypatch):
    caplog.set_level(logging.INFO, logger=httpd.log.name)
    formatted = []
    monkeypatch.setattr(httpd._Handler, "address_string",
                        lambda self: formatted.append(1) or "peer")
    assert HttpServiceClient(http_server.endpoint, write_key=WRITE_KEY).update(
        {1: "1.0"}) == 1
    assert formatted == []
    assert not [r for r in caplog.records if r.name == httpd.log.name]
