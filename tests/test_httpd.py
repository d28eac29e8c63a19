"""Wire-protocol conformance against a live HTTP server."""
from __future__ import annotations

import errno
import json
import socket
import sys
import threading
import time
from datetime import datetime, timedelta, timezone

import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from agristack import httpd, storelog
from agristack import service as service_module
from agristack.client import HttpServiceClient, ServiceUnavailable
from agristack.service import (ChannelService, FeedEntry, UnknownChannelError,
                               _encode_entry, format_timestamp)
from agristack.storelog import RecordLog
from tests.conftest import WRITE_KEY

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
    return requests.get(f"{server.endpoint}/update", params=params, timeout=5)


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
    r = requests.get(f"{http_server.endpoint}/update?field1=1.0", timeout=5)
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
    r = requests.get(f"{http_server.endpoint}/channels/1/feeds.json",
                     params={"results": 3}, timeout=5)
    assert r.status_code == 200
    assert r.headers["Content-Type"].startswith("application/json")
    assert r.text == GOLDEN_FEEDS_BODY
    assert r.content == GOLDEN_FEEDS_BODY.encode("utf-8")


def test_single_field_body_matches_golden_fixture(http_server):
    write_golden_entries(http_server)
    r = requests.get(f"{http_server.endpoint}/channels/1/fields/1.json",
                     params={"results": 3}, timeout=5)
    assert r.status_code == 200
    assert r.text == GOLDEN_FIELD_BODY


def test_feeds_results_and_window_filters(http_server):
    write_golden_entries(http_server)
    r = requests.get(f"{http_server.endpoint}/channels/1/feeds.json",
                     params={"results": 1}, timeout=5)
    assert [e["entry_id"] for e in r.json()["feeds"]] == [2]
    r = requests.get(
        f"{http_server.endpoint}/channels/1/feeds.json",
        params={"start": "2024-12-15T10:00:00Z", "end": "2024-12-15T10:00:10Z"},
        timeout=5)
    assert [e["entry_id"] for e in r.json()["feeds"]] == [1]
    r = requests.get(f"{http_server.endpoint}/channels/1/feeds.json",
                     params={"results": 0}, timeout=5)
    body = r.json()
    assert body["feeds"] == []
    assert body["channel"]["id"] == 1


def test_unknown_channel_is_404(http_server):
    r = requests.get(f"{http_server.endpoint}/channels/99/feeds.json", timeout=5)
    assert r.status_code == 404
    assert r.json() == {"error": "channel not found"}


def test_unknown_endpoint_is_404(http_server):
    r = requests.get(f"{http_server.endpoint}/nope", timeout=5)
    assert r.status_code == 404


def test_unknown_field_is_404(http_server):
    write_golden_entries(http_server)
    r = requests.get(f"{http_server.endpoint}/channels/1/fields/7.json", timeout=5)
    assert r.status_code == 404


def test_bad_results_param_is_400(http_server):
    r = requests.get(f"{http_server.endpoint}/channels/1/feeds.json",
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
        session = requests.Session()
        got = []
        for i in range(25):
            r = session.get(f"{http_server.endpoint}/update",
                            params={"api_key": WRITE_KEY, "field1": f"{i}.0"},
                            timeout=5)
            got.append(r.text)
        with lock:
            results.extend(got)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(int(x) for x in results) == list(range(1, 101))


def test_keepalive_requests_do_not_wait_for_delayed_ack(http_server):
    # Each reply is two sends; if the second waits on the client's delayed
    # ACK (Nagle), every request costs ~40 ms and 100 of them ~4 s.
    with requests.Session() as session:
        started = time.perf_counter()
        for i in range(50):
            r = session.get(f"{http_server.endpoint}/update",
                            params={"api_key": WRITE_KEY, "field1": f"{i}.0"},
                            timeout=5)
            assert (r.status_code, r.text) == (200, str(i + 1))
        writes_s = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(50):
            r = session.get(f"{http_server.endpoint}/channels/1/feeds.json",
                            params={"results": 3}, timeout=5)
            assert r.status_code == 200 and len(r.json()["feeds"]) == 3
        reads_s = time.perf_counter() - started
    assert writes_s < 1.0, f"50 keep-alive writes took {writes_s:.2f}s"
    assert reads_s < 1.0, f"50 keep-alive reads took {reads_s:.2f}s"


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
        assert [page.fields[i - 1] for i in page.ids] == [{"1": "1.0"}, {"1": "3.0"}]
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
                             {"1": "1\n", "2": "\u0663", "3": "2.5"}))
    log.close()

    entries = [FeedEntry(1, at, {1: "1\n", 2: "\u0663", 3: "2.5"})]
    revived = ChannelService(data_dir=tmp_path, fsync=False)
    try:
        memo: dict[int, str] = {}
        for only_field in (None, None, 1, 2):  # the second full read is memoized
            page = revived.read_feeds(1)
            body = httpd.feeds_body(page, only_field, memo)
            assert body == reference_feeds_body(page.channel, entries, only_field)
            assert httpd.feed_doc(page, only_field) == json.loads(body)
            assert json.loads(body)["feeds"][0].get("field1", "1\n") == "1\n"
    finally:
        revived.close()


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
            body = httpd.feeds_body(page, only_field, memo)
            assert body == reference_feeds_body(channel, want, only_field)
            assert httpd.feed_doc(page, only_field) == json.loads(body)
    for undeclared in sorted(set(range(1, 9)) - declared)[:1]:
        page = service.read_feeds(1, results=results)
        with pytest.raises(UnknownChannelError, match=f"channel has no field {undeclared}"):
            httpd.feeds_body(page, undeclared, memo)
        with pytest.raises(UnknownChannelError, match=f"channel has no field {undeclared}"):
            httpd.feed_doc(page, undeclared)


def test_feed_doc_is_built_afresh_for_each_read(memory_service):
    memory_service.update(WRITE_KEY, {1: "22.04", 3: "30.00"})
    first = httpd.feed_doc(memory_service.read_feeds(1))
    want = json.loads(json.dumps(first))
    first["channel"]["field1"] = "x"
    first["feeds"][0]["field1"] = "x"
    first["feeds"].append({})
    page = memory_service.read_feeds(1)
    assert httpd.feed_doc(page) == want
    assert json.loads(httpd.feeds_body(page, None, {})) == want


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
    r = requests.get(f"{server.endpoint}/channels/{channel_id}/feeds.json",
                     params=params, timeout=5)
    assert r.status_code == 200
    return r.text


def test_each_entry_is_rendered_once_across_polls(memory_service, http_server,
                                                  monkeypatch):
    for i in range(50):
        memory_service.update(WRITE_KEY, {1: f"{i}.5", 4: "0"})
    rendered = []
    render_entry = httpd.render_entry

    def counting_render(entry_id, created_at, fields, names):
        rendered.append(entry_id)
        return render_entry(entry_id, created_at, fields, names)

    monkeypatch.setattr(httpd, "render_entry", counting_render)
    given = memos_given(monkeypatch)
    first = poll(http_server, results=40)
    second = poll(http_server, results=40)
    assert first == second
    assert rendered == list(range(11, 51))
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
                if json.loads(httpd.feeds_body(page, None, memo)) != httpd.feed_doc(page):
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
