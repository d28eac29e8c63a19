"""Wire-protocol conformance against a live HTTP server."""
from __future__ import annotations

import threading
import time

import requests

from tests.conftest import WRITE_KEY

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
