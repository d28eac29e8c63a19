from __future__ import annotations

import csv
import errno
import io
import os
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import agristack
from agristack import cli as cli_module, httpd
from agristack.analytics import evaluate_alerts, default_rules
from agristack.cli import DEFAULT_WRITE_KEY, _entry_to_reading, cli, main, sparkline
from agristack.client import HttpServiceClient
from agristack.service import ChannelService
from agristack.storelog import RecordLog
from tests.conftest import WRITE_KEY, http_get, ok_reply, scripted_server


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# serve returns only on an error or a stop, which each test here expects within
# this long
SERVE_DEADLINE_S = 10.0


def run_serve(capsys, *args):
    """run_cli of `serve`, run in a daemon thread so that a serve that does
    not fail fails the test instead of hanging the suite."""
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(["serve", *args])),
                              daemon=True)
    thread.start()
    thread.join(SERVE_DEADLINE_S)
    if thread.is_alive():
        pytest.fail(f"serve {' '.join(args)} still running after {SERVE_DEADLINE_S} s")
    captured = capsys.readouterr()
    return codes[0], captured.out, captured.err


def seed_entries(server, rows):
    """rows: list of (created_at, fields dict)"""
    for created_at, fields in rows:
        params = {"api_key": WRITE_KEY, "created_at": created_at, **fields}
        r = http_get(f"{server.endpoint}/update", params=params, timeout=5)
        assert r.status_code == 200 and r.text != "0"


BASIC_ROWS = [
    ("2024-12-15T10:00:00Z", {"field1": "22.04", "field2": "1013.05",
                              "field3": "30.00", "field4": "0"}),
    ("2024-12-15T10:00:10Z", {"field1": "22.10", "field3": "29.80",
                              "field4": "1"}),
    ("2024-12-15T10:00:20Z", {"field1": "22.18", "field2": "1013.20",
                              "field3": "29.60", "field4": "0"}),
]


# ---------------------------------------------------------------------------
# table


def test_table_renders_rows_with_verbatim_cells(http_server, capsys):
    seed_entries(http_server, BASIC_ROWS)
    code, out, _ = run_cli(capsys, "table", "--endpoint", http_server.endpoint,
                           "--results", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["Time", "Temperature", "Moisture", "Pressure", "Rain"]
    assert len(lines) == 4  # header + 3 rows (fewer than requested)
    assert "22.04" in lines[1]          # byte-for-byte service string
    assert "1013.05" in lines[1]
    assert lines[2].split() == ["2024-12-15T10:00:10Z", "22.10", "29.80", "--", "1"]


def test_table_results_zero_prints_header_only(http_server, capsys):
    seed_entries(http_server, BASIC_ROWS)
    code, out, _ = run_cli(capsys, "table", "--endpoint", http_server.endpoint,
                           "--results", "0")
    assert code == 0
    assert out.splitlines() == ["Time  Temperature  Moisture  Pressure  Rain"]


def test_table_unknown_channel_is_data_error(http_server, capsys):
    code, _, err = run_cli(capsys, "table", "--endpoint", http_server.endpoint,
                           "--channel", "99")
    assert code == 3
    assert "data error" in err


def test_table_unreachable_service_is_network_error(capsys):
    code, _, err = run_cli(capsys, "table", "--endpoint", "http://127.0.0.1:1")
    assert code == 2
    assert "network error" in err


def test_table_on_a_reply_that_is_not_a_feed_body_is_network_error(capsys):
    with scripted_server([ok_reply(b"<html>proxy error</html>")]) as (port, _):
        code, _, err = run_cli(capsys, "table", "--endpoint", f"http://127.0.0.1:{port}")
    assert code == 2
    assert "network error" in err and "unexpected reply" in err


# ---------------------------------------------------------------------------
# plot


def test_plot_exports_csv_with_forecast_oracle_alignment(http_server, capsys):
    rows = [(f"2024-12-15T10:00:{i:02d}Z", {"field1": value})
            for i, value in enumerate(["10", "20", "30", "40"])]
    seed_entries(http_server, rows)
    code, out, err = run_cli(capsys, "plot", "--endpoint", http_server.endpoint,
                             "--field", "1", "--results", "10",
                             "--with-forecast", "--window", "3")
    assert code == 0
    reader = list(csv.reader(io.StringIO(out)))
    assert reader[0] == ["t", "value", "forecast"]
    assert [row[1] for row in reader[1:]] == ["10", "20", "30", "40"]
    assert [row[2] for row in reader[1:]] == ["", "", "20", "30"]
    assert sparkline([10, 20, 30, 40]) in err


def test_plot_constant_series_forecast_equals_values(http_server, capsys):
    rows = [(f"2024-12-15T10:00:{i:02d}Z", {"field1": "25"}) for i in range(4)]
    seed_entries(http_server, rows)
    code, out, _ = run_cli(capsys, "plot", "--endpoint", http_server.endpoint,
                           "--with-forecast")
    reader = list(csv.reader(io.StringIO(out)))
    for row in reader[3:]:
        assert row[2] == "25"


def test_plot_empty_channel_zero_row_export(http_server, capsys):
    code, out, err = run_cli(capsys, "plot", "--endpoint", http_server.endpoint)
    assert code == 0
    assert out == "t,value\n"
    assert err == ""  # no sparkline for an empty feed


def test_plot_round_trip_reproduces_feed_values(http_server, capsys):
    seed_entries(http_server, BASIC_ROWS)
    code, out, _ = run_cli(capsys, "plot", "--endpoint", http_server.endpoint,
                           "--field", "2", "--results", "10")
    assert code == 0
    reader = list(csv.reader(io.StringIO(out)))
    doc = http_get(f"{http_server.endpoint}/channels/1/fields/2.json",
                   params={"results": 10}, timeout=5).json()
    exported = [(row[0], row[1] or None) for row in reader[1:]]
    expected = [(e["created_at"], e["field2"]) for e in doc["feeds"]]
    assert exported == expected


def test_plot_out_file(http_server, capsys, tmp_path):
    seed_entries(http_server, BASIC_ROWS)
    out_path = tmp_path / "export.csv"
    code, out, _ = run_cli(capsys, "plot", "--endpoint", http_server.endpoint,
                           "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("t,value\n")


def test_plot_bad_field_is_usage_error(http_server, capsys):
    code, _, err = run_cli(capsys, "plot", "--endpoint", http_server.endpoint,
                           "--field", "9")
    assert code == 1


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0]) == "▄▄"
    line = sparkline([0, 1, 2, 3])
    assert line[0] == "▁"
    assert line[-1] == "█"


# ---------------------------------------------------------------------------
# watch-alerts


HOT_ROWS = [
    (f"2024-12-15T10:00:{i:02d}Z", {"field1": "36.00", "field3": "30.00"})
    for i in range(4)
]


def test_watch_alerts_prints_exactly_one_line_per_episode(http_server, capsys):
    seed_entries(http_server, HOT_ROWS)
    code, out, _ = run_cli(capsys, "watch-alerts", "--endpoint",
                           http_server.endpoint, "--max-polls", "1", "--poll", "0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert "Temperature is high, consider cooling measures" in lines[0]
    assert "high_temp" in lines[0]
    assert lines[0].startswith("2024-12-15T10:00:02Z")


def test_watch_alerts_names_entries_beyond_one_poll(memory_service, http_server, capsys):
    for _ in range(8005):
        memory_service.update(WRITE_KEY, {1: "22.0"})
    code, out, err = run_cli(capsys, "watch-alerts", "--endpoint",
                             http_server.endpoint, "--max-polls", "1", "--poll", "0")
    assert code == 0
    assert out == ""
    assert err == "warning: entries 1..5 not evaluated\n"


def test_watch_alerts_retries_after_a_reply_that_is_not_a_feed_body(capsys, monkeypatch):
    sleeps = []

    def sleep(seconds):  # the first after the bad reply, the second after the poll
        sleeps.append(seconds)
        if len(sleeps) == 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(cli_module.time, "sleep", sleep)
    replies = [ok_reply(b"<html>proxy error</html>"),
               ok_reply(b'{"channel":{"id":1},"feeds":[]}')]
    with scripted_server(replies) as (port, heads):
        code, out, err = run_cli(capsys, "watch-alerts", "--endpoint",
                                 f"http://127.0.0.1:{port}", "--poll", "0")
    assert code == 130                  # stopped by the interrupt, not the reply
    assert len(heads) == 2
    assert "unexpected reply" in err and "retrying" in err
    assert out == ""


def test_watch_alerts_negative_poll_is_usage_error_before_any_read(capsys, monkeypatch):
    reads = []
    monkeypatch.setattr(HttpServiceClient, "read_feeds",
                        lambda self, *args, **kwargs: reads.append(args) or {"feeds": []})
    code, _, err = run_cli(capsys, "watch-alerts", "--poll", "-1")
    assert code == 1
    assert "--poll" in err
    assert reads == []


def test_watch_alerts_quiet_on_normal_stream(http_server, capsys):
    seed_entries(http_server, BASIC_ROWS)
    code, out, _ = run_cli(capsys, "watch-alerts", "--endpoint",
                           http_server.endpoint, "--max-polls", "1", "--poll", "0")
    assert code == 0
    assert out == ""


def test_watch_alerts_two_episodes_two_lines(http_server, capsys):
    temps = ["36", "36", "36", "30", "36", "36", "36"]
    rows = [(f"2024-12-15T10:00:{i:02d}Z", {"field1": t})
            for i, t in enumerate(temps)]
    seed_entries(http_server, rows)
    code, out, _ = run_cli(capsys, "watch-alerts", "--endpoint",
                           http_server.endpoint, "--max-polls", "1", "--poll", "0")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_watch_alerts_matches_offline_evaluation(http_server, capsys):
    temps = ["36", "36", "36", "30", "36", "36", "36", "34", "36"]
    rows = [(f"2024-12-15T10:00:{i:02d}Z", {"field1": t})
            for i, t in enumerate(temps)]
    seed_entries(http_server, rows)
    code, out, _ = run_cli(capsys, "watch-alerts", "--endpoint",
                           http_server.endpoint, "--max-polls", "3", "--poll", "0")
    assert code == 0

    doc = http_get(f"{http_server.endpoint}/channels/1/feeds.json",
                   params={"results": 8000}, timeout=5).json()
    readings = [_entry_to_reading(e) for e in doc["feeds"]]
    offline = evaluate_alerts(readings, default_rules())
    assert len(out.splitlines()) == len(offline)
    for line, event in zip(out.splitlines(), offline):
        assert event.rule_id in line
        assert event.message in line


def test_watch_alerts_custom_rules_file(http_server, capsys, tmp_path):
    rules_path = tmp_path / "rules.txt"
    rules_path.write_text(
        "[rule]\nid = chill\nparameter = temperature\ncomparator = <\n"
        "threshold = 23\nsustain = 2\nmessage = Too cold\n")
    seed_entries(http_server, BASIC_ROWS)
    code, out, _ = run_cli(capsys, "watch-alerts", "--endpoint",
                           http_server.endpoint, "--rules", str(rules_path),
                           "--max-polls", "1", "--poll", "0")
    assert code == 0
    assert len(out.splitlines()) == 1
    assert "chill  Too cold" in out


def test_watch_alerts_bad_rules_file_is_data_error(http_server, capsys, tmp_path):
    rules_path = tmp_path / "rules.txt"
    rules_path.write_text("not a rules file")
    code, _, err = run_cli(capsys, "watch-alerts", "--endpoint",
                           http_server.endpoint, "--rules", str(rules_path),
                           "--max-polls", "1")
    assert code == 3


# ---------------------------------------------------------------------------
# run + serve + misc


def test_run_standalone_prints_summary(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "paper_hour",
                           "--speed", "max")
    assert code == 0
    assert "360 cycles" in out
    assert "temperature:" in out
    assert "energy:" in out


def test_run_rain_line_counts_only_entries_with_a_rain_value(capsys):
    code, out, _ = run_cli(capsys, "run", "--scenario", "paper_hour")
    assert code == 0
    assert "rain: n=360 wet=6" in out.splitlines()
    # duty cycling powers the rain sensor off for most cycles; those entries
    # carry no rain field and must not count towards n
    code, out, _ = run_cli(capsys, "run", "--scenario", "paper_hour", "--duty-cycle")
    assert code == 0
    assert "rain: n=21 wet=3" in out.splitlines()


def test_run_against_endpoint(http_server, capsys):
    code, out, _ = run_cli(capsys, "--endpoint", http_server.endpoint, "run",
                           "--scenario", "paper_hour", "--speed", "max",
                           "--write-key", WRITE_KEY)
    assert code == 0
    doc = http_get(f"{http_server.endpoint}/channels/1/feeds.json",
                   params={"results": 8000}, timeout=5).json()
    assert len(doc["feeds"]) == 360


def test_run_unknown_scenario_is_data_error(capsys):
    code, _, err = run_cli(capsys, "run", "--scenario", "does_not_exist")
    assert code == 3


def test_run_with_scenario_file(capsys, tmp_path):
    path = tmp_path / "tiny.scenario"
    path.write_text(
        "mode = scripted\nduration_s = 30\ntick_s = 10\n[script]\n"
        "0,25.0,1015.0,30.0,0\n30,26.0,1016.0,31.0,0\n")
    code, out, _ = run_cli(capsys, "run", "--scenario", str(path))
    assert code == 0
    assert "3 cycles" in out


def test_run_channel_it_did_not_write_is_data_error(capsys, tmp_path):
    # without --endpoint the run writes to channel 1 of its own service
    code, out, err = run_cli(capsys, "run", "--channel", "2",
                             "--data-dir", str(tmp_path))
    assert code == 3
    assert err == "data error: no channel 2\n"
    assert out.startswith("scenario paper_hour: 360 cycles")


@pytest.mark.parametrize("args", [
    ("run", "--scenario", "{dir}"),
    ("run", "--scenario", ""),
    ("run", "--scenario", "{binary}"),
    ("watch-alerts", "--endpoint", "http://127.0.0.1:1", "--rules", "{dir}"),
    ("watch-alerts", "--endpoint", "http://127.0.0.1:1", "--rules", "{binary}"),
    ("watch-alerts", "--endpoint", "http://127.0.0.1:1", "--rules", "{missing}"),
])
def test_unreadable_scenario_or_rules_file_is_data_error(capsys, tmp_path, args):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe\x00")
    paths = {"dir": tmp_path, "binary": binary, "missing": tmp_path / "missing"}
    code, _, err = run_cli(capsys, *(a.format(**paths) for a in args))
    assert code == 3
    assert err.startswith("data error: cannot read ")


def test_serve_port_in_use_is_network_error(capsys, tmp_path):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        code, _, err = run_serve(capsys, "--port", str(port), "--data-dir", str(tmp_path))
    assert code == 2
    assert err.startswith(f"network error: [Errno {errno.EADDRINUSE}]")


def test_serve_on_a_log_record_that_is_not_an_entry_is_data_error(capsys, tmp_path):
    service = ChannelService(data_dir=tmp_path, fsync=False)
    service.create_channel("c", ["A"], write_key=WRITE_KEY, rate_limit_s=0.0)
    service.update(WRITE_KEY, {1: "1.0"})
    service.close()
    log = RecordLog(tmp_path / "channel_1.log", fsync=False)
    log.append(b"not json")  # checksummed, so only decoding can refuse it
    log.close()
    code, _, err = run_serve(capsys, "--port", "0", "--data-dir", str(tmp_path))
    assert code == 3
    assert err.startswith("data error: channel 1: entry 2 is not one JSON value")


def test_serve_on_a_log_whose_created_at_goes_back_is_data_error(capsys, tmp_path):
    service = ChannelService(data_dir=tmp_path, fsync=False)
    service.create_channel("c", ["A"], write_key=WRITE_KEY, rate_limit_s=0.0)
    service.close()
    log = RecordLog(tmp_path / "channel_1.log", fsync=False)
    for entry_id, at in enumerate(["10:00:05", "10:00:01", "10:00:09"], start=1):
        log.append(f'{{"id":{entry_id},"at":"2024-12-15T{at}Z","f":{{"1":"1.0"}}}}'.encode())
    log.close()
    code, _, err = run_serve(capsys, "--port", "0", "--data-dir", str(tmp_path))
    assert code == 3
    assert err.startswith("data error: channel 1: entry 2 created_at 2024-12-15T10:00:01Z"
                          " is before entry 1's 2024-12-15T10:00:05Z")


def test_serve_stops_on_a_sigterm_before_its_loop_starts(capsys, tmp_path, monkeypatch):
    # the handler is set, then the signal lands before the stdlib loop runs
    def terminated(self, poll_interval=0.5):
        raise cli_module._Terminated

    monkeypatch.setattr(signal, "signal", lambda signum, handler: signal.SIG_DFL)
    monkeypatch.setattr(httpd.ThreadingHTTPServer, "serve_forever", terminated)
    code, out, err = run_serve(capsys, "--port", "0", "--data-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("serving http://127.0.0.1:")


def test_serve_closes_on_sigterm_and_leaves_a_snapshot_the_next_start_loads(
        tmp_path, monkeypatch):
    src = Path(agristack.__file__).resolve().parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "agristack.cli", "serve", "--port", "0", "--rate-limit", "0",
         "--data-dir", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    watchdog = threading.Timer(SERVE_DEADLINE_S, proc.kill)  # ends a hung read
    watchdog.start()
    try:
        lines = [proc.stdout.readline() for _ in range(2)]
        assert lines[1].startswith("serving "), lines
        client = HttpServiceClient(lines[1].split()[1], write_key=DEFAULT_WRITE_KEY)
        # a write is served only once serve_forever runs, after the handler is set
        assert [client.update({1: f"{i}.5"}) for i in range(5)] == [1, 2, 3, 4, 5]
        client._conn.close()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=SERVE_DEADLINE_S) == 0, proc.stderr.read()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    assert (tmp_path / "channel_1.snap").exists()
    replayed = []
    replay = RecordLog.replay
    monkeypatch.setattr(RecordLog, "replay",
                        lambda self, *a: replayed.append(replay(self, *a)) or replayed[-1])
    service = ChannelService(data_dir=tmp_path, fsync=False)
    try:
        page = service.read_feeds(1)
        assert [page.columns["1"][i - 1] for i in page.ids] == [f"{i}.5" for i in range(5)]
        assert replayed == [[]]             # every entry came from the snapshot
    finally:
        service.close()


def test_usage_error_exit_code(capsys):
    assert main(["bogus-command"]) == 1
    assert main(["run", "--speed", "verymuch"]) == 1


def test_bad_speed_value(capsys):
    code, _, err = run_cli(capsys, "run", "--speed", "-2")
    assert code == 1


# ---------------------------------------------------------------------------
# shared flags


SHARED = ("endpoint", "channel", "results", "scenario", "speed", "rules")
READS = {
    "run": ("endpoint", "channel", "scenario", "speed"),
    "table": ("endpoint", "channel", "results"),
    "plot": ("endpoint", "channel", "results"),
    "watch-alerts": ("endpoint", "channel", "rules"),
    "serve": (),
}
# two values per flag, as the command receives them; str() gives the argument
VALUES = {
    "endpoint": ("http://a.invalid", "http://b.invalid"),
    "channel": (7, 8),
    "results": (5, 6),
    "scenario": ("one", "two"),
    "speed": ("3", "4"),
    "rules": ("a.rules", "b.rules"),
}
READ_PAIRS = [(c, f) for c, flags in READS.items() for f in flags]
UNREAD_PAIRS = [(c, f) for c, flags in READS.items() for f in SHARED if f not in flags]


@pytest.fixture
def received(monkeypatch):
    """Swap each command's body for one that records the arguments it gets."""
    calls: dict[str, dict] = {}
    for name, command in cli.commands.items():
        monkeypatch.setattr(command, "callback",
                            lambda _name=name, **kwargs: calls.__setitem__(_name, kwargs))
    return calls


@pytest.mark.parametrize("command,flag", READ_PAIRS)
def test_shared_flag_is_read_before_or_after_the_name(received, command, flag):
    value = VALUES[flag][0]
    assert main([f"--{flag}", str(value), command]) == 0
    assert received.pop(command)[flag] == value
    assert main([command, f"--{flag}", str(value)]) == 0
    assert received.pop(command)[flag] == value


@pytest.mark.parametrize("command,flag", READ_PAIRS)
def test_shared_flag_after_the_name_wins(received, command, flag):
    before, after = VALUES[flag]
    assert main([f"--{flag}", str(before), command, f"--{flag}", str(after)]) == 0
    assert received[command][flag] == after


@pytest.mark.parametrize("command,flag", UNREAD_PAIRS)
def test_unread_shared_flag_is_a_usage_error_only_after_the_name(
        received, capsys, command, flag):
    value = str(VALUES[flag][0])
    assert main([command, f"--{flag}", value]) == 1
    assert "no such option" in capsys.readouterr().err.lower()
    assert command not in received
    assert main([f"--{flag}", value, command]) == 0
    assert flag not in received[command]


@pytest.mark.parametrize("command", [c for c, flags in READS.items() if flags])
def test_shared_flags_given_nowhere_take_the_group_defaults(received, command):
    defaults = {"endpoint": None, "channel": 1, "results": 20,
                "scenario": "paper_hour", "speed": "max", "rules": None}
    assert main([command]) == 0
    got = received[command]
    assert {f: got[f] for f in READS[command]} == {f: defaults[f] for f in READS[command]}


@pytest.mark.parametrize("before", [True, False])
def test_channel_zero_is_read_the_same_in_both_positions(http_server, capsys, before):
    seed_entries(http_server, BASIC_ROWS)
    flag = ["--channel", "0"]
    args = ["table", "--endpoint", http_server.endpoint]
    code, out, err = run_cli(capsys, *(flag + args if before else args + flag))
    assert code == 3  # no channel 0; channel 1 exists and has rows
    assert out == ""
    assert "data error" in err
