"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they pass; every tolerance is pinned here, not configurable.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from agristack import adc
from agristack.analytics import (HIGH_TEMP_MESSAGE, AlertRule, DutyCycleConfig,
                                 ForecastConfig, IrrigationAction,
                                 evaluate_alerts, irrigation_decide,
                                 moving_average, plan_duty_cycle)
from agristack.cli import main as cli_main
from agristack.client import LocalServiceClient
from agristack.envsim import ScenarioSpec, parse_scenario, simulate
from agristack.httpd import ChannelHttpServer
from agristack.pipeline import run_pipeline
from agristack.service import ChannelService, parse_timestamp
from agristack.wire import feed_doc
from tests.conftest import FIELD_LABELS, WRITE_KEY, http_get
from tests.test_analytics import series_of
from tests.test_httpd import GOLDEN_FEEDS_BODY, write_golden_entries
from tests.test_pipeline import FLAT_FAIR_WEATHER, LOW_PRESSURE

TEMP_TOL = 0.081
PRESS_TOL = 0.025
MOIST_TOL = 0.025
MEAN_EXTRA = 0.01


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\ncriterion {number} [{status}] {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def _stats(feeds, index):
    values = [float(e[f"field{index}"]) for e in feeds
              if e.get(f"field{index}") is not None]
    return min(values), max(values), sum(values) / len(values)


def test_criterion_1_paper_hour_replay():
    started = time.perf_counter()
    service = ChannelService()
    service.create_channel("field-station", FIELD_LABELS,
                           write_key=WRITE_KEY, rate_limit_s=0.0)
    server = ChannelHttpServer(service).start()
    try:
        code = cli_main(["--endpoint", server.endpoint, "run", "--scenario",
                         "paper_hour", "--speed", "max", "--write-key", WRITE_KEY])
        assert code == 0
        doc = http_get(f"{server.endpoint}/channels/1/feeds.json",
                       params={"results": 8000}, timeout=10).json()
    finally:
        server.stop()
    elapsed = time.perf_counter() - started

    feeds = doc["feeds"]
    t_lo, t_hi, _ = _stats(feeds, 1)
    p_lo, p_hi, p_mean = _stats(feeds, 2)
    m_lo, m_hi, m_mean = _stats(feeds, 3)

    checks = [
        abs(t_hi - 37.72) <= TEMP_TOL,
        abs(t_lo - 22.04) <= TEMP_TOL,
        abs(p_lo - 1010.63) <= PRESS_TOL,
        abs(p_hi - 1024.81) <= PRESS_TOL,
        abs(p_mean - 1018.14) <= PRESS_TOL + MEAN_EXTRA,
        abs(m_lo - 12.67) <= MOIST_TOL,
        abs(m_hi - 48.34) <= MOIST_TOL,
        abs(m_mean - 29.24) <= MOIST_TOL + MEAN_EXTRA,
        len(feeds) == 360,
        elapsed < 10.0,
    ]
    _report(1, "paper-hour replay reproduces the anchor statistics",
            all(checks),
            f"temp [{t_lo:.2f},{t_hi:.2f}] press [{p_lo:.2f},{p_hi:.2f}] "
            f"mean {p_mean:.3f}, moist [{m_lo:.2f},{m_hi:.2f}] mean {m_mean:.3f}, "
            f"{elapsed:.2f}s")


def test_criterion_2_stochastic_range_conformance():
    started = time.perf_counter()
    rng = random.Random(20241215)
    violations = 0
    samples = 0
    for _ in range(20):
        spec = ScenarioSpec(mode="stochastic", seed=rng.getrandbits(63),
                            duration_s=3600.0, tick_s=10.0)
        for s in simulate(spec):
            samples += 1
            if not (spec.temperature.contains(s.temperature)
                    and spec.pressure.contains(s.pressure)
                    and spec.moisture.contains(s.moisture)
                    and s.rain in (0, 1)):
                violations += 1
    elapsed = time.perf_counter() - started
    _report(2, "20 seeded hour-long runs stay inside the simulated ranges",
            violations == 0 and samples == 20 * 360 and elapsed < 5.0,
            f"{samples} samples, {violations} violations, {elapsed:.2f}s")


def test_criterion_3_adc_properties():
    started = time.perf_counter()
    rng = random.Random(33)
    vref = adc.VREF_DEFAULT
    bound = vref / 8192

    voltages = [rng.uniform(0.0, vref) for _ in range(10_000)]
    round_trip_ok = all(abs(adc.decode(adc.quantize(v)) - v) <= bound + 1e-15
                        for v in voltages)

    ordered = sorted(voltages)
    monotonic_ok = all(adc.quantize(a) <= adc.quantize(b)
                       for a, b in zip(ordered, ordered[1:]))

    bijective_ok = all(
        adc.parse_frame(adc.spi_transaction(ch, code)) == (ch, code)
        for ch in range(8) for code in range(4096))

    elapsed = time.perf_counter() - started
    _report(3, "converter round-trip, monotonicity and frame bijectivity",
            round_trip_ok and monotonic_ok and bijective_ok and elapsed < 5.0,
            f"10^4 voltages, 32768 frames, {elapsed:.2f}s")


def test_criterion_4_moving_average_oracle():
    started = time.perf_counter()
    rng = random.Random(44)
    exact = True
    for _ in range(1_000):
        n = rng.randint(3, 100)
        series = [rng.uniform(-100.0, 100.0) for _ in range(n)]
        w = rng.randint(1, 5)
        got = list(moving_average(series, ForecastConfig(window=w)).smoothed)
        naive = ([sum(series[i - w + 1:i + 1]) / w for i in range(w - 1, n)]
                 if n >= w else [])
        if got != naive:
            exact = False
            break

    const = moving_average([3.25] * 10, ForecastConfig(window=3))
    const_ok = all(v == pytest.approx(3.25, abs=1e-12) for v in const.smoothed)

    base_series = [rng.uniform(-10, 10) for _ in range(30)]
    shifted = [v + 7.5 for v in base_series]
    base_fc = moving_average(base_series, ForecastConfig(window=4))
    shift_fc = moving_average(shifted, ForecastConfig(window=4))
    shift_ok = all(b == pytest.approx(a + 7.5, abs=1e-9)
                   for a, b in zip(base_fc.smoothed, shift_fc.smoothed))

    elapsed = time.perf_counter() - started
    _report(4, "moving average equals the naive recompute exactly",
            exact and const_ok and shift_ok and elapsed < 2.0,
            f"10^3 series, windows 1..5, {elapsed:.2f}s")


def test_criterion_5_alert_exactness():
    rng = random.Random(55)
    mismatches = 0
    for _ in range(1_000):
        k = rng.choice([1, 2, 3, 5])
        flags = [rng.random() < 0.45 for _ in range(rng.randint(0, 50))]
        rule = AlertRule("r", "temperature", ">", 0.5, k, "violated")
        events = evaluate_alerts(series_of([1.0 if f else 0.0 for f in flags]), [rule])

        runs, current = 0, 0
        for f in flags:
            current = current + 1 if f else 0
            if f and current == k:
                runs += 1
        if len(events) != runs:
            mismatches += 1

    temp_rule = AlertRule("high_temp", "temperature", ">", 35.0, 3, HIGH_TEMP_MESSAGE)
    events = evaluate_alerts(series_of([36.0, 36.0, 36.0]), [temp_rule])
    message_ok = (len(events) == 1 and events[0].message
                  == "Temperature is high, consider cooling measures")

    _report(5, "event count equals maximal violation runs; message byte-exact",
            mismatches == 0 and message_ok,
            f"10^3 streams, k in {{1,2,3,5}}, {mismatches} mismatches")


def test_criterion_6_irrigation_truth_table():
    table_ok = (
        irrigation_decide(1, 25.0, 20.0, 40.0).action is IrrigationAction.PAUSE
        and irrigation_decide(0, 10.0, 20.0, 40.0).action is IrrigationAction.ACTIVATE
        and irrigation_decide(0, 45.0, 20.0, 40.0).action is IrrigationAction.PAUSE
        and irrigation_decide(0, 30.0, 20.0, 40.0).action is IrrigationAction.HOLD
    )

    rng = random.Random(66)
    safe = True
    for _ in range(10_000):
        rain = rng.randint(0, 1)
        cmd = irrigation_decide(rain, rng.uniform(0.0, 60.0), 20.0, 40.0)
        if rain == 1 and cmd.action is IrrigationAction.ACTIVATE:
            safe = False
    _report(6, "irrigation truth table holds; never Activate while raining",
            table_ok and safe, "10^4 randomized cases")


def test_criterion_7_duty_cycle_energy():
    spec = parse_scenario(FLAT_FAIR_WEATHER)

    def fresh_client():
        service = ChannelService()
        service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY,
                               rate_limit_s=0.0)
        return LocalServiceClient(service, write_key=WRITE_KEY)

    always_on = run_pipeline(spec, fresh_client(), duty_cycle=False)

    rain_presence: list[tuple[float, bool]] = []
    duty = run_pipeline(spec, fresh_client(), duty_cycle=True,
                        on_reading=lambda t, r: rain_presence.append(
                            (t, r.rain is not None)))
    energy_saved = (sum(duty.energy_mj.values())
                    < sum(always_on.energy_mj.values()))
    off_from = next(t for t, present in rain_presence if not present)
    ontime_zero = all(not present for t, present in rain_presence if t >= off_from)

    low = run_pipeline(parse_scenario(LOW_PRESSURE), fresh_client(), duty_cycle=True)
    low_always_on = low.on_time_s["rain"] == pytest.approx(600.0)

    # planner-level safety: never off at a below-threshold forecast step
    rng = random.Random(77)
    cfg = DutyCycleConfig(step_s=10.0)
    planner_safe = True
    for _ in range(300):
        forecast = [rng.uniform(1008.0, 1026.0) for _ in range(rng.randint(1, 10))]
        schedule = plan_duty_cycle(forecast, [0] * 6, cfg)
        for j, p in enumerate(forecast):
            if p < cfg.pressure_threshold and not schedule.is_on("rain", j * 10.0):
                planner_safe = False

    _report(7, "duty cycling saves energy and never blinds the rain sensor",
            energy_saved and ontime_zero and low_always_on and planner_safe,
            f"scheduled energy {sum(duty.energy_mj.values()):.0f} mJ vs "
            f"always-on {sum(always_on.energy_mj.values()):.0f} mJ")


def test_criterion_8_service_contract(tmp_path):
    # (a) crash-after-ack durability
    data_dir = tmp_path / "store"
    service = ChannelService(data_dir=data_dir, fsync=True)
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    for i in range(25):
        assert service.update(WRITE_KEY, {1: f"{i}.0"}) == i + 1
    # no close(): simulate a crash right after the last acknowledgment
    revived = ChannelService(data_dir=data_dir, fsync=True)
    entries = feed_doc(revived.read_feeds(1, results=8000))["feeds"]
    durable_ok = ([e["entry_id"] for e in entries] == list(range(1, 26))
                  and revived.update(WRITE_KEY, {1: "25.0"}) == 26)
    revived.close()
    service.close()

    # (b) rate limit: a write 5 s after an accepted one returns body "0"
    from tests.conftest import FakeClock
    clock = FakeClock()
    limited = ChannelService(clock=clock)
    limited.create_channel("rl", FIELD_LABELS, write_key="RATELIMITKEY0001",
                           rate_limit_s=15.0)
    server = ChannelHttpServer(limited).start()
    try:
        first = http_get(f"{server.endpoint}/update",
                         params={"api_key": "RATELIMITKEY0001",
                                 "field1": "1.0"}, timeout=5)
        clock.advance(5.0)
        second = http_get(f"{server.endpoint}/update",
                          params={"api_key": "RATELIMITKEY0001",
                                  "field1": "2.0"}, timeout=5)
        rate_ok = (first.text == "1"
                   and (second.status_code, second.text) == (200, "0"))
    finally:
        server.stop()

    # (c) 8 concurrent writers x 100 writes -> entry ids 1..800, no gaps
    concurrent = ChannelService()
    concurrent.create_channel("cw", FIELD_LABELS, write_key=WRITE_KEY,
                              rate_limit_s=0.0)
    ids: list[int] = []
    lock = threading.Lock()

    def writer():
        got = [concurrent.update(WRITE_KEY, {1: "1.0"}) for _ in range(100)]
        with lock:
            ids.extend(got)

    threads = [threading.Thread(target=writer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    concurrency_ok = sorted(ids) == list(range(1, 801))

    # (d) feeds.json golden fixture, byte for byte
    golden_service = ChannelService()
    golden_service.create_channel("field-station", FIELD_LABELS,
                                  write_key=WRITE_KEY, rate_limit_s=0.0)
    golden_server = ChannelHttpServer(golden_service).start()
    try:
        write_golden_entries(golden_server)
        body = http_get(f"{golden_server.endpoint}/channels/1/feeds.json",
                        params={"results": 3}, timeout=5)
        golden_ok = body.text == GOLDEN_FEEDS_BODY
    finally:
        golden_server.stop()

    _report(8, "durability, rate limiting, concurrent ids, golden feed body",
            durable_ok and rate_ok and concurrency_ok and golden_ok,
            "crash-after-ack, 15s limit, 8x100 writers, byte-exact fixture")


def test_criterion_9_end_to_end_order_preservation():
    from tests.test_pipeline import DropEveryThirdFirstAttempt

    service = ChannelService()
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    client = DropEveryThirdFirstAttempt(LocalServiceClient(service, WRITE_KEY))

    spec = parse_scenario(FLAT_FAIR_WEATHER)
    report = run_pipeline(spec, client)

    entries = feed_doc(service.read_feeds(1, results=8000))["feeds"]
    stamps = [parse_timestamp(e["created_at"]) for e in entries]
    ok = (report.acknowledged == 60
          and report.drops == 0
          and len(entries) == 60
          and stamps == sorted(stamps)
          and [e["entry_id"] for e in entries] == list(range(1, 61)))
    _report(9, "faulty transport: acquisition order kept with zero loss",
            ok, f"{len(entries)} entries, {report.drops} drops")
