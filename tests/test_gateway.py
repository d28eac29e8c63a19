from __future__ import annotations

import dataclasses
from datetime import timedelta

import pytest
from hypothesis import given
from hypothesis import strategies as st

from agristack.analytics import (PowerSchedule, ScheduleInterval, always_on,
                                 default_rules)
from agristack.client import RateLimited, ServiceUnavailable
from agristack.envsim import EnvSample
from agristack.gateway import (DEFAULT_EPOCH, EdgeGateway, EmptyReadingError,
                               LcdFrame, Publisher, Reading, RetryPolicy,
                               fields_to_reading, indicator_states,
                               reading_to_fields, render_lcd)
from agristack.sensors import SENSORS

ENV = EnvSample(t=0.0, temperature=37.72, pressure=1018.14, moisture=29.24, rain=1)


def all_off(until: float) -> PowerSchedule:
    return PowerSchedule({name: (ScheduleInterval(0.0, until, on=False),)
                          for name in ("temperature", "pressure", "moisture", "rain")})


def rain_off(until: float) -> PowerSchedule:
    return PowerSchedule({"rain": (ScheduleInterval(0.0, until, on=False),)})


# ---------------------------------------------------------------------------
# acquisition


def test_acquire_reconstructs_values_within_one_lsb():
    gw = EdgeGateway()
    reading = gw.acquire_cycle(0.0, ENV)
    assert reading.temperature == pytest.approx(37.72, abs=0.0806)
    assert reading.pressure == pytest.approx(1018.14, abs=0.0245)
    assert reading.moisture == pytest.approx(29.24, abs=0.0245)
    # quantization is real: the value is reconstructed, not copied
    assert reading.temperature != 37.72


def test_rain_is_digital_and_exact():
    gw = EdgeGateway()
    assert gw.acquire_cycle(0.0, ENV).rain == 1
    dry = EnvSample(t=10.0, temperature=25.0, pressure=1015.0, moisture=30.0, rain=0)
    assert gw.acquire_cycle(10.0, dry).rain == 0


def test_scheduled_off_sensor_yields_absent_field():
    gw = EdgeGateway(schedule=rain_off(until=100.0))
    reading = gw.acquire_cycle(0.0, ENV)
    assert reading.rain is None
    assert reading.temperature is not None


def test_all_sensors_off_raises_and_accrues_nothing():
    gw = EdgeGateway(schedule=all_off(until=100.0))
    with pytest.raises(EmptyReadingError):
        gw.acquire_cycle(0.0, ENV)
    assert sum(map(gw.ledger.energy_mj, gw.ledger.on_time_s)) == 0.0


def test_timestamps_follow_sim_time():
    gw = EdgeGateway()
    r0 = gw.acquire_cycle(0.0, ENV)
    r1 = gw.acquire_cycle(10.0, EnvSample(10.0, 25.0, 1015.0, 30.0, 0))
    assert r0.timestamp == DEFAULT_EPOCH
    assert r1.timestamp == DEFAULT_EPOCH + timedelta(seconds=10)
    with pytest.raises(ValueError):
        gw.acquire_cycle(5.0, ENV)  # time went backwards


# ---------------------------------------------------------------------------
# energy ledger


def run_cycles(gw: EdgeGateway, cycles: int):
    for i in range(cycles):
        env = EnvSample(i * 10.0, 25.0, 1015.0, 30.0, 0)
        try:
            gw.acquire_cycle(env.t, env)
        except EmptyReadingError:
            pass


def test_always_on_energy_equals_ontime_times_power():
    gw = EdgeGateway()
    run_cycles(gw, 360)  # one hour at 10 s
    for name in ("temperature", "pressure", "moisture", "rain"):
        assert gw.ledger.on_time_s[name] == 3600.0
        assert gw.ledger.energy_mj(name) == 3600.0 * 5.0


def test_rain_off_half_hour_ontime():
    gw = EdgeGateway(schedule=rain_off(until=1800.0))
    run_cycles(gw, 360)
    assert gw.ledger.on_time_s["rain"] == 1800.0
    assert gw.ledger.on_time_s["temperature"] == 3600.0


def test_schedule_energy_never_exceeds_always_on():
    gw_scheduled = EdgeGateway(schedule=rain_off(until=1200.0))
    gw_full = EdgeGateway()
    run_cycles(gw_scheduled, 100)
    run_cycles(gw_full, 100)
    scheduled, full = gw_scheduled.ledger, gw_full.ledger
    assert (sum(map(scheduled.energy_mj, scheduled.on_time_s))
            < sum(map(full.energy_mj, full.on_time_s)))


def test_apply_schedule_swaps_mid_run():
    gw = EdgeGateway()
    run_cycles(gw, 10)
    gw.apply_schedule(all_off(until=10_000.0))
    with pytest.raises(EmptyReadingError):
        gw.acquire_cycle(100.0, ENV)
    assert gw.ledger.on_time_s["rain"] == 100.0


# ---------------------------------------------------------------------------
# LCD and indicators


def test_lcd_format_oracle():
    reading = Reading(DEFAULT_EPOCH, temperature=22.0, pressure=1013.0,
                      moisture=30.0, rain=0)
    frame = render_lcd(reading)
    assert frame.line1 == "T:22.0C P:1013.0"
    assert frame.line2 == "M:30.0% R:0     "


def test_lcd_absent_fields_render_dashes():
    frame = render_lcd(Reading(DEFAULT_EPOCH, rain=1))
    assert frame.line1.startswith("T:--")
    assert "P:--" in frame.line1
    assert frame.line2.startswith("M:--")
    assert "R:1" in frame.line2


def test_lcd_frames_always_16x2():
    cases = [
        Reading(DEFAULT_EPOCH, temperature=9.5, pressure=999.9, moisture=5.0, rain=0),
        Reading(DEFAULT_EPOCH, temperature=37.72, pressure=1024.81, moisture=48.34, rain=1),
        Reading(DEFAULT_EPOCH, rain=None, temperature=25.0),
        Reading(DEFAULT_EPOCH, moisture=100.0),
    ]
    for reading in cases:
        frame = render_lcd(reading)
        assert len(frame.line1) == 16
        assert len(frame.line2) == 16
        assert all(c.isprintable() for c in frame.line1 + frame.line2)


def test_lcd_determinism():
    reading = Reading(DEFAULT_EPOCH, temperature=30.0, pressure=1015.0,
                      moisture=25.0, rain=0)
    assert render_lcd(reading) == render_lcd(reading)


def test_lcd_frame_validation():
    with pytest.raises(ValueError):
        LcdFrame("short", " " * 16)
    with pytest.raises(ValueError):
        LcdFrame("x" * 16, "a\tb".ljust(16))


def test_indicator_states():
    rules = default_rules()
    hot = Reading(DEFAULT_EPOCH, temperature=36.0, pressure=1015.0,
                  moisture=30.0, rain=0)
    assert indicator_states(hot, rules) == {"heat": True, "rain": False, "dry": False}
    calm = Reading(DEFAULT_EPOCH, temperature=25.0, pressure=1015.0,
                   moisture=30.0, rain=0)
    assert indicator_states(calm, rules) == {"heat": False, "rain": False, "dry": False}
    dry = Reading(DEFAULT_EPOCH, temperature=25.0, pressure=1015.0,
                  moisture=12.67, rain=1)
    assert indicator_states(dry, rules) == {"heat": False, "rain": True, "dry": True}
    absent = Reading(DEFAULT_EPOCH, rain=0)
    assert indicator_states(absent, rules) == {"heat": False, "rain": False, "dry": False}


@pytest.mark.parametrize("temperature", [34.99, 35.0, 35.01])
@pytest.mark.parametrize("moisture", [19.99, 20.0, 20.01])
def test_indicator_states_without_rules_use_the_default_thresholds(temperature, moisture):
    reading = Reading(DEFAULT_EPOCH, temperature=temperature, moisture=moisture, rain=0)
    assert indicator_states(reading, []) == indicator_states(reading, default_rules())


# ---------------------------------------------------------------------------
# publishing


class FlakyClient:
    """In-memory stand-in for the service client with scriptable failures."""

    def __init__(self, fail_next: int = 0):
        self.fail_next = fail_next
        self.acknowledged: list[dict] = []
        self.attempts = 0

    def update(self, values, created_at=None):
        self.attempts += 1
        if self.fail_next > 0:
            self.fail_next -= 1
            raise ServiceUnavailable("injected outage")
        self.acknowledged.append(dict(values))
        return len(self.acknowledged)


def reading_at(i: int, temp: float = 25.0) -> Reading:
    return Reading(DEFAULT_EPOCH + timedelta(seconds=10 * i), temperature=temp,
                   pressure=1015.0, moisture=30.0, rain=0)


def no_sleep(_s: float) -> None:
    pass


def test_publish_happy_path_acknowledges():
    client = FlakyClient()
    pub = Publisher(client, sleep=no_sleep)
    result = pub.publish(reading_at(0))
    assert result.status == "acknowledged"
    assert result.entry_id == 1


def test_outage_then_recovery_preserves_order():
    client = FlakyClient(fail_next=10_000)
    pub = Publisher(client, retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
                    sleep=no_sleep)
    for i in range(3):
        assert pub.publish(reading_at(i, temp=20.0 + i)).status == "queued"
    assert pub.pending() == 3

    client.fail_next = 0  # service back up
    result = pub.publish(reading_at(3, temp=23.0))
    assert result.status == "acknowledged"
    assert result.flushed == 3
    assert pub.pending() == 0
    sent_temps = [v[1] for v in client.acknowledged]
    assert sent_temps == ["20.00", "21.00", "22.00", "23.00"]


def test_backlog_overflow_drops_oldest():
    client = FlakyClient(fail_next=10_000)
    pub = Publisher(client, retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0),
                    backlog_capacity=2, sleep=no_sleep)
    for i in range(3):
        pub.publish(reading_at(i, temp=20.0 + i))
    assert pub.drops == 1
    assert pub.pending() == 2

    client.fail_next = 0
    pub.publish(reading_at(3, temp=23.0))
    sent_temps = [v[1] for v in client.acknowledged]
    assert sent_temps == ["21.00", "22.00", "23.00"]  # oldest (20.00) was dropped


def test_retry_consumes_attempts_with_backoff():
    client = FlakyClient(fail_next=2)
    sleeps: list[float] = []
    pub = Publisher(client, retry=RetryPolicy(max_attempts=3, backoff_base_s=1.0),
                    sleep=sleeps.append)
    result = pub.publish(reading_at(0))
    assert result.status == "acknowledged"
    assert client.attempts == 3
    assert sleeps == [1.0, 2.0]


def test_rate_limited_counts_as_retryable():
    class Limited:
        def __init__(self):
            self.calls = 0

        def update(self, values, created_at=None):
            self.calls += 1
            if self.calls == 1:
                raise RateLimited("slow down")
            return 1

    pub = Publisher(Limited(), retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
                    sleep=no_sleep)
    assert pub.publish(reading_at(0)).status == "acknowledged"


def test_reading_to_fields_mapping():
    reading = Reading(DEFAULT_EPOCH, temperature=22.035, pressure=None,
                      moisture=29.2, rain=1)
    assert reading_to_fields(reading) == {1: "22.04", 3: "29.20", 4: "1"}


def test_reading_attributes_follow_the_sensor_table():
    names = [f.name for f in dataclasses.fields(Reading)]
    assert names == ["timestamp", *(s.name for s in SENSORS)]


def _sensor_value(sensor):
    value = (st.floats(-1e6, 1e6, allow_nan=False) if sensor.analog
             else st.integers(0, 1))
    return st.none() | value


@given(st.fixed_dictionaries({s.name: _sensor_value(s) for s in SENSORS}))
def test_fields_round_trip(values):
    fields = reading_to_fields(Reading(DEFAULT_EPOCH, **values))
    back = fields_to_reading(DEFAULT_EPOCH, fields)
    rounded = {s.name: round(values[s.name], 2)
               if s.analog and values[s.name] is not None else values[s.name]
               for s in SENSORS}
    assert back == Reading(DEFAULT_EPOCH, **rounded)
    assert reading_to_fields(back) == fields


def test_schedule_swaps_are_safe_during_acquisition():
    import threading

    gw = EdgeGateway()
    stop = threading.Event()
    errors: list[Exception] = []

    def flipper():
        schedules = [always_on(), rain_off(until=1e9)]
        i = 0
        while not stop.is_set():
            gw.apply_schedule(schedules[i % 2])
            i += 1

    thread = threading.Thread(target=flipper)
    thread.start()
    try:
        for i in range(2_000):
            env = EnvSample(i * 10.0, 25.0, 1015.0, 30.0, 0)
            try:
                reading = gw.acquire_cycle(env.t, env)
                assert reading.temperature is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                break
    finally:
        stop.set()
        thread.join()
    assert errors == []
    # ledger stays consistent: rain on-time never exceeds total elapsed time
    assert gw.ledger.on_time_s["rain"] <= 2_000 * 10.0
    assert gw.ledger.on_time_s["temperature"] == 2_000 * 10.0
