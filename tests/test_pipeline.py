from __future__ import annotations

import math
import time
from dataclasses import replace

import pytest

from agristack import pipeline
from agristack.analytics import (DutyCycleConfig, ForecastConfig, moving_average,
                                 plan_duty_cycle)
from agristack.client import LocalServiceClient, ServiceUnavailable
from agristack.envsim import ScenarioSpec, parse_scenario, simulate
from agristack.gateway import DEFAULT_EPOCH, EdgeGateway, EmptyReadingError, Publisher
from agristack.pipeline import RunReport, run_pipeline
from agristack.wire import feed_doc
from agristack.service import ChannelService, parse_timestamp
from tests.conftest import FIELD_LABELS, WRITE_KEY

FLAT_FAIR_WEATHER = """
mode = scripted
duration_s = 600
tick_s = 10
[script]
0,25.0,1020.0,30.0,0
600,25.0,1020.0,30.0,0
"""

LOW_PRESSURE = """
mode = scripted
duration_s = 600
tick_s = 10
[script]
0,25.0,1011.0,30.0,0
600,25.0,1011.0,30.0,0
"""


THREE_TICKS = """
mode = scripted
duration_s = 3
tick_s = 1
[script]
0,25.0,1020.0,30.0,0
3,25.0,1020.0,30.0,0
"""


def fresh_client():
    service = ChannelService()
    service.create_channel("c", FIELD_LABELS, write_key=WRITE_KEY, rate_limit_s=0.0)
    return service, LocalServiceClient(service, write_key=WRITE_KEY)


class DropEveryThirdFirstAttempt:
    """Fails the first attempt of every 3rd publish, then succeeds."""

    def __init__(self, inner):
        self.inner = inner
        self.successes = 0
        self.failed_current = False

    def update(self, values, created_at=None):
        if not self.failed_current and (self.successes + 1) % 3 == 0:
            self.failed_current = True
            raise ServiceUnavailable("injected drop")
        entry_id = self.inner.update(values, created_at=created_at)
        self.successes += 1
        self.failed_current = False
        return entry_id


def test_pipeline_publishes_every_cycle():
    service, client = fresh_client()
    spec = parse_scenario(FLAT_FAIR_WEATHER)
    report = run_pipeline(spec, client)
    assert report.cycles == 60
    assert report.acknowledged == 60
    assert report.queued == 0
    assert report.drops == 0
    entries = feed_doc(service.read_feeds(1, results=8000))["feeds"]
    assert [e["entry_id"] for e in entries] == list(range(1, 61))


def test_numeric_speed_paces_each_tick_with_time_sleep(monkeypatch):
    sleeps: list[float] = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    spec = parse_scenario(THREE_TICKS)

    _, client = fresh_client()
    report = run_pipeline(spec, client, speed=1000)
    assert report.acknowledged == 3
    assert sleeps == pytest.approx([0.001] * 3)

    sleeps.clear()
    _, client = fresh_client()
    assert run_pipeline(spec, client, speed="max").acknowledged == 3
    assert sleeps == []


def test_fault_injection_preserves_acquisition_order():
    service, client = fresh_client()
    flaky = DropEveryThirdFirstAttempt(client)
    spec = parse_scenario(FLAT_FAIR_WEATHER)
    report = run_pipeline(spec, flaky)
    assert report.acknowledged == 60
    entries = feed_doc(service.read_feeds(1, results=8000))["feeds"]
    assert len(entries) == 60
    stamps = [parse_timestamp(e["created_at"]) for e in entries]
    assert stamps == sorted(stamps)
    assert [e["entry_id"] for e in entries] == list(range(1, 61))


def test_duty_cycle_saves_energy_on_fair_weather():
    spec = parse_scenario(FLAT_FAIR_WEATHER)

    _, base_client = fresh_client()
    always_on = run_pipeline(spec, base_client, duty_cycle=False)

    _, duty_client = fresh_client()
    duty = run_pipeline(spec, duty_client, duty_cycle=True)

    assert duty.energy_mj["rain"] < always_on.energy_mj["rain"]
    assert sum(duty.energy_mj.values()) < sum(always_on.energy_mj.values())
    # other sensors unaffected
    for name in ("temperature", "pressure", "moisture"):
        assert duty.energy_mj[name] == always_on.energy_mj[name]


def test_duty_cycle_rain_ontime_zero_once_scheduled_off():
    spec = parse_scenario(FLAT_FAIR_WEATHER)
    _, client = fresh_client()

    rain_presence: list[tuple[float, bool]] = []
    report = run_pipeline(spec, client, duty_cycle=True,
                          on_reading=lambda t, r: rain_presence.append((t, r.rain is not None)))
    # first plan lands after the forecast window fills (3 readings); from the
    # first scheduled-off instant to the end the rain sensor never reports
    off_from = next(t for t, present in rain_presence if not present)
    assert all(not present for t, present in rain_presence if t >= off_from)
    assert report.on_time_s["rain"] == pytest.approx(off_from)
    assert report.on_time_s["temperature"] == pytest.approx(600.0)


def test_duty_cycle_low_pressure_keeps_rain_sensor_on():
    spec = parse_scenario(LOW_PRESSURE)
    _, client = fresh_client()
    report = run_pipeline(spec, client, duty_cycle=True)
    assert report.on_time_s["rain"] == pytest.approx(600.0)


def test_published_values_track_ground_truth_within_one_lsb():
    from agristack.envsim import load_bundled_scenario, sample_at

    service, client = fresh_client()
    spec = load_bundled_scenario("paper_hour")
    run_pipeline(spec, client)

    entries = feed_doc(service.read_feeds(1, results=8000))["feeds"]
    assert len(entries) == spec.sample_count
    tolerances = {1: ("temperature", 0.0806), 2: ("pressure", 0.0245),
                  3: ("moisture", 0.0245)}
    for i, entry in enumerate(entries):
        truth = sample_at(spec, i * spec.tick_s)
        for index, (name, tol) in tolerances.items():
            published = float(entry[f"field{index}"])
            assert abs(published - getattr(truth, name)) <= tol, (i, name)
        assert entry["field4"] == str(truth.rain)


def full_history_run_pipeline(spec, client) -> RunReport:
    """Reference duty-cycled loop that hands the whole pressure and rain
    history to the planner on every plan; `run_pipeline` keeps only what a
    plan reads and must produce the same run."""
    gateway = EdgeGateway(sample_interval_s=spec.tick_s, epoch=DEFAULT_EPOCH)
    publisher = Publisher(client, sleep=lambda _s: None)
    forecast_cfg = ForecastConfig()
    duty_cfg = DutyCycleConfig(step_s=spec.tick_s)
    report = RunReport()
    pressure_history: list[float] = []
    rain_history: list[int] = []
    last_plan_cycle = None
    for cycle, env in enumerate(simulate(spec)):
        try:
            reading = gateway.acquire_cycle(env.t, env)
        except EmptyReadingError:
            report.skipped += 1
            report.cycles += 1
            continue
        result = publisher.publish(reading)
        if result.status == "acknowledged":
            report.acknowledged += 1 + result.flushed
        else:
            report.acknowledged += result.flushed
            report.queued += 1
        report.cycles += 1
        if reading.pressure is not None:
            pressure_history.append(reading.pressure)
        if reading.rain is not None:
            rain_history.append(reading.rain)
        if len(pressure_history) >= forecast_cfg.window and (
                last_plan_cycle is None
                or cycle - last_plan_cycle >= forecast_cfg.horizon):
            forecast = moving_average(pressure_history, forecast_cfg)
            gateway.apply_schedule(plan_duty_cycle(
                forecast.horizon, rain_history,
                replace(duty_cfg, start_t=env.t + spec.tick_s)))
            last_plan_cycle = cycle
    report.drops = publisher.drops
    report.pending = publisher.pending()
    report.energy_mj = {name: gateway.ledger.energy_mj(name)
                        for name in gateway.ledger.on_time_s}
    report.on_time_s = dict(gateway.ledger.on_time_s)
    return report


def test_duty_cycle_matches_the_full_history_reference():
    spec = ScenarioSpec(mode="stochastic", seed=5, duration_s=86_400.0, tick_s=60.0)

    ref_service, ref_client = fresh_client()
    expected = full_history_run_pipeline(spec, ref_client)
    service, client = fresh_client()
    report = run_pipeline(spec, client, duty_cycle=True)

    # the rain sensor was both scheduled off and kept on
    assert 0 < report.on_time_s["rain"] < spec.duration_s
    assert report == expected
    assert (feed_doc(service.read_feeds(1, results=8000))["feeds"]
            == feed_doc(ref_service.read_feeds(1, results=8000))["feeds"])


def test_duty_cycle_forecast_inputs_are_bounded_per_plan(monkeypatch):
    sizes: list[int] = []

    def recording_moving_average(series, cfg):
        sizes.append(len(series))
        return moving_average(series, cfg)

    monkeypatch.setattr(pipeline, "moving_average", recording_moving_average)
    spec = ScenarioSpec(mode="stochastic", seed=3, duration_s=3 * 86_400.0, tick_s=60.0)
    _, client = fresh_client()
    report = run_pipeline(spec, client, duty_cycle=True)

    cfg = ForecastConfig()
    assert report.cycles == 4320
    assert sizes and min(sizes) == max(sizes) == cfg.window
    assert sum(sizes) <= cfg.window * math.ceil(report.cycles / cfg.horizon)
