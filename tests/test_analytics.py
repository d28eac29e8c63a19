from __future__ import annotations

import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agristack.analytics import (HIGH_TEMP_MESSAGE, AlertRule,
                                 DutyCycleConfig, ForecastConfig,
                                 IrrigationAction, PowerSchedule, RulesError,
                                 ScheduleInterval, default_rules,
                                 evaluate_alerts, irrigation_decide,
                                 moving_average, parse_rules, plan_duty_cycle)

T0 = datetime(2024, 12, 15, 10, 0, 0, tzinfo=timezone.utc)


@dataclass(frozen=True)
class Obs:
    timestamp: datetime
    temperature: float | None = None
    pressure: float | None = None
    moisture: float | None = None
    rain: int | None = None


def series_of(values, parameter="temperature"):
    return [Obs(timestamp=T0 + timedelta(seconds=10 * i), **{parameter: v})
            for i, v in enumerate(values)]


# ---------------------------------------------------------------------------
# moving average


def test_constant_series_forecast_is_constant():
    fc = moving_average([7.0, 7.0, 7.0, 7.0], ForecastConfig(window=3))
    assert all(v == pytest.approx(7.0) for v in fc.smoothed)
    assert all(v == pytest.approx(7.0) for v in fc.horizon)


def test_window_three_oracle():
    fc = moving_average([10, 20, 30, 40], ForecastConfig(window=3))
    assert list(fc.smoothed) == [pytest.approx(20.0), pytest.approx(30.0)]
    assert fc.smoothed[-1] == pytest.approx(30.0)


def test_short_series_yields_empty_forecast():
    fc = moving_average([1.0, 2.0], ForecastConfig(window=3))
    assert fc.smoothed == ()
    assert fc.horizon == ()
    assert fc.smoothed[-1:] == ()     # no last step to extend


def test_horizon_is_flat_persistence():
    fc = moving_average([10, 20, 30, 40], ForecastConfig(window=3, horizon=4))
    assert fc.horizon == (fc.smoothed[-1],) * 4


def test_naive_recompute_equality():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(3, 100)
        series = [rng.uniform(-50, 50) for _ in range(n)]
        for w in range(1, 6):
            fc = moving_average(series, ForecastConfig(window=w))
            expected = [sum(series[i - w + 1:i + 1]) / w
                        for i in range(w - 1, n)] if n >= w else []
            assert list(fc.smoothed) == expected


@settings(max_examples=200, deadline=None)
@given(series=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=40),
       window=st.integers(min_value=1, max_value=5))
def test_forecast_bounded_by_window_extremes(series, window):
    fc = moving_average(series, ForecastConfig(window=window))
    for j, mean in enumerate(fc.smoothed):
        chunk = series[j:j + window]
        assert min(chunk) - 1e-6 <= mean <= max(chunk) + 1e-6


@settings(max_examples=100, deadline=None)
@given(series=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=30),
       c=st.floats(min_value=-100, max_value=100))
def test_shift_invariance(series, c):
    base = moving_average(series, ForecastConfig(window=3))
    shifted = moving_average([v + c for v in series], ForecastConfig(window=3))
    for a, b in zip(base.smoothed, shifted.smoothed):
        assert b == pytest.approx(a + c, abs=1e-6)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), window=st.integers(min_value=1, max_value=8),
       horizon=st.integers(min_value=1, max_value=8))
def test_horizon_reads_only_the_last_window(data, window, horizon):
    series = data.draw(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                                min_size=window, max_size=60))
    cfg = ForecastConfig(window=window, horizon=horizon)
    assert moving_average(series[-window:], cfg).horizon == moving_average(series, cfg).horizon


def test_forecast_config_validation():
    with pytest.raises(ValueError):
        ForecastConfig(window=0)
    with pytest.raises(ValueError):
        ForecastConfig(horizon=0)


# ---------------------------------------------------------------------------
# alerts


def test_sustained_high_temperature_fires_once_with_exact_message():
    rule = AlertRule("high_temp", "temperature", ">", 35.0, 3, HIGH_TEMP_MESSAGE)
    events = evaluate_alerts(series_of([36, 36, 36]), [rule])
    assert len(events) == 1
    assert events[0].message == "Temperature is high, consider cooling measures"
    assert events[0].rule_id == "high_temp"
    assert events[0].first_violation == T0
    assert events[0].triggered == T0 + timedelta(seconds=20)


def test_broken_streak_does_not_fire():
    rule = AlertRule("high_temp", "temperature", ">", 35.0, 3, HIGH_TEMP_MESSAGE)
    events = evaluate_alerts(series_of([36, 34, 36, 36]), [rule])
    assert events == []


def test_low_moisture_rule_fires():
    rule = AlertRule("low_moisture", "moisture", "<", 20.0, 3, "low")
    events = evaluate_alerts(series_of([19, 18, 17], parameter="moisture"), [rule])
    assert len(events) == 1


def test_no_refire_until_condition_clears():
    rule = AlertRule("high_temp", "temperature", ">", 35.0, 2, "hot")
    events = evaluate_alerts(series_of([36, 36, 36, 36, 34, 36, 36]), [rule])
    assert len(events) == 2
    assert events[0].triggered == T0 + timedelta(seconds=10)
    assert events[1].triggered == T0 + timedelta(seconds=60)


def test_absent_parameter_resets_streak():
    rule = AlertRule("high_temp", "temperature", ">", 35.0, 3, "hot")
    readings = series_of([36, 36])
    readings.append(Obs(timestamp=T0 + timedelta(seconds=20)))  # sensor off
    readings.extend(series_of([36, 36]))
    assert evaluate_alerts(readings, [rule]) == []


def test_event_count_matches_maximal_runs_oracle():
    rng = random.Random(4242)
    rule_base = dict(parameter="temperature", comparator=">", threshold=0.5,
                     message="hot")
    for _ in range(300):
        k = rng.choice([1, 2, 3, 5])
        flags = [rng.random() < 0.5 for _ in range(rng.randint(0, 60))]
        values = [1.0 if f else 0.0 for f in flags]
        events = evaluate_alerts(
            series_of(values),
            [AlertRule(id="r", sustain=k, **rule_base)],
        )
        # independent oracle: count maximal True-runs of length >= k
        runs, current = [], 0
        for f in flags:
            if f:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        if current:
            runs.append(current)
        assert len(events) == sum(1 for r in runs if r >= k)


def test_replay_determinism():
    readings = series_of([36, 36, 36, 30, 36, 36, 36])
    rules = default_rules()
    assert evaluate_alerts(readings, rules) == evaluate_alerts(readings, rules)


def test_rule_validation():
    with pytest.raises(RulesError):
        AlertRule("x", "temperature", ">=", 1.0, 1, "m")
    with pytest.raises(RulesError):
        AlertRule("x", "temperature", ">", 1.0, 0, "m")
    with pytest.raises(RulesError):
        AlertRule("x", "temperature", ">", 1.0, 1, "")
    with pytest.raises(RulesError):
        AlertRule("x", "voltage", ">", 1.0, 1, "m")


def test_parse_rules_roundtrip():
    text = """
# demo rules
[rule]
id = high_temp
parameter = temperature
comparator = >
threshold = 35
sustain = 3
message = Temperature is high, consider cooling measures

[rule]
id = low_moisture
parameter = moisture
comparator = <
threshold = 20
message = Soil moisture is low, consider irrigation
"""
    rules = parse_rules(text)
    assert [r.id for r in rules] == ["high_temp", "low_moisture"]
    assert rules[0].threshold == 35.0
    assert rules[1].sustain == 3  # default
    assert rules[0].message == HIGH_TEMP_MESSAGE


def test_parse_rules_errors():
    with pytest.raises(RulesError):
        parse_rules("")
    with pytest.raises(RulesError):
        parse_rules("id = x\n")
    with pytest.raises(RulesError):
        parse_rules("[rule]\nid = x\n")  # missing keys


# ---------------------------------------------------------------------------
# irrigation


def test_rain_always_pauses():
    for moisture in (5.0, 25.0, 45.0):
        cmd = irrigation_decide(1, moisture)
        assert cmd.action is IrrigationAction.PAUSE


def test_dry_soil_activates():
    cmd = irrigation_decide(0, 12.67, floor=20.0)
    assert cmd.action is IrrigationAction.ACTIVATE


def test_band_holds_and_ceiling_pauses():
    assert irrigation_decide(0, 25.0, 20.0, 40.0).action is IrrigationAction.HOLD
    assert irrigation_decide(0, 40.0, 20.0, 40.0).action is IrrigationAction.PAUSE
    assert irrigation_decide(0, 55.0, 20.0, 40.0).action is IrrigationAction.PAUSE


def test_irrigation_validation():
    with pytest.raises(ValueError):
        irrigation_decide(0, 30.0, floor=40.0, ceiling=20.0)
    with pytest.raises(ValueError):
        irrigation_decide(2, 30.0)


def test_never_activates_in_rain_randomized():
    rng = random.Random(7)
    for _ in range(10_000):
        rain = rng.randint(0, 1)
        moisture = rng.uniform(0.0, 60.0)
        cmd = irrigation_decide(rain, moisture)
        if rain == 1:
            assert cmd.action is not IrrigationAction.ACTIVATE


# ---------------------------------------------------------------------------
# duty cycling


def test_quiet_fair_weather_turns_rain_sensor_off():
    schedule = plan_duty_cycle([1020.0] * 6, [0] * 6,
                               DutyCycleConfig(step_s=10.0, start_t=100.0))
    assert not schedule.is_on("rain", 100.0)
    assert not schedule.is_on("rain", 159.9)
    assert schedule.is_on("rain", 160.0)      # beyond the horizon: default on
    assert schedule.is_on("temperature", 120.0)


def test_pressure_dip_forces_rain_sensor_on_from_that_step():
    forecast = [1020.0, 1019.0, 1011.0, 1020.0, 1020.0, 1020.0]
    schedule = plan_duty_cycle(forecast, [0] * 6, DutyCycleConfig(step_s=10.0))
    assert not schedule.is_on("rain", 0.0)
    assert not schedule.is_on("rain", 19.9)
    for t in (20.0, 30.0, 40.0, 50.0):        # on from the dip, even after recovery
        assert schedule.is_on("rain", t)


def test_recent_rain_keeps_everything_on():
    schedule = plan_duty_cycle([1020.0] * 6, [0, 0, 1, 0, 0, 0],
                               DutyCycleConfig(step_s=10.0))
    for t in (0.0, 30.0, 59.9):
        assert schedule.is_on("rain", t)


def test_insufficient_history_keeps_rain_sensor_on():
    schedule = plan_duty_cycle([1020.0] * 6, [0, 0, 0], DutyCycleConfig(lookback=6))
    assert schedule.is_on("rain", 0.0)


def test_threshold_equality_keeps_sensor_on():
    schedule = plan_duty_cycle([1013.0] * 6, [0] * 6, DutyCycleConfig(step_s=10.0))
    for t in (0.0, 30.0, 59.9):
        assert schedule.is_on("rain", t)


def test_rain_sensor_never_off_below_threshold_property():
    rng = random.Random(11)
    cfg = DutyCycleConfig(step_s=10.0)
    for _ in range(500):
        horizon = rng.randint(1, 12)
        forecast = [rng.uniform(1008.0, 1026.0) for _ in range(horizon)]
        history = [rng.randint(0, 1) for _ in range(rng.randint(0, 10))]
        schedule = plan_duty_cycle(forecast, history, cfg)
        for j, value in enumerate(forecast):
            t = cfg.start_t + j * cfg.step_s
            if value < cfg.pressure_threshold:
                assert schedule.is_on("rain", t)


@settings(max_examples=200, deadline=None)
@given(forecast=st.lists(st.floats(min_value=1008.0, max_value=1026.0), max_size=12),
       history=st.lists(st.integers(min_value=0, max_value=1), max_size=20),
       lookback=st.integers(min_value=1, max_value=8))
def test_plan_reads_only_the_last_lookback_rain_values(forecast, history, lookback):
    cfg = DutyCycleConfig(lookback=lookback)
    assert (plan_duty_cycle(forecast, history[-lookback:], cfg)
            == plan_duty_cycle(forecast, history, cfg))


def test_schedule_rejects_overlapping_intervals():
    with pytest.raises(ValueError):
        PowerSchedule({"rain": (ScheduleInterval(0.0, 20.0, False),
                                ScheduleInterval(10.0, 30.0, True))})


def test_empty_forecast_yields_always_on():
    schedule = plan_duty_cycle([], [0] * 6)
    assert schedule.is_on("rain", 0.0)
    assert schedule.intervals == {}
