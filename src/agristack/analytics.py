"""Decision layer: forecasting, alerting, irrigation, and sensor duty cycling.

Everything here is a pure function of its inputs; the only stateful piece is
`AlertEngine`, which carries per-rule streak counters between readings and is
owned by a single caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Mapping, Sequence

from . import sensors

HIGH_TEMP_MESSAGE = "Temperature is high, consider cooling measures"
LOW_MOISTURE_MESSAGE = "Soil moisture is low, consider irrigation"
HIGH_TEMP_C = 35.0          # above this the air is too hot
LOW_MOISTURE_PCT = 20.0     # below this the soil is too dry


class RulesError(ValueError):
    """Problem in an alert rule or rules file."""


# ---------------------------------------------------------------------------
# Moving-average forecasting


@dataclass(frozen=True)
class ForecastConfig:
    window: int = 3
    horizon: int = 6

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass(frozen=True)
class Forecast:
    """Trailing moving-average smoothing plus a flat persistence extension.

    smoothed[j] is the mean of the window ending at input index window-1+j.
    The horizon repeats the last mean; it is a persistence forecast, not a
    multi-step model.
    """

    window: int
    smoothed: tuple[float, ...]
    horizon: tuple[float, ...]

    @property
    def next_step(self) -> float | None:
        return self.smoothed[-1] if self.smoothed else None


def moving_average(series: Sequence[float], cfg: ForecastConfig = ForecastConfig()) -> Forecast:
    """Trailing moving average over `series` with the config's window.

    A series shorter than the window yields an empty forecast.
    """
    w = cfg.window
    if len(series) < w:
        return Forecast(window=w, smoothed=(), horizon=())
    smoothed = tuple(sum(series[i - w + 1:i + 1]) / w for i in range(w - 1, len(series)))
    return Forecast(window=w, smoothed=smoothed, horizon=(smoothed[-1],) * cfg.horizon)


# ---------------------------------------------------------------------------
# Threshold alerting


@dataclass(frozen=True)
class AlertRule:
    id: str
    parameter: str
    comparator: str          # ">" or "<"
    threshold: float
    sustain: int = 3         # consecutive violating samples before the event
    message: str = ""

    def __post_init__(self):
        if self.comparator not in (">", "<"):
            raise RulesError(f"comparator must be '>' or '<', got {self.comparator!r}")
        if self.sustain < 1:
            raise RulesError("sustain must be >= 1")
        if not self.message:
            raise RulesError("message must be non-empty")
        if self.parameter not in sensors.BY_NAME:
            raise RulesError(f"unknown parameter {self.parameter!r}")

    def violated_by(self, value: float) -> bool:
        return value > self.threshold if self.comparator == ">" else value < self.threshold


AlertRuleSet = Sequence[AlertRule]


def default_rules() -> list[AlertRule]:
    return [
        AlertRule("high_temp", "temperature", ">", HIGH_TEMP_C, 3, HIGH_TEMP_MESSAGE),
        AlertRule("low_moisture", "moisture", "<", LOW_MOISTURE_PCT, 3, LOW_MOISTURE_MESSAGE),
    ]


@dataclass(frozen=True)
class AlertEvent:
    rule_id: str
    first_violation: datetime
    triggered: datetime
    message: str


class AlertEngine:
    """Edge-triggered sustained-threshold evaluator.

    Emits one event when a rule has been violated by `sustain` consecutive
    readings; stays silent until a non-violating reading resets the streak,
    after which the rule can fire again. A reading that lacks the rule's
    parameter counts as non-violating.
    """

    def __init__(self, rules: AlertRuleSet):
        self.rules = list(rules)
        self._streak: dict[str, int] = {r.id: 0 for r in self.rules}
        self._streak_start: dict[str, datetime | None] = {r.id: None for r in self.rules}
        self._fired: dict[str, bool] = {r.id: False for r in self.rules}

    def observe(self, reading) -> list[AlertEvent]:
        """Feed one time-ordered reading; returns events triggered by it."""
        events: list[AlertEvent] = []
        for rule in self.rules:
            value = getattr(reading, rule.parameter, None)
            if value is None or not rule.violated_by(value):
                self._streak[rule.id] = 0
                self._streak_start[rule.id] = None
                self._fired[rule.id] = False
                continue
            if self._streak[rule.id] == 0:
                self._streak_start[rule.id] = reading.timestamp
            self._streak[rule.id] += 1
            if self._streak[rule.id] >= rule.sustain and not self._fired[rule.id]:
                self._fired[rule.id] = True
                events.append(AlertEvent(
                    rule_id=rule.id,
                    first_violation=self._streak_start[rule.id],
                    triggered=reading.timestamp,
                    message=rule.message,
                ))
        return events


def evaluate_alerts(readings: Sequence, rules: AlertRuleSet) -> list[AlertEvent]:
    """Run the edge-triggered evaluator over a whole reading sequence."""
    engine = AlertEngine(rules)
    events: list[AlertEvent] = []
    for reading in readings:
        events.extend(engine.observe(reading))
    return events


def parse_rules(text: str) -> list[AlertRule]:
    """Parse a rules file: repeated [rule] sections of `key = value` lines."""
    sections: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == "[rule]":
            current = {}
            sections.append(current)
            continue
        if current is None:
            raise RulesError(f"line {lineno}: content before first [rule] section")
        if "=" not in line:
            raise RulesError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        current[key.strip()] = value.strip()

    if not sections:
        raise RulesError("no [rule] sections found")

    rules = []
    for i, sec in enumerate(sections, start=1):
        missing = {"id", "parameter", "comparator", "threshold", "message"} - sec.keys()
        if missing:
            raise RulesError(f"rule {i}: missing keys {sorted(missing)}")
        try:
            threshold = float(sec["threshold"])
            sustain = int(sec.get("sustain", "3"))
        except ValueError as exc:
            raise RulesError(f"rule {i}: {exc}") from None
        rules.append(AlertRule(sec["id"], sec["parameter"], sec["comparator"],
                               threshold, sustain, sec["message"]))
    return rules


def load_rules(path) -> list[AlertRule]:
    from pathlib import Path
    return parse_rules(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Irrigation decisions


class IrrigationAction(Enum):
    PAUSE = "pause"
    ACTIVATE = "activate"
    HOLD = "hold"


@dataclass(frozen=True)
class IrrigationCommand:
    action: IrrigationAction
    reason: str
    at: datetime | None = None


def irrigation_decide(rain: int, moisture: float, floor: float = LOW_MOISTURE_PCT,
                      ceiling: float = 40.0, at: datetime | None = None) -> IrrigationCommand:
    """Rain-gated irrigation rule with a hysteresis band.

    Rain pauses irrigation outright; otherwise moisture below the floor
    activates it and moisture at or above the ceiling pauses it. Inside the
    band the current state is held to avoid command flapping.
    """
    if not floor < ceiling:
        raise ValueError(f"floor {floor} must be below ceiling {ceiling}")
    if rain not in (0, 1):
        raise ValueError(f"rain must be 0 or 1, got {rain!r}")
    if rain == 1:
        return IrrigationCommand(IrrigationAction.PAUSE,
                                 "rain detected, pausing to prevent overwatering", at)
    if moisture < floor:
        return IrrigationCommand(IrrigationAction.ACTIVATE,
                                 f"moisture {moisture:.1f}% below floor {floor:.1f}%", at)
    if moisture >= ceiling:
        return IrrigationCommand(IrrigationAction.PAUSE,
                                 f"moisture {moisture:.1f}% at or above ceiling {ceiling:.1f}%", at)
    return IrrigationCommand(IrrigationAction.HOLD,
                             "moisture inside hysteresis band", at)


# ---------------------------------------------------------------------------
# Forecast-driven sensor duty cycling


@dataclass(frozen=True)
class ScheduleInterval:
    start: float
    end: float
    on: bool

    def __post_init__(self):
        if self.end <= self.start:
            raise ValueError("interval end must be after start")


@dataclass(frozen=True)
class PowerSchedule:
    """Per-sensor on/off intervals on the simulation timeline (seconds).

    Sensors without intervals, and times outside the listed intervals, are on.
    """

    intervals: Mapping[str, tuple[ScheduleInterval, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for sensor, spans in self.intervals.items():
            ordered = sorted(spans, key=lambda s: s.start)
            for a, b in zip(ordered, ordered[1:]):
                if b.start < a.end:
                    raise ValueError(f"{sensor}: overlapping schedule intervals")

    def is_on(self, sensor: str, t: float) -> bool:
        for span in self.intervals.get(sensor, ()):
            if span.start <= t < span.end:
                return span.on
        return True


def always_on() -> PowerSchedule:
    return PowerSchedule({})


@dataclass(frozen=True)
class DutyCycleConfig:
    lookback: int = 6               # rain samples that must all be dry
    pressure_threshold: float = 1013.0
    step_s: float = 10.0            # duration of one forecast step
    start_t: float = 0.0            # schedule origin on the sim timeline


def plan_duty_cycle(pressure_forecast: Sequence[float], rain_history: Sequence[int],
                    cfg: DutyCycleConfig = DutyCycleConfig()) -> PowerSchedule:
    """Schedule the rain sensor off across quiet, fair-weather horizons.

    The rain sensor may be off at a forecast step only when the last
    `lookback` rain observations are all 0 and every forecast step up to and
    including that one stays strictly above the pressure threshold; from the
    first step at or below the threshold onward it is forced back on. All
    other sensors stay on.
    """
    horizon = len(pressure_forecast)
    if horizon == 0:
        return always_on()
    t0 = cfg.start_t
    end = t0 + horizon * cfg.step_s

    recent = list(rain_history[-cfg.lookback:])
    quiet = len(recent) >= cfg.lookback and all(r == 0 for r in recent)
    if not quiet:
        return PowerSchedule({"rain": (ScheduleInterval(t0, end, on=True),)})

    off_steps = 0
    for value in pressure_forecast:
        if value > cfg.pressure_threshold:
            off_steps += 1
        else:
            break

    if off_steps == 0:
        return PowerSchedule({"rain": (ScheduleInterval(t0, end, on=True),)})
    if off_steps == horizon:
        return PowerSchedule({"rain": (ScheduleInterval(t0, end, on=False),)})
    split = t0 + off_steps * cfg.step_s
    return PowerSchedule({"rain": (
        ScheduleInterval(t0, split, on=False),
        ScheduleInterval(split, end, on=True),
    )})
