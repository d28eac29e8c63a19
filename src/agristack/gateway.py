"""Edge gateway: acquisition through the converter model, local display,
store-and-forward publishing, and energy-accounted sensor power control.

The gateway never sees ground truth directly: every continuous value it
reports went engineering unit -> volts -> 12-bit code -> volts -> unit, so
published numbers carry at most half an LSB of conversion error. Rain is a
digital line and passes through exactly.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Callable, Mapping

from . import adc
from .analytics import (HIGH_TEMP_C, LOW_MOISTURE_PCT, AlertRuleSet, PowerSchedule,
                        always_on)
from .client import RateLimited, ServiceUnavailable
from .envsim import EnvSample
from .sensors import SENSORS

# sensor name -> channel field index, for callers that look fields up by name
FIELD_MAP = {s.name: s.field for s in SENSORS}

DEFAULT_EPOCH = datetime(2024, 12, 15, 10, 0, 0, tzinfo=timezone.utc)


class EmptyReadingError(RuntimeError):
    """Every sensor was powered off for this cycle."""


@dataclass(frozen=True)
class Reading:
    timestamp: datetime
    temperature: float | None = None
    pressure: float | None = None
    moisture: float | None = None
    rain: int | None = None


@dataclass(frozen=True)
class RetryPolicy:
    max_attempts: int = 5
    backoff_base_s: float = 1.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


SENSOR_POWER_MW = 5.0           # every sensor draws the same power when on


class EnergyLedger:
    """Accumulated per-sensor on-time and the energy it implies."""

    def __init__(self):
        self.on_time_s: dict[str, float] = {s.name: 0.0 for s in SENSORS}

    def add_on_time(self, sensor: str, seconds: float) -> None:
        self.on_time_s[sensor] += seconds

    def energy_mj(self, sensor: str) -> float:
        return self.on_time_s[sensor] * SENSOR_POWER_MW

    def total_energy_mj(self) -> float:
        return sum(self.energy_mj(name) for name in self.on_time_s)


class EdgeGateway:
    """Acquisition side of the gateway.

    Times are seconds on the simulation timeline; reading timestamps are
    epoch + t. The active power schedule can be swapped at any cycle
    boundary; ledger and schedule accesses are mutex-guarded so an external
    controller thread may do so while the acquisition loop runs.
    """

    def __init__(self, sample_interval_s: float = 10.0,
                 schedule: PowerSchedule | None = None,
                 epoch: datetime = DEFAULT_EPOCH):
        self.sample_interval_s = sample_interval_s
        self.epoch = epoch
        self.ledger = EnergyLedger()
        self._schedule = schedule if schedule is not None else always_on()
        self._lock = threading.Lock()
        self._last_t: float | None = None

    def apply_schedule(self, schedule: PowerSchedule) -> None:
        with self._lock:
            self._schedule = schedule

    def acquire_cycle(self, t: float, env: EnvSample) -> Reading:
        """Read all powered-on sensors through the converter chain.

        Raises EmptyReadingError when the schedule has every sensor off for
        this cycle (the ledger then advances by zero).
        """
        with self._lock:
            schedule = self._schedule
            if self._last_t is not None and t < self._last_t:
                raise ValueError(f"time went backwards: {t} < {self._last_t}")
            self._last_t = t

            powered = [s for s in SENSORS if schedule.is_on(s.name, t)]
            for s in powered:
                self.ledger.add_on_time(s.name, self.sample_interval_s)

        if not powered:
            raise EmptyReadingError(f"all sensors off at t={t}")

        values: dict[str, float | int] = {}
        for s in powered:
            value = getattr(env, s.name)
            values[s.name] = (adc.convert_units(value, adc.DEFAULT_MAPS[s.name])
                              if s.analog else value)
        return Reading(self.epoch + timedelta(seconds=t), **values)


# ---------------------------------------------------------------------------
# Local display and indicators


@dataclass(frozen=True)
class LcdFrame:
    line1: str
    line2: str

    def __post_init__(self):
        for line in (self.line1, self.line2):
            if len(line) != 16:
                raise ValueError(f"LCD line must be 16 chars, got {len(line)}")
            if not all(c.isprintable() for c in line):
                raise ValueError("LCD line contains unprintable characters")


def render_lcd(reading: Reading) -> LcdFrame:
    """16x2 frame: `T:xx.xC P:xxxx.x` / `M:xx.x% R:{0|1|-}`, `--` when absent.

    Cell widths are fixed (7+1+8 and 7+1+3 padded), so frames are always
    exactly 16 characters per line; oversized values are clipped.
    """
    temp = "T:--" if reading.temperature is None else f"T:{reading.temperature:.1f}C"
    press = "P:--" if reading.pressure is None else f"P:{reading.pressure:.1f}"
    moist = "M:--" if reading.moisture is None else f"M:{reading.moisture:.1f}%"
    rain = "R:-" if reading.rain is None else f"R:{reading.rain}"
    line1 = f"{temp[:7]:<7} {press[:8]:<8}"
    line2 = f"{moist[:7]:<7} {rain[:3]:<3}".ljust(16)
    return LcdFrame(line1, line2)


def indicator_states(reading: Reading, rules: AlertRuleSet) -> dict[str, bool]:
    """LED panel: heat and dry thresholds come from the alert rules."""
    heat_threshold = HIGH_TEMP_C
    moisture_floor = LOW_MOISTURE_PCT
    for rule in rules:
        if rule.parameter == "temperature" and rule.comparator == ">":
            heat_threshold = rule.threshold
        elif rule.parameter == "moisture" and rule.comparator == "<":
            moisture_floor = rule.threshold
    return {
        "heat": reading.temperature is not None and reading.temperature > heat_threshold,
        "rain": reading.rain == 1,
        "dry": reading.moisture is not None and reading.moisture < moisture_floor,
    }


# ---------------------------------------------------------------------------
# Publishing with store-and-forward


def reading_to_fields(reading: Reading) -> dict[int, str]:
    """Map a reading onto the channel field convention as decimal strings."""
    return {s.field: s.format(getattr(reading, s.name)) for s in SENSORS
            if getattr(reading, s.name) is not None}


def fields_to_reading(created_at: datetime,
                      fields: Mapping[int, str | None]) -> Reading:
    """Inverse of `reading_to_fields`; absent or null fields stay None."""
    return Reading(created_at, **{s.name: s.parse(fields[s.field]) for s in SENSORS
                                  if fields.get(s.field) is not None})


@dataclass(frozen=True)
class PublishResult:
    status: str                 # "acknowledged" or "queued"
    entry_id: int | None = None
    flushed: int = 0            # backlog entries delivered by this call


class Publisher:
    """Sends readings in acquisition order, buffering across outages.

    Each reading is attempted with exponential backoff; when attempts are
    exhausted it joins a bounded FIFO backlog that is drained, oldest first,
    before anything newer is sent. A full backlog evicts its oldest entry
    and counts the eviction in `drops`.
    """

    def __init__(self, client, retry: RetryPolicy | None = None,
                 backlog_capacity: int = 1000,
                 sleep: Callable[[float], None] = time.sleep):
        self.client = client
        self.retry = retry or RetryPolicy()
        self.backlog_capacity = backlog_capacity
        self.sleep = sleep
        self.backlog: deque[Reading] = deque()
        self.drops = 0
        self._lock = threading.Lock()

    def pending(self) -> int:
        with self._lock:
            return len(self.backlog)

    def _send_once(self, reading: Reading) -> int:
        created_at = reading.timestamp.replace(microsecond=0)
        return self.client.update(reading_to_fields(reading), created_at=created_at)

    def _send_with_retry(self, reading: Reading) -> int | None:
        backoff = self.retry.backoff_base_s
        for attempt in range(self.retry.max_attempts):
            try:
                return self._send_once(reading)
            except (ServiceUnavailable, RateLimited):
                if attempt + 1 < self.retry.max_attempts:
                    self.sleep(backoff)
                    backoff *= 2
        return None

    def _enqueue(self, reading: Reading) -> None:
        if self.backlog_capacity <= 0:
            self.drops += 1
            return
        if len(self.backlog) >= self.backlog_capacity:
            self.backlog.popleft()
            self.drops += 1
        self.backlog.append(reading)

    def publish(self, reading: Reading) -> PublishResult:
        with self._lock:
            flushed = 0
            while self.backlog:
                entry_id = self._send_with_retry(self.backlog[0])
                if entry_id is None:
                    self._enqueue(reading)
                    return PublishResult("queued", flushed=flushed)
                self.backlog.popleft()
                flushed += 1
            entry_id = self._send_with_retry(reading)
            if entry_id is None:
                self._enqueue(reading)
                return PublishResult("queued", flushed=flushed)
            return PublishResult("acknowledged", entry_id=entry_id, flushed=flushed)
