"""End-to-end run loop: scenario -> gateway -> channel service.

Drives the simulator on its tick grid, acquires through the gateway, and
publishes each reading with the reading's simulated timestamp. Time is
accelerated by default: `speed` is a wall-clock divisor and "max" skips
sleeping entirely. With duty cycling enabled, the rain sensor's power
schedule is re-planned from the pressure forecast every horizon. A plan
reads only the last `window` pressure values and the last `lookback` rain
values, so only those are kept: each plan costs the same at any run length.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from datetime import datetime
from typing import Callable

from .analytics import DutyCycleConfig, ForecastConfig, moving_average, plan_duty_cycle
from .envsim import ScenarioSpec, simulate
from .gateway import DEFAULT_EPOCH, EdgeGateway, EmptyReadingError, Publisher, Reading


@dataclass
class RunReport:
    cycles: int = 0
    acknowledged: int = 0
    queued: int = 0
    skipped: int = 0            # cycles with every sensor off
    drops: int = 0
    pending: int = 0
    energy_mj: dict[str, float] = field(default_factory=dict)
    on_time_s: dict[str, float] = field(default_factory=dict)


def run_pipeline(spec: ScenarioSpec, client, *,
                 epoch: datetime = DEFAULT_EPOCH,
                 duty_cycle: bool = False,
                 speed: float | str = "max",
                 on_reading: Callable[[float, Reading], None] | None = None) -> RunReport:
    gateway = EdgeGateway(sample_interval_s=spec.tick_s, epoch=epoch)
    publisher = Publisher(client, sleep=time.sleep if speed != "max" else (lambda _s: None))
    forecast_cfg = ForecastConfig()
    duty_cfg = DutyCycleConfig(step_s=spec.tick_s)
    report = RunReport()

    pressure_history: deque[float] = deque(maxlen=forecast_cfg.window)
    rain_history: deque[int] = deque(maxlen=duty_cfg.lookback)
    last_plan_cycle: int | None = None

    for cycle, env in enumerate(simulate(spec)):
        if speed != "max":
            time.sleep(spec.tick_s / float(speed))
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

        if duty_cycle and len(pressure_history) >= forecast_cfg.window:
            due = (last_plan_cycle is None
                   or cycle - last_plan_cycle >= forecast_cfg.horizon)
            if due:
                # both slice their inputs, which a deque does not support
                forecast = moving_average(tuple(pressure_history), forecast_cfg)
                schedule = plan_duty_cycle(
                    forecast.horizon, tuple(rain_history),
                    replace(duty_cfg, start_t=env.t + spec.tick_s))
                gateway.apply_schedule(schedule)
                last_plan_cycle = cycle

        if on_reading is not None:
            on_reading(env.t, reading)

    report.drops = publisher.drops
    report.pending = publisher.pending()
    report.energy_mj = {name: gateway.ledger.energy_mj(name)
                        for name in gateway.ledger.on_time_s}
    report.on_time_s = dict(gateway.ledger.on_time_s)
    return report
