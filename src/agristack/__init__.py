"""Desk-scale smart-agriculture telemetry stack.

Simulated field environment -> modeled 12-bit converter -> edge gateway ->
channel service (hosted-platform-compatible wire protocol) -> analytics
(forecast, alerts, irrigation, duty cycling) -> terminal client.
"""

from .adc import (DEFAULT_MAPS, SpiFrame, TransferFunction, decode,
                  parse_frame, quantize, spi_transaction, to_voltage)
from .analytics import (AlertEngine, AlertEvent, AlertRule, DutyCycleConfig,
                        Forecast, ForecastConfig, IrrigationAction,
                        IrrigationCommand, PowerSchedule, ScheduleInterval,
                        default_rules, evaluate_alerts, irrigation_decide,
                        moving_average, plan_duty_cycle)
from .envsim import (EnvSample, ScenarioSpec, load_bundled_scenario,
                     load_scenario, parse_scenario, resolve_scenario,
                     sample_at, simulate, step)
from .gateway import (EdgeGateway, EnergyLedger, LcdFrame, Publisher, Reading,
                      RetryPolicy, indicator_states, render_lcd)
from .pipeline import RunReport, run_pipeline
from .service import Channel, ChannelService, FeedEntry

__version__ = "0.1.0"

__all__ = [
    "AlertEngine", "AlertEvent", "AlertRule", "Channel", "ChannelService",
    "DEFAULT_MAPS", "DutyCycleConfig", "EdgeGateway", "EnergyLedger",
    "EnvSample", "FeedEntry", "Forecast", "ForecastConfig",
    "IrrigationAction", "IrrigationCommand", "LcdFrame", "PowerSchedule",
    "Publisher", "Reading", "RetryPolicy", "RunReport", "ScenarioSpec",
    "ScheduleInterval", "SpiFrame", "TransferFunction", "decode",
    "default_rules", "evaluate_alerts", "indicator_states",
    "irrigation_decide", "load_bundled_scenario", "load_scenario",
    "moving_average", "parse_frame", "parse_scenario", "plan_duty_cycle",
    "quantize", "render_lcd", "resolve_scenario", "run_pipeline", "sample_at",
    "simulate", "spi_transaction", "step", "to_voltage",
]
