"""Field environment simulation.

Produces the ground-truth time series the rest of the stack consumes, either
as a seeded stochastic process bounded to fixed parameter ranges or as a
deterministic replay of a scripted scenario.

Scenario files are line-oriented text: `key = value` headers followed by an
optional ``[script]`` section of ``t_s,temp_c,press_hpa,moist_pct,rain`` rows.
Lines starting with ``#`` are comments.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import IO, Iterator

HEADER_KEYS = {
    "mode", "seed", "duration_s", "tick_s",
    "temp_min", "temp_max", "press_min", "press_max", "moist_min", "moist_max",
    "noise_frac", "reversion", "rain_p_stay", "rain_moisture_ramp",
}


class ScenarioError(ValueError):
    """Base class for scenario loading problems."""


class ScenarioParseError(ScenarioError):
    def __init__(self, message: str, line: int, column: int | None = None):
        where = f"line {line}" if column is None else f"line {line}, field {column}"
        super().__init__(f"{where}: {message}")
        self.line = line
        self.column = column


class ScenarioRangeError(ScenarioError):
    def __init__(self, parameter: str, value: float, lo: float, hi: float):
        super().__init__(
            f"{parameter} value {value} outside declared range [{lo}, {hi}]"
        )
        self.parameter = parameter
        self.value = value


@dataclass(frozen=True)
class ParamRange:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ScenarioError(f"range min {self.lo} must be below max {self.hi}")

    @property
    def span(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def clamp(self, value: float) -> float:
        return min(self.hi, max(self.lo, value))

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class ScriptRow:
    t: float
    temperature: float
    pressure: float
    moisture: float
    rain: int


@dataclass(frozen=True)
class StepParams:
    """Knobs of the stochastic process (one tick per step).

    Continuous fields follow a mean-reverting bounded walk: pull toward the
    range midpoint plus uniform noise, clamped to the range. Rain is a
    two-state persistence process; while raining, moisture additionally ramps
    up by `rain_moisture_ramp` percent per tick.
    """

    noise_frac: float = 0.02       # noise amplitude as a fraction of range span
    reversion: float = 0.05        # per-tick pull toward the range midpoint
    rain_p_stay: float = 0.9       # probability the rain state persists
    rain_moisture_ramp: float = 0.5


@dataclass(frozen=True)
class EnvSample:
    t: float
    temperature: float
    pressure: float
    moisture: float
    rain: int


@dataclass(frozen=True)
class ScenarioSpec:
    mode: str
    seed: int = 0
    duration_s: float = 3600.0
    tick_s: float = 10.0
    temperature: ParamRange = ParamRange(20.0, 40.0)
    pressure: ParamRange = ParamRange(1010.0, 1025.0)
    moisture: ParamRange = ParamRange(10.0, 50.0)
    script: tuple[ScriptRow, ...] = ()
    step_params: StepParams = field(default_factory=StepParams)

    def __post_init__(self):
        if self.mode not in ("stochastic", "scripted"):
            raise ScenarioError(f"unknown mode {self.mode!r}")
        if self.tick_s <= 0:
            raise ScenarioError("tick_s must be positive")
        if self.duration_s < self.tick_s:
            raise ScenarioError("duration_s must be at least one tick")
        if self.mode == "scripted":
            if not self.script:
                raise ScenarioError("scripted scenario has no [script] rows")
            last_t = None
            for row in self.script:
                if last_t is not None and row.t <= last_t:
                    raise ScenarioError(
                        f"script timestamps must strictly increase (t={row.t})"
                    )
                last_t = row.t
                self._check_row(row)

    def _check_row(self, row: ScriptRow) -> None:
        for name, value in (
            ("temperature", row.temperature),
            ("pressure", row.pressure),
            ("moisture", row.moisture),
        ):
            rng = self.range_for(name)
            if not rng.contains(value):
                raise ScenarioRangeError(name, value, rng.lo, rng.hi)
        if row.rain not in (0, 1):
            raise ScenarioError(f"rain must be 0 or 1, got {row.rain}")

    def range_for(self, parameter: str) -> ParamRange:
        return {
            "temperature": self.temperature,
            "pressure": self.pressure,
            "moisture": self.moisture,
        }[parameter]

    @property
    def sample_count(self) -> int:
        """Samples on the tick grid within [0, duration)."""
        return int(self.duration_s / self.tick_s + 1e-9)


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse scenario file content into a validated spec."""
    headers: dict[str, str] = {}
    rows: list[ScriptRow] = []
    in_script = False
    saw_any = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        saw_any = True
        if line == "[script]":
            in_script = True
            continue
        if not in_script:
            if "=" not in line:
                raise ScenarioParseError("expected 'key = value'", lineno)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in HEADER_KEYS:
                raise ScenarioParseError(f"unknown key {key!r}", lineno)
            headers[key] = value.strip()
        else:
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 5:
                raise ScenarioParseError(
                    f"script row needs 5 fields, got {len(parts)}", lineno
                )
            values: list[float] = []
            for col, part in enumerate(parts, start=1):
                try:
                    values.append(float(part))
                except ValueError:
                    raise ScenarioParseError(
                        f"not a number: {part!r}", lineno, col
                    ) from None
            if values[4] not in (0.0, 1.0):
                raise ScenarioParseError("rain must be 0 or 1", lineno, 5)
            rows.append(ScriptRow(values[0], values[1], values[2],
                                  values[3], int(values[4])))

    if not saw_any:
        raise ScenarioParseError("empty scenario document", 1)
    if "mode" not in headers:
        raise ScenarioParseError("missing required 'mode' header", 1)

    def fnum(key: str, default: float) -> float:
        if key not in headers:
            return default
        try:
            return float(headers[key])
        except ValueError:
            raise ScenarioParseError(f"bad numeric value for {key!r}", 1) from None

    def frange(prefix: str, default: ParamRange) -> ParamRange:
        return ParamRange(fnum(f"{prefix}_min", default.lo), fnum(f"{prefix}_max", default.hi))

    step = StepParams(
        noise_frac=fnum("noise_frac", StepParams.noise_frac),
        reversion=fnum("reversion", StepParams.reversion),
        rain_p_stay=fnum("rain_p_stay", StepParams.rain_p_stay),
        rain_moisture_ramp=fnum("rain_moisture_ramp", StepParams.rain_moisture_ramp),
    )
    return ScenarioSpec(
        mode=headers["mode"],
        seed=int(fnum("seed", ScenarioSpec.seed)),
        duration_s=fnum("duration_s", ScenarioSpec.duration_s),
        tick_s=fnum("tick_s", ScenarioSpec.tick_s),
        temperature=frange("temp", ScenarioSpec.temperature),
        pressure=frange("press", ScenarioSpec.pressure),
        moisture=frange("moist", ScenarioSpec.moisture),
        script=tuple(rows),
        step_params=step,
    )


def load_scenario(source: str | Path | IO[str]) -> ScenarioSpec:
    """Load a scenario from a path or an open text stream.

    A path that cannot be read as UTF-8 text raises `ScenarioError`.
    """
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario file {str(source)!r}: {exc}") from exc
    else:
        text = source.read()
    return parse_scenario(text)


def bundled_scenario_names() -> tuple[str, ...]:
    pkg = resources.files(__package__) / "scenarios"
    return tuple(sorted(
        p.name[: -len(".scenario")]
        for p in pkg.iterdir()
        if p.name.endswith(".scenario")
    ))


def load_bundled_scenario(name: str) -> ScenarioSpec:
    pkg = resources.files(__package__) / "scenarios" / f"{name}.scenario"
    if not pkg.is_file():
        raise ScenarioError(
            f"no bundled scenario {name!r} (have: {', '.join(bundled_scenario_names())})"
        )
    return parse_scenario(pkg.read_text(encoding="utf-8"))


def resolve_scenario(name_or_path: str) -> ScenarioSpec:
    """Accept either a bundled scenario name or a filesystem path."""
    if Path(name_or_path).exists():
        return load_scenario(name_or_path)
    return load_bundled_scenario(name_or_path)


def sample_at(spec: ScenarioSpec, t: float) -> EnvSample:
    """Evaluate a scripted scenario at time t.

    Continuous fields interpolate linearly between neighboring rows; rain
    holds the value of the most recent row at or before t. Outside the knot
    span the nearest row's values are held.
    """
    if spec.mode != "scripted":
        raise ScenarioError("sample_at requires a scripted scenario")
    if not 0 <= t <= spec.duration_s:
        raise ScenarioError(f"t={t} outside [0, {spec.duration_s}]")

    times = [row.t for row in spec.script]
    i = bisect.bisect_right(times, t) - 1
    if i < 0:
        row = spec.script[0]
        return EnvSample(t, row.temperature, row.pressure, row.moisture, row.rain)
    if i >= len(spec.script) - 1:
        row = spec.script[-1]
        return EnvSample(t, row.temperature, row.pressure, row.moisture, row.rain)

    a, b = spec.script[i], spec.script[i + 1]
    frac = (t - a.t) / (b.t - a.t)

    def lerp(x: float, y: float) -> float:
        return x + (y - x) * frac

    return EnvSample(
        t=t,
        temperature=lerp(a.temperature, b.temperature),
        pressure=lerp(a.pressure, b.pressure),
        moisture=lerp(a.moisture, b.moisture),
        rain=a.rain,
    )


def initial_sample(spec: ScenarioSpec) -> EnvSample:
    """Starting state for stochastic generation: range midpoints, dry."""
    return EnvSample(
        t=0.0,
        temperature=spec.temperature.midpoint,
        pressure=spec.pressure.midpoint,
        moisture=spec.moisture.midpoint,
        rain=0,
    )


def step(state: EnvSample, spec: ScenarioSpec, rng: random.Random) -> EnvSample:
    """Advance the stochastic process by one tick.

    Draw order is fixed (temperature, pressure, moisture, rain) so a given
    (spec, seed) pair always reproduces the same sequence.
    """
    p = spec.step_params

    def walk(value: float, rng_range: ParamRange, extra: float = 0.0) -> float:
        nxt = value + p.reversion * (rng_range.midpoint - value)
        amp = p.noise_frac * rng_range.span
        nxt += rng.uniform(-amp, amp)
        return rng_range.clamp(nxt + extra)

    ramp = p.rain_moisture_ramp if state.rain == 1 else 0.0
    temperature = walk(state.temperature, spec.temperature)
    pressure = walk(state.pressure, spec.pressure)
    moisture = walk(state.moisture, spec.moisture, extra=ramp)
    rain = state.rain if rng.random() < p.rain_p_stay else 1 - state.rain
    return EnvSample(state.t + spec.tick_s, temperature, pressure, moisture, rain)


def simulate(spec: ScenarioSpec) -> Iterator[EnvSample]:
    """Yield the scenario's samples on the tick grid: t = 0, tick, ... < duration."""
    n = spec.sample_count
    if spec.mode == "scripted":
        for i in range(n):
            yield sample_at(spec, i * spec.tick_s)
        return
    rng = random.Random(spec.seed)
    state = initial_sample(spec)
    yield state
    for _ in range(n - 1):
        state = step(state, spec, rng)
        yield state
