from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agristack import envsim
from agristack.envsim import (EnvSample, ParamRange, ScenarioError,
                              ScenarioParseError, ScenarioRangeError,
                              ScenarioSpec, ScriptRow, StepParams,
                              load_bundled_scenario, parse_scenario, sample_at,
                              simulate, step)

MINIMAL_STOCHASTIC = "mode = stochastic\n"

SCRIPTED = """
mode = scripted
duration_s = 60
tick_s = 10
[script]
0,30.0,1015.0,25.0,0
30,34.0,1020.0,30.0,1
60,32.0,1018.0,28.0,0
"""


def test_minimal_stochastic_defaults():
    spec = parse_scenario(MINIMAL_STOCHASTIC)
    assert spec.mode == "stochastic"
    assert (spec.temperature.lo, spec.temperature.hi) == (20.0, 40.0)
    assert (spec.pressure.lo, spec.pressure.hi) == (1010.0, 1025.0)
    assert (spec.moisture.lo, spec.moisture.hi) == (10.0, 50.0)
    assert spec.tick_s == 10.0
    assert spec.duration_s == 3600.0


def test_parse_defaults_are_the_spec_defaults():
    assert parse_scenario(MINIMAL_STOCHASTIC) == ScenarioSpec(mode="stochastic")


def test_lone_range_bound_keeps_the_default_other_bound():
    spec = parse_scenario("mode = stochastic\ntemp_min = 25\n")
    assert (spec.temperature.lo, spec.temperature.hi) == (25.0, 40.0)
    spec = parse_scenario("mode = stochastic\nmoist_max = 30\n")
    assert (spec.moisture.lo, spec.moisture.hi) == (10.0, 30.0)


def test_empty_document_is_parse_error():
    with pytest.raises(ScenarioParseError):
        parse_scenario("")
    with pytest.raises(ScenarioParseError):
        parse_scenario("# only comments\n\n")


def test_script_value_beyond_range_names_parameter():
    text = SCRIPTED.replace("34.0", "45.0")
    with pytest.raises(ScenarioRangeError) as err:
        parse_scenario(text)
    assert err.value.parameter == "temperature"
    assert "45" in str(err.value)


def test_malformed_script_row_reports_position():
    text = "mode = scripted\n[script]\n0,30.0,1015.0,oops,0\n"
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(text)
    assert err.value.line == 3
    assert err.value.column == 4


def test_unknown_header_key_rejected():
    with pytest.raises(ScenarioParseError):
        parse_scenario("mode = stochastic\nbogus = 1\n")


def test_script_timestamps_must_increase():
    bad = SCRIPTED.replace("30,34.0", "0,34.0")
    with pytest.raises(ScenarioError):
        parse_scenario(bad)


def test_sample_at_knot_returns_exact_row_values():
    spec = parse_scenario(SCRIPTED)
    s = sample_at(spec, 30.0)
    assert (s.temperature, s.pressure, s.moisture, s.rain) == (34.0, 1020.0, 30.0, 1)


def test_sample_at_midpoint_interpolates():
    # midway between 30.0 and 34.0 -> 32.0 (independent linear-interp oracle)
    spec = parse_scenario(SCRIPTED)
    s = sample_at(spec, 15.0)
    assert s.temperature == pytest.approx(30.0 + (34.0 - 30.0) * 0.5)
    assert s.temperature == pytest.approx(32.0)


def test_sample_at_rain_zero_order_hold():
    spec = parse_scenario(SCRIPTED)
    assert sample_at(spec, 29.9).rain == 0
    assert sample_at(spec, 30.0).rain == 1
    assert sample_at(spec, 59.9).rain == 1
    assert sample_at(spec, 60.0).rain == 0


def test_sample_at_outside_duration_rejected():
    spec = parse_scenario(SCRIPTED)
    with pytest.raises(ScenarioError):
        sample_at(spec, -1.0)
    with pytest.raises(ScenarioError):
        sample_at(spec, 61.0)


def test_sample_at_requires_scripted_mode():
    spec = parse_scenario(MINIMAL_STOCHASTIC)
    with pytest.raises(ScenarioError):
        sample_at(spec, 0.0)


def test_zero_noise_zero_reversion_step_is_identity():
    spec = replace(parse_scenario(MINIMAL_STOCHASTIC),
                   step_params=StepParams(noise_frac=0.0, reversion=0.0,
                                          rain_p_stay=1.0))
    state = EnvSample(t=0.0, temperature=25.0, pressure=1018.0, moisture=30.0, rain=0)
    nxt = step(state, spec, random.Random(7))
    assert nxt.t == spec.tick_s
    assert (nxt.temperature, nxt.pressure, nxt.moisture, nxt.rain) == (
        state.temperature, state.pressure, state.moisture, state.rain)


def test_many_steps_stay_within_ranges():
    spec = parse_scenario(MINIMAL_STOCHASTIC)
    rng = random.Random(123)
    state = envsim.initial_sample(spec)
    for _ in range(10_000):
        state = step(state, spec, rng)
        assert spec.temperature.contains(state.temperature)
        assert spec.pressure.contains(state.pressure)
        assert spec.moisture.contains(state.moisture)
        assert state.rain in (0, 1)


def test_fixed_seed_runs_are_bitwise_identical():
    spec = replace(parse_scenario(MINIMAL_STOCHASTIC), seed=42, duration_s=600.0)
    first = list(simulate(spec))
    second = list(simulate(spec))
    assert first == second


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_range_safety_property(seed):
    spec = ScenarioSpec(mode="stochastic", seed=seed, duration_s=300.0)
    for sample in simulate(spec):
        assert spec.temperature.contains(sample.temperature)
        assert spec.pressure.contains(sample.pressure)
        assert spec.moisture.contains(sample.moisture)
        assert sample.rain in (0, 1)


def test_moisture_ramps_while_raining():
    spec = replace(
        parse_scenario(MINIMAL_STOCHASTIC),
        step_params=StepParams(noise_frac=0.0, reversion=0.0, rain_p_stay=1.0,
                               rain_moisture_ramp=0.5),
    )
    wet = EnvSample(t=0.0, temperature=25.0, pressure=1018.0, moisture=30.0, rain=1)
    nxt = step(wet, spec, random.Random(1))
    assert nxt.moisture == pytest.approx(30.5)


def test_simulate_sample_count_and_grid():
    spec = parse_scenario(SCRIPTED)
    samples = list(simulate(spec))
    assert [s.t for s in samples] == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]


def test_invalid_specs_rejected():
    with pytest.raises(ScenarioError):
        ScenarioSpec(mode="scripted")  # no script rows
    with pytest.raises(ScenarioError):
        ScenarioSpec(mode="stochastic", tick_s=0.0)
    with pytest.raises(ScenarioError):
        ScenarioSpec(mode="stochastic", duration_s=5.0, tick_s=10.0)
    with pytest.raises(ScenarioError):
        ParamRange(40.0, 20.0)
    with pytest.raises(ScenarioError):
        ScenarioSpec(mode="scripted",
                     script=(ScriptRow(0.0, 30.0, 1015.0, 25.0, 2),))


def test_bundled_hour_scenario_hits_anchor_statistics():
    spec = load_bundled_scenario("paper_hour")
    samples = list(simulate(spec))
    assert len(samples) == 360

    temps = [s.temperature for s in samples]
    press = [s.pressure for s in samples]
    moist = [s.moisture for s in samples]

    assert max(temps) == pytest.approx(37.72, abs=1e-9)
    assert min(temps) == pytest.approx(22.04, abs=1e-9)
    assert min(press) == pytest.approx(1010.63, abs=1e-9)
    assert max(press) == pytest.approx(1024.81, abs=1e-9)
    assert sum(press) / len(press) == pytest.approx(1018.14, abs=1e-3)
    assert min(moist) == pytest.approx(12.67, abs=1e-9)
    assert max(moist) == pytest.approx(48.34, abs=1e-9)
    assert sum(moist) / len(moist) == pytest.approx(29.24, abs=1e-3)


def test_scripted_fidelity_at_every_knot():
    spec = load_bundled_scenario("paper_hour")
    for row in spec.script:
        s = sample_at(spec, row.t)
        assert (s.temperature, s.pressure, s.moisture, s.rain) == (
            row.temperature, row.pressure, row.moisture, row.rain)


def test_bundled_scenario_peaks_at_expected_minutes():
    spec = load_bundled_scenario("paper_hour")
    samples = list(simulate(spec))
    peak = max(samples, key=lambda s: s.temperature)
    trough = min(samples, key=lambda s: s.temperature)
    assert peak.t == pytest.approx(180.0)          # around minute 3
    assert 240.0 <= trough.t <= 300.0              # minutes 4..5
