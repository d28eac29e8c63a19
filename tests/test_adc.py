from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agristack import adc
from agristack.adc import (CODE_MAX, DEFAULT_MAPS, FULL_SCALE, MOISTURE_MAP,
                           PRESSURE_MAP, TEMPERATURE_MAP, SignalRangeError,
                           SpiFrame, convert_units, decode, from_voltage,
                           parse_frame, quantize, spi_transaction, to_voltage)

VREF = adc.VREF_DEFAULT


def test_temperature_zero_maps_to_zero_volts():
    assert to_voltage(0.0, TEMPERATURE_MAP) == pytest.approx(0.0, abs=1e-12)


def test_temperature_25c_maps_to_quarter_volt():
    # arithmetic oracle: 25 * 0.01 = 0.25
    assert to_voltage(25.0, TEMPERATURE_MAP) == pytest.approx(25 * 0.01)


def test_moisture_full_scale_hits_vref():
    assert to_voltage(100.0, MOISTURE_MAP) == pytest.approx(VREF)


def test_out_of_domain_quantity_rejected():
    with pytest.raises(SignalRangeError):
        to_voltage(400.0, TEMPERATURE_MAP)
    with pytest.raises(SignalRangeError):
        to_voltage(900.0, PRESSURE_MAP)


def test_transfer_function_must_increase():
    with pytest.raises(ValueError):
        adc.TransferFunction("x", 0.0, -1.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        adc.TransferFunction("x", 0.0, 10.0, (0.0, 100.0))  # escapes the rail


def test_quantize_endpoints():
    assert quantize(0.0) == 0
    assert quantize(VREF) == CODE_MAX        # clamped at full scale
    assert quantize(-0.5) == 0
    assert quantize(VREF * 2) == CODE_MAX


def test_quantize_midpoint():
    # floor(0.5 * 4096) = 2048
    assert quantize(VREF / 2, VREF) == 2048


def test_quantize_requires_positive_vref():
    with pytest.raises(ValueError):
        quantize(1.0, 0.0)


def test_decode_code_zero_is_half_lsb():
    # 0.5 * 3.3 / 4096
    assert decode(0) == pytest.approx(0.5 * VREF / FULL_SCALE)
    assert decode(0) == pytest.approx(0.000402832, abs=1e-9)


def test_decode_code_2048():
    assert decode(2048) == pytest.approx(2048.5 * VREF / FULL_SCALE)


def test_decode_rejects_bad_codes():
    with pytest.raises(ValueError):
        decode(-1)
    with pytest.raises(ValueError):
        decode(4096)


def test_round_trip_error_within_half_lsb():
    rng = random.Random(2024)
    bound = VREF / 8192
    for _ in range(10_000):
        v = rng.uniform(0.0, VREF)
        err = abs(decode(quantize(v)) - v)
        assert err <= bound + 1e-15


@settings(max_examples=300, deadline=None)
@given(v=st.floats(min_value=0.0, max_value=VREF, allow_nan=False))
def test_round_trip_property(v):
    assert abs(decode(quantize(v)) - v) <= VREF / 8192 + 1e-15


@settings(max_examples=300, deadline=None)
@given(v1=st.floats(min_value=0.0, max_value=VREF),
       v2=st.floats(min_value=0.0, max_value=VREF))
def test_quantize_monotonic(v1, v2):
    lo, hi = sorted((v1, v2))
    assert quantize(lo) <= quantize(hi)


@pytest.mark.parametrize("name,tolerance", [
    ("temperature", 0.0806),
    ("pressure", 0.0245),
    ("moisture", 0.0245),
])
def test_end_to_end_unit_error_within_one_lsb(name, tolerance):
    tf = DEFAULT_MAPS[name]
    rng = random.Random(hash(name) & 0xFFFF)
    lo, hi = tf.domain
    for _ in range(2_000):
        q = rng.uniform(lo, hi)
        assert abs(convert_units(q, tf) - q) <= tolerance
    # the implied LSB width, one code's volts in the sensor's unit, matches
    # the documented tolerances
    assert (tf.vref / FULL_SCALE) / tf.volts_per_unit <= tolerance + 1e-4


def test_from_voltage_inverts_to_voltage():
    for tf in DEFAULT_MAPS.values():
        lo, hi = tf.domain
        mid = (lo + hi) / 2
        assert from_voltage(to_voltage(mid, tf), tf) == pytest.approx(mid)


def test_spi_frame_zero_sample_has_clear_data_bits():
    frame = spi_transaction(0, 0)
    assert frame.response[1] & 0x0F == 0
    assert frame.response[2] == 0
    assert parse_frame(frame) == (0, 0)


def test_spi_frame_full_scale_all_ones():
    frame = spi_transaction(7, 4095)
    assert frame.response[1] & 0x0F == 0x0F
    assert frame.response[2] == 0xFF
    assert parse_frame(frame) == (7, 4095)


def test_spi_frame_known_pattern():
    frame = spi_transaction(3, 0b1010_1010_1010)
    assert parse_frame(frame) == (3, 2730)


def test_spi_rejects_bad_channel_and_code():
    with pytest.raises(ValueError):
        spi_transaction(8, 0)
    with pytest.raises(ValueError):
        spi_transaction(-1, 0)
    with pytest.raises(ValueError):
        spi_transaction(0, 4096)


def test_parse_frame_validates_fixed_bits():
    good = spi_transaction(2, 100)
    bad_start = SpiFrame((0b1000_0110, good.request[1], 0), good.response)
    with pytest.raises(ValueError):
        parse_frame(bad_start)
    bad_null = SpiFrame(good.request, (0, 0x10, 0))
    with pytest.raises(ValueError):
        parse_frame(bad_null)
    bad_pad = SpiFrame((good.request[0], good.request[1] | 0x01, 0), good.response)
    with pytest.raises(ValueError):
        parse_frame(bad_pad)


def test_frame_bijective_over_all_channels_and_codes():
    for channel in range(8):
        for code in range(FULL_SCALE):
            assert parse_frame(spi_transaction(channel, code)) == (channel, code)
