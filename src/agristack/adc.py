"""Sensor transfer maps and a 12-bit converter model.

Models the analog chain between the simulated field and the gateway: a linear
transfer function per sensor (engineering unit to volts), floor quantization
to a 12-bit code, bin-midpoint reconstruction back to volts, and the 3-octet
command/response frames of the single-ended converter transaction.

Frame layout (documented for conformance tests):

  request[0] = 0 0 0 0 0 1 SGL D2    start bit, single-ended flag, channel MSB
  request[1] = D1 D0 x x x x x x     remaining channel bits, padding
  request[2] = x x x x x x x x       padding
  response[0] = undefined (0)
  response[1] = x x x 0 B11 B10 B9 B8   null bit, then data MSB-first
  response[2] = B7 ... B0
"""

from __future__ import annotations

from dataclasses import dataclass

VREF_DEFAULT = 3.3
FULL_SCALE = 4096
CODE_MAX = FULL_SCALE - 1


class SignalRangeError(ValueError):
    """Engineering value outside a transfer function's declared domain."""


@dataclass(frozen=True)
class TransferFunction:
    """Linear map between a sensor's engineering unit and volts.

    volts = offset_v + volts_per_unit * quantity, strictly increasing over
    `domain`, with both endpoints inside [0, vref].
    """

    kind: str
    offset_v: float
    volts_per_unit: float
    domain: tuple[float, float]
    vref: float = VREF_DEFAULT

    def __post_init__(self):
        if self.volts_per_unit <= 0:
            raise ValueError("transfer function must be strictly increasing")
        lo, hi = self.domain
        if lo >= hi:
            raise ValueError("empty domain")
        for endpoint in (lo, hi):
            v = self.offset_v + self.volts_per_unit * endpoint
            if not -1e-9 <= v <= self.vref + 1e-9:
                raise ValueError(
                    f"{self.kind}: domain endpoint {endpoint} maps to {v} V, "
                    f"outside [0, {self.vref}]"
                )

    @property
    def lsb_units(self) -> float:
        """Engineering-unit width of one converter code."""
        return (self.vref / FULL_SCALE) / self.volts_per_unit


def to_voltage(quantity: float, tf: TransferFunction) -> float:
    lo, hi = tf.domain
    if not lo <= quantity <= hi:
        raise SignalRangeError(
            f"{tf.kind} value {quantity} outside domain [{lo}, {hi}]"
        )
    return tf.offset_v + tf.volts_per_unit * quantity


def from_voltage(volts: float, tf: TransferFunction) -> float:
    return (volts - tf.offset_v) / tf.volts_per_unit


def quantize(volts: float, vref: float = VREF_DEFAULT) -> int:
    """Floor-quantize a voltage to a 12-bit code, clamped to [0, 4095]."""
    if vref <= 0:
        raise ValueError("vref must be positive")
    if volts <= 0:
        return 0
    return min(int(volts * FULL_SCALE / vref), CODE_MAX)


def decode(code: int, vref: float = VREF_DEFAULT) -> float:
    """Bin-midpoint voltage of a code: (code + 0.5) * vref / 4096."""
    if not 0 <= code <= CODE_MAX:
        raise ValueError(f"code {code} outside [0, {CODE_MAX}]")
    return (code + 0.5) * vref / FULL_SCALE


def convert_units(quantity: float, tf: TransferFunction) -> float:
    """Full chain: engineering value -> volts -> code -> volts -> value."""
    return from_voltage(decode(quantize(to_voltage(quantity, tf), tf.vref), tf.vref), tf)


# Default maps, chosen so the simulated field ranges sit inside the span:
# temperature 10 mV/C over 0..330 C, pressure 950..1050 hPa over the full
# rail, moisture 0..100 % over the full rail. Rain bypasses the converter
# as a digital line.
TEMPERATURE_MAP = TransferFunction("temperature", 0.0, 0.010, (0.0, 330.0))
PRESSURE_MAP = TransferFunction("pressure", -950.0 * (VREF_DEFAULT / 100.0),
                                VREF_DEFAULT / 100.0, (950.0, 1050.0))
MOISTURE_MAP = TransferFunction("moisture", 0.0, VREF_DEFAULT / 100.0, (0.0, 100.0))

DEFAULT_MAPS = {
    "temperature": TEMPERATURE_MAP,
    "pressure": PRESSURE_MAP,
    "moisture": MOISTURE_MAP,
}


@dataclass(frozen=True)
class SpiFrame:
    request: tuple[int, int, int]
    response: tuple[int, int, int]

    def __post_init__(self):
        for octet in (*self.request, *self.response):
            if not 0 <= octet <= 0xFF:
                raise ValueError(f"octet {octet} out of byte range")


def spi_transaction(channel: int, code: int) -> SpiFrame:
    """Build the request/response octets for reading `code` on `channel`."""
    if not 0 <= channel <= 7:
        raise ValueError(f"channel {channel} outside 0..7")
    if not 0 <= code <= CODE_MAX:
        raise ValueError(f"code {code} outside 0..{CODE_MAX}")
    request = (
        0b0000_0110 | (channel >> 2),
        (channel & 0b011) << 6,
        0x00,
    )
    response = (0x00, (code >> 8) & 0x0F, code & 0xFF)
    return SpiFrame(request, response)


def parse_frame(frame: SpiFrame) -> tuple[int, int]:
    """Recover (channel, code) from a frame, validating the fixed bits."""
    r0, r1, r2 = frame.request
    if r0 & 0b1111_1100 != 0b0000_0100:
        raise ValueError(f"bad request octet 0: {r0:#04x}")
    if not r0 & 0b10:
        raise ValueError("differential mode frames are not supported")
    if r1 & 0b0011_1111 or r2:
        raise ValueError("nonzero padding in request")
    channel = ((r0 & 0b1) << 2) | (r1 >> 6)

    s0, s1, s2 = frame.response
    if s1 & 0b1111_0000:
        raise ValueError("null bit region of response is not clear")
    code = ((s1 & 0x0F) << 8) | s2
    return channel, code
