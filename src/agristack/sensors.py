"""The channel field convention: one row per sensor, in field order. The gateway,
analytics and CLI derive their sensor lists, field map, labels and formats from it."""

from typing import NamedTuple


class Sensor(NamedTuple):
    name: str       # attribute name on readings and environment samples
    field: int      # channel field index the sensor is published to
    label: str      # default channel field label
    analog: bool    # read through the converter; otherwise a digital 0/1 line

    def format(self, value: float | int) -> str:
        """Wire text for a value: two decimals when analog, an integer when not."""
        return f"{value:.2f}" if self.analog else str(value)

    def parse(self, text: str) -> float | int:
        """Inverse of `format`; a digital value sent as "1.0" still reads as 1."""
        return float(text) if self.analog else int(float(text))


SENSORS = (
    Sensor("temperature", 1, "Temperature", True),
    Sensor("pressure", 2, "Pressure", True),
    Sensor("moisture", 3, "Moisture", True),
    Sensor("rain", 4, "Rain", False),
)

BY_NAME = {s.name: s for s in SENSORS}
