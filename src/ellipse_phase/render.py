"""Domain-coloring phase portraits written as binary PPM (P6) files.

Pixel hue encodes the phase, mapped linearly from (-pi, pi] onto the HSV hue
circle: hue = (phase + pi) / (2*pi), full saturation.  With modulus contours
enabled the value channel carries the fractional part of log|f|, dimmed into
[0.7, 1.0].  Zeros render black, poles white.  Bytes are fully deterministic:
channel = round(255 * component).
"""

from __future__ import annotations

import cmath
import enum
import math

from .errors import IoFailure, Value
from .weierstrass import LogValue


#: Most pixels a portrait may have; the bytes are built in memory.
MAX_PIXELS = 4096 * 4096


class Coloring(str, enum.Enum):
    PHASE_HUE = "phase"
    PHASE_HUE_MODULUS = "phase-mod"


class RenderSpec(Value):
    """Rectangular region, pixel resolution, coloring mode, and output path."""

    __slots__ = ("center", "width", "height", "width_px", "height_px", "coloring", "output_path")

    def __init__(
        self,
        center: complex,
        width: float,
        height: float,
        width_px: int,
        height_px: int,
        coloring: Coloring = Coloring.PHASE_HUE,
        output_path: str = "portrait.ppm",
    ):
        if width_px < 1 or height_px < 1:
            raise ValueError("resolution must be >= 1 pixel in each dimension")
        if width_px * height_px > MAX_PIXELS:
            raise ValueError(f"resolution must have at most MAX_PIXELS = {MAX_PIXELS} pixels")
        if not cmath.isfinite(center):
            raise ValueError(f"center must be finite, got {center!r}")
        for name, value in (("width", width), ("height", height)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        super().__init__(center, width, height, width_px, height_px, coloring, output_path)


def _pixel_rgb(value, coloring: Coloring) -> tuple[int, int, int]:
    if not isinstance(value, LogValue):  # a PoleValue
        return (255, 255, 255)
    if value.is_zero():
        return (0, 0, 0)
    hue = (value.phase + math.pi) / (2.0 * math.pi)
    v = 1.0
    if coloring is Coloring.PHASE_HUE_MODULUS and math.isfinite(value.log_mag):
        v = 0.7 + 0.3 * (value.log_mag - math.floor(value.log_mag))
    # colorsys.hsv_to_rgb(hue % 1.0, 1.0, v) with the same operations at s = 1,
    # where its p = v*(1 - s) is 0
    h6 = hue % 1.0 * 6.0
    i = int(h6)
    f = h6 - i
    q = int(255 * (v * (1.0 - f)) + 0.5)
    t = int(255 * (v * (1.0 - (1.0 - f))) + 0.5)
    v = int(255 * v + 0.5)
    i %= 6
    if i == 0:
        return (v, t, 0)
    if i == 1:
        return (q, v, 0)
    if i == 2:
        return (0, v, t)
    if i == 3:
        return (0, q, v)
    if i == 4:
        return (t, 0, v)
    return (v, 0, q)


def render_pixels(fval, spec: RenderSpec) -> bytes:
    """Row-major RGB bytes; row 0 holds the largest imaginary parts."""
    data = bytearray()
    xs = [
        spec.center.real - spec.width / 2 + (col + 0.5) * spec.width / spec.width_px
        for col in range(spec.width_px)
    ]
    for row in range(spec.height_px):
        y = spec.center.imag + spec.height / 2 - (row + 0.5) * spec.height / spec.height_px
        for x in xs:
            data.extend(_pixel_rgb(fval(complex(x, y)), spec.coloring))
    return bytes(data)


def render_phase_portrait(fval, spec: RenderSpec) -> None:
    """Evaluate fval on the pixel grid and write a P6 PPM to spec.output_path."""
    pixels = render_pixels(fval, spec)
    header = f"P6\n{spec.width_px} {spec.height_px}\n255\n".encode("ascii")
    try:
        with open(spec.output_path, "wb") as fh:
            fh.write(header)
            fh.write(pixels)
    except OSError as exc:
        raise IoFailure(f"cannot write {spec.output_path}: {exc}") from exc
