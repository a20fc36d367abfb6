"""Machine-speed calibration: a fixed piece of pure-Python work.

The loop is ``Fraction`` arithmetic, set and dict building and sorting, as
the program's own work is, and it touches nothing of the program.  On a
shared host whose speed swings by 2x within seconds, a time multiplied by
``scale(cal)``, with ``cal`` a calibration time measured next to it, is
close to the time the work would take on a machine where this loop takes
``REF_CAL_S`` seconds.
"""

from fractions import Fraction
from time import perf_counter_ns

REF_CAL_S = 0.025
# The program's work slows down less than the calibration loop when the host
# is busy: over logged depth-9 runs on a shared 2-vCPU Xeon host, log(op
# time) against log(calibration time) had slopes of 0.65 to 0.9, and an
# exponent of 0.9 left the smallest run-to-run spread.
SENSITIVITY = 0.9


def scale(cal_s: float) -> float:
    """Factor that takes a time measured next to a calibration of ``cal_s``
    seconds to the reference machine."""
    return (REF_CAL_S / cal_s) ** SENSITIVITY


def calibrate() -> float:
    """Wall time of the calibration loop, in seconds."""
    t0 = perf_counter_ns()
    xs = [Fraction(i, 1031) for i in range(1, 1500)]
    for _ in range(2):
        doubled = {(2 * x) % 1 for x in xs}
        pairs = sorted((a, b) for a, b in zip(xs, xs[1:]) if a in doubled or b < Fraction(1, 2))
        {p: f"{p[0].numerator}/{p[0].denominator}" for p in pairs}
    return (perf_counter_ns() - t0) / 1e9
