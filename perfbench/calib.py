"""Machine-speed calibration for timings on a shared host.

On the shared 2-core VM used to size this benchmark, the host's speed moves
between regimes about 1.5x apart, for seconds or minutes at a time, and
every timing moves with it.  So each timed step is followed by a fixed
pure-Python loop shaped like the Prufer kernel (sin, cos and exp per step),
run for DUTY of the step's time, and each step is scaled to reference
speed by the loops on either side of it:

    reported = raw * REFERENCE_STEP_S * (loop steps) / (loop seconds)

with both loop sums over those two loops (over a whole pass for per-layer
times).  REFERENCE_STEP_S is the loop's time per step on that VM in its
fast regime, so reported times read as seconds there.  Raw times are kept
in the result files.
"""

from __future__ import annotations

import math
import time

CHUNK = 5_000
DUTY = 0.15
MIN_SECONDS = 0.02
REFERENCE_STEP_S = 3.0e-7


def calibrate(after_seconds: float = 0.0) -> tuple[float, int]:
    """Run the loop for max(MIN_SECONDS, DUTY * after_seconds); return its
    (seconds, steps)."""
    target = max(MIN_SECONDS, DUTY * after_seconds)
    steps = 0
    th = 0.3
    start = time.perf_counter()
    while True:
        for i in range(CHUNK):
            s, c = math.sin(th), math.cos(th)
            th += 1e-4 * (c * c + (2.0 - math.exp(1e-3 * (i & 7))) * s * s)
        steps += CHUNK
        elapsed = time.perf_counter() - start
        if elapsed >= target:
            return elapsed, steps


def speed_factor(samples: list) -> float:
    """Multiplier that takes a raw time measured among `samples`, a list of
    calibrate() results, to reference speed."""
    seconds = sum(s for s, _ in samples)
    steps = sum(n for _, n in samples)
    return REFERENCE_STEP_S * steps / seconds
