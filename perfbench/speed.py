"""Machine-speed normalization of op times.

Machine speed on a shared host drifts between regimes that differ by up to
about 2x and last seconds to tens of seconds, far more than the differences
the benchmark has to resolve.  So a worker times a fixed calibration snippet
after set-up, before any op once CAL_INTERVAL_S has passed since the last
calibration, and after every round, and scales each op time by CAL_REF_S
over the mean of the two calibrations around it.  Normalized times read as
seconds on a machine where the snippet takes CAL_REF_S; the raw times are
kept next to them.
"""

import time
from time import perf_counter

CAL_REF_S = 0.0025
CAL_INTERVAL_S = 0.1


def _snippet():
    # interpreter-bound and independent of trusskit: tuples, hashing,
    # dicts, frozensets and keyed sorting, the staples of the library
    counts = {}
    acc = 0
    for i in range(2000):
        t = (i % 97, (i * 7) % 31, str(i % 13))
        counts[t] = counts.get(t, 0) + 1
        acc += len(frozenset((t, (t[0],), i % 5)))
    return acc + len(sorted(counts, key=lambda k: (k[1], k[0])))


def calibrate() -> float:
    """Best of three timings of the snippet."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _snippet()
        best = min(best, perf_counter() - t0)
    return best


class Speed:
    """Appends the normalized time to each op ([task, name, raw s, ok])
    recorded since the last calibration."""

    def __init__(self, ops):
        self.ops = ops
        self.done = 0
        self.last = calibrate()
        self.at = time.monotonic()
        self.samples = [self.last]

    def due(self) -> bool:
        return time.monotonic() - self.at >= CAL_INTERVAL_S

    def close(self):
        now = calibrate()
        factor = CAL_REF_S / ((self.last + now) / 2)
        for op in self.ops[self.done:]:
            op.append(op[2] * factor)
        self.done = len(self.ops)
        self.last = now
        self.at = time.monotonic()
        self.samples.append(now)
