"""Host speed sampled while code runs, so that its time reads at a fixed speed.

The benchmark was written on a 2-core share of a shared host (Intel Xeon,
KVM guest, no steal time reported) whose speed for a fixed pure-Python loop
drifts by up to 1.6x, in phases from seconds to minutes long, with the load
of other tenants. A run of a minute or less cannot average that out, and CPU
time drifts with it. So while a batch (or a worker's set-up) runs, a timer
interrupts it every INTERVAL_S and times `reference()`, a fixed loop of
integer arithmetic that calls no boolform code and allocates no object the
garbage collector tracks. Each stretch of program time between two samples is
scaled by REFERENCE_S / (the sample's reference time), and the scaled
stretches add up to the time at the speed at which `reference()` takes
REFERENCE_S. The time spent in the samples is left out of both the measured
and the scaled time.

On that host, over 10-40 consecutive batches, this cut the spread of batch
times (standard deviation over mean) from 0.14 to 0.05 on `exact` and of
set-up times from 0.09 to 0.05. A program change cannot move the reference
loop, so a regression in it still shows in full; what the scaling removes is the
host's drift.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
# about the lower quartile of reference() on the host named above, so that
# scaled times there read close to seconds in its faster phases; any constant
# works, it only sets the speed that scaled times are expressed at
REFERENCE_S = 0.0008

_MODULUS = (1 << 521) - 1
_MULTIPLIER = 0x9E3779B97F4A7C15F39CC0605CEDC8341082276BF3A27251F86C6A11D0C18E95


def reference() -> int:
    """A fixed amount of interpreter and big-integer work."""
    a, s = _MULTIPLIER, 0
    for i in range(800):
        a = (a * _MULTIPLIER + i) % _MODULUS
        s ^= a & 0xFFFF
    return s


class SpeedProbe:
    """Context manager that samples host speed while its body runs.

    After the body: `measured_s` is the body's time without the samples,
    `scaled_s` that time at the reference speed, `samples` the reference
    times taken and `sampling_s` the time spent taking them.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.measured_s = 0.0
        self.scaled_s = 0.0
        self.sampling_s = 0.0
        self._segment_start = 0.0
        self._previous_handler = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        self._close_segment(t0, t1 - t0)
        self.samples.append(t1 - t0)
        self.sampling_s += t1 - t0
        self._segment_start = t1

    def _close_segment(self, end: float, reference_s: float) -> None:
        segment = end - self._segment_start
        self.measured_s += segment
        self.scaled_s += segment * REFERENCE_S / reference_s

    def __enter__(self) -> "SpeedProbe":
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        self._segment_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        # the last stretch is scaled by the last sample, or by one taken now
        if self.samples:
            self._close_segment(end, self.samples[-1])
        else:
            t0 = time.perf_counter()
            reference()
            self._close_segment(end, time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """scaled_s / measured_s: above 1 when the host ran faster."""
        return self.scaled_s / self.measured_s if self.measured_s else 1.0
