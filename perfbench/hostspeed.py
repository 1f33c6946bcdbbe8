"""Gauge the host's speed while the program runs, and scale timings by it.

The benchmark host is a few cores of a shared machine.  Its speed for the
same work swings by 20% and more, on every time scale from a fraction of a
second to minutes, as other tenants come and go, so a raw wall time mostly
measures the neighbours.  ``SpeedSampler`` samples that speed *during* a
timed call: a timer signal interrupts the call every ``INTERVAL_S`` and the
handler times a fixed snippet of reference work.  The snippet gets slower
when the host does, and the call's time (net of the handler's) is scaled by
the snippet's speed over the same interval, relative to its nominal speed.

The snippet has up to three parts, each timed on its own: interpreter-bound
Python, numpy calls on an array of length 100, and numpy streaming over an
array of 64k elements.  Kinds of work slow down by different amounts when
the host is busy, so each timed call names the parts that resemble its own
work (``workloads.Op.speed_parts``), and its speed is the geometric mean of
theirs.  The snippet does not touch ``lqpower``, so a change to the program
does not move it.  On a 2-vCPU Xeon VM, scaling cut the spread of one
operation's time over repeats from 11-24% to 3-9%.

The handler's time is taken out of the call's, but its interruptions still
cost the program some cache refills; that cost is nearly the same on every
run and is part of the scaled time.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

INTERVAL_S = 0.05

# Median time of each snippet part on the machine the baseline was measured
# on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).  They only set the scale
# of scaled times, so that those read close to seconds there.
NOMINAL_S = {"python": 0.45e-3, "small_arrays": 0.45e-3, "large_arrays": 0.55e-3}

PY_STEPS = 5_000
SMALL_CALLS = 120
LARGE_LEN = 1 << 16


def combined(part_speeds: dict[str, float]) -> float:
    """One speed from the part speeds: their geometric mean."""
    logs = [math.log(v) for v in part_speeds.values()]
    return math.exp(sum(logs) / len(logs))


class SpeedSampler:
    """Context manager: samples the host's speed while it is active.

    ``parts`` names the snippet parts to run (keys of NOMINAL_S): those that
    resemble the timed work.  The set-up probe, whose timing includes
    importing numpy, runs only "python".  Not reentrant; main thread only.
    """

    def __init__(self, parts: tuple[str, ...]):
        self.parts = parts
        self.samples: list[tuple[float, ...]] = []
        self.spent = 0.0   # seconds spent in the handler
        if "small_arrays" in parts or "large_arrays" in parts:
            import numpy
            self._np = numpy
            self._small = numpy.linspace(0.0, 1.0, 100)
            self._large = numpy.linspace(0.0, 1.0, LARGE_LEN)
        self._old = None

    def _python(self) -> None:
        s = 0
        for i in range(PY_STEPS):
            s += i * i

    def _small_arrays(self) -> None:
        np, a = self._np, self._small
        for _ in range(SMALL_CALLS):
            a = np.minimum(a * 0.999 + 0.001, 1.0)

    def _large_arrays(self) -> None:
        b = self._large
        self._np.sqrt(b * b + 1.0) - 1.0

    def _handler(self, signum, frame) -> None:
        t_in = perf_counter()
        times = []
        for part in self.parts:
            t0 = perf_counter()
            getattr(self, "_" + part)()
            times.append(perf_counter() - t0)
        self.samples.append(tuple(times))
        self.spent += perf_counter() - t_in

    def __enter__(self) -> "SpeedSampler":
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def part_speeds(self) -> dict[str, float]:
        """Per part, the mean of nominal/sample time: the host's speed for
        that kind of work averaged over wall time (the samples are evenly
        spaced in it); 1.0 is nominal, and also the value with no samples."""
        if not self.samples:
            return {part: 1.0 for part in self.parts}
        return {part: sum(NOMINAL_S[part] / s[k] for s in self.samples)
                / len(self.samples) for k, part in enumerate(self.parts)}

    def speed(self) -> float:
        """The host's speed over the sampled interval (see ``combined``)."""
        return combined(self.part_speeds())

    def scaled(self, seconds: float) -> float:
        """seconds, measured while sampling, net of the handler's time and
        taken to nominal speed."""
        return (seconds - self.spent) * self.speed()
