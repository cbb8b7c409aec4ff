"""Host-speed correction for benchmark timings.

On a shared machine the same op can take up to twice as long for
seconds to minutes at a time, because other tenants load the host.  A
median over one run cannot remove that, since whole runs land in slow
or fast periods.  `HostSpeed` times a fixed reference kernel, which does
not touch fieldtomo, before and after every timed op, and divides the
op's latency by the kernel's mean slowdown over those two samples.
Each sample is the faster of two kernel runs, so that a single slow run
(a stall, not a slow period) does not count.  `REF_KERNEL_S` fixes the
scale: an adjusted time reads as seconds on a host where the kernel
takes `REF_KERNEL_S`, which is about its time on a quiet 2-core Xeon
(2.0 GHz).

Starting an interpreter and importing packages slows down for other
reasons than computing does (process creation, page faults, file
reads), and the kernel does not track it.  Each set-up probe is
therefore scaled like an op, by `START_REFERENCE`, a fresh interpreter
that only imports numpy, timed before and after the probe;
`REF_START_S` is its time on the same quiet host.
"""

from __future__ import annotations

import time

import numpy as np

REF_KERNEL_S = 0.007
REF_START_S = 0.11
START_REFERENCE = ("-c", "import time, numpy; print(repr(time.monotonic()))")


class HostSpeed:
    def __init__(self) -> None:
        self._signal = np.random.default_rng(0).normal(size=4096)
        self.samples: list[float] = []
        self._last = self.sample()

    def _kernel(self) -> float:
        """Seconds for the reference kernel: FFTs plus many small-array reads."""
        start = time.perf_counter()
        total = 0.0
        for _ in range(10):
            spectrum = np.fft.fft(self._signal)
            for k in range(200):
                total += float(np.sum(spectrum[k:k + 9].real))
        return time.perf_counter() - start

    def sample(self) -> float:
        elapsed = min(self._kernel(), self._kernel())
        self.samples.append(elapsed)
        return elapsed

    def adjust(self, seconds: float) -> float:
        """Adjust an interval that ended just now; samples the kernel again."""
        before, self._last = self._last, self.sample()
        return seconds * 2.0 * REF_KERNEL_S / (before + self._last)
