"""Host-speed reference: scales measured times to a fixed host speed.

The CPU this benchmark shares runs at two speeds that alternate every few
seconds to tens of seconds (about 1.45x apart on the 2-vCPU sandbox where the
benchmark was written), whatever this process does.  Run-level medians
therefore move by ~20% between runs of the same code.  To take that out,
`HostSpeed` times a fixed reference between ops, at most every `INTERVAL`
seconds: exact Fraction term-dict multiplication, the kind of work the
program's kernel does, but none of the program's code.  A duration that
starts at t is multiplied by `(NOMINAL / m) ** exponent`, where m is the
median of the reference samples within `WINDOW` seconds of t: the time it
would have taken on a host that runs the reference in `NOMINAL` seconds (the
fast mode above).  The exponent is 1 for Python work.  Starting a `python`
process and importing the program stretches less in the slow mode, because
it is partly kernel and file work: its exponent is 1/2, the value that made
same-code runs of the `cli` workload agree best on the sandbox.  So a
process op is scaled in two parts, its first `startup` seconds (at the
current speed) with exponent 1/2 and the rest with exponent 1.  Raw times are
printed and recorded beside the scaled ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

INTERVAL = 0.2
WINDOW = 0.5
NOMINAL = 0.0015  # the reference's fast-mode time on the sandbox above
STARTUP_EXPONENT = 0.5

_rng = random.Random(20100630)
_BASE = {tuple(_rng.randint(0, 3) for _ in range(4)):
         Fraction(_rng.choice((-7, -5, -3, -1, 1, 2, 4, 6)), _rng.randint(1, 6))
         for _ in range(8)}


def _mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(key, 0) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def reference_seconds() -> float:
    """Median time of three runs of a fixed Fraction multiplication."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _mul(_mul(_BASE, _BASE), _BASE)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Reference samples taken between ops; see the module docstring."""

    def __init__(self):
        self.times, self.samples = [], []
        self.sample()

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.samples.append(reference_seconds())

    def due(self) -> None:
        if time.perf_counter() - self.times[-1] >= INTERVAL:
            self.sample()

    def scale(self, seconds: float, t: float, startup: float = 0.0) -> float:
        """`seconds` started at t, at the reference host's speed.

        `startup` is the reference-host time of the process start that
        begins the op (0 for in-process ops).
        """
        lo = bisect.bisect_left(self.times, t - WINDOW)
        hi = bisect.bisect_right(self.times, t + WINDOW)
        speedup = NOMINAL / statistics.median(
            self.samples[lo:hi] or [self.samples[max(hi - 1, 0)]])
        head = min(seconds, startup / speedup ** STARTUP_EXPONENT)
        return head * speedup ** STARTUP_EXPONENT + (seconds - head) * speedup
