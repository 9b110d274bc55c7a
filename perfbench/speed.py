"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on a shared 2-core machine whose speed drifts by 10-25%
over tens of seconds as neighbouring work comes and goes; CPU time drifts
with wall time, so no per-process clock avoids it.  A fixed probe that does
not touch kguess runs between the timed operations: one bare interpreter
process (``python -S -c pass``) and a few hundred small numpy calls.  Of
seven candidate probes this one tracked the slowdowns of every workload best
(README.md, "Steadiness").  Its mean time against ``REFERENCE_S``, the time
it takes on this machine when the machine is quiet, is the run's slowdown
factor, and the gated timings are divided by it.  A change to kguess moves
the scaled figures as much as the raw ones, since the probe does not run
kguess.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

REFERENCE_S = 10.0e-3  # one probe on the quiet reference machine (see README)
EVERY_S = 0.1  # seconds of timed operations between two probes

_BARE = [sys.executable, "-S", "-c", "pass"]
_SMALL = np.random.default_rng(20_211_108).random(48)


def probe() -> float:
    """Seconds one calibration probe took."""
    start = perf_counter()
    subprocess.run(_BARE, check=True)
    for _ in range(300):
        float(np.sum(np.sort(_SMALL) * 0.5))
    return perf_counter() - start


class Speed:
    """Probes run between timed operations, and the slowdown they show."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._since = 0.0

    def after(self, op_seconds: float) -> None:
        """Called after each timed operation; runs a probe every EVERY_S."""
        self._since += op_seconds
        if self._since >= EVERY_S:
            self._since = 0.0
            self.times.append(probe())

    def sample(self, probes: int = 1) -> float:
        """Run ``probes`` probes now and return their slowdown factor."""
        new = [probe() for _ in range(probes)]
        self.times.extend(new)
        return sum(new) / len(new) / REFERENCE_S

    @property
    def factor(self) -> float:
        """Mean probe time over the reference: above 1 on a slower machine."""
        return sum(self.times) / len(self.times) / REFERENCE_S
