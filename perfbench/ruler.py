"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the same command runs up to 1.7x slower while another
tenant loads the core, and the slow spells come and go within seconds and
last for minutes. A 40-second run cannot average that out. So the benchmark
times this loop every `INTERVAL_S` while its commands run and scales each
command's times by `REF_S` over the mean loop time sampled while that
command ran: seconds at the loop's reference speed. A change to `cit` moves the commands and leaves the loop
alone, so the scaled times move with the program and not with the host.
The raw times stay in the run record.

The loop mixes what `cit` spends its time on: Python-level enumeration of
small tuples and dicts (the chain search, the decoder), small numpy array
arithmetic with logs and contractions (entropies, descent on kernels) and
integer bit operations (hash binning). It imports nothing from `cit`, so no
change to the program can change it.

The loop runs from a `SIGALRM` handler, in the main thread between two
bytecodes of whatever command is running, so it samples the host's speed
inside long commands too. The mean is used, not the median: a command's
time grows with the share of its time spent in slow spells, and so does the
mean of loop times sampled evenly over it.
"""

from __future__ import annotations

import gc
import itertools
import signal
import statistics
import time

import numpy as np

# the loop's mean time over the first runs of the benchmark on the machine
# it was defined on (2-core Intel Xeon, Python 3.11, numpy 2.4), rounded;
# it only sets the scale of the reported times
REF_S = 0.00125
INTERVAL_S = 0.05
MIN_SAMPLES = 10  # a command shorter than this many intervals borrows its neighbours' samples

_RNG = np.random.default_rng(20130410)
_KERNEL = _RNG.dirichlet(np.ones(16), size=(4, 4))
_PMF = _RNG.dirichlet(np.ones(16)).reshape(4, 4)
_ROWS = _RNG.integers(0, 2**16, size=32, dtype=np.int64)
_MATRIX = _RNG.integers(0, 2**16, size=12, dtype=np.int64)


def run() -> float:
    """One pass of the reference loop; returns a checksum."""
    seen = {}
    for table in itertools.product(range(3), repeat=5):
        key = tuple(sorted(set(table)))
        seen[key] = seen.get(key, 0) + sum(table)
    total = float(len(seen))
    for _ in range(40):
        joint = _PMF[:, :, None] * _KERNEL
        q = joint.sum(axis=(0, 1))
        total -= float((q * np.log2(q)).sum())
        total += float(np.einsum("xyu,xy->u", _KERNEL, _PMF).max())
    for row in _ROWS:
        bits = np.bitwise_and(_MATRIX, int(row))
        total += sum(bin(int(b)).count("1") & 1 for b in bits)
    return total


class Sampler:
    """Times `run()` every `INTERVAL_S` of wall time while started.

    `spent_s` and `spent_cpu_s` sum the loop's own wall and CPU time, so a
    caller subtracts them from the intervals it times. The garbage collector
    is off while the loop runs: a collection walks the whole heap, which
    would tie the loop's time to what the program holds.
    """

    def __init__(self):
        self.times: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        run()  # first loop of a process: lazy numpy set-up
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        run()
        dt = time.perf_counter() - t0
        self.spent_cpu_s += time.process_time() - cpu0
        if enabled:
            gc.enable()
        self.times.append(dt)
        self.spent_s += dt

    def start(self) -> None:
        self.times = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if not self.times:  # a started sampling always has a sample
            self._tick(signal.SIGALRM, None)

    def speed_factor(self, first: int, end: int) -> float:
        """The factor that turns raw seconds into seconds at reference speed,
        from the samples `first` to `end - 1` of this sampling, taken while a
        command ran. Fewer than `MIN_SAMPLES` are widened evenly to the
        nearest `MIN_SAMPLES`."""
        n = len(self.times)
        if end - first < MIN_SAMPLES:
            first = max(0, min((first + end) // 2 - MIN_SAMPLES // 2, n - MIN_SAMPLES))
            end = min(n, first + MIN_SAMPLES)
        return REF_S / statistics.fmean(self.times[first:end])
