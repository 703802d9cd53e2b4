"""Host speed reference: scales the benchmark's timings to one fixed speed.

The benchmark runs on a few cores of a shared host, whose speed for one
single-threaded Python process changes by up to 1.8x from one second to the
next, as other tenants load the same physical cores. Process CPU time moves
with it, so it is no steadier than wall time, and a reference timed only
before and after a multi-second op misses most of the changes during it.

So each timed part of the benchmark runs inside ``Sampled``: a timer
signal interrupts the part every SAMPLE_EVERY_S seconds to time one run of a
fixed piece of the benchmark's own work, the reference, in the same process.
The part's time is its wall time less the samples', scaled by the
reference's nominal time over its mean sample: the part's time on a host
that runs the reference in its nominal time. The references do the kinds
of work the program does: a string-keyed dict of multi-lane integers
updated in a scattered order, a set of names, 64k-bit integers like the
trigger sweep's and, in MIXED, a loop of small-integer arithmetic. Each is
chosen so that a busy host slows it about as much as it slows the ops it
scales. They call no kecscope code: a change to the program cannot move
them.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

SAMPLE_EVERY_S = 0.15

_NETS = 5000
_NAMES = [f"n{i}_q" for i in range(_NETS)]
_ORDER = list(range(_NETS))
random.Random(5).shuffle(_ORDER)
_LANES512 = (1 << 512) - 1
_LANES64K = (1 << 65536) - 1


def _dense_work() -> int:
    values = {n: (i * 0x9E3779B97F4A7C15) & _LANES512
              for i, n in enumerate(_NAMES)}
    for j in _ORDER[:3500]:
        a = _NAMES[j]
        b = _NAMES[(j * 7 + 1) % _NETS]
        c = _NAMES[(j * 13 + 5) % _NETS]
        values[a] = (values[b] & values[c]) ^ values[a]
    word = _LANES64K
    for _ in range(25):
        word = (word ^ (word >> 1)) & _LANES64K
    names = {_NAMES[j] for j in _ORDER[:2500]}
    return len(names) + word.bit_count() + len(values)


def _mixed_work() -> int:
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFF
    return _dense_work() + acc


# A reference is its work and that work's time at the nominal speed, which
# is roughly its mean sample on a 2-vCPU Xeon VM whose physical cores other
# tenants leave idle. DENSE suits ops made of multi-lane integer work (the
# sim-batch op); MIXED, with the small-integer loop, suits the CLI commands
# and the set-ups. Measured on ops of each kind, the scaled time changed
# with the host's speed as the wall time to the power 0.98 (DENSE on
# sim-batch) and 0.88-1.04 (MIXED on analyze, inject, simulate); DENSE on
# the CLI commands gave 0.69-0.80 and MIXED on sim-batch 1.16.
DENSE = (_dense_work, 0.0025)
MIXED = (_mixed_work, 0.004)


def reference_s(reference=MIXED) -> float:
    """Wall time of one run of a reference's work."""
    work, _ = reference
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


class Sampled:
    """Times the body of a ``with`` block at the nominal speed, sampling
    ``reference`` (DENSE or MIXED).

    After the block, ``wall_s`` is its wall time, samples excluded, and
    ``scaled_s`` that time at the nominal speed. The reference also runs
    once before and once after the block, so every block has samples.
    Main thread only: the samples run in a SIGALRM handler.
    """

    def __init__(self, reference=MIXED):
        self.reference = reference

    def _sample(self, *_):
        self.samples.append(reference_s(self.reference))

    def __enter__(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._t0
        inside = sum(self.samples[1:])      # the first ran before the block
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.wall_s = wall - inside
        self.reference_s = statistics.fmean(self.samples)
        self.scaled_s = self.wall_s * self.reference[1] / self.reference_s
        return False


reference_s()           # warm-up: the first run pays for allocations
