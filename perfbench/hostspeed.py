"""How fast this host runs Python right now, relative to a fixed reference.

The benchmark shares its machine with other tenants, whose load moves
this host's speed by up to 2x within minutes: on the 2-core box the
benchmark was tuned on, one ``campaign_wide`` campaign ran at 907 to
1818 ticks/s within two and a half minutes.  So while a campaign runs,
the benchmark's own process times a fixed interpreter-bound kernel
every quarter second, and the time metrics are reported at reference
speed: divided (throughput) or multiplied (times) by the mean sample.
On that box this cut the spread of ``ticks_per_s`` over five seeds
from 0.16 to 0.05 on ``campaign_wide`` and from 0.18 to 0.12 on
``fleet_stock``.

The samples are taken while the campaign runs because the speed moves
too fast for readings taken between campaigns: idle readings 0.2 s
apart on that box swung between 0.67 and 1.33 within a second, and
normalising by readings taken right before and after each campaign
left the spread of ``ticks_per_s`` no better than the raw one (0.12
against 0.05 on ``fleet_stock``).  The kernel runs in the benchmark's
own process, which never imports ``repro``; the program can reach the
reading only by contending for the machine.  A paired check on that
box found no such effect.  Campaigns of the program and of two copies
slowed on purpose, one with extra interpreter work per tick and one
with a 6 MB cache sweep per tick, ran interleaved one by one (14 rounds
on ``campaign_wide``, 10 on ``fleet_stock``).  The mean host-speed
reading under a slowed copy stayed within 1.2 standard errors of the
program's (at most 6% off), and the slowed copies' mean raw and
normalised ``ticks_per_s`` ratios agreed within 0.015, except for the
interpreter-work copy on ``campaign_wide``: 0.88 +- 0.04 raw against
0.83 +- 0.01 normalised.

Set-up time is mostly importing numpy and scipy, which the kernel
tracks badly: scaled by it, the median set-up time moved by up to 40%
between sets of runs.  So set-up time is scaled by :func:`import_speed`
instead, a fresh interpreter importing the same libraries right before
each campaign.  On that box, three sets of 12-14 readings taken 5-20
minutes apart gave raw set-up medians of 0.98-1.44 s (kernel-scaled
0.85-1.00 in the two sets that had it) and set-up over probe medians
of 2.41-2.50.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# One sample: about 15 ms at reference speed, so sampling every quarter
# second while a campaign runs costs about 6% of one core.
SAMPLE_ITERATIONS = 40_000
# Kernel iterations per CPU-second that count as speed 1.0: a fixed
# scale (the 2-core box measured between 0.4 and 1.3 of it).
REFERENCE_RATE = 2.5e6
# What the import probe takes on the reference host, in seconds: a fixed
# scale (the 2-core box measured 0.4 to 0.6).
REFERENCE_IMPORT_S = 0.4
# Timed from inside the interpreter, like a campaign's set-up time.
IMPORT_PROBE = (
    "import time; started = time.perf_counter(); import numpy, scipy.special; "
    "print(time.perf_counter() - started)"
)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _step(point: _Point, table: dict, key: int) -> float:
    point.x = point.x * 0.999 + key
    table[key] = table.get(key, 0.0) + point.x
    return point.y + table[key] * 1e-9


def kernel(iterations: int) -> float:
    """Attribute, dict, call and small-array work, like the simulator's."""
    table: dict[int, float] = {}
    point = _Point(1.0, 2.0)
    vector = np.arange(16, dtype=float)
    acc = 0.0
    for i in range(iterations):
        acc += _step(point, table, i % 61)
        if i % 20 == 0:
            acc += float((vector * acc).sum()) * 1e-12
    return acc


def measure(iterations: int = SAMPLE_ITERATIONS) -> float:
    """This host's speed now, as a multiple of the reference host's.

    The rate is per second of this thread's CPU time, so a sample the
    scheduler interrupts (a fleet campaign keeps every core busy)
    still measures how fast the core runs, not how it was shared.
    """
    started = time.thread_time()
    kernel(iterations)
    return iterations / (time.thread_time() - started) / REFERENCE_RATE


def import_speed() -> float:
    """How fast this host imports numpy and scipy now, against the reference."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return REFERENCE_IMPORT_S / float(out.stdout)
