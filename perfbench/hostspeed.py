"""Host-speed probe: expresses measured times at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.5x over minutes as other tenants load it; steal time stays near
zero, so the program's own CPU time drifts with it. A run of 30 s lands in
a fast or a slow spell, and raw timings of the same work spread by 10-35 %
from run to run, more than any bound that can catch a regression.

A probe is a fixed pure-Python loop of about 25 ms, which contains no mvor
code, so no change to the program can move it. The benchmark probes at both
ends of every timed piece of work (each scene, at the scene boundaries, and
each set-up) and scales its time by ``REFERENCE_S / mean(the two probes)``:
the time the work would have taken with the host at the speed where the
probe takes ``REFERENCE_S``. Back to back, two probes differ by about 2 %.
On the 2-core baseline host, with one pose-ablation scene pair run over
and over for four minutes, the coefficient of variation of 30 s means was
9.8 % raw, 5.2 % scaled with probes around each pair and 3.5 % with probes
around each scene; on completion-noisy (one scene a call) it fell from
9 % to 3 %.

The program's speed does not track the probe exactly (its numpy-heavy
parts slow less than a Python loop, and fluctuations shorter than a scene
are not seen), so the scaled times keep a few per cent of the host's
drift; the raw times are printed beside them in the run's details.
"""

from __future__ import annotations

import gc
import time

# Probe duration taken as the reference speed: the probe's median over
# five minutes on the 2-core host of the baseline.
REFERENCE_S = 0.025
PROBE_ITERATIONS = 400_000


def probe() -> float:
    """Seconds taken by the fixed reference loop, garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc = 0
        for j in range(PROBE_ITERATIONS):
            acc += j & 7
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into a time at
    the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
