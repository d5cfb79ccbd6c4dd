"""Clocks that time an op and probe the host's speed around it.

This benchmark runs on a few cores of a shared host.  The cores switch
between a fast and a slow state (about 1.7x slower) every 0.1 to 1 s, and
the share of slow time drifts over minutes, while the steal time the
guest sees stays at zero: CPU time slows with wall time.  That drift
moves every timing metric, and no repetition inside one run removes
drift between runs.  So each op is timed together with a probe, fixed
work that runs no lowdin code, and its time is scaled to the probe's
nominal speed:

    corrected op time = op time * NOMINAL / mean probe time

Any change to lowdin moves the corrected time as much as the wall time.
Two clocks, one per kind of op:

* ``SampledClock`` (in-process ops): an interval timer interrupts the op
  every ``INTERVAL_S`` and runs a short probe, a few Python-level plane
  rotations on the rows of a small complex numpy array (the mix of
  interpreter work and small numpy calls that dominates these ops).  The
  probes' own time is taken out of the op time, so the probes sample the
  host's state during the op itself, not only at its ends.
* ``ProcessClock`` (CLI child processes and set-up samples): a fresh
  interpreter running ``pass`` is timed before and after the child (the
  mix of process start, dynamic loading and unmarshalling that dominates
  the children).

``WallClock`` times without probes; the traced run uses it.  NOMINAL is
each probe's typical time during this benchmark's runs on a 2-vCPU Xeon,
so corrected times read as milliseconds on that host.  Probes inside an
op run about 4 % slower than probes just outside it, because the op's
data displaces theirs from cache.
"""

import math
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
NOMINAL_S = {"sampled": 0.00040, "process": 0.055}
_ROTATIONS = 40
_START = np.eye(24, dtype=np.complex128) + 0.01


def rotation_probe() -> float:
    """Seconds for a fixed sequence of plane rotations on a small array."""
    start = perf_counter()
    a = _START.copy()
    size = a.shape[0]
    for k in range(_ROTATIONS):
        p, q = k % (size - 1), (k * 7) % (size - 1) + 1
        c, s = math.cos(k * 1e-3), math.sin(k * 1e-3)
        row_p, row_q = a[p].copy(), a[q].copy()
        a[p] = c * row_p - s * row_q
        a[q] = s * row_p + c * row_q
    return perf_counter() - start


class WallClock:
    """Wall time only: ``stop`` returns (seconds, None)."""

    def start(self) -> None:
        self._start = perf_counter()

    def stop(self) -> tuple:
        return perf_counter() - self._start, None


class SampledClock:
    """Op time without the probes, and the mean probe time before, during and after."""

    nominal = NOMINAL_S["sampled"]

    def start(self) -> None:
        self._samples = [rotation_probe()]
        self._probing = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()

    def _sample(self, signum, frame) -> None:
        begin = perf_counter()
        self._samples.append(rotation_probe())
        self._probing += perf_counter() - begin

    def stop(self) -> tuple:
        elapsed = perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._samples.append(rotation_probe())
        return elapsed - self._probing, statistics.mean(self._samples)


class ProcessClock:
    """Wall time of a child process, and the mean of the start-up probes around it.

    With ``chain`` the probe after one child is the probe before the next,
    for children that follow each other closely.
    """

    nominal = NOMINAL_S["process"]

    def __init__(self, cwd, env, chain: bool):
        self._cwd, self._env, self._chain = cwd, env, chain
        self._last = None

    def _probe(self) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=self._cwd, env=self._env, check=True)
        return perf_counter() - start

    def start(self) -> None:
        self._before = self._last if self._chain and self._last is not None else self._probe()
        self._start = perf_counter()

    def stop(self) -> tuple:
        elapsed = perf_counter() - self._start
        self._last = self._probe()
        return elapsed, (self._before + self._last) / 2.0
